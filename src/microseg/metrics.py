"""Clustering validity metrics: homogeneity, completeness, V-measure.

Homogeneity is 1 - H(C|K)/H(C) over natural-log entropies of the exact
joint counts, and 1 when the class entropy H(C) is zero. Completeness is
homogeneity with the two labelings swapped. The V-measure is their
harmonic mean, and 0 when both are 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from .flows import DataError


@dataclass(frozen=True)
class EvalReport:
    homogeneity: float
    completeness: float
    v_measure: float
    asset_qty: int
    true_group_qty: int
    suggested_group_qty: int
    run_time_seconds: float = 0.0


def homogeneity(
    true_labels: Sequence[Hashable], predicted_labels: Sequence[Hashable]
) -> float:
    """1 - H(C|K)/H(C), C the true classes and K the predicted groups;
    1.0 when every group holds a single class. Each sum runs over classes
    and (class, group) pairs in order of first appearance."""
    if len(true_labels) != len(predicted_labels):
        raise ValueError(
            f"label lists differ in length: {len(true_labels)} vs {len(predicted_labels)}"
        )
    if not true_labels:
        raise ValueError("labels must be non-empty")
    n = len(true_labels)
    h_c = -sum(count / n * math.log(count / n) for count in Counter(true_labels).values())
    if h_c == 0.0:
        return 1.0
    group_totals = Counter(predicted_labels)
    h_c_given_k = -sum(
        count / n * math.log(count / group_totals[g])
        for (_, g), count in Counter(zip(true_labels, predicted_labels)).items()
    )
    return min(1.0, max(0.0, 1.0 - h_c_given_k / h_c))


def v_measure(h: float, c: float) -> float:
    """Harmonic mean of homogeneity and completeness; 0 when both are 0."""
    if h + c == 0.0:
        return 0.0
    return 2.0 * h * c / (h + c)


def evaluate(
    groups,
    ground_truth: Mapping[str, Hashable],
    run_time_seconds: float = 0.0,
) -> EvalReport:
    """Score predicted security groups against labeled endpoints.

    Every grouped endpoint must appear in the ground truth; extra ground
    truth entries are ignored.
    """
    endpoint_group = groups.endpoint_to_group()
    endpoints = sorted(endpoint_group)
    missing = [ep for ep in endpoints if ep not in ground_truth]
    if missing:
        raise DataError(
            "ground truth missing endpoints: " + ", ".join(missing[:10])
            + ("..." if len(missing) > 10 else "")
        )
    true_labels = [ground_truth[ep] for ep in endpoints]
    pred_labels = [endpoint_group[ep] for ep in endpoints]
    h = homogeneity(true_labels, pred_labels)
    c = homogeneity(pred_labels, true_labels)
    return EvalReport(
        homogeneity=h,
        completeness=c,
        v_measure=v_measure(h, c),
        asset_qty=len(endpoints),
        true_group_qty=len(set(true_labels)),
        suggested_group_qty=groups.suggested_qty,
        run_time_seconds=run_time_seconds,
    )


REPORT_HEADER = (
    "dataset,asset_qty,group_qty,suggested_group_qty,runtime_s,"
    "homogeneity,completeness,v_measure"
)


def report_row(report: EvalReport, dataset: str) -> str:
    """One CSV row in the report format; scores as percentages with two
    decimals (IEEE round-half-even), runtime with one decimal."""
    return (
        f"{dataset},{report.asset_qty},{report.true_group_qty},"
        f"{report.suggested_group_qty},{report.run_time_seconds:.1f},"
        f"{report.homogeneity * 100:.2f},{report.completeness * 100:.2f},"
        f"{report.v_measure * 100:.2f}"
    )
