"""Clustering validity metrics: homogeneity, completeness, V-measure.

All three are ratios of natural-log entropies over the exact contingency
table, with the usual degenerate conventions: homogeneity is 1 when the
class entropy is zero, completeness is 1 when the cluster entropy is zero,
and the V-measure is 0 when homogeneity and completeness are both 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from .flows import DataError


@dataclass(frozen=True)
class ContingencyTable:
    """Joint (true class, predicted group) counts with marginals."""

    counts: dict[tuple[Hashable, Hashable], int]
    n: int
    class_totals: dict[Hashable, int]
    group_totals: dict[Hashable, int]


@dataclass(frozen=True)
class EvalReport:
    homogeneity: float
    completeness: float
    v_measure: float
    asset_qty: int
    true_group_qty: int
    suggested_group_qty: int
    run_time_seconds: float = 0.0


def contingency(
    true_labels: Sequence[Hashable], predicted_labels: Sequence[Hashable]
) -> ContingencyTable:
    if len(true_labels) != len(predicted_labels):
        raise ValueError(
            f"label lists differ in length: {len(true_labels)} vs {len(predicted_labels)}"
        )
    if not true_labels:
        raise ValueError("labels must be non-empty")
    counts: dict[tuple[Hashable, Hashable], int] = {}
    class_totals: dict[Hashable, int] = {}
    group_totals: dict[Hashable, int] = {}
    for c, g in zip(true_labels, predicted_labels):
        counts[(c, g)] = counts.get((c, g), 0) + 1
        class_totals[c] = class_totals.get(c, 0) + 1
        group_totals[g] = group_totals.get(g, 0) + 1
    return ContingencyTable(
        counts=counts,
        n=len(true_labels),
        class_totals=class_totals,
        group_totals=group_totals,
    )


def _entropy(totals: Mapping[Hashable, int], n: int) -> float:
    h = 0.0
    for count in totals.values():
        if count > 0:
            p = count / n
            h -= p * math.log(p)
    return h


def _score(table: ContingencyTable, side: int) -> float:
    """1 - H(X|Y)/H(X), where Y is the labeling at position ``side`` of each
    ``counts`` key (0 true class, 1 predicted group) and X the other one;
    1.0 when H(X) is zero."""
    marginals = (table.class_totals, table.group_totals)
    given, totals = marginals[side], marginals[1 - side]
    h_x = _entropy(totals, table.n)
    if h_x == 0.0:
        return 1.0
    h_x_given_y = 0.0
    for key, count in table.counts.items():
        if count > 0:
            h_x_given_y -= (count / table.n) * math.log(count / given[key[side]])
    return min(1.0, max(0.0, 1.0 - h_x_given_y / h_x))


def homogeneity(table: ContingencyTable) -> float:
    """1 - H(C|K)/H(C); 1.0 when every cluster holds a single class."""
    return _score(table, side=1)


def completeness(table: ContingencyTable) -> float:
    """1 - H(K|C)/H(K); 1.0 when every class lands in a single cluster."""
    return _score(table, side=0)


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
    table = contingency(true_labels, pred_labels)
    h = homogeneity(table)
    c = completeness(table)
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
