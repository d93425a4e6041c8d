import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microseg.core import DataError, SecurityGroups
from microseg.metrics import (
    REPORT_HEADER,
    EvalReport,
    evaluate,
    homogeneity,
    report_row,
    v_measure,
)


from oracles import oracle_scores


class TestHomogeneity:
    def test_perfect_match(self):
        assert homogeneity(list("AABB"), [1, 1, 2, 2]) == 1.0

    def test_singletons_are_homogeneous(self):
        assert homogeneity(list("AABB"), [1, 2, 3, 4]) == 1.0

    def test_single_cluster_is_zero(self):
        # H(C|K) equals H(C) = ln 2 when everything lands in one cluster.
        assert homogeneity(list("AABB"), [1, 1, 1, 1]) == 0.0

    def test_single_class_convention(self):
        assert homogeneity(list("AAAA"), [1, 2, 1, 2]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            homogeneity([1], [1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            homogeneity([], [])


class TestCompleteness:
    """Completeness is homogeneity with the labelings swapped."""

    def test_perfect_match(self):
        assert homogeneity([1, 1, 2, 2], list("AABB")) == 1.0

    def test_single_cluster_convention(self):
        assert homogeneity([1, 1, 1, 1], list("AABB")) == 1.0

    def test_split_class(self):
        # H(K|C) = 0.5 ln 2 and H(K) = 1.5 ln 2, so c = 2/3.
        assert homogeneity([1, 1, 2, 3], list("AABB")) == pytest.approx(2 / 3, abs=1e-12)


class TestVMeasure:
    def test_perfect(self):
        assert v_measure(1.0, 1.0) == 1.0

    def test_harmonic_mean(self):
        assert v_measure(1.0, 2 / 3) == pytest.approx(0.8, abs=1e-12)

    def test_degenerate_zero(self):
        assert v_measure(0.0, 0.0) == 0.0


def _groups(mapping):
    buckets = {}
    for ep, gid in mapping.items():
        buckets.setdefault(gid, set()).add(ep)
    return SecurityGroups(
        groups={g: frozenset(m) for g, m in sorted(buckets.items())}
    )


class TestEvaluate:
    def test_perfect_grouping(self):
        groups = _groups({"e1": 0, "e2": 0, "e3": 1, "e4": 1})
        truth = {"e1": "A", "e2": "A", "e3": "B", "e4": "B"}
        report = evaluate(groups, truth)
        assert (report.homogeneity, report.completeness, report.v_measure) == (1, 1, 1)
        assert report.asset_qty == 4
        assert report.true_group_qty == 2
        assert report.suggested_group_qty == 2

    def test_all_singletons(self):
        groups = _groups({"e1": 0, "e2": 1, "e3": 2, "e4": 3})
        truth = {"e1": "A", "e2": "A", "e3": "B", "e4": "B"}
        report = evaluate(groups, truth)
        assert report.homogeneity == 1.0
        assert report.completeness == pytest.approx(0.5, abs=1e-12)
        assert report.v_measure == pytest.approx(2 / 3, abs=1e-12)

    def test_missing_ground_truth_names_endpoint(self):
        groups = _groups({"e1": 0, "e2": 0})
        with pytest.raises(DataError, match="e2"):
            evaluate(groups, {"e1": "A"})

    def test_extra_ground_truth_ignored(self):
        groups = _groups({"e1": 0})
        report = evaluate(groups, {"e1": "A", "e9": "B"})
        assert report.asset_qty == 1

    def test_report_row_format(self):
        report = EvalReport(
            homogeneity=0.9824,
            completeness=0.8476,
            v_measure=0.9107,
            asset_qty=312,
            true_group_qty=108,
            suggested_group_qty=175,
            run_time_seconds=30.04,
        )
        row = report_row(report, "dataset1")
        assert REPORT_HEADER == (
            "dataset,asset_qty,group_qty,suggested_group_qty,runtime_s,"
            "homogeneity,completeness,v_measure"
        )
        assert row == "dataset1,312,108,175,30.0,98.24,84.76,91.07"


class TestMetricProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=50),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_ranges_and_oracle(self, true_labels, seed):
        rng = np.random.default_rng(seed)
        pred_labels = rng.integers(0, 8, size=len(true_labels)).tolist()
        h, c = homogeneity(true_labels, pred_labels), homogeneity(pred_labels, true_labels)
        v = v_measure(h, c)
        assert 0.0 <= h <= 1.0 and 0.0 <= c <= 1.0 and 0.0 <= v <= 1.0
        oh, oc, ov = oracle_scores(true_labels, pred_labels)
        assert h == pytest.approx(oh, abs=1e-9)
        assert c == pytest.approx(oc, abs=1e-9)
        assert v == pytest.approx(ov, abs=1e-9)

    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=30),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, true_labels, seed):
        rng = np.random.default_rng(seed)
        pred_labels = rng.integers(0, 6, size=len(true_labels)).tolist()
        endpoints = [f"e{i:03d}" for i in range(len(true_labels))]
        report = evaluate(
            _groups(dict(zip(endpoints, pred_labels))), dict(zip(endpoints, true_labels))
        )
        assert report.completeness == pytest.approx(
            homogeneity(pred_labels, true_labels), abs=1e-12
        )

    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=30),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_relabeling_invariance(self, true_labels, seed):
        rng = np.random.default_rng(seed)
        pred_labels = rng.integers(0, 6, size=len(true_labels)).tolist()
        permutation = {g: 17 - g for g in range(6)}
        relabeled = [permutation[g] for g in pred_labels]
        assert homogeneity(true_labels, pred_labels) == pytest.approx(
            homogeneity(true_labels, relabeled), abs=1e-12
        )
        assert homogeneity(pred_labels, true_labels) == pytest.approx(
            homogeneity(relabeled, true_labels), abs=1e-12
        )
