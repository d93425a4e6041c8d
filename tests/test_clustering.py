import os
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from microseg import clustering
from microseg.clustering import (
    GroupAssignment,
    _update_centroids,
    assign_endpoint,
    derive_groups,
    fit_groups,
    kmeans_fit,
    kmeans_pp_init,
    resolve_k,
    select_best,
)
from microseg.core import DROP_UNKNOWN, MAP_TO_OBJECTS, GroupingParams, SecurityGroups
from microseg.features import standardize
from microseg.flows import filter_flows, parse_flow_log
from microseg.metrics import EvalReport
from microseg.synth import ScenarioSpec, ServiceTemplate, generate, random_scenario


from oracles import brute_force_two_means


class TestKmeansPlusPlusInit:
    def test_two_points_both_selected(self):
        X = np.array([[0.0], [10.0]])
        for seed in range(5):
            centroids = kmeans_pp_init(X, 2, seed)
            assert sorted(centroids[:, 0].tolist()) == [0.0, 10.0]

    def test_k_one_picks_a_sample(self):
        X = np.array([[1.0], [5.0], [9.0]])
        centroids = kmeans_pp_init(X, 1, seed=3)
        assert centroids[0, 0] in (1.0, 5.0, 9.0)

    def test_deterministic_per_seed(self):
        X = np.random.default_rng(0).normal(size=(40, 3))
        a = kmeans_pp_init(X, 5, seed=9)
        b = kmeans_pp_init(X, 5, seed=9)
        assert np.array_equal(a, b)

    def test_k_above_distinct_rows_rejected(self):
        X = np.array([[1.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="distinct"):
            kmeans_pp_init(X, 3, seed=0)

    def test_rows_one_ulp_apart(self):
        # Their expanded-form distance rounds to 0, so every k-means++
        # weight is 0: the second centroid is the row not yet chosen.
        X = np.array([[1.0, 2.0], [np.nextafter(1.0, 2.0), 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(4):
                centroids = kmeans_pp_init(X, 2, seed)
                assert sorted(row.tobytes() for row in centroids) == sorted(
                    row.tobytes() for row in X
                )
                model = kmeans_fit(X, 2, seed)
                assert model.k == 2
                assert model.inertia <= np.spacing(1.0) ** 2


class TestKmeansFit:
    def test_perfectly_separated(self):
        model = kmeans_fit(np.array([[0.0], [0.0], [10.0], [10.0]]), 2, seed=1)
        assert sorted(model.centroids[:, 0].tolist()) == [0.0, 10.0]
        assert model.inertia == 0.0

    def test_k_equals_distinct_gives_zero_inertia(self):
        X = np.array([[0.0], [3.0], [7.0], [11.0]])
        model = kmeans_fit(X, 4, seed=2)
        assert model.inertia == pytest.approx(0.0, abs=1e-18)

    def test_two_pair_instance(self):
        # Brute force over all 2-partitions of {0,2,10,12}: optimum is
        # {0,2} | {10,12} with means 1 and 11 and inertia 4.
        points = [0.0, 2.0, 10.0, 12.0]
        assert brute_force_two_means(points) == 4.0
        model = kmeans_fit(np.array(points)[:, None], 2, seed=5, restarts=10)
        assert sorted(model.centroids[:, 0].tolist()) == [1.0, 11.0]
        assert model.inertia == pytest.approx(4.0, abs=1e-12)

    def test_inertia_history_monotone(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            X = rng.normal(size=(30, 2)) * rng.uniform(0.5, 2.0)
            model = kmeans_fit(X, 4, seed=int(rng.integers(1000)), restarts=1)
            history = model.inertia_history
            assert history[-1] == model.inertia
            for earlier, later in zip(history, history[1:]):
                assert later <= earlier + 1e-9 * max(1.0, earlier)

    def test_matches_brute_force_on_small_1d(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            points = sorted(rng.uniform(-10, 10, size=n).tolist())
            model = kmeans_fit(
                np.array(points)[:, None], 2, seed=int(rng.integers(10_000)), restarts=10
            )
            expected = brute_force_two_means(points)
            assert model.inertia == pytest.approx(expected, abs=1e-9)

    def test_fixed_seed_bit_identical(self):
        X = np.random.default_rng(1).normal(size=(50, 4))
        m1 = kmeans_fit(X, 6, seed=123)
        m2 = kmeans_fit(X.copy(), 6, seed=123)
        assert np.array_equal(m1.centroids, m2.centroids)
        assert m1.inertia == m2.inertia

    def test_k_above_distinct_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            kmeans_fit(np.array([[1.0], [1.0]]), 2, seed=0)

    def test_parameter_validation(self):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            kmeans_fit(X, 0, seed=0)
        with pytest.raises(ValueError):
            kmeans_fit(X, 1, seed=0, tol=0.0)
        with pytest.raises(ValueError):
            kmeans_fit(X, 1, seed=0, max_iter=0)


class TestKmeansMemory:
    def test_peak_stays_under_three_distance_matrices(self):
        # Aim 3: memory stays bounded as the scenario grows. The fit keeps
        # the polish's samples x centroids distance matrix and its touched
        # columns plus row-block temporaries: not a second matrix of move
        # costs, and no samples x features Lloyd temporary (0.2 of a
        # distance matrix here, which would take the peak past the bound).
        rng = np.random.default_rng(0)
        centers = rng.normal(scale=8.0, size=(60, 40))
        X = centers[rng.integers(60, size=4000)] + rng.normal(size=(4000, 40))
        k = 200
        tracemalloc.start()
        try:
            kmeans_fit(X, k, seed=0, restarts=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * X.shape[0] * k * X.itemsize


class TestKmeansWorkers:
    """Restarts split over forked workers: the CPU count is patched, so
    these fork on any box."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _fit(monkeypatch, cpus, X, k, restarts):
        monkeypatch.setattr(clustering, "_cpus", lambda: cpus)
        model = kmeans_fit(X, k, seed=7, restarts=restarts)
        return (
            model.centroids.tobytes(),
            model.inertia,
            model.iterations_run,
            model.inertia_history,
        )

    @pytest.mark.parametrize("restarts", [2, 3, 4, 5])
    def test_same_fit_for_any_worker_count(self, monkeypatch, restarts):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(300, 3))
        # Every restart reaches inertia 0 on 16 distinct grid rows, so only
        # the earliest-restart tie-break fixes the centroid order.
        grid = rng.integers(0, 4, size=(80, 2)).astype(float)
        for data, k in ((X, 12), (grid, len(np.unique(grid, axis=0)))):
            serial = self._fit(monkeypatch, 1, data, k, restarts)
            assert self._fit(monkeypatch, 4, data, k, restarts) == serial

    def test_a_child_restart_can_win(self, monkeypatch):
        # Guards the test above: on this data restart 3, which a child runs
        # when there are 4 workers, beats restarts 0-2.
        X = np.random.default_rng(5).normal(size=(300, 3))
        assert self._fit(monkeypatch, 4, X, 12, 4)[1] < self._fit(monkeypatch, 4, X, 12, 3)[1]

    def test_child_exception_raised_unchanged(self, monkeypatch):
        parent, fit_restart = os.getpid(), clustering._fit_restart

        def failing(*args):
            if os.getpid() != parent:
                raise ValueError("restart failed in a child")
            return fit_restart(*args)

        monkeypatch.setattr(clustering, "_fit_restart", failing)
        with pytest.raises(ValueError, match="^restart failed in a child$"):
            self._fit(monkeypatch, 4, np.random.default_rng(1).normal(size=(40, 2)), 3, 4)

    def test_child_without_result_is_an_error(self, monkeypatch):
        parent, fit_restart = os.getpid(), clustering._fit_restart

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return fit_restart(*args)

        monkeypatch.setattr(clustering, "_fit_restart", dying)
        with pytest.raises(RuntimeError, match="sent no result"):
            self._fit(monkeypatch, 2, np.random.default_rng(1).normal(size=(40, 2)), 3, 2)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_parent_failure_kills_children(self, monkeypatch, error):
        parent = os.getpid()

        def stuck_children(*args):
            if os.getpid() == parent:
                raise error("parent restart failed")
            time.sleep(60)

        monkeypatch.setattr(clustering, "_fit_restart", stuck_children)
        start = time.perf_counter()
        with pytest.raises(error, match="parent restart failed"):
            self._fit(monkeypatch, 4, np.random.default_rng(1).normal(size=(40, 2)), 3, 4)
        # Killed, not waited for.
        assert time.perf_counter() - start < 30


class TestEmptyClusterRepair:
    def test_empty_cluster_reseeded_at_farthest_sample(self):
        X = np.array([[0.0], [1.0], [9.0], [10.0]])
        labels = np.array([0, 0, 0, 0])  # cluster 1 empty
        centroids_old = np.array([[0.5], [100.0]])
        diffs = X - centroids_old[labels]
        point_sq = (diffs**2).sum(axis=1)
        updated = _update_centroids(X, labels, 2, point_sq)
        assert updated[0, 0] == pytest.approx(5.0)  # mean of all points
        assert updated[1, 0] == 10.0  # farthest from its centroid

    def test_multiple_empty_clusters_take_successive_farthest(self):
        X = np.array([[0.0], [4.0], [20.0], [30.0]])
        labels = np.array([0, 0, 0, 0])
        point_sq = (X[:, 0] - 0.0) ** 2
        updated = _update_centroids(X, labels, 3, point_sq)
        assert updated[1, 0] == 30.0
        assert updated[2, 0] == 20.0


class TestAssignEndpoint:
    def test_mean_distance_argmin(self):
        a = assign_endpoint("e", np.array([[0.0], [2.0]]), _model([[1.0], [10.0]]))
        assert a.mean_distances.tolist() == [1.0, 9.0]
        assert a.group_id == 0

    def test_exact_centroid_match(self):
        model = _model([[5.0], [6.0], [7.0], [9.0]])
        a = assign_endpoint("e", np.array([[9.0]]), model)
        assert a.group_id == 3
        assert a.mean_distances[3] == 0.0

    def test_tie_breaks_to_lowest_index(self):
        a = assign_endpoint("e", np.array([[0.0], [10.0]]), _model([[0.0], [10.0]]))
        assert a.mean_distances.tolist() == [5.0, 5.0]
        assert a.group_id == 0

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            assign_endpoint("e", np.empty((0, 1)), _model([[0.0]]))


def _model(centroids):
    from microseg.clustering import ClusterModel

    C = np.array(centroids, dtype=float)
    return ClusterModel(centroids=C, inertia=0.0, iterations_run=0, seed=0)


class TestSecurityGroups:
    # The partition rule is the type's own, so derive_groups and load_groups
    # hold no copy of it and no grouping built or loaded breaks it.
    @pytest.mark.parametrize(
        "groups, message",
        [
            ({}, "lists no groups"),
            ({0: {"e1"}, 3: set()}, "group 3 has no members"),
            ({0: {"e1"}, 2: {"e2", "e1"}}, "endpoint e1 is in groups 0 and 2"),
        ],
        ids=["no-groups", "empty-group", "endpoint-in-two-groups"],
    )
    def test_non_partitions_refused(self, groups, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SecurityGroups(groups={gid: frozenset(m) for gid, m in groups.items()})


class TestDeriveGroups:
    def test_bucketing(self):
        assignments = [
            GroupAssignment("e1", np.array([1.0, 0.0])),
            GroupAssignment("e2", np.array([2.0, 0.0])),
            GroupAssignment("e3", np.array([0.0, 5.0])),
        ]
        groups = derive_groups(assignments)
        assert groups.groups == {0: frozenset({"e3"}), 1: frozenset({"e1", "e2"})}
        assert groups.suggested_qty == 2

    def test_single_group(self):
        assignments = [
            GroupAssignment(f"e{i}", np.array([0.0, 1.0])) for i in range(4)
        ]
        assert derive_groups(assignments).suggested_qty == 1

    def test_duplicate_endpoint_rejected(self):
        assignments = [
            GroupAssignment("e1", np.array([0.0, 1.0])),
            GroupAssignment("e1", np.array([1.0, 0.0])),
        ]
        with pytest.raises(ValueError, match="^endpoint e1 is in groups 0 and 1$"):
            derive_groups(assignments)

    def test_partition_property(self):
        rng = np.random.default_rng(4)
        assignments = []
        for i in range(30):
            d = rng.uniform(1, 5, size=6)
            assignments.append(GroupAssignment(f"e{i}", d))
        groups = derive_groups(assignments)
        all_endpoints = [ep for members in groups.groups.values() for ep in members]
        assert len(all_endpoints) == 30
        assert len(set(all_endpoints)) == 30
        assert groups.suggested_qty <= 30


class TestResolveK:
    def test_default_is_endpoint_count(self):
        assert resolve_k(None, 312) == 312

    def test_fraction(self):
        assert resolve_k(0.5, 10) == 5
        assert resolve_k(0.01, 10) == 1  # floor of one group

    def test_absolute(self):
        assert resolve_k(7, 100) == 7

    def test_invalid(self):
        with pytest.raises(ValueError):
            resolve_k(0, 10)
        with pytest.raises(ValueError):
            resolve_k(1.5, 10)


def _scenario_records(spec, policy=DROP_UNKNOWN):
    scenario = generate(spec)
    records, _ = parse_flow_log(scenario.log_text)
    kept, _ = filter_flows(records, scenario.scope, policy)
    return scenario, kept


def _ring_spec(group_count=4, size=2, windows=4, flows=12, seed=3):
    """Each group talks to the next group on its own port; fully separable."""
    profiles = {
        g: (
            ServiceTemplate(
                peer_kind="group",
                peer=(g + 1) % group_count,
                protocol="TCP",
                dst_port=2000 + 10 * g,
                weight=1.0,
            ),
        )
        for g in range(group_count)
    }
    return ScenarioSpec(
        group_count=group_count,
        endpoints_per_group=size,
        windows=windows,
        flows_per_endpoint_window=flows,
        profiles=profiles,
        objects=(("ext0", "198.51.100.1/32"),),
        noise_rate=0.0,
        seed=seed,
    )


class TestFitGroups:
    def test_recovers_planted_groups(self):
        scenario, kept = _scenario_records(_ring_spec())
        result = fit_groups(kept, GroupingParams(seed=1, top_k_ports=16))
        assert result.groups.suggested_qty == 4
        mapping = result.groups.endpoint_to_group()
        for ep_a, ep_b in zip(sorted(scenario.truth), sorted(scenario.truth)[1:]):
            same_truth = scenario.truth[ep_a] == scenario.truth[ep_b]
            same_pred = mapping[ep_a] == mapping[ep_b]
            assert same_truth == same_pred

    def test_suggested_qty_bounded_by_k_and_endpoints(self):
        _, kept = _scenario_records(_ring_spec())
        result = fit_groups(kept, GroupingParams(seed=1, top_k_ports=16))
        n_endpoints = len(result.assignments)
        k = len(result.assignments[0].mean_distances)
        assert result.groups.suggested_qty <= k <= n_endpoints

    def test_mean_distances_bit_equal_across_calls(self):
        # Full-precision distances pin standardize, PCA and k-means.
        spec = random_scenario(
            6, 3, 4, 20, services_per_group=4, port_pool=32, noise_rate=0.05, seed=11
        )
        _, kept = _scenario_records(spec)
        params = GroupingParams(seed=3, top_k_ports=16)
        first, second = fit_groups(kept, params), fit_groups(kept, params)
        assert [a.endpoint for a in first.assignments] == [
            a.endpoint for a in second.assignments
        ]
        for a, b in zip(first.assignments, second.assignments):
            assert a.mean_distances.tobytes() == b.mean_distances.tobytes()

    def test_distinct_rows_counted_once_per_fit(self, monkeypatch):
        # The count caps k in fit_groups and is checked again in kmeans_fit;
        # one np.unique pass serves both. Here it caps k below the endpoints.
        _, kept = _scenario_records(_ring_spec())
        counts = []
        count = clustering._distinct_rows

        def spy(X):
            counts.append(count(X))
            return counts[-1]

        monkeypatch.setattr(clustering, "_distinct_rows", spy)
        result = fit_groups(kept, GroupingParams(seed=1, top_k_ports=16))
        assert len(counts) == 1
        assert len(result.assignments[0].mean_distances) == counts[0] < len(result.assignments)

    def test_sample_matrices_freed_before_kmeans(self, monkeypatch):
        # Only the projected samples may stay alive through k-means.
        _, kept = _scenario_records(_ring_spec())
        refs, alive = [], []

        def recording(fn, values_of):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                refs.append(weakref.ref(values_of(result).values))
                return result
            return wrapper

        def checked_kmeans_fit(*args, **kwargs):
            alive.extend(ref() is not None for ref in refs)
            return kmeans_fit(*args, **kwargs)

        monkeypatch.setattr(clustering, "encode_windows",
                            recording(clustering.encode_windows, lambda r: r[0]))
        monkeypatch.setattr(clustering, "standardize",
                            recording(clustering.standardize, lambda r: r))
        monkeypatch.setattr(clustering, "kmeans_fit", checked_kmeans_fit)
        fit_groups(kept, GroupingParams(seed=1, top_k_ports=16))
        assert alive == [False, False]

    def test_kmeans_peak_in_encoded_matrices(self, monkeypatch):
        # Aim 3: k-means starts with only the projection alive, and Lloyd
        # holds no samples x features temporary over all rows, so the traced
        # peak while it runs stays under 1.6 encoded matrices: the
        # projection plus the polish's samples x centroids matrices. The
        # projection is a third of the encoded matrix here, so Lloyd
        # temporaries over all rows would exceed the bound.
        spec = random_scenario(
            20, 3, 24, 20, services_per_group=4, port_pool=256, noise_rate=0.05, seed=11
        )
        _, kept = _scenario_records(spec)
        seen = {}
        encode = clustering.encode_windows

        def recording_encode(*args, **kwargs):
            out = encode(*args, **kwargs)
            seen["encoded"] = out[0].values.nbytes
            return out

        def peak_kmeans_fit(*args, **kwargs):
            tracemalloc.reset_peak()
            model = kmeans_fit(*args, **kwargs)
            seen["peak"] = tracemalloc.get_traced_memory()[1]
            return model

        monkeypatch.setattr(clustering, "encode_windows", recording_encode)
        monkeypatch.setattr(clustering, "kmeans_fit", peak_kmeans_fit)
        tracemalloc.start()
        try:
            fit_groups(kept, GroupingParams(seed=1, top_k_ports=64, restarts=1))
        finally:
            tracemalloc.stop()
        assert seen["peak"] < 1.6 * seen["encoded"]

    def test_endpoint_row_slices_match_masks(self, monkeypatch):
        # fit_groups takes each endpoint's rows as one slice of the sorted
        # row order. Rebuilding them with a mask over the row endpoints must
        # give bit-equal distances. With 12 endpoints, string order puts
        # 10.0.0.10 before 10.0.0.9, unlike numeric order.
        spec = random_scenario(
            4, 3, 4, 20, services_per_group=4, port_pool=32, noise_rate=0.05, seed=11
        )
        _, kept = _scenario_records(spec)
        seen = {}

        def recording_standardize(matrix):
            seen["rows"] = np.array(matrix.endpoints)
            return standardize(matrix)

        def recording_kmeans_fit(samples, *args, **kwargs):
            seen["samples"] = samples
            seen["model"] = kmeans_fit(samples, *args, **kwargs)
            return seen["model"]

        monkeypatch.setattr(clustering, "standardize", recording_standardize)
        monkeypatch.setattr(clustering, "kmeans_fit", recording_kmeans_fit)
        result = fit_groups(kept, GroupingParams(seed=3, top_k_ports=16))
        endpoints = [a.endpoint for a in result.assignments]
        assert endpoints == sorted(set(seen["rows"].tolist()))
        assert endpoints.index("10.0.0.10") < endpoints.index("10.0.0.9")
        for a in result.assignments:
            mask = seen["rows"] == a.endpoint
            expected = assign_endpoint(a.endpoint, seen["samples"][mask], seen["model"])
            assert expected.mean_distances.tobytes() == a.mean_distances.tobytes()


class TestRetrain:
    """Retraining is a fresh fit on the union of old and new records."""

    def test_duplicate_profile_co_grouped(self):
        scenario, _ = _scenario_records(_ring_spec())
        # Clone endpoint 10.0.0.1 (including its inbound traffic) under a
        # fresh member address; identical samples must co-group.
        clone_src = [
            line.replace("10.0.0.1,", "10.0.250.1,", 1)
            for line in scenario.log_lines
            if line.split(",")[1] == "10.0.0.1"
        ]
        clone_dst = [
            ",".join(
                part if i != 2 else "10.0.250.1"
                for i, part in enumerate(line.split(","))
            )
            for line in scenario.log_lines
            if line.split(",")[2] == "10.0.0.1"
        ]
        records, _ = parse_flow_log("\n".join(scenario.log_lines + clone_src + clone_dst))
        kept, _ = filter_flows(records, scenario.scope, DROP_UNKNOWN)
        params = GroupingParams(seed=1, top_k_ports=16)
        result = fit_groups(kept, params)
        mapping = result.groups.endpoint_to_group()
        assert mapping["10.0.250.1"] == mapping["10.0.0.1"]

    def test_isolated_profile_creates_new_group(self):
        scenario, kept = _scenario_records(_ring_spec(), policy=MAP_TO_OBJECTS)
        params = GroupingParams(seed=1, top_k_ports=16)
        base = fit_groups(kept, params)
        outlier_lines = [
            f"{w * 3600},10.0.250.9,198.51.100.1,TCP,9999,2,500" for w in range(4)
        ]
        records, _ = parse_flow_log("\n".join(scenario.log_lines + outlier_lines))
        retrain_kept, _ = filter_flows(records, scenario.scope, MAP_TO_OBJECTS)
        result = fit_groups(retrain_kept, params)
        assert result.groups.suggested_qty == base.groups.suggested_qty + 1
        mapping = result.groups.endpoint_to_group()
        own_group = result.groups.groups[mapping["10.0.250.9"]]
        assert own_group == frozenset({"10.0.250.9"})


class TestSelectBest:
    def _report(self, h, v):
        return EvalReport(
            homogeneity=h, completeness=0.5, v_measure=v,
            asset_qty=1, true_group_qty=1, suggested_group_qty=1,
        )

    def test_single_config_meeting_floor(self):
        idx, below = select_best([self._report(0.97, 0.9)], 0.95)
        assert idx == 0 and not below

    def test_v_measure_decides_among_eligible(self):
        reports = [self._report(0.96, 0.91), self._report(0.99, 0.88)]
        idx, below = select_best(reports, 0.95)
        assert idx == 0 and not below

    def test_fallback_below_floor(self):
        reports = [self._report(0.7, 0.9), self._report(0.8, 0.5)]
        idx, below = select_best(reports, 0.95)
        assert idx == 1 and below

    def test_tie_keeps_first(self):
        reports = [self._report(0.96, 0.9), self._report(0.96, 0.9)]
        idx, _ = select_best(reports, 0.95)
        assert idx == 0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            select_best([], 0.95)
