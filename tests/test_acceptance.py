"""Acceptance suite: one test per criterion, printing a line per criterion.

Criterion 1 runs a fixed-seed synthetic stand-in at full size (300
endpoints, 100 planted groups, 24 windows, 20 flows per endpoint-window,
5% noise, pairwise template overlap capped at 20%) and records its exact
metric values in tests/data/baseline_metrics.json as the regression
baseline; set MICROSEG_UPDATE_BASELINE=1 to re-record after an intentional
behavior change.
"""

import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from microseg import clustering
from microseg.clustering import kmeans_fit
from microseg.core import DROP_UNKNOWN, MAP_TO_OBJECTS
from microseg.metrics import homogeneity, v_measure
from microseg.pca import fit_pca, project
from microseg.pipeline import (
    PipelineConfig,
    fingerprint,
    ingest,
    run_eval,
    run_group,
    run_rules,
    run_synth,
    verify_ruleset_completeness,
)
from microseg.rules import extract_service_flows, generalize, load_ruleset
from microseg.pipeline import load_groups
from oracles import (
    brute_force_two_means,
    oracle_scores,
    power_iteration_spectrum,
    reconstruct,
)

BASELINE_PATH = Path(__file__).parent / "data" / "baseline_metrics.json"

TABLE1_SCENARIO = dict(
    synth_group_count=100,
    synth_endpoints_per_group=3,
    synth_windows=24,
    synth_flows_per_endpoint_window=20,
    synth_noise_rate=0.05,
    synth_services_per_group=5,  # overlap cap = 20% of 5 = 1 shared service
    synth_port_pool=128,
    synth_object_count=3,
)

TABLE1_PARAMS = dict(top_k_ports=128, seed=42, restarts=2)


def _configs(root: Path, name: str, scenario: dict, params: dict, policy: str):
    data = root / name / "data"
    synth = PipelineConfig(out_dir=str(data), seed=params.get("seed", 0), **scenario)
    run = PipelineConfig(
        flow_log=str(data / "flows.csv"),
        scope=str(data / "scope.txt"),
        ground_truth=str(data / "truth.csv"),
        out_dir=str(root / name / f"artifacts_{policy}"),
        dataset=name,
        unknown_policy=policy,
    )
    return synth, replace(run, **params)


def _eval_report(run) -> dict:
    """Run eval and read back the scores it wrote to eval_report.json."""
    run_eval(run)
    return json.loads((Path(run.out_dir) / "eval_report.json").read_text())


@pytest.fixture(scope="session")
def table1_run(tmp_path_factory):
    """Criterion-1 pipeline run in the drop_unknown regime."""
    root = tmp_path_factory.mktemp("table1")
    synth, run = _configs(root, "t1", TABLE1_SCENARIO, TABLE1_PARAMS, DROP_UNKNOWN)
    run_synth(synth)
    run_group(run)
    run_rules(run)
    return {"config": run, "report": _eval_report(run)}


@pytest.fixture(scope="session")
def object_regime_runs(tmp_path_factory):
    """Criterion-2 runs: the same scenario regenerated with 10% of flows
    directed at external objects, grouped under both regimes."""
    root = tmp_path_factory.mktemp("table2")
    scenario = dict(TABLE1_SCENARIO, synth_external_fraction=0.1)
    results = {}
    for policy in (DROP_UNKNOWN, MAP_TO_OBJECTS):
        synth, run = _configs(root, "t2", scenario, TABLE1_PARAMS, policy)
        if policy == DROP_UNKNOWN:
            run_synth(synth)
        run_group(run)
        run_rules(run)
        results[policy] = {"config": run, "report": _eval_report(run)}
    return results


def test_criterion_1_synthetic_table1_analog(table1_run):
    report = table1_run["report"]
    runtime = report["runtime_s"]
    assert report["asset_qty"] == 300
    assert report["group_qty"] == 100
    assert report["homogeneity"] >= 0.95
    assert report["v_measure"] >= 0.85
    assert runtime < 60.0
    recorded = {
        key: report[key]
        for key in ("homogeneity", "completeness", "v_measure", "suggested_group_qty")
    }
    if BASELINE_PATH.exists() and not os.environ.get("MICROSEG_UPDATE_BASELINE"):
        baseline = json.loads(BASELINE_PATH.read_text())
        for key in ("homogeneity", "completeness", "v_measure"):
            assert recorded[key] == pytest.approx(baseline[key], abs=1e-9), key
        assert recorded["suggested_group_qty"] == baseline["suggested_group_qty"]
    else:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(
        f"\nCRITERION 1 PASS: h={report['homogeneity']:.4f} c={report['completeness']:.4f} "
        f"v={report['v_measure']:.4f} suggested={report['suggested_group_qty']} "
        f"runtime={runtime:.1f}s"
    )


def test_criterion_2_network_object_regime(object_regime_runs):
    h_drop = object_regime_runs[DROP_UNKNOWN]["report"]["homogeneity"]
    h_map = object_regime_runs[MAP_TO_OBJECTS]["report"]["homogeneity"]
    assert h_map >= h_drop - 0.01
    print(f"\nCRITERION 2 PASS: homogeneity drop_unknown={h_drop:.4f} "
          f"map_to_objects={h_map:.4f}")


def test_criterion_3_metric_oracle_equivalence():
    rng = np.random.default_rng(333)
    checked = 0
    for trial in range(1000):
        n = int(rng.integers(1, 51))
        n_classes = int(rng.integers(1, 9))
        n_clusters = int(rng.integers(1, 9))
        true_labels = rng.integers(0, n_classes, size=n).tolist()
        pred_labels = rng.integers(0, n_clusters, size=n).tolist()
        if trial % 50 == 0:
            pred_labels = list(range(n))  # all singletons: h = 1
        elif trial % 50 == 1:
            pred_labels = [0] * n  # one cluster: c = 1
        elif trial % 50 == 2:
            true_labels = [0] * n  # one class: h = 1 convention
        h, c = homogeneity(true_labels, pred_labels), homogeneity(pred_labels, true_labels)
        v = v_measure(h, c)
        oh, oc, ov = oracle_scores(true_labels, pred_labels)
        assert abs(h - oh) <= 1e-9
        assert abs(c - oc) <= 1e-9
        assert abs(v - ov) <= 1e-9
        checked += 1
    assert v_measure(0.0, 0.0) == 0.0
    print(f"\nCRITERION 3 PASS: {checked} random labelings match the oracle within 1e-9")


def test_criterion_4_kmeans_properties():
    rng = np.random.default_rng(444)
    for _ in range(100):
        n = int(rng.integers(8, 40))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(2, min(n, 6)))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        model = kmeans_fit(X, k, seed=int(rng.integers(100_000)), restarts=1)
        history = model.inertia_history
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-9 * max(1.0, earlier)

    for _ in range(100):
        n = int(rng.integers(2, 9))
        points = rng.uniform(-10, 10, size=n).tolist()
        model = kmeans_fit(
            np.array(points)[:, None], 2, seed=int(rng.integers(100_000)), restarts=10
        )
        expected = brute_force_two_means(points)
        assert model.inertia == pytest.approx(expected, abs=1e-9)
    print("\nCRITERION 4 PASS: inertia monotone on 100 instances; "
          "100 small 1-D instances match the brute-force optimum within 1e-9")


def test_criterion_5_pca_properties():
    rng = np.random.default_rng(555)
    for _ in range(20):
        X = rng.normal(size=(30, int(rng.integers(3, 9))))
        model = fit_pca(X, X.shape[1])
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(model.retained_dim)).max() <= 1e-8

    for _ in range(10):
        d = int(rng.integers(2, 6))
        X = rng.normal(size=(25, d)) * rng.uniform(0.5, 3.0, size=d)
        model = fit_pca(X, d)
        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / (X.shape[0] - 1)
        count = d - 1  # deflation is reliable below the smallest eigenvalue
        values, vectors = power_iteration_spectrum(cov, count)
        assert model.eigenvalues[:count] == pytest.approx(values, abs=1e-6)
        for i in range(count):
            assert abs(float(vectors[i] @ model.components[i])) == pytest.approx(
                1.0, abs=1e-6
            )

    X = rng.normal(size=(25, 6)) @ rng.normal(size=(6, 6))
    errors = []
    for m in range(1, 7):
        model = fit_pca(X, m)
        approx = reconstruct(model, project(model, X))
        errors.append(float(((X - approx) ** 2).sum()))
    for earlier, later in zip(errors, errors[1:]):
        assert later <= earlier + 1e-9
    print("\nCRITERION 5 PASS: orthonormality 1e-8; oracle agreement 1e-6; "
          "reconstruction error monotone")


def test_criterion_6_rule_completeness_and_hygiene(table1_run, object_regime_runs):
    for label, run in (
        ("drop_unknown", table1_run["config"]),
        ("map_to_objects", object_regime_runs[MAP_TO_OBJECTS]["config"]),
    ):
        allowed, total = verify_ruleset_completeness(run)
        assert allowed == total, label
        out = Path(run.out_dir)
        hygiene = (out / "hygiene.txt").read_text()
        assert "any_to_any: 0" in hygiene, label
        assert "duplicates: 0" in hygiene, label
        ruleset = load_ruleset(out / "ruleset.csv")
        groups, _ = load_groups(out / "groups.json")
        kept, ingest_out = ingest(run)
        tuples = extract_service_flows(kept, groups, ingest_out.scope)
        assert len(ruleset.rules) == len(tuples), label
        keys = [rule.key() for rule in ruleset.rules]
        assert len(set(keys)) == len(keys), label
    print("\nCRITERION 6 PASS: 100% completeness, zero any-to-any, zero duplicates, "
          "rule count equals distinct tuples in both regimes")


DETERMINISM_SCENARIO = dict(
    synth_group_count=10,
    synth_endpoints_per_group=3,
    synth_windows=6,
    synth_flows_per_endpoint_window=15,
    synth_noise_rate=0.05,
    synth_services_per_group=3,
    synth_port_pool=64,
    synth_object_count=2,
    synth_external_fraction=0.1,
)

DETERMINISTIC_ARTIFACTS = [
    "groups.json",
    "assignments.csv",
    "ingest_report.json",
    "conversations.csv",
    "ruleset.csv",
    "hygiene.txt",
]


def _mask_runtime(csv_bytes: bytes) -> bytes:
    header, row = csv_bytes.decode().strip().split("\n")
    fields = row.split(",")
    fields[4] = "MASKED"  # runtime_s is a measurement, not an artifact
    return (header + "\n" + ",".join(fields)).encode()


def test_criterion_7_determinism_across_workers_and_reruns(tmp_path_factory):
    # K-means runs its 4 restarts on W = min(4, CPUs) processes. The CPU
    # count is patched to 1, 2 and 8, so every box runs W = 1, 2 and 4, and
    # each fit forks W - 1 children.
    root = tmp_path_factory.mktemp("determinism")
    params = dict(top_k_ports=64, seed=17, unknown_policy=MAP_TO_OBJECTS)
    blobs = {}
    fork, fit = os.fork, clustering.kmeans_fit
    for cpus, children in ((1, 0), (2, 1), (8, 3)):
        synth, run = _configs(root, f"c{cpus}", DETERMINISM_SCENARIO, params, MAP_TO_OBJECTS)
        run = replace(run, dataset="determinism")
        forks, per_fit = [], []

        def counting_fit(*args, **kwargs):
            before = len(forks)
            model = fit(*args, **kwargs)
            per_fit.append(len(forks) - before)
            return model

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(clustering, "_cpus", lambda: cpus)
            patch.setattr(clustering, "kmeans_fit", counting_fit)
            # Counted before the fork, so only in this process.
            patch.setattr(os, "fork", lambda: forks.append(1) or fork())
            run_synth(synth)
            run_group(run)
            run_rules(run)
            run_eval(run)
            out = Path(run.out_dir)
            blobs[cpus] = {
                name: (out / name).read_bytes() for name in DETERMINISTIC_ARTIFACTS
            }
            blobs[cpus]["eval_report.csv"] = _mask_runtime(
                (out / "eval_report.csv").read_bytes()
            )
            # Rerunning each command with identical inputs is byte-identical.
            # timing.json is a wall-clock measurement, not an artifact; eval
            # embeds the stored grouping time, so rerunning eval alone is
            # exactly identical while a fresh group run re-measures it.
            eval_before = (out / "eval_report.csv").read_bytes()
            run_eval(run)
            assert (out / "eval_report.csv").read_bytes() == eval_before
            run_group(run)
            run_rules(run)
            run_eval(run)
        assert per_fit == [children, children], cpus
        for name in DETERMINISTIC_ARTIFACTS:
            assert (out / name).read_bytes() == blobs[cpus][name], (cpus, name)
        assert _mask_runtime(
            (out / "eval_report.csv").read_bytes()
        ) == blobs[cpus]["eval_report.csv"]
    for cpus in (2, 8):
        for name, blob in blobs[1].items():
            assert blobs[cpus][name] == blob, (cpus, name)
    print("\nCRITERION 7 PASS: byte-identical artifacts at 1, 2 and 4 k-means "
          "processes and across reruns")


def test_criterion_8_perfect_separation_ground_case(tmp_path_factory):
    root = tmp_path_factory.mktemp("perfect")
    scenario = dict(
        synth_group_count=10,
        synth_endpoints_per_group=4,
        synth_windows=6,
        synth_flows_per_endpoint_window=20,
        synth_noise_rate=0.0,
        synth_services_per_group=1,  # overlap cap 0: fully disjoint profiles
        synth_port_pool=32,
        synth_object_count=0,
    )
    synth, run = _configs(root, "p", scenario, dict(top_k_ports=32, seed=8), DROP_UNKNOWN)
    run_synth(synth)
    run_group(run)
    report = _eval_report(run)
    assert abs(report["homogeneity"] - 1.0) <= 1e-12
    assert abs(report["completeness"] - 1.0) <= 1e-12
    assert abs(report["v_measure"] - 1.0) <= 1e-12
    assert report["suggested_group_qty"] == 10
    print("\nCRITERION 8 PASS: h = c = v = 1.0 exactly; "
          f"suggested groups = planted groups = {report['suggested_group_qty']}")
