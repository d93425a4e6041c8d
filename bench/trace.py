"""Traced in-process run of one benchmark workload.

    python3 bench/trace.py CONFIG OUT_DIR TRACE_JSON RUN_ID

``bench/run.py`` starts this in a fresh process after the untraced CLI pass.
It calls each layer's public functions in the order the CLI stages do:
synth; group (flows -> features -> pca -> clustering -> pipeline artifacts);
rules; eval (metrics). Every call gets a span (name, start, end, parent, run
id); counts are recorded beside them. Spans and counts stay in memory and
are written to TRACE_JSON when the run ends. Group, rules and eval
artifacts go to OUT_DIR so the caller can compare them with the CLI's.

Two probes run outside the stage spans: ``probe.pp_init`` (one
``kmeans_pp_init`` call) and ``probe.match`` (``make_matcher`` over every
kept flow, which must allow all of them).

Exits non-zero when a layer call fails or a check here fails; the caller
then reports a trace error and leaves the per-layer metrics out.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from microseg.clustering import (
    assign_endpoint,
    derive_groups,
    kmeans_fit,
    kmeans_pp_init,
    resolve_k,
    save_cluster_model,
)
from microseg.features import encode_windows, standardize
from microseg.flows import filter_flows, load_scope, parse_flow_log
from microseg.metrics import REPORT_HEADER, evaluate, report_row
from microseg.pca import explained_variance, fit_pca, project, save_pca
from microseg.pipeline import (
    assignments_csv,
    fingerprint,
    groups_payload,
    ingest,
    load_config,
    load_ground_truth,
    load_groups,
    mean_distances_csv,
)
from microseg.rules import (
    check_ruleset,
    extract_service_flows,
    generalize,
    make_matcher,
    ruleset_to_csv,
)
from microseg.synth import generate, random_scenario


class Tracer:
    """Spans and counts of one run, kept in memory until ``dump``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = value

    def dump(self, path: Path) -> None:
        payload = {"run": self.run_id, "spans": self.spans, "counts": self.counts}
        path.write_text(json.dumps(payload, indent=1) + "\n")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def synth_stage(tr: Tracer, config) -> None:
    """``run_synth`` without the file writes; its log must equal the CLI's."""
    with tr.span("stage.synth"), tr.span("synth.generate"):
        spec = random_scenario(
            config.synth_group_count,
            config.synth_endpoints_per_group,
            config.synth_windows,
            config.synth_flows_per_endpoint_window,
            services_per_group=config.synth_services_per_group,
            port_pool=config.synth_port_pool,
            external_fraction=config.synth_external_fraction,
            object_count=config.synth_object_count,
            noise_rate=config.synth_noise_rate,
            seed=config.seed,
            window_seconds=config.window_seconds,
        )
        scenario = generate(spec)
    if scenario.log_text != Path(config.flow_log).read_text():
        raise SystemExit("trace: generated flow log differs from the CLI's")


def group_stage(tr: Tracer, config) -> tuple[np.ndarray, int]:
    """``run_group`` with ``ingest`` and ``fit_groups`` opened up into their
    layer calls. Returns the projected samples and k for the probe."""
    params = config.grouping_params()
    out = Path(config.out_dir)
    with tr.span("stage.group"):
        t0 = time.perf_counter()
        log_bytes = Path(config.flow_log).read_bytes()
        scope = load_scope(Path(config.scope).read_text())
        with tr.span("flows.parse"):
            records, malformed = parse_flow_log(
                log_bytes.decode("utf-8", errors="replace"), strict=config.strict
            )
        with tr.span("flows.filter"):
            kept, report = filter_flows(records, scope, config.unknown_policy)
        with tr.span("pipeline.fingerprint"):
            fp = fingerprint(log_bytes, config)
        with tr.span("features.encode"):
            matrix, schema = encode_windows(
                kept, params.window_seconds, params.top_k_ports, config.workers
            )
        with tr.span("features.standardize"):
            std = standardize(matrix)
        with tr.span("pca.fit"):
            pca_model = fit_pca(
                std, params.pca_target, schema_fingerprint=schema.fingerprint()
            )
        with tr.span("pca.project"):
            projected = project(pca_model, std.values)
        endpoints = sorted(set(std.endpoints))
        rows_of: dict[str, list[int]] = {ep: [] for ep in endpoints}
        for i, ep in enumerate(std.endpoints):
            rows_of[ep].append(i)
        distinct = np.unique(projected, axis=0).shape[0]
        k = min(resolve_k(params.k, len(endpoints)), len(endpoints), distinct)
        with tr.span("clustering.kmeans"):
            model = kmeans_fit(
                projected, k, params.seed,
                tol=params.tol, max_iter=params.max_iter, restarts=params.restarts,
            )
        with tr.span("clustering.assign"):
            assignments = [
                assign_endpoint(ep, projected[rows_of[ep]], model) for ep in endpoints
            ]
            groups = derive_groups(assignments)
        elapsed = time.perf_counter() - t0
        with tr.span("pipeline.artifacts"):
            out.mkdir(parents=True, exist_ok=True)
            save_pca(pca_model, out / "pca_model.json")
            save_cluster_model(
                model, out / "cluster_model.json",
                config=config.semantic_dict(), fingerprint=fp,
            )
            _write(out / "groups.json", groups_payload(groups, fp, config))
            _write(out / "assignments.csv", assignments_csv(assignments))
            _write(out / "mean_distances.csv", mean_distances_csv(assignments))
            _write(
                out / "ingest_report.json",
                json.dumps(
                    {
                        "records_read": report.records_read,
                        "records_kept": report.records_kept,
                        "records_dropped_unknown": report.records_dropped_unknown,
                        "records_mapped_to_objects": report.records_mapped_to_objects,
                        "distinct_endpoints": report.distinct_endpoints,
                        "malformed_lines": malformed,
                    },
                    sort_keys=True,
                )
                + "\n",
            )
            _write(
                out / "timing.json",
                json.dumps({"grouping_seconds": elapsed}, sort_keys=True) + "\n",
            )
    n, d = projected.shape
    tr.count("flows.lines", len(records) + malformed)
    tr.count("flows.malformed", malformed)
    tr.count("flows.kept_ratio", report.records_kept / report.records_read)
    tr.count("features.samples", matrix.n_rows)
    tr.count("features.dim", matrix.dimension)
    tr.count("pca.retained_dim", pca_model.retained_dim)
    tr.count("pca.explained_fraction", float(explained_variance(pca_model).sum()))
    tr.count("clustering.k", k)
    tr.count("clustering.iterations", model.iterations_run)
    tr.count("clustering.nonempty_ratio", groups.suggested_qty / k)
    # Computed, not measured: 2·n·k·d flops per Lloyd distance pass.
    tr.count("clustering.lloyd_gflop", 2.0 * n * k * d * model.iterations_run / 1e9)
    return projected, k


def rules_stage(tr: Tracer, config) -> None:
    """``run_rules``, then the completeness probe over the same kept flows."""
    out = Path(config.out_dir)
    with tr.span("stage.rules"):
        groups, stored_fp = load_groups(out / "groups.json")
        with tr.span("pipeline.ingest"):
            kept, ingest_out = ingest(config)
        if ingest_out.fingerprint != stored_fp:
            raise SystemExit("trace: rules stage sees a stale fingerprint")
        with tr.span("rules.extract"):
            tuples = extract_service_flows(kept, groups, ingest_out.scope)
        with tr.span("rules.generalize"):
            ruleset = generalize(tuples)
        with tr.span("rules.check"):
            hygiene = check_ruleset(ruleset, groups, ingest_out.scope)
        _write(out / "ruleset.csv", ruleset_to_csv(ruleset))
        _write(out / "hygiene.txt", hygiene.to_text())
    per_service: dict = {}
    for rule in ruleset.rules:
        per_service[rule.service] = per_service.get(rule.service, 0) + 1
    tr.count("rules.count", len(ruleset.rules))
    tr.count("rules.pairs_compared", sum(m * (m - 1) for m in per_service.values()))
    tr.count("rules.redundant", len(hygiene.redundant))
    if hygiene.any_to_any or hygiene.duplicates:
        raise SystemExit("trace: ruleset has any-to-any or duplicate rules")

    with tr.span("probe.match"):
        matcher = make_matcher(ruleset, groups, ingest_out.scope)
        allowed = sum(1 for rec in kept if matcher(rec.flow) == "allow")
    if allowed != len(kept):
        raise SystemExit(f"trace: ruleset allows {allowed} of {len(kept)} kept flows")


def eval_stage(tr: Tracer, config) -> None:
    """``run_eval``."""
    out = Path(config.out_dir)
    with tr.span("stage.eval"):
        groups, stored_fp = load_groups(out / "groups.json")
        log_bytes = Path(config.flow_log).read_bytes()
        with tr.span("pipeline.fingerprint"):
            fp = fingerprint(log_bytes, config)
        if fp != stored_fp:
            raise SystemExit("trace: eval stage sees a stale fingerprint")
        truth = load_ground_truth(config.ground_truth)
        elapsed = json.loads((out / "timing.json").read_text())["grouping_seconds"]
        with tr.span("metrics.evaluate"):
            report = evaluate(groups, truth, run_time_seconds=elapsed)
        row = report_row(report, config.dataset)
        _write(out / "eval_report.csv", REPORT_HEADER + "\n" + row + "\n")
        _write(
            out / "eval_report.json",
            json.dumps(
                {
                    "dataset": config.dataset,
                    "asset_qty": report.asset_qty,
                    "group_qty": report.true_group_qty,
                    "suggested_group_qty": report.suggested_group_qty,
                    "runtime_s": report.run_time_seconds,
                    "homogeneity": report.homogeneity,
                    "completeness": report.completeness,
                    "v_measure": report.v_measure,
                },
                sort_keys=True,
            )
            + "\n",
        )
    tr.count("metrics.homogeneity", report.homogeneity)
    tr.count("metrics.v_measure", report.v_measure)


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 1
    config_path, out_dir, trace_path, run_id = argv
    config = replace(load_config(config_path), out_dir=out_dir)
    tr = Tracer(run_id)
    synth_stage(tr, config)
    projected, k = group_stage(tr, config)
    with tr.span("probe.pp_init"):
        kmeans_pp_init(projected, k, config.seed)
    del projected
    rules_stage(tr, config)
    eval_stage(tr, config)
    tr.dump(Path(trace_path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
