"""Batch pipeline wiring: configuration, artifact persistence, stages.

The grouping artifacts embed a fingerprint hashing the input flow log, the
scope and the semantic configuration (window, vocab, projection,
clustering and policy settings; execution controls and paths are excluded).
Measured wall time is a side file, not a fingerprinted artifact, so reruns
stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Union

from .clustering import (
    GroupAssignment,
    GroupingParams,
    SecurityGroups,
    fit_groups,
    save_cluster_model,
    select_best,
)
from .features import matrix_to_csv, write_atomic
from .flows import (
    DROP_UNKNOWN,
    POLICIES,
    ClassifiedFlow,
    DataError,
    MemberScope,
    filter_flows,
    load_scope,
    parse_flow_log,
    scope_to_text,
)
from .metrics import REPORT_HEADER, EvalReport, evaluate, report_row
from .pca import save_pca
from .rules import (
    check_ruleset,
    extract_service_flows,
    generalize,
    load_ruleset,
    make_matcher,
    ruleset_to_csv,
)
from .synth import generate, random_scenario


class UsageError(Exception):
    """Bad command line or configuration."""


#: Config fields that define artifact content (hashed into fingerprints).
SEMANTIC_FIELDS = ("unknown_policy",) + tuple(f.name for f in fields(GroupingParams))


@dataclass
class PipelineConfig:
    # paths
    flow_log: str = ""
    scope: str = ""
    out_dir: str = "out"
    ground_truth: str = ""
    grid: str = ""
    dataset: str = "dataset"
    # regime and grouping hyper-parameters
    unknown_policy: str = DROP_UNKNOWN
    window_seconds: int = 3600
    top_k_ports: int = 64
    pca_target: Union[float, int] = 0.95
    k: Union[int, float, None] = None
    seed: int = 0
    tol: float = 1e-6
    max_iter: int = 300
    restarts: int = 4
    homogeneity_floor: float = 0.95
    # execution controls (not part of artifact identity)
    workers: int = 1  # accepted; has no effect (bench/trace.py reads it)
    strict: bool = False
    export_features: bool = False
    # synthetic scenario knobs
    synth_group_count: int = 10
    synth_endpoints_per_group: int = 3
    synth_windows: int = 8
    synth_flows_per_endpoint_window: int = 20
    synth_noise_rate: float = 0.0
    synth_services_per_group: int = 5
    synth_port_pool: int = 128
    synth_external_fraction: float = 0.0
    synth_object_count: int = 3

    def grouping_params(self) -> GroupingParams:
        return GroupingParams(
            **{f.name: getattr(self, f.name) for f in fields(GroupingParams)}
        )

    def semantic_dict(self) -> dict:
        return {name: getattr(self, name) for name in SEMANTIC_FIELDS}


def _parse_dim_or_fraction(value: str, key: str) -> Union[float, int]:
    """Values with a decimal point are fractions in (0, 1]; bare integers
    are fixed dimensions/counts."""
    try:
        if "." in value or "e" in value.lower():
            return float(value)
        return int(value)
    except ValueError as exc:
        raise UsageError(f"config key {key}: cannot parse {value!r}") from exc


def _parse_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise UsageError(f"config key {key}: expected a boolean, got {value!r}")


def parse_config_text(text: str, base: PipelineConfig | None = None) -> PipelineConfig:
    config = replace(base) if base is not None else PipelineConfig()
    valid = {f.name: f for f in fields(PipelineConfig)}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in valid:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        setattr(config, key, _coerce(key, value, valid[key].default))
    _validate_config(config)
    return config


def _coerce(key: str, value: str, default):
    """Convert ``value`` to the type of the key's default."""
    if key in ("pca_target", "k"):
        if key == "k" and value.lower() in ("", "none", "auto"):
            return None
        return _parse_dim_or_fraction(value, key)
    if isinstance(default, bool):
        return _parse_bool(value, key)
    if isinstance(default, int):
        try:
            return int(value)
        except ValueError as exc:
            raise UsageError(f"config key {key}: expected an integer, got {value!r}") from exc
    if isinstance(default, float):
        try:
            return float(value)
        except ValueError as exc:
            raise UsageError(f"config key {key}: expected a number, got {value!r}") from exc
    return value


def _validate_config(config: PipelineConfig) -> None:
    if config.unknown_policy not in POLICIES:
        raise UsageError(
            f"unknown_policy must be one of {POLICIES}, got {config.unknown_policy!r}"
        )
    if config.window_seconds < 1 or config.top_k_ports < 1:
        raise UsageError("window_seconds and top_k_ports must be >= 1")
    if isinstance(config.pca_target, float) and not 0.0 < config.pca_target <= 1.0:
        raise UsageError("pca_target fraction must be in (0, 1]")
    if isinstance(config.pca_target, int) and config.pca_target < 1:
        raise UsageError("pca_target dimension must be >= 1")
    if isinstance(config.k, float) and not 0.0 < config.k <= 1.0:
        raise UsageError("fractional k must be in (0, 1]")
    if isinstance(config.k, int) and config.k < 1:
        raise UsageError("k must be >= 1")
    if not config.tol > 0:
        raise UsageError("tol must be > 0")
    if config.max_iter < 1 or config.restarts < 1:
        raise UsageError("max_iter and restarts must be >= 1")
    if config.seed < 0:
        raise UsageError("seed must be >= 0")
    if config.workers < 1:
        raise UsageError("workers must be >= 1")


def load_config(path: Union[str, Path]) -> PipelineConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def config_to_text(config: PipelineConfig) -> str:
    lines = []
    for f in fields(PipelineConfig):
        value = getattr(config, f.name)
        if value is None:
            value = "none"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def fingerprint(log_bytes: bytes, config: PipelineConfig) -> str:
    """Hash of the log, the canonical text of the scope file named by the
    config, and the semantic config."""
    return _fingerprint(log_bytes, _load_scope_file(config), config)


def _fingerprint(log_bytes: bytes, scope: MemberScope, config: PipelineConfig) -> str:
    digest = hashlib.sha256()
    digest.update(log_bytes)
    digest.update(b"\n--scope--\n")
    digest.update(scope_to_text(scope).encode())
    digest.update(b"\n--config--\n")
    digest.update(json.dumps(config.semantic_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def _read_log_bytes(config: PipelineConfig) -> bytes:
    try:
        return Path(config.flow_log).read_bytes()
    except OSError as exc:
        raise DataError(f"ingest: cannot read flow log {config.flow_log}: {exc}") from exc


def _load_scope_file(config: PipelineConfig) -> MemberScope:
    try:
        text = Path(config.scope).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"ingest: cannot read scope {config.scope}: {exc}") from exc
    return load_scope(text)


def ingest(config: PipelineConfig) -> tuple[list[ClassifiedFlow], "IngestOutput"]:
    """Parse and filter the configured flow log; returns kept records."""
    log_bytes = _read_log_bytes(config)
    scope = _load_scope_file(config)
    records, malformed = parse_flow_log(
        log_bytes.decode("utf-8", errors="replace"), strict=config.strict
    )
    kept, report = filter_flows(records, scope, config.unknown_policy)
    return kept, IngestOutput(
        scope=scope,
        fingerprint=_fingerprint(log_bytes, scope, config),
        malformed=malformed,
        report=report,
    )


@dataclass
class IngestOutput:
    scope: MemberScope
    fingerprint: str
    malformed: int
    report: object


def assignments_csv(assignments: list[GroupAssignment]) -> str:
    lines = ["endpoint,group_id"]
    lines.extend(f"{a.endpoint},{a.group_id}" for a in assignments)
    return "\n".join(lines) + "\n"


def mean_distances_csv(assignments: list[GroupAssignment]) -> str:
    k = len(assignments[0].mean_distances) if assignments else 0
    lines = ["endpoint," + ",".join(f"d{i}" for i in range(k))]
    for a in assignments:
        lines.append(a.endpoint + "," + ",".join(repr(float(x)) for x in a.mean_distances))
    return "\n".join(lines) + "\n"


def groups_payload(groups: SecurityGroups, fp: str, config: PipelineConfig) -> str:
    payload = {
        "kind": "security_groups",
        "fingerprint": fp,
        "suggested_qty": groups.suggested_qty,
        "groups": {str(gid): sorted(members) for gid, members in groups.groups.items()},
        "config": config.semantic_dict(),
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def load_groups(path: Union[str, Path]) -> tuple[SecurityGroups, str]:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read groups artifact {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"groups artifact {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != "security_groups":
        raise DataError(f"{path} is not a security-groups artifact")
    raw = payload.get("groups")
    qty = payload.get("suggested_qty")
    fp = payload.get("fingerprint")
    if not (
        isinstance(raw, dict)
        and all(gid.isdecimal() and gid == str(int(gid)) for gid in raw)
        and all(
            isinstance(members, list) and all(isinstance(ep, str) for ep in members)
            for members in raw.values()
        )
        and isinstance(qty, int)
        and isinstance(fp, str)
    ):
        raise DataError(f"{path}: malformed security-groups artifact")
    if qty != len(raw):
        raise DataError(f"{path}: suggested_qty {qty} but {len(raw)} groups listed")
    owner: dict[str, str] = {}
    for gid, members in raw.items():
        for ep in members:
            if owner.setdefault(ep, gid) != gid:
                raise DataError(
                    f"{path}: endpoint {ep} is in groups {owner[ep]} and {gid}"
                )
    groups = {int(gid): frozenset(members) for gid, members in raw.items()}
    return SecurityGroups(groups=groups), fp


def _require_fresh(stage: str, fp: str, stored_fp: str) -> None:
    if fp != stored_fp:
        raise DataError(
            f"{stage}: grouping artifacts are stale (input, scope or config "
            "fingerprint mismatch); rerun the group stage"
        )


GROUP_SUMMARY_HEADER = "dataset,asset_qty,suggested_group_qty,runtime_s"


def run_group(config: PipelineConfig) -> dict:
    """Ingest, learn the groups, persist every artifact.

    Returns a summary dict; wall time covers ingest through assignment and
    is written to timing.json (a measurement, not a fingerprinted artifact).
    """
    out = Path(config.out_dir)
    t0 = time.perf_counter()
    kept, ingest_out = ingest(config)
    if not kept:
        raise DataError("ingest: no records kept after filtering; nothing to group")
    try:
        result = fit_groups(kept, config.grouping_params())
    except ValueError as exc:
        raise DataError(f"grouping: {exc}") from exc
    elapsed = time.perf_counter() - t0

    fp = ingest_out.fingerprint
    out.mkdir(parents=True, exist_ok=True)
    save_pca(result.pca_model, out / "pca_model.json")
    save_cluster_model(
        result.cluster_model,
        out / "cluster_model.json",
        config=config.semantic_dict(),
        fingerprint=fp,
    )
    write_atomic(out / "groups.json", groups_payload(result.groups, fp, config))
    write_atomic(out / "assignments.csv", assignments_csv(result.assignments))
    write_atomic(out / "mean_distances.csv", mean_distances_csv(result.assignments))
    report = ingest_out.report
    write_atomic(
        out / "ingest_report.json",
        json.dumps(
            {
                "records_read": report.records_read,
                "records_kept": report.records_kept,
                "records_dropped_unknown": report.records_dropped_unknown,
                "records_mapped_to_objects": report.records_mapped_to_objects,
                "distinct_endpoints": report.distinct_endpoints,
                "malformed_lines": ingest_out.malformed,
            },
            sort_keys=True,
        )
        + "\n",
    )
    if config.export_features:
        write_atomic(out / "features.csv", matrix_to_csv(result.matrix))
    write_atomic(
        out / "timing.json",
        json.dumps({"grouping_seconds": elapsed}, sort_keys=True) + "\n",
    )
    summary = {
        "dataset": config.dataset,
        "asset_qty": len(result.assignments),
        "suggested_group_qty": result.groups.suggested_qty,
        "runtime_s": elapsed,
    }
    return summary


def run_rules(config: PipelineConfig) -> dict:
    """Synthesize and check the ruleset from grouping artifacts."""
    out = Path(config.out_dir)
    groups, stored_fp = load_groups(out / "groups.json")
    kept, ingest_out = ingest(config)
    _require_fresh("rules", ingest_out.fingerprint, stored_fp)
    try:
        tuples = extract_service_flows(kept, groups, ingest_out.scope)
        ruleset = generalize(tuples)
        hygiene = check_ruleset(ruleset, groups, ingest_out.scope)
    except ValueError as exc:
        raise DataError(f"rules: {exc}") from exc
    if hygiene.any_to_any or hygiene.duplicates:
        raise RuntimeError(
            "rules: synthesized ruleset failed structural guarantees "
            f"(any_to_any={len(hygiene.any_to_any)}, duplicates={len(hygiene.duplicates)})"
        )
    write_atomic(out / "ruleset.csv", ruleset_to_csv(ruleset))
    write_atomic(out / "hygiene.txt", hygiene.to_text())
    return {
        "rules": len(ruleset.rules),
        "any_to_any": len(hygiene.any_to_any),
        "duplicates": len(hygiene.duplicates),
        "empty_group_refs": len(hygiene.empty_group_refs),
        "redundant_pairs": len(hygiene.redundant),
    }


def load_ground_truth(path: Union[str, Path]) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"eval: cannot read ground truth {path}: {exc}") from exc
    truth: dict[str, str] = {}
    first_row = True
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"eval: ground truth line {lineno}: expected endpoint,label")
        endpoint, label = parts[0].strip(), parts[1].strip()
        if first_row:
            first_row = False
            if endpoint.lower() == "endpoint":
                continue
        if endpoint in truth:
            raise DataError(
                f"eval: ground truth line {lineno}: duplicate endpoint {endpoint}"
            )
        truth[endpoint] = label
    if not truth:
        raise DataError(f"eval: ground truth {path} is empty")
    return truth


def run_eval(config: PipelineConfig) -> tuple[EvalReport, str]:
    """Score the persisted groups against ground truth; emit the report row."""
    out = Path(config.out_dir)
    groups, stored_fp = load_groups(out / "groups.json")
    _require_fresh("eval", fingerprint(_read_log_bytes(config), config), stored_fp)
    truth = load_ground_truth(config.ground_truth)
    try:
        timing = json.loads((out / "timing.json").read_text())
    except OSError as exc:
        raise DataError("eval: timing.json missing; run the group stage first") from exc
    except ValueError as exc:
        raise DataError(f"eval: timing.json is not valid JSON: {exc}") from exc
    try:
        elapsed = float(timing["grouping_seconds"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError("eval: timing.json has no numeric grouping_seconds") from exc
    report = evaluate(groups, truth, run_time_seconds=elapsed)
    row = report_row(report, config.dataset)
    write_atomic(out / "eval_report.csv", REPORT_HEADER + "\n" + row + "\n")
    write_atomic(
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
    return report, row


def parse_grid(text: str, base: PipelineConfig) -> list[PipelineConfig]:
    """Grid file: one config per line, ';'-separated key = value overrides."""
    configs: list[PipelineConfig] = []
    for raw in text.split("\n"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        overrides = "\n".join(part.strip() for part in line.split(";") if part.strip())
        configs.append(parse_config_text(overrides, base=base))
    return configs


def run_tune(config: PipelineConfig) -> dict:
    """Sweep the grid, write the winning config and the per-entry report."""
    try:
        grid_text = Path(config.grid).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"tune: cannot read grid {config.grid}: {exc}") from exc
    grid = parse_grid(grid_text, config)
    if not grid:
        raise DataError(f"tune: grid {config.grid} contains no configurations")
    kept = {config.unknown_policy: ingest(config)[0]}
    truth = load_ground_truth(config.ground_truth)

    reports: list[EvalReport] = []
    for entry in grid:
        if entry.unknown_policy not in kept:
            kept[entry.unknown_policy] = ingest(entry)[0]
        t0 = time.perf_counter()
        try:
            result = fit_groups(kept[entry.unknown_policy], entry.grouping_params())
        except ValueError as exc:
            raise DataError(f"tune: {exc}") from exc
        elapsed = time.perf_counter() - t0
        reports.append(evaluate(result.groups, truth, run_time_seconds=elapsed))
    idx, below_floor = select_best(reports, config.homogeneity_floor)
    out = Path(config.out_dir)
    write_atomic(out / "best_config.txt", config_to_text(grid[idx]))
    rows = [REPORT_HEADER + ",below_floor"]
    for i, rep in enumerate(reports):
        flag = "1" if below_floor and i == idx else "0"
        rows.append(report_row(rep, f"{config.dataset}@{i}") + "," + flag)
    write_atomic(out / "tune_report.csv", "\n".join(rows) + "\n")
    return {
        "winner_index": idx,
        "below_floor": below_floor,
        "homogeneity": reports[idx].homogeneity,
        "v_measure": reports[idx].v_measure,
    }


def run_synth(config: PipelineConfig) -> dict:
    """Generate a synthetic scenario into out_dir (flows, scope, truth)."""
    try:
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
    except ValueError as exc:
        raise DataError(f"synth: {exc}") from exc
    out = Path(config.out_dir)
    write_atomic(out / "flows.csv", scenario.log_text)
    write_atomic(out / "scope.txt", scope_to_text(scenario.scope))
    write_atomic(out / "truth.csv", scenario.truth_csv)
    return {
        "flows": scenario.total_flows,
        "noise_flows": scenario.noise_flows,
        "endpoints": len(scenario.truth),
        "groups": config.synth_group_count,
    }


def verify_ruleset_completeness(config: PipelineConfig) -> tuple[int, int]:
    """Count (allowed, total) over the records a persisted ruleset was built
    from; used by the acceptance checks."""
    out = Path(config.out_dir)
    groups, stored_fp = load_groups(out / "groups.json")
    kept, ingest_out = ingest(config)
    _require_fresh("verify", ingest_out.fingerprint, stored_fp)
    ruleset = load_ruleset(out / "ruleset.csv")
    matcher = make_matcher(ruleset, groups, ingest_out.scope)
    allowed = sum(1 for rec in kept if matcher(rec.flow) == "allow")
    return allowed, len(kept)
