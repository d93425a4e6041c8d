"""Batch pipeline wiring: configuration, artifact persistence, stages.

The groups artifact and the conversation table each embed a fingerprint
hashing the input flow log, the scope and the semantic configuration
(window, vocab, projection, clustering and policy settings; execution
controls and paths are excluded). The log is parsed by the stages that need
its rows, ``group`` and ``tune``; ``rules`` reads the conversation table
that ``group`` wrote. Measured wall time is a side file, not a fingerprinted
artifact, so reruns stay byte-identical.

``rules`` and ``eval`` hash the log in blocks and load no numpy: ``flows``,
``clustering`` and ``synth`` are imported inside the stages that use them.
"""

from __future__ import annotations

import hashlib
import ipaddress
import json
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Union

from .core import (
    DROP_UNKNOWN,
    INT64_MAX,
    MAX_OBJECTS,
    MAX_PORT_POOL,
    POLICIES,
    Conversation,
    DataError,
    GroupingParams,
    MemberScope,
    SecurityGroups,
    content_lines,
    load_scope,
    make_dir,
    parse_decimal,
    read_blocks,
    read_file,
    scope_to_text,
    write_atomic,
)
from .metrics import REPORT_HEADER, EvalReport, evaluate, report_row
from .rules import (
    HYGIENE_TEXT,
    format_rule,
    generalize,
    load_ruleset,
    ruleset_to_csv,
    tally_conversations,
)

if TYPE_CHECKING:
    from .clustering import GroupAssignment
    from .flows import FlowTable, IngestReport


class UsageError(Exception):
    """Bad command line or configuration."""


#: Upper bound on ``restarts``: each restart is a full k-means fit, and the
#: restart seeds are drawn as one array before the first fit starts.
MAX_RESTARTS = 1000

#: Config fields that define artifact content (hashed into fingerprints).
SEMANTIC_FIELDS = ("unknown_policy",) + tuple(f.name for f in fields(GroupingParams))


@dataclass(frozen=True)
class PipelineConfig(GroupingParams):
    """A run's keys. Every rule on them is checked when a config is built,
    by ``__post_init__``, which ``dataclasses.replace`` runs too; frozen, so
    a config that exists stays valid."""

    # paths
    flow_log: str = ""
    scope: str = ""
    out_dir: str = "out"
    ground_truth: str = ""
    grid: str = ""
    dataset: str = "dataset"
    # regime (the grouping hyper-parameters are GroupingParams' fields)
    unknown_policy: str = DROP_UNKNOWN
    homogeneity_floor: float = 0.95
    # execution controls (not part of artifact identity)
    strict: bool = False
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
    workers = 1  # no annotation, so no field and no config key; only bench/trace.py reads it

    def __post_init__(self) -> None:
        if self.unknown_policy not in POLICIES:
            raise UsageError(
                f"unknown_policy must be one of {POLICIES}, got {self.unknown_policy!r}"
            )
        if not 1 <= self.window_seconds <= INT64_MAX:
            raise UsageError("window_seconds must be in [1, 2**63 - 1]")
        if self.top_k_ports < 1:
            raise UsageError("top_k_ports must be >= 1")
        if isinstance(self.pca_target, float) and not 0.0 < self.pca_target <= 1.0:
            raise UsageError("pca_target fraction must be in (0, 1]")
        if isinstance(self.pca_target, int) and self.pca_target < 1:
            raise UsageError("pca_target dimension must be >= 1")
        if isinstance(self.k, float) and not 0.0 < self.k <= 1.0:
            raise UsageError("fractional k must be in (0, 1]")
        if isinstance(self.k, int) and self.k < 1:
            raise UsageError("k must be >= 1")
        if not self.tol > 0:
            raise UsageError("tol must be > 0")
        if self.max_iter < 1 or self.restarts < 1:
            raise UsageError("max_iter and restarts must be >= 1")
        if self.restarts > MAX_RESTARTS:
            raise UsageError(f"restarts must be <= {MAX_RESTARTS}")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if not 0.0 <= self.homogeneity_floor <= 1.0:
            raise UsageError("homogeneity_floor must be in [0, 1]")
        if "," in self.dataset:
            raise UsageError(f"dataset {self.dataset!r} holds a comma, which splits report rows")
        for name in ("group_count", "endpoints_per_group", "windows",
                     "flows_per_endpoint_window", "services_per_group", "port_pool"):
            if getattr(self, f"synth_{name}") < 1:
                raise UsageError(f"synth_{name} must be >= 1")
        if not 0.0 <= self.synth_noise_rate < 1.0:
            raise UsageError("synth_noise_rate must be in [0, 1)")
        if not 0.0 <= self.synth_external_fraction <= 1.0:
            raise UsageError("synth_external_fraction must be in [0, 1]")
        if self.synth_object_count < (1 if self.synth_external_fraction > 0 else 0):
            raise UsageError("synth_object_count must be >= 0 (>= 1 with external traffic)")
        # synth's address and port ranges; the endpoint count is checked where
        # it is a product of two values, in random_scenario.
        if self.synth_port_pool > MAX_PORT_POOL:
            raise UsageError(f"synth_port_pool must be <= {MAX_PORT_POOL}")
        if self.synth_object_count > MAX_OBJECTS:
            raise UsageError(f"synth_object_count must be <= {MAX_OBJECTS}")

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
    valid = {f.name: f for f in fields(PipelineConfig)}
    values = {}
    for lineno, line in content_lines(text):
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in valid:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _coerce(key, value, valid[key].default)
    return replace(base or PipelineConfig(), **values)


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


def load_config(path: Union[str, Path]) -> PipelineConfig:
    return parse_config_text(read_file(path, "config", UsageError))


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
    return _fingerprint(hashlib.sha256(log_bytes), _load_scope_file(config), config)


def _fingerprint(log_hash: hashlib._Hash, scope: MemberScope, config: PipelineConfig) -> str:
    """Finish ``log_hash``, a SHA-256 fed the log's bytes in order (the
    digest does not depend on how they were cut), with the scope and the
    semantic config."""
    log_hash.update(b"\n--scope--\n")
    log_hash.update(scope_to_text(scope).encode())
    log_hash.update(b"\n--config--\n")
    log_hash.update(json.dumps(config.semantic_dict(), sort_keys=True).encode())
    return log_hash.hexdigest()


def _log_hash(config: PipelineConfig) -> hashlib._Hash:
    """A SHA-256 fed the configured log, read in blocks."""
    log_hash = hashlib.sha256()
    for block in read_blocks(config.flow_log, "flow log"):
        log_hash.update(block)
    return log_hash


def _hashed(blocks: Iterable[bytes], log_hash: hashlib._Hash) -> Iterator[bytes]:
    """``blocks``, each fed to ``log_hash`` as it passes."""
    for block in blocks:
        log_hash.update(block)
        yield block


def _load_scope_file(config: PipelineConfig) -> MemberScope:
    return load_scope(read_file(config.scope, "scope"))


def ingest(config: PipelineConfig) -> tuple[FlowTable, "IngestOutput"]:
    """Parse and filter the configured flow log; returns the kept table.
    The log is read once, in blocks that feed both its hash and the parse,
    so no whole copy of its bytes or text exists. An unreadable log is
    reported before a bad scope, and a bad scope before a malformed log."""
    from .flows import filter_flows, parse_flow_log

    blocks = read_blocks(config.flow_log, "flow log")
    # The first block is read before the scope, so an unreadable log is named first.
    blocks = chain([next(blocks, b"")], blocks)
    scope = _load_scope_file(config)
    log_hash = hashlib.sha256()
    records, malformed = parse_flow_log(_hashed(blocks, log_hash), strict=config.strict)
    fp = _fingerprint(log_hash, scope, config)
    kept, report = filter_flows(records, scope, config.unknown_policy)
    return kept, IngestOutput(scope=scope, fingerprint=fp, malformed=malformed, report=report)


@dataclass
class IngestOutput:
    scope: MemberScope
    fingerprint: str
    malformed: int
    report: IngestReport


def assignments_csv(assignments: list[GroupAssignment]) -> str:
    lines = ["endpoint,group_id"]
    lines.extend(f"{a.endpoint},{a.group_id}" for a in assignments)
    return "\n".join(lines) + "\n"


def mean_distances_csv(assignments: list[GroupAssignment]) -> str:
    """Every endpoint's mean distance to each centroid. No stage writes it;
    ``bench/trace.py`` does."""
    k = len(assignments[0].mean_distances) if assignments else 0
    lines = ["endpoint," + ",".join(f"d{i}" for i in range(k))]
    for a in assignments:
        lines.append(a.endpoint + "," + ",".join(repr(float(x)) for x in a.mean_distances))
    return "\n".join(lines) + "\n"


CONVERSATIONS_HEADER = "src_addr,dst_addr,protocol,dst_port,count"


def conversations_csv(rows: list[Conversation], fp: str) -> str:
    """The conversation table: a fingerprint line, a header, then one line
    per conversation in the order given."""
    lines = [f"fingerprint,{fp}", CONVERSATIONS_HEADER]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def load_conversations(path: Path, fp: str) -> Iterator[Conversation]:
    """Yield the rows of a conversation table written for the run ``fp``
    names, in file order. Only the table's own form, as
    :func:`conversations_csv` writes it, is checked here: this run's
    fingerprint line and the header, a line end after the last line, and per
    row five fields, an upper-case protocol and a canonical decimal port and
    count, the count >= 1. A fault raises :class:`DataError` naming the file,
    and the line for a row. The addresses and the service are checked once
    per distinct value by :func:`rules.tally_conversations`, which raises
    ``ValueError``."""
    lines = read_file(path, "conversation table").split("\n")
    if lines[:2] != [f"fingerprint,{fp}", CONVERSATIONS_HEADER]:
        raise DataError(
            f"rules: {path} is stale or damaged (its first two lines are not this "
            "run's fingerprint and the header); rerun the group stage"
        )
    if lines[-1]:
        raise DataError(f"rules: {path} is truncated: line {len(lines)} has no line end")
    for lineno, line in enumerate(lines[2:-1], start=3):
        fields = line.split(",")
        try:
            if len(fields) != 5:
                raise ValueError(f"expected 5 fields, got {len(fields)}")
            src, dst, protocol, port, count = fields
            if not protocol or protocol != protocol.strip().upper():
                raise ValueError(f"protocol {protocol!r} is not in the written form")
            port, count = parse_decimal(port), parse_decimal(count)
            if count < 1:
                raise ValueError("count 0 < 1")
        except ValueError as exc:
            raise DataError(f"rules: {path} line {lineno}: {exc}") from exc
        yield src, dst, protocol, port, count


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
    text = read_file(path, "groups artifact")
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise DataError(f"groups artifact {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != "security_groups":
        raise DataError(f"{path} is not a security-groups artifact")
    raw = payload.get("groups")
    qty = payload.get("suggested_qty")
    fp = payload.get("fingerprint")
    if not (
        isinstance(raw, dict)
        and all(
            isinstance(members, list) and all(isinstance(ep, str) for ep in members)
            for members in raw.values()
        )
        and type(qty) is int  # a JSON true is an int too
        and isinstance(fp, str)
    ):
        raise DataError(f"{path}: malformed security-groups artifact")
    try:
        groups = {parse_decimal(gid): frozenset(members) for gid, members in raw.items()}
    except ValueError as exc:
        raise DataError(f"{path}: group id {exc}") from exc
    if qty != len(raw):
        raise DataError(f"{path}: suggested_qty {qty} but {len(raw)} groups listed")
    try:
        for members in raw.values():
            for ep in members:
                ipaddress.IPv4Address(ep)  # its message names the member
        return SecurityGroups(groups=groups), fp
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    write_atomic(path, json.dumps(payload, sort_keys=True) + "\n")


def _require_fresh(stage: str, fp: str, stored_fp: str) -> None:
    if fp != stored_fp:
        raise DataError(
            f"{stage}: grouping artifacts are stale (input, scope or config "
            "fingerprint mismatch); rerun the group stage"
        )


def run_group(config: PipelineConfig) -> str:
    """Ingest, learn the groups, persist every artifact.

    The conversation table is tallied from the kept flows before the fit,
    and the flows are released once the samples are projected, so k-means
    runs with no flow table alive. Returns the summary CSV; wall time
    covers ingest, the tally and the fit through assignment, and is written
    to timing.json (a measurement, not a fingerprinted artifact).
    """
    from .clustering import group_samples, project_samples
    from .flows import conversations

    t0 = time.perf_counter()
    kept, ingest_out = ingest(config)
    if not kept:
        raise DataError("ingest: no records kept after filtering; nothing to group")
    out = make_dir(config.out_dir)
    table_csv = conversations_csv(conversations(kept), ingest_out.fingerprint)
    params = config.grouping_params()
    try:
        samples = project_samples(kept, params)
        del kept
        result = group_samples(*samples, params)
    except ValueError as exc:
        raise DataError(f"grouping: {exc}") from exc
    elapsed = time.perf_counter() - t0

    write_atomic(out / "assignments.csv", assignments_csv(result.assignments))
    report = ingest_out.report
    _write_json(
        out / "ingest_report.json",
        dict(
            asdict(report),
            records_dropped_unknown=report.records_dropped_unknown,
            malformed_lines=ingest_out.malformed,
        ),
    )
    write_atomic(out / "conversations.csv", table_csv)
    _write_json(out / "timing.json", {"grouping_seconds": elapsed})
    # Last: a crash at any earlier write leaves the previous groups.json,
    # whose fingerprint then rejects this run's inputs in rules and eval,
    # while conversations.csv carries its own.
    write_atomic(out / "groups.json", groups_payload(result.groups, ingest_out.fingerprint, config))
    return (
        "dataset,asset_qty,suggested_group_qty,runtime_s\n"
        f"{config.dataset},{len(result.assignments)},"
        f"{result.groups.suggested_qty},{elapsed:.1f}\n"
    )


def run_rules(config: PipelineConfig) -> str:
    """Synthesize the ruleset from the groups and the conversation table, both
    checked against the log and scope; returns the rule and hygiene counts.
    The log is hashed, not parsed. A table row that no rule may allow, such
    as one joining two objects, is a data error naming the table; ruleset.csv
    and hygiene.txt are then left as they were."""
    out = Path(config.out_dir)
    groups, stored_fp = load_groups(out / "groups.json")
    scope = _load_scope_file(config)
    fp = _fingerprint(_log_hash(config), scope, config)
    _require_fresh("rules", fp, stored_fp)
    table = out / "conversations.csv"
    try:
        ruleset = generalize(tally_conversations(load_conversations(table, fp), groups, scope))
    except ValueError as exc:
        raise DataError(f"rules: {table}: {exc}") from exc
    write_atomic(out / "ruleset.csv", ruleset_to_csv(ruleset))
    write_atomic(out / "hygiene.txt", HYGIENE_TEXT)
    return f"rules: {len(ruleset.rules)} rules; any_to_any=0 duplicates=0 redundant=0\n"


def load_ground_truth(path: Union[str, Path]) -> dict[str, str]:
    text = read_file(path, "ground truth")
    truth: dict[str, str] = {}
    for i, (lineno, line) in enumerate(content_lines(text)):
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"eval: ground truth line {lineno}: expected endpoint,label")
        endpoint, label = parts[0].strip(), parts[1].strip()
        if i == 0 and endpoint.lower() == "endpoint":
            continue
        if endpoint in truth:
            raise DataError(
                f"eval: ground truth line {lineno}: duplicate endpoint {endpoint}"
            )
        truth[endpoint] = label
    if not truth:
        raise DataError(f"eval: ground truth {path} is empty")
    return truth


def run_eval(config: PipelineConfig) -> str:
    """Score the persisted groups against ground truth; returns the text of
    eval_report.csv."""
    out = Path(config.out_dir)
    groups, stored_fp = load_groups(out / "groups.json")
    fp = _fingerprint(_log_hash(config), _load_scope_file(config), config)
    _require_fresh("eval", fp, stored_fp)
    truth = load_ground_truth(config.ground_truth)
    text = read_file(out / "timing.json", "group-stage timing")
    try:
        timing = json.loads(text)
    except ValueError as exc:
        raise DataError(f"eval: timing.json is not valid JSON: {exc}") from exc
    seconds = timing.get("grouping_seconds") if isinstance(timing, dict) else None
    # type() and not isinstance(): a JSON true is an int too. The upper bound
    # rejects infinity and an integer too large for a float.
    if type(seconds) not in (int, float) or not 0 <= seconds <= sys.float_info.max:
        raise DataError("eval: timing.json has no finite, non-negative grouping_seconds")
    report = evaluate(groups, truth, run_time_seconds=float(seconds))
    report_csv = REPORT_HEADER + "\n" + report_row(report, config.dataset) + "\n"
    write_atomic(out / "eval_report.csv", report_csv)
    _write_json(
        out / "eval_report.json",
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
    )
    return report_csv


def parse_grid(text: str, base: PipelineConfig) -> list[PipelineConfig]:
    """Grid file: one config per line, ';'-separated key = value overrides
    of the semantic keys (the others are read from the base config)."""
    configs: list[PipelineConfig] = []
    for lineno, line in content_lines(text):
        parts = [part.strip() for part in line.split(";") if part.strip()]
        for key in (part.partition("=")[0].strip() for part in parts):
            if key not in SEMANTIC_FIELDS:
                raise UsageError(f"grid line {lineno}: {key!r} is not in {SEMANTIC_FIELDS}")
        configs.append(parse_config_text("\n".join(parts), base=base))
    return configs


def run_tune(config: PipelineConfig) -> str:
    """Sweep the grid, write the winning config and the per-entry report;
    returns the winner's line."""
    from .clustering import fit_groups, select_best

    grid = parse_grid(read_file(config.grid, "grid", UsageError), config)
    if not grid:
        raise DataError(f"tune: grid {config.grid} contains no configurations")
    truth = load_ground_truth(config.ground_truth)
    out = make_dir(config.out_dir)

    kept: dict[str, FlowTable] = {}
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
    write_atomic(out / "best_config.txt", config_to_text(grid[idx]))
    rows = [REPORT_HEADER + ",below_floor"]
    for i, rep in enumerate(reports):
        flag = "1" if below_floor and i == idx else "0"
        rows.append(report_row(rep, f"{config.dataset}@{i}") + "," + flag)
    write_atomic(out / "tune_report.csv", "\n".join(rows) + "\n")
    note = " (below floor)" if below_floor else ""
    return (
        f"tune: winner grid entry {idx}{note}, "
        f"homogeneity={reports[idx].homogeneity:.4f} v_measure={reports[idx].v_measure:.4f}\n"
    )


def run_synth(config: PipelineConfig) -> str:
    """Generate a synthetic scenario into out_dir (flows, scope, truth);
    returns the flow, endpoint and group counts."""
    from .synth import generate, random_scenario

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
    return (
        f"synth: {scenario.total_flows} flows ({scenario.noise_flows} noise), "
        f"{len(scenario.truth)} endpoints in {config.synth_group_count} groups "
        f"-> {config.out_dir}\n"
    )


def verify_ruleset_completeness(config: PipelineConfig) -> tuple[int, int]:
    """Count (allowed, total) over the records a persisted ruleset was built
    from; used by the acceptance checks. It parses the log rather than read
    conversations.csv, so a table that lost rows shows here, then tallies the
    conversations as ``rules`` does and allows the keys the ruleset holds. A
    rule whose key the tally lacks, or holds with another count than the
    rule's, raises :class:`DataError` naming the first."""
    from .flows import conversations

    out = Path(config.out_dir)
    groups, stored_fp = load_groups(out / "groups.json")
    kept, ingest_out = ingest(config)
    _require_fresh("verify", ingest_out.fingerprint, stored_fp)
    path = out / "ruleset.csv"
    rules = load_ruleset(path).rules
    try:
        tally = tally_conversations(conversations(kept), groups, ingest_out.scope)
    except ValueError as exc:
        raise DataError(f"verify: {exc}") from exc
    for rule in rules:
        n = tally.get((rule.src, rule.dst, rule.service))
        if n != rule.evidence_count:
            fault = f"counts {rule.evidence_count}, the log {n}" if n else "allows no kept flow"
            raise DataError(f"verify: {path}: rule {format_rule(rule)} {fault}")
    return sum(rule.evidence_count for rule in rules), len(kept)
