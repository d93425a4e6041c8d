import collections
import contextlib
import io
import ipaddress
import json
import os
import re
import subprocess
import sys
import tempfile
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import microseg
import microseg.clustering as clustering
import microseg.core as core
import microseg.flows as flows
import microseg.pipeline as pipeline
import microseg.rules as rules
from microseg.cli import build_parser, main
from microseg.core import (
    DROP_UNKNOWN,
    MAP_TO_OBJECTS,
    DataError,
    GroupingParams,
    load_scope,
    read_blocks,
    scope_to_text,
)
from microseg.flows import COLUMNS, FlowTable, parse_flow_log
from microseg.pipeline import (
    PipelineConfig,
    UsageError,
    config_to_text,
    fingerprint,
    ingest,
    load_config,
    load_ground_truth,
    load_groups,
    parse_config_text,
    parse_grid,
    run_eval,
    run_group,
    run_rules,
    run_synth,
    run_tune,
    verify_ruleset_completeness,
)
from microseg.synth import ScenarioSpec, ServiceTemplate, generate

from conftest import as_records
from oracles import reference_parse_flow_log

ARTIFACTS = [
    "groups.json",
    "assignments.csv",
    "ingest_report.json",
    "conversations.csv",
]


def write_config(path: Path, **overrides) -> Path:
    lines = [f"{key} = {value}" for key, value in overrides.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def child_env(env: dict | None = None) -> dict:
    """This process's environment with ``env`` added, under which a child
    imports the package this process imported, also when pytest put src on
    sys.path itself rather than through PYTHONPATH."""
    src = str(Path(microseg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **(env or {}))


def run_cli(
    command: str, cfg: Path, env: dict | None = None, **run_args
) -> subprocess.CompletedProcess:
    """``python -m microseg <command> --config <cfg>`` in a child process
    under ``child_env(env)``, output as bytes; ``stdout`` may name another
    sink than a pipe."""
    return subprocess.run(
        [sys.executable, "-m", "microseg", command, "--config", str(cfg)],
        stdout=run_args.pop("stdout", subprocess.PIPE),
        stderr=subprocess.PIPE,
        env=child_env(env),
        **run_args,
    )


#: A locale whose filesystem and stdout encoding is ASCII.
C_LOCALE = {"PYTHONUTF8": "0", "LC_ALL": "C"}

#: ``python -m microseg`` on the arguments after ``-c``, then whether numpy
#: was loaded, as the last line of stderr.
NUMPY_PROBE = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('microseg', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print('numpy' in sys.modules, file=sys.stderr)\n"
)


def synth_setup(tmp_path: Path, **synth_overrides) -> PipelineConfig:
    """Generate a small scenario and return a config pointing at it."""
    data = tmp_path / "data"
    synth_config = PipelineConfig(
        out_dir=str(data),
        seed=5,
        synth_group_count=synth_overrides.pop("group_count", 4),
        synth_endpoints_per_group=synth_overrides.pop("endpoints_per_group", 3),
        synth_windows=synth_overrides.pop("windows", 4),
        synth_flows_per_endpoint_window=synth_overrides.pop("flows", 12),
        synth_services_per_group=synth_overrides.pop("services", 1),
        synth_port_pool=synth_overrides.pop("port_pool", 32),
        synth_noise_rate=synth_overrides.pop("noise", 0.0),
        synth_external_fraction=synth_overrides.pop("external_fraction", 0.0),
    )
    assert not synth_overrides, synth_overrides
    run_synth(synth_config)
    config = PipelineConfig(
        flow_log=str(data / "flows.csv"),
        scope=str(data / "scope.txt"),
        ground_truth=str(data / "truth.csv"),
        out_dir=str(tmp_path / "artifacts"),
        dataset="synthetic",
        seed=5,
        top_k_ports=32,
    )
    return config


class TestConfigParsing:
    def test_defaults(self):
        config = parse_config_text("")
        assert config.unknown_policy == "drop_unknown"
        assert config.window_seconds == 3600
        assert config.top_k_ports == 64
        assert config.pca_target == 0.95
        assert config.k is None
        assert config.restarts == 4

    def test_k_forms(self):
        assert parse_config_text("k = 12").k == 12
        assert parse_config_text("k = 0.5").k == 0.5
        assert parse_config_text("k = none").k is None

    def test_pca_target_int_vs_fraction(self):
        assert parse_config_text("pca_target = 1").pca_target == 1
        assert isinstance(parse_config_text("pca_target = 1").pca_target, int)
        assert parse_config_text("pca_target = 1.0").pca_target == 1.0
        assert isinstance(parse_config_text("pca_target = 1.0").pca_target, float)

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError, match="unknown key"):
            parse_config_text("frobnicate = 3")

    def test_removed_export_features_key_rejected(self):
        # An older tune's best_config.txt still sets it.
        with pytest.raises(UsageError, match="unknown key 'export_features'"):
            parse_config_text("export_features = true")

    def test_removed_workers_key_rejected(self):
        # An older tune's best_config.txt still sets it.
        with pytest.raises(UsageError, match="unknown key 'workers'"):
            parse_config_text("workers = 1")
        assert PipelineConfig().workers == 1  # bench/trace.py still reads it

    def test_checked_when_built_and_frozen(self):
        # The rules live in the type: building, replace and the text parser
        # all run them, and no config changes after it is built.
        assert not hasattr(pipeline, "validate_config")
        with pytest.raises(UsageError, match="max_iter and restarts must be >= 1"):
            PipelineConfig(restarts=0)
        config = PipelineConfig()
        with pytest.raises(UsageError, match="k must be >= 1"):
            replace(config, k=0)
        with pytest.raises(FrozenInstanceError):
            config.seed = 1
        with pytest.raises(FrozenInstanceError):
            config.grouping_params().seed = 1

    def test_bad_value_rejected(self):
        with pytest.raises(UsageError):
            parse_config_text("window_seconds = soon")

    def test_bad_policy_rejected(self):
        with pytest.raises(UsageError, match="unknown_policy"):
            parse_config_text("unknown_policy = keep_all")

    def test_comments_ignored(self):
        config = parse_config_text("# hello\nseed = 9  # trailing\n")
        assert config.seed == 9

    def test_form_feed_stays_in_its_comment(self):
        # Only "\n" ends a line; the form feed does not start a new one.
        assert parse_config_text("seed = 5  # note\x0cseed = 9\n").seed == 5

    def test_grid_line_not_split_at_form_feed(self):
        configs = parse_grid("seed = 1  # a\x0cseed = 2\n", PipelineConfig())
        assert [c.seed for c in configs] == [1]

    def test_round_trip_through_text(self):
        config = parse_config_text("seed = 3\nk = 0.5\npca_target = 12\nstrict = true")
        again = parse_config_text(config_to_text(config))
        assert again == config

    def test_file_missing_is_usage_error(self, tmp_path):
        with pytest.raises(UsageError):
            load_config(tmp_path / "nope.cfg")

    def test_file_lines_end_at_newline_only(self, tmp_path):
        # The file reads as the text parser reads its text: a lone "\r"
        # stays inside its comment, and CRLF lines still load.
        path = tmp_path / "run.cfg"
        text = "seed = 5  # note\rseed = 9\n"
        path.write_bytes(text.encode())
        assert load_config(path) == parse_config_text(text)
        assert load_config(path).seed == 5
        path.write_bytes(b"seed = 5\r\ntop_k_ports = 8\r\n")
        assert (load_config(path).seed, load_config(path).top_k_ports) == (5, 8)

    def test_best_config_lists_grouping_params_first_and_reloads(self, tmp_path):
        config = parse_config_text("seed = 3\nk = 0.5\nunknown_policy = map_to_objects\n")
        text = config_to_text(config)
        keys = [line.partition(" = ")[0] for line in text.splitlines()]
        assert keys[:8] == [f.name for f in fields(GroupingParams)]
        assert sorted(keys) == sorted(f.name for f in fields(PipelineConfig))
        path = tmp_path / "best_config.txt"
        path.write_text(text)
        assert load_config(path) == config

    def test_default_best_config_has_no_workers_line_and_reloads(self, tmp_path):
        text = config_to_text(PipelineConfig())
        assert "workers" not in text
        path = tmp_path / "best_config.txt"
        path.write_text(text)
        assert load_config(path) == PipelineConfig()


class TestFingerprint:
    SCOPE = "member 10.0.0.0/24\nobject 8.8.8.0/24 dns\nobject 1.1.1.0/24 cdn\n"

    def scope_file(self, tmp_path, text=SCOPE, name="scope.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_sensitive_to_log_and_semantic_config(self, tmp_path):
        scope = self.scope_file(tmp_path)
        config = PipelineConfig(scope=scope)
        base = fingerprint(b"log", config)
        assert fingerprint(b"log2", config) != base
        changed = PipelineConfig(scope=scope, seed=1)
        assert fingerprint(b"log", changed) != base

    def test_insensitive_to_paths(self, tmp_path):
        a = PipelineConfig(out_dir="x", scope=self.scope_file(tmp_path))
        b = PipelineConfig(out_dir="y", scope=self.scope_file(tmp_path, name="s2"))
        assert fingerprint(b"log", a) == fingerprint(b"log", b)

    def test_sensitive_to_scope_content_not_its_layout(self, tmp_path):
        base = fingerprint(b"log", PipelineConfig(scope=self.scope_file(tmp_path)))
        fewer = self.scope_file(tmp_path, "member 10.0.0.0/24\nobject 8.8.8.0/24 dns\n", "a")
        assert fingerprint(b"log", PipelineConfig(scope=fewer)) != base
        relaid = self.scope_file(tmp_path, "# comment\n\n" + self.SCOPE.replace(" ", "   "), "b")
        assert fingerprint(b"log", PipelineConfig(scope=relaid)) == base

    def test_unreadable_scope_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="scope"):
            fingerprint(b"log", PipelineConfig(scope=str(tmp_path / "missing.txt")))

    #: A CRLF line end and a two-byte character that 3-byte blocks split,
    #: invalid UTF-8, and no final line end.
    ODD_LOG = (
        b"timestamp,src_addr,dst_addr,protocol,dst_port,packets,bytes\r\n"
        b"0,10.0.0.1,10.0.0.2,TCP,443,1,60\r\n"
        b"0,10.0.0.1,10.0.0.2,\xff\xfe,443,1,60\n"
        b"100,10.0.0.1,10.0.0.2,\xc3\xa9SP,0,1,60"
    )

    @pytest.mark.parametrize("log", [ODD_LOG, b""], ids=["odd", "empty"])
    def test_streamed_digest_equals_whole_log_digest(self, tmp_path, monkeypatch, log):
        monkeypatch.setattr(core, "READ_BLOCK", 3)
        path = tmp_path / "flows.csv"
        path.write_bytes(log)
        config = PipelineConfig(flow_log=str(path), scope=self.scope_file(tmp_path))
        if log:
            assert log.index(b"\r\n") % 3 == log.index(b"\xc3\xa9") % 3 == 2
        blocks = list(read_blocks(path, "flow log"))
        assert b"".join(blocks) == log and {len(b) for b in blocks[:-1]} <= {3}
        scope = load_scope(self.SCOPE)
        streamed = pipeline._fingerprint(pipeline._log_hash(config), scope, config)
        assert streamed == fingerprint(log, config)
        # ingest hashes the same blocks it parses.
        assert ingest(config)[1].fingerprint == fingerprint(log, config)

    #: Lines of the odd log, and more that blocks of 1-7 bytes cut: blank
    #: and space-only lines, a truncated UTF-8 sequence at a line end and
    #: alone, a three-byte character, invalid bytes in an address, and
    #: canonical lines with LF and CRLF ends.
    ODD_LINES = ODD_LOG.split(b"\n") + [
        b"", b"   ", b"\r", b"garbage", b"\xc3", b"1,10.0.0.1,10.0.0.2,TCP,22,1,\xc3",
        b"2,10.0.0.1,10.0.0.2,\xe2\x82\xac,0,1,1", b"3,10.0.0.\xff,10.0.0.2,TCP,22,1,1",
        b"4,10.0.0.1,10.0.0.2,TCP,22,1,1", b"5,10.0.0.3,10.0.0.1,UDP,53,2,80\r",
    ]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from(ODD_LINES), max_size=12),
        st.sampled_from([b"", b"\n", b"\r\n"]),
        st.integers(1, 7),
        st.one_of(st.integers(1, 40), st.just(flows.CHUNK_CHARS)),
    )
    def test_streamed_ingest_reads_as_the_whole_log(self, lines, end, block, chunk):
        # The log read in blocks parses to what the per-line reference parse
        # reads from the whole log decoded with replacement, with the same
        # --strict message, and ingest hashes the bytes it parsed.
        whole = b"\n".join(lines) + end
        text = whole.decode("utf-8", "replace")
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            core, "READ_BLOCK", block
        ), mock.patch.object(flows, "CHUNK_CHARS", chunk):
            path = Path(tmp) / "flows.csv"
            path.write_bytes(whole)
            for strict in (False, True):
                config = PipelineConfig(
                    flow_log=str(path), scope=self.scope_file(Path(tmp)), strict=strict
                )
                try:
                    want = reference_parse_flow_log(text, strict=strict)
                except DataError as exc:
                    with pytest.raises(DataError) as raised:
                        ingest(config)
                    assert str(raised.value) == str(exc)
                    continue
                got = parse_flow_log(read_blocks(path, "flow log"), strict=strict)
                assert as_records(got) == want
                # The same columns, dtypes and vocabularies as the text's parse.
                table, _ = parse_flow_log(text, strict=strict)
                assert (got[0].addrs, got[0].protocols) == (table.addrs, table.protocols)
                for name in COLUMNS:
                    column = getattr(got[0], name)
                    assert column.dtype == getattr(table, name).dtype
                    assert column.tolist() == getattr(table, name).tolist(), name
                assert ingest(config)[1].fingerprint == fingerprint(whole, config)

    def test_ingest_hashes_the_scope_it_parsed(self, tmp_path, monkeypatch):
        # One read of the scope file per ingest, so the fingerprint always
        # describes the scope the records were classified with.
        config = synth_setup(tmp_path)
        parsed = []
        real = pipeline.load_scope
        monkeypatch.setattr(
            pipeline, "load_scope", lambda text: parsed.append(text) or real(text)
        )
        _, out = ingest(config)
        assert len(parsed) == 1
        assert out.fingerprint == fingerprint(Path(config.flow_log).read_bytes(), config)


class TestRunGroup:
    def test_artifacts_and_summary(self, tmp_path):
        config = synth_setup(tmp_path)
        header, row = run_group(config).split("\n")[:2]
        assert header == "dataset,asset_qty,suggested_group_qty,runtime_s"
        dataset, asset_qty, suggested_group_qty, _ = row.split(",")
        assert (dataset, asset_qty, suggested_group_qty) == ("synthetic", "12", "4")
        out = Path(config.out_dir)
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS + ["timing.json"])
        assert not (out / "mean_distances.csv").exists()
        assignments = (out / "assignments.csv").read_text().strip().split("\n")
        assert assignments[0] == "endpoint,group_id"
        assert len(assignments) == 13

    def test_missing_log_is_data_error(self, tmp_path):
        config = PipelineConfig(
            flow_log=str(tmp_path / "missing.csv"),
            scope=str(tmp_path / "missing.txt"),
            out_dir=str(tmp_path / "out"),
        )
        with pytest.raises(DataError, match="missing.csv"):
            run_group(config)

    def test_bad_scope_is_reported_before_a_malformed_log(self, tmp_path):
        log, scope = tmp_path / "flows.csv", tmp_path / "scope.txt"
        log.write_text("garbage\n" * 3)
        scope.write_text("bogus 10.0.0.0/24\n")
        config = PipelineConfig(flow_log=str(log), scope=str(scope), out_dir=str(tmp_path / "out"))
        with pytest.raises(DataError, match="scope line 1"):
            run_group(config)
        scope.write_text("member 10.0.0.0/24\n")
        with pytest.raises(DataError, match="2 of 2 lines malformed"):
            run_group(config)

    def test_kmeans_runs_with_no_flow_table_alive(self, tmp_path, monkeypatch):
        # Aim 3: the parsed and the kept table are released before k-means,
        # once the conversations are tallied and the samples projected.
        config = synth_setup(tmp_path)
        tables, alive = [], []
        parse, filter_flows, fit = flows.parse_flow_log, flows.filter_flows, clustering.kmeans_fit

        def parse_spy(log, **kwargs):
            table, malformed = parse(log, **kwargs)
            tables.append(weakref.ref(table))
            return table, malformed

        def filter_spy(table, *args):
            kept, report = filter_flows(table, *args)
            tables.append(weakref.ref(kept))
            return kept, report

        def fit_spy(*args, **kwargs):
            alive.append([ref() is not None for ref in tables])
            return fit(*args, **kwargs)

        monkeypatch.setattr(flows, "parse_flow_log", parse_spy)
        monkeypatch.setattr(flows, "filter_flows", filter_spy)
        monkeypatch.setattr(clustering, "kmeans_fit", fit_spy)
        run_group(config)
        assert alive == [[False, False]]

    def test_rerun_is_byte_identical(self, tmp_path):
        config = synth_setup(tmp_path)
        run_group(config)
        first = {
            name: (Path(config.out_dir) / name).read_bytes() for name in ARTIFACTS
        }
        run_group(config)
        for name in ARTIFACTS:
            assert (Path(config.out_dir) / name).read_bytes() == first[name], name

    def test_failed_write_keeps_earlier_artifact(self, tmp_path, monkeypatch):
        config = synth_setup(tmp_path)
        run_group(config)
        out = Path(config.out_dir)
        names = ("groups.json", "assignments.csv")
        before = {name: (out / name).read_bytes() for name in names}
        # A new seed and PCA target change what the rerun would write.
        rerun = replace(config, seed=6, pca_target=2, out_dir=str(tmp_path / "rerun"))
        run_group(rerun)
        assert {name: (tmp_path / "rerun" / name).read_bytes() for name in names} != before

        def fail_replace(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", fail_replace)
        with pytest.raises(DataError, match="simulated crash"):
            run_group(replace(rerun, out_dir=config.out_dir))
        assert {name: (out / name).read_bytes() for name in names} == before
        assert not list(out.glob(".*.tmp"))


    def test_crash_before_groups_leaves_them_stale(self, tmp_path, monkeypatch):
        # A rerun that crashes at timing.json keeps the old groups.json, so
        # eval rejects the rerun's config instead of scoring new groups with
        # the old run's runtime.
        config = synth_setup(tmp_path)
        run_group(config)
        rerun = replace(config, seed=6)
        real_replace = os.replace

        def fail_timing(src, dst):
            if Path(dst).name == "timing.json":
                raise OSError("simulated crash")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_timing)
        with pytest.raises(DataError, match="simulated crash"):
            run_group(rerun)
        monkeypatch.undo()
        with pytest.raises(DataError, match="stale"):
            run_eval(rerun)
        run_eval(config)

    def test_crash_after_conversations_then_reverted_inputs(self, tmp_path, monkeypatch):
        # A run on an edited log writes conversations.csv and crashes before
        # groups.json. With the old log back the old groups.json is current
        # again, and the table's own fingerprint keeps rules from reading it.
        config = synth_setup(tmp_path)
        run_group(config)
        log = Path(config.flow_log)
        original = log.read_bytes()
        log.write_bytes(original[: original.rindex(b"\n", 0, -1) + 1])
        real_replace = os.replace

        def fail_timing(src, dst):
            if Path(dst).name == "timing.json":
                raise OSError("simulated crash")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_timing)
        with pytest.raises(DataError, match="simulated crash"):
            run_group(config)
        monkeypatch.undo()
        log.write_bytes(original)
        with pytest.raises(DataError, match="conversations.csv is stale"):
            run_rules(config)
        run_group(config)
        run_rules(config)


def rules_summary(text: str) -> dict[str, int]:
    """The counts in ``run_rules``' summary line, which must match its format."""
    match = re.fullmatch(
        r"rules: (\d+) rules; any_to_any=(\d+) duplicates=(\d+) redundant=(\d+)\n", text
    )
    assert match, text
    keys = ("rules", "any_to_any", "duplicates", "redundant")
    return dict(zip(keys, map(int, match.groups())))


class TestRunRules:
    def test_rules_after_group(self, tmp_path):
        config = synth_setup(tmp_path)
        run_group(config)
        summary = rules_summary(run_rules(config))
        assert summary["rules"] > 0
        assert summary["any_to_any"] == 0
        assert summary["duplicates"] == 0
        hygiene = (Path(config.out_dir) / "hygiene.txt").read_text().split("\n")
        assert hygiene[:3] == [
            f"{key}: {summary[key]}" for key in ("any_to_any", "duplicates", "redundant")
        ]
        allowed, total = verify_ruleset_completeness(config)
        assert allowed == total

    def test_two_group_one_service_each_way(self, tmp_path):
        data = tmp_path / "data"
        synth_config = PipelineConfig(
            out_dir=str(data),
            seed=5,
            synth_group_count=2,
            synth_endpoints_per_group=2,
            synth_windows=2,
            synth_flows_per_endpoint_window=8,
            synth_services_per_group=1,
            synth_port_pool=8,
        )
        run_synth(synth_config)
        config = PipelineConfig(
            flow_log=str(data / "flows.csv"),
            scope=str(data / "scope.txt"),
            out_dir=str(tmp_path / "artifacts"),
            seed=5,
            top_k_ports=8,
        )
        run_group(config)
        summary = rules_summary(run_rules(config))
        ruleset = (Path(config.out_dir) / "ruleset.csv").read_text().strip().split("\n")
        assert len(ruleset) == 1 + summary["rules"]
        # one service per group: at most one rule per ordered group pair seen
        assert summary["rules"] <= 4

    def test_stale_artifacts_rejected(self, tmp_path):
        config = synth_setup(tmp_path)
        run_group(config)
        config = replace(config, seed=6)  # semantic change invalidates the fingerprint
        with pytest.raises(DataError, match="stale"):
            run_rules(config)

    def test_completeness_check_rejects_edited_log(self, tmp_path):
        config = synth_setup(tmp_path)
        run_group(config)
        run_rules(config)
        log = Path(config.flow_log)
        lines = log.read_text().split("\n")
        fields = lines[0].split(",")
        fields[-1] = str(int(fields[-1]) + 1)
        lines[0] = ",".join(fields)
        log.write_text("\n".join(lines))
        with pytest.raises(DataError, match="stale"):
            verify_ruleset_completeness(config)

    def test_rerun_is_byte_identical(self, tmp_path):
        config = synth_setup(tmp_path)
        run_group(config)
        run_rules(config)
        out = Path(config.out_dir)
        names = ("conversations.csv", "ruleset.csv", "hygiene.txt")
        first = {n: (out / n).read_bytes() for n in names}
        run_rules(config)
        assert {n: (out / n).read_bytes() for n in names} == first
        run_group(config)
        run_rules(config)
        assert {n: (out / n).read_bytes() for n in names} == first

    def test_rules_parses_no_log_line(self, tmp_path, monkeypatch):
        config = synth_setup(tmp_path)
        calls = []
        parse = flows.parse_flow_log

        def spy(log, **kwargs):
            calls.append(None)
            return parse(log, **kwargs)

        monkeypatch.setattr(flows, "parse_flow_log", spy)
        run_group(config)
        assert len(calls) == 1
        run_rules(config)
        assert len(calls) == 1

    def test_table_reader_parses_no_address(self, tmp_path, monkeypatch):
        config = synth_setup(tmp_path)
        run_group(config)
        path = Path(config.out_dir) / "conversations.csv"
        lines = path.read_text().split("\n")
        parsed, parse = [], ipaddress.IPv4Address
        monkeypatch.setattr(ipaddress, "IPv4Address", lambda a: parsed.append(a) or parse(a))
        rows = list(pipeline.load_conversations(path, lines[0].removeprefix("fingerprint,")))
        assert len(rows) == len(lines) - 3
        assert parsed == []

    def test_rules_checks_each_table_address_once(self, tmp_path, monkeypatch):
        # The tally classifies each distinct table address once and the
        # hygiene check each grouped endpoint once. Loading the groups and
        # the scope parses endpoints and object addresses too, so the check
        # is on what an external address costs beyond the scope's parse.
        config = synth_setup(tmp_path, external_fraction=0.5, services=3, noise=0.1)
        config = replace(config, unknown_policy=MAP_TO_OBJECTS)
        run_group(config)
        out = Path(config.out_dir)
        table = (out / "conversations.csv").read_text()
        rows = [row.split(",") for row in table.split("\n")[2:-1]]
        addresses = {addr for row in rows for addr in row[:2]}
        grouped = load_groups(out / "groups.json")[0].endpoints
        external = addresses - grouped
        assert any(sum(addr in row[:2] for row in rows) > 1 for addr in external)
        classified, classify = [], rules.classify_peer
        parsed, parse = collections.Counter(), ipaddress.IPv4Address
        monkeypatch.setattr(
            rules, "classify_peer", lambda a, scope: classified.append(a) or classify(a, scope)
        )
        monkeypatch.setattr(ipaddress, "IPv4Address", lambda a: parsed.update([a]) or parse(a))
        pipeline._load_scope_file(config)
        in_scope = parsed.copy()
        parsed.clear()
        run_rules(config)
        assert len(classified) <= len(addresses) + len(grouped)
        assert {a: parsed[a] - in_scope[a] for a in external} == dict.fromkeys(external, 1)

    def test_completeness_check_sees_a_lost_conversation(self, tmp_path):
        # rules trusts the table; the completeness check parses the log, so
        # a table that lost the only row behind a rule shows as flows denied.
        config = synth_setup(tmp_path, noise=0.1)
        run_group(config)
        out = Path(config.out_dir)
        groups = load_groups(out / "groups.json")[0].endpoint_to_group()
        path = out / "conversations.csv"
        lines = path.read_text().split("\n")

        def rule_key(row):
            src, dst, protocol, port, _ = row.split(",")
            return groups[src], groups[dst], protocol, port

        keys = [rule_key(row) for row in lines[2:-1]]
        lost = next(i for i, key in enumerate(keys) if keys.count(key) == 1)
        count = int(lines[2 + lost].rsplit(",", 1)[1])
        del lines[2 + lost]
        path.write_text("\n".join(lines))
        run_rules(config)
        allowed, total = verify_ruleset_completeness(config)
        assert allowed == total - count

    def test_completeness_check_iterates_no_table(self, tmp_path, monkeypatch):
        config = synth_setup(tmp_path, external_fraction=0.3, noise=0.1)
        config = replace(config, unknown_policy=MAP_TO_OBJECTS)
        run_group(config)
        run_rules(config)
        total = json.loads((Path(config.out_dir) / "ingest_report.json").read_text())[
            "records_kept"
        ]

        def refuse(table):
            raise AssertionError("a flow table was iterated")

        monkeypatch.setattr(FlowTable, "__iter__", refuse)
        assert verify_ruleset_completeness(config) == (total, total)

    def test_completeness_check_names_an_ungrouped_member(self, tmp_path, capsys):
        # A hand-edited groups.json that lost an endpoint the log names,
        # with its fingerprint and group count intact: the check fails with
        # the words rules fails with, rather than counting its flows denied.
        config = synth_setup(tmp_path)
        run_group(config)
        run_rules(config)
        path = Path(config.out_dir) / "groups.json"
        payload = json.loads(path.read_text())
        group = next(g for g in payload["groups"].values() if len(g) > 1)
        lost = group.pop()
        path.write_text(json.dumps(payload))
        said = f"member endpoint {lost} is not in any security group"
        with pytest.raises(DataError, match=f"^verify: {re.escape(said)};"):
            verify_ruleset_completeness(config)
        cfg = write_config(
            tmp_path / "run.cfg", flow_log=config.flow_log, scope=config.scope,
            out_dir=config.out_dir, seed=config.seed, top_k_ports=config.top_k_ports,
        )
        capsys.readouterr()
        assert main(["rules", "--config", str(cfg)]) == 2
        assert said in capsys.readouterr().err


class TestRunEval:
    def test_row_and_artifacts(self, tmp_path):
        config = synth_setup(tmp_path)
        run_group(config)
        text = run_eval(config)
        out = Path(config.out_dir)
        assert text == (out / "eval_report.csv").read_text()
        report = json.loads((out / "eval_report.json").read_text())
        assert report["homogeneity"] == 1.0
        assert report["v_measure"] == 1.0
        header, row, end = text.split("\n")
        fields = row.split(",")
        assert fields[0] == "synthetic"
        assert fields[1] == "12"
        assert end == ""
        assert header.startswith(
            "dataset,asset_qty,group_qty,suggested_group_qty,runtime_s,"
        )

    def test_eval_rerun_byte_identical(self, tmp_path):
        config = synth_setup(tmp_path)
        run_group(config)
        run_eval(config)
        out = Path(config.out_dir)
        first = (out / "eval_report.csv").read_bytes()
        run_eval(config)
        assert (out / "eval_report.csv").read_bytes() == first

    def test_coverage_gap_names_endpoint(self, tmp_path):
        config = synth_setup(tmp_path)
        run_group(config)
        truth_path = Path(config.ground_truth)
        lines = truth_path.read_text().strip().split("\n")
        truth_path.write_text("\n".join(lines[:-1]) + "\n")  # drop one endpoint
        missing = lines[-1].split(",")[0]
        with pytest.raises(DataError, match=missing):
            run_eval(config)

    def test_eval_without_group_stage_fails(self, tmp_path):
        config = synth_setup(tmp_path)
        with pytest.raises(DataError):
            run_eval(config)


class TestLoadGroundTruth:
    def test_header_after_comment(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("# labels\n\nendpoint,true_group\n10.0.0.1,a\n10.0.0.2,b\n")
        assert load_ground_truth(path) == {"10.0.0.1": "a", "10.0.0.2": "b"}

    def test_duplicate_endpoint_named(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("# labels\nendpoint,true_group\n10.0.0.1,a\n10.0.0.1,b\n")
        with pytest.raises(DataError, match="duplicate endpoint 10.0.0.1"):
            load_ground_truth(path)

    def test_form_feed_does_not_split_a_line(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("endpoint,true_group\n10.0.0.1,a\x0c10.0.0.2,b\n")
        with pytest.raises(DataError, match="line 2: expected endpoint,label"):
            load_ground_truth(path)

    def test_file_lines_end_at_newline_only(self, tmp_path):
        path = tmp_path / "truth.csv"
        text = "10.0.0.1,a # x\r10.0.0.2,b\n"
        path.write_bytes(text.encode())
        assert load_ground_truth(path) == {"10.0.0.1": "a"}
        path.write_bytes(b"endpoint,true_group\r\n10.0.0.1,a\r\n10.0.0.2,b\r\n")
        assert load_ground_truth(path) == {"10.0.0.1": "a", "10.0.0.2": "b"}

    def test_inline_comment_dropped(self, tmp_path):
        # The same comment rule as the scope, config and grid files.
        path = tmp_path / "truth.csv"
        path.write_text("endpoint,true_group  # header\n10.0.0.1,3  # web tier\n10.0.0.2,3\n")
        assert load_ground_truth(path) == {"10.0.0.1": "3", "10.0.0.2": "3"}


class TestRunTune:
    def test_single_entry_grid_echoed(self, tmp_path):
        config = synth_setup(tmp_path)
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text("pca_target = 0.9\n")
        config = replace(config, grid=str(grid_path))
        assert run_tune(config).startswith("tune: winner grid entry 0, homogeneity=")
        best = load_config(Path(config.out_dir) / "best_config.txt")
        assert best.pca_target == 0.9

    def test_three_entry_grid_deterministic(self, tmp_path, monkeypatch):
        config = synth_setup(tmp_path)
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text(
            "pca_target = 0.9\n"
            "pca_target = 0.99 ; k = 0.5\n"
            "top_k_ports = 8\n"
        )
        config = replace(config, grid=str(grid_path))
        # The printed line rounds the scores; compare every entry's exact
        # scores as select_best sees them, the measured runtime aside.
        scored = []
        select_best = clustering.select_best

        def spy_select_best(reports, floor):
            scored.append([replace(r, run_time_seconds=0.0) for r in reports])
            return select_best(reports, floor)

        monkeypatch.setattr(clustering, "select_best", spy_select_best)
        first = run_tune(config)
        second = run_tune(config)
        assert first == second
        assert len(scored) == 2 and len(scored[0]) == 3
        assert scored[0] == scored[1]
        report = (Path(config.out_dir) / "tune_report.csv").read_text()
        assert len(report.strip().split("\n")) == 4

    def test_empty_grid_rejected(self, tmp_path):
        config = synth_setup(tmp_path)
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text("# nothing here\n")
        config = replace(config, grid=str(grid_path))
        with pytest.raises(DataError, match="no configurations"):
            run_tune(config)

    def test_below_floor_flagged_when_groups_indistinguishable(self, tmp_path):
        # All groups share one service profile: clustering cannot separate
        # them, so homogeneity stays far below a 0.95 floor.
        profiles = {
            g: (
                ServiceTemplate(
                    peer_kind="group", peer=0, protocol="TCP", dst_port=2000, weight=1.0
                ),
            )
            for g in range(4)
        }
        scenario = generate(
            ScenarioSpec(
                group_count=4,
                endpoints_per_group=2,
                windows=4,
                flows_per_endpoint_window=12,
                profiles=profiles,
                noise_rate=0.0,
                seed=3,
            )
        )
        (tmp_path / "flows.csv").write_text(scenario.log_text)
        (tmp_path / "scope.txt").write_text(scope_to_text(scenario.scope))
        (tmp_path / "truth.csv").write_text(scenario.truth_csv)
        (tmp_path / "grid.txt").write_text("seed = 1 ; top_k_ports = 16\n")
        config = PipelineConfig(
            flow_log=str(tmp_path / "flows.csv"),
            scope=str(tmp_path / "scope.txt"),
            ground_truth=str(tmp_path / "truth.csv"),
            grid=str(tmp_path / "grid.txt"),
            out_dir=str(tmp_path / "out"),
            homogeneity_floor=0.95,
        )
        assert "(below floor)" in run_tune(config)
        rows = (tmp_path / "out" / "tune_report.csv").read_text().strip().split("\n")
        assert rows[0].endswith(",below_floor")
        assert rows[1].endswith(",1")

    def test_other_policy_ingested_once(self, tmp_path, monkeypatch):
        # Three entries under the policy the base config does not use: one
        # ingest per policy, and the same fits, report and winner as a run
        # whose base config already uses that policy.
        config = synth_setup(tmp_path, external_fraction=0.3)
        config = replace(config, grid=str(tmp_path / "grid.txt"))
        entries = ["pca_target = 0.9", "pca_target = 0.99 ; k = 0.5", "top_k_ports = 8"]
        ingested, fitted = [], []
        real_ingest, real_fit = pipeline.ingest, clustering.fit_groups

        def spy_ingest(c):
            ingested.append(c.unknown_policy)
            return real_ingest(c)

        def spy_fit(kept, params):
            fitted.append(len(kept))
            return real_fit(kept, params)

        monkeypatch.setattr(pipeline, "ingest", spy_ingest)
        monkeypatch.setattr(clustering, "fit_groups", spy_fit)

        def tune(base_policy, prefix):
            ingested.clear()
            fitted.clear()
            Path(config.grid).write_text("".join(prefix + e + "\n" for e in entries))
            run_tune(replace(config, unknown_policy=base_policy))
            out = Path(config.out_dir)
            # The runtime column (5th) is a measurement.
            report = [
                row.split(",")[:4] + row.split(",")[5:]
                for row in (out / "tune_report.csv").read_text().split("\n")
            ]
            best = (out / "best_config.txt").read_text()
            return list(ingested), list(fitted), report, best

        mixed = tune(DROP_UNKNOWN, "unknown_policy = map_to_objects ; ")
        plain = tune(MAP_TO_OBJECTS, "")
        assert mixed[0] == [MAP_TO_OBJECTS]
        assert plain[0] == [MAP_TO_OBJECTS]
        assert mixed[1:] == plain[1:]
        kept = {
            p: len(real_ingest(replace(config, unknown_policy=p))[0])
            for p in (DROP_UNKNOWN, MAP_TO_OBJECTS)
        }
        assert kept[DROP_UNKNOWN] < kept[MAP_TO_OBJECTS]
        assert mixed[1] == [kept[MAP_TO_OBJECTS]] * 3

    def test_mixed_policy_grid_ingests_each_policy_once(self, tmp_path, monkeypatch):
        config = synth_setup(tmp_path, external_fraction=0.3)
        grid = tmp_path / "grid.txt"
        grid.write_text(
            "unknown_policy = map_to_objects\n"
            "unknown_policy = drop_unknown\n"
            "unknown_policy = map_to_objects ; top_k_ports = 8\n"
            "unknown_policy = drop_unknown ; k = 0.5\n"
        )
        ingested, real_ingest = [], pipeline.ingest

        def spy_ingest(c):
            ingested.append(c.unknown_policy)
            return real_ingest(c)

        monkeypatch.setattr(pipeline, "ingest", spy_ingest)
        run_tune(replace(config, grid=str(grid)))
        assert ingested == [MAP_TO_OBJECTS, DROP_UNKNOWN]
        report = (Path(config.out_dir) / "tune_report.csv").read_text()
        assert len(report.strip().split("\n")) == 5

    def test_policy_keeping_no_flow_exit_two(self, tmp_path, capsys):
        # Every flow joins a member to an object: map_to_objects keeps them
        # all and drop_unknown none, which the fit refuses.
        config = synth_setup(tmp_path)
        log = tmp_path / "external.csv"
        log.write_text(
            "".join(f"{i},10.0.0.{1 + i % 4},198.51.100.{1 + i % 3},UDP,53,1,60\n"
                    for i in range(40))
        )
        grid = tmp_path / "grid.txt"
        grid.write_text("unknown_policy = map_to_objects\nunknown_policy = drop_unknown\n")
        cfg = write_config(
            tmp_path / "run.cfg",
            flow_log=log,
            scope=config.scope,
            ground_truth=config.ground_truth,
            grid=grid,
            out_dir=config.out_dir,
            unknown_policy=MAP_TO_OBJECTS,
        )
        assert main(["tune", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "data error: tune: cannot build a schema from zero records" in err

    @pytest.mark.parametrize(
        "entry",
        [
            "flow_log = d2/flows.csv ; scope = d2/scope.txt",
            "homogeneity_floor = 0.99",
            "out_dir = elsewhere",
        ],
    )
    def test_grid_key_tune_ignores_rejected(self, tmp_path, entry):
        # tune reads these from the base config, so a grid line must not set them.
        config = synth_setup(tmp_path)
        config = replace(config, grid=str(tmp_path / "grid.txt"))
        Path(config.grid).write_text("pca_target = 0.9\n" + entry + "\n")
        key = entry.split("=")[0].strip()
        with pytest.raises(UsageError, match=f"grid line 2: '{key}'"):
            run_tune(config)
        assert not Path(config.out_dir).exists()

    def test_grid_line_parsing(self):
        base = PipelineConfig()
        configs = parse_grid("k = 3 ; seed = 7\n\n# comment\ntol = 1e-4\n", base)
        assert len(configs) == 2
        assert configs[0].k == 3 and configs[0].seed == 7
        assert configs[1].tol == 1e-4


class TestCli:
    def _write_cli_configs(self, tmp_path):
        data = tmp_path / "data"
        synth_cfg = write_config(
            tmp_path / "synth.cfg",
            out_dir=data,
            seed=5,
            synth_group_count=3,
            synth_endpoints_per_group=2,
            synth_windows=3,
            synth_flows_per_endpoint_window=10,
            synth_services_per_group=2,
            synth_port_pool=16,
        )
        run_cfg = write_config(
            tmp_path / "run.cfg",
            flow_log=data / "flows.csv",
            scope=data / "scope.txt",
            ground_truth=data / "truth.csv",
            out_dir=tmp_path / "artifacts",
            dataset="cli",
            seed=5,
            top_k_ports=16,
        )
        return synth_cfg, run_cfg

    def test_full_chain_exit_codes(self, tmp_path, capsys):
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        assert main(["group", "--config", str(run_cfg)]) == 0
        assert main(["rules", "--config", str(run_cfg)]) == 0
        assert main(["eval", "--config", str(run_cfg)]) == 0
        out = capsys.readouterr().out
        assert "dataset,asset_qty" in out

    def test_rules_eval_and_help_load_no_numpy(self, tmp_path):
        # Neither stage computes with numpy, so neither pays its import;
        # each writes the bytes the in-process stages wrote.
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        for command in ("group", "rules", "eval"):
            assert main([command, "--config", str(run_cfg)]) == 0
        out = tmp_path / "artifacts"
        names = ("ruleset.csv", "hygiene.txt", "eval_report.csv", "eval_report.json")
        written = {name: (out / name).read_bytes() for name in names}
        for name in names:
            (out / name).unlink()
        for argv in (["rules", "--config", str(run_cfg)], ["eval", "--config", str(run_cfg)],
                     ["--help"]):
            proc = subprocess.run(
                [sys.executable, "-c", NUMPY_PROBE, *argv], capture_output=True, env=child_env()
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr.endswith(b"False\n"), (argv, proc.stderr)
        assert {name: (out / name).read_bytes() for name in names} == written

    @pytest.mark.parametrize("command", ["rules", "eval"])
    @pytest.mark.parametrize("log", ["missing", "directory"])
    def test_unreadable_flow_log_exit_two(self, tmp_path, capsys, command, log):
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        assert main(["group", "--config", str(run_cfg)]) == 0
        path = tmp_path / "data" / "flows.csv"
        if log == "missing":
            path.unlink()
            reason = "No such file or directory"
        else:
            path = tmp_path / "data"
            reason = "Is a directory"
        with run_cfg.open("a") as f:
            f.write(f"flow_log = {path}\n")
        capsys.readouterr()
        assert main([command, "--config", str(run_cfg)]) == 2
        assert capsys.readouterr().err == f"data error: cannot read flow log {path}: {reason}\n"

    def test_usage_error_exit_one(self, capsys):
        assert main(["group"]) == 1  # --config required
        assert main(["nonsense"]) == 1

    @pytest.mark.parametrize("command", ["rules", "eval", "synth"])
    def test_strict_on_a_stage_that_parses_no_log_exit_one(self, tmp_path, capsys, command):
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        cfg = synth_cfg if command == "synth" else run_cfg
        assert main([command, "--config", str(cfg), "--strict"]) == 1
        assert "unrecognized arguments: --strict" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["group", "tune"])
    def test_strict_offered_where_the_log_is_parsed(self, command):
        args = build_parser().parse_args([command, "--config", "run.cfg", "--strict"])
        assert args.strict

    @pytest.mark.parametrize(
        "command,artifact,content",
        [
            ("rules", "groups.json", "truncated"),
            ("eval", "groups.json", '{"kind": "security_groups"}\n'),
            (
                "rules",
                "groups.json",
                '{"fingerprint": "x", "groups": {"0": 5}, "kind": "security_groups", '
                '"suggested_qty": 1}\n',
            ),
            ("rules", "groups.json", "endpoint in two groups"),
            ("eval", "groups.json", "endpoint in two groups"),
            ("rules", "groups.json", "member not an address"),
            ("rules", "groups.json", "unreferenced member not an address"),
            ("eval", "groups.json", "unreferenced member not an address"),
            ("eval", "timing.json", "garbage\n"),
            ("eval", "timing.json", "{}\n"),
            ("eval", "timing.json", '{"grouping_seconds": NaN}\n'),
            ("eval", "timing.json", '{"grouping_seconds": Infinity}\n'),
            ("eval", "timing.json", '{"grouping_seconds": -3}\n'),
            ("eval", "timing.json", '{"grouping_seconds": "7"}\n'),
            ("eval", "timing.json", '{"grouping_seconds": true}\n'),
            ("rules", "groups.json", "suggested_qty off"),
            ("eval", "groups.json", "suggested_qty off"),
            ("rules", "groups.json", "suggested_qty true"),
            ("eval", "groups.json", "suggested_qty true"),
            ("eval", "groups.json", "padded id"),
            ("eval", "groups.json", "no groups"),
            ("eval", "groups.json", "empty group"),
            ("rules", "groups.json", "id over digit limit"),
            ("eval", "groups.json", "id over digit limit"),
            ("verify", "ruleset.csv", "deny"),
            ("verify", "ruleset.csv", "extra key"),
            ("verify", "ruleset.csv", "edited count"),
            ("rules", "conversations.csv", "missing"),
            ("rules", "conversations.csv", "cut mid-line"),
            ("rules", "conversations.csv", "other fingerprint"),
            ("rules", "conversations.csv", "padded count"),
            ("rules", "conversations.csv", "TCP port 0"),
            ("rules", "conversations.csv", "address not IPv4"),
            ("rules", "conversations.csv", "address outside scope"),
            ("rules", "conversations.csv", "no member side"),
            ("rules", "conversations.csv", "no member side, universal"),
            ("rules", "conversations.csv", "four fields"),
            ("rules", "conversations.csv", "lower-case protocol"),
            ("rules", "conversations.csv", "count 0"),
            ("rules", "groups.json", "another kind"),
        ],
        ids=[
            "groups-truncated",
            "groups-keys-missing",
            "groups-wrong-type",
            "groups-endpoint-twice-rules",
            "groups-endpoint-twice-eval",
            "groups-member-not-ipv4",
            "groups-unreferenced-member-not-ipv4-rules",
            "groups-unreferenced-member-not-ipv4-eval",
            "timing-garbage",
            "timing-empty",
            "timing-nan",
            "timing-infinity",
            "timing-negative",
            "timing-string",
            "timing-bool",
            "groups-suggested-qty-mismatch-rules",
            "groups-suggested-qty-mismatch-eval",
            "groups-suggested-qty-true-rules",
            "groups-suggested-qty-true-eval",
            "groups-padded-id",
            "groups-none",
            "groups-empty-group",
            "groups-id-over-digit-limit-rules",
            "groups-id-over-digit-limit-eval",
            "ruleset-deny-action",
            "ruleset-extra-key",
            "ruleset-edited-count",
            "conversations-missing",
            "conversations-cut-mid-line",
            "conversations-other-fingerprint",
            "conversations-padded-count",
            "conversations-tcp-port-zero",
            "conversations-address-not-ipv4",
            "conversations-address-outside-scope",
            "conversations-no-member-side",
            "conversations-no-member-side-universal",
            "conversations-four-fields",
            "conversations-lower-case-protocol",
            "conversations-count-zero",
            "groups-another-kind",
        ],
    )
    def test_corrupt_artifact_exit_two(self, tmp_path, capsys, command, artifact, content):
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        if content == "no member side, universal":
            # A 0.0.0.0/0 object after synth's /32 objects holds every
            # other address.
            with (tmp_path / "data" / "scope.txt").open("a") as f:
                f.write("object 0.0.0.0/0 any\n")
        assert main(["group", "--config", str(run_cfg)]) == 0
        out = tmp_path / "artifacts"
        if command == "verify" or artifact == "conversations.csv":
            assert main(["rules", "--config", str(run_cfg)]) == 0
        path = out / artifact
        said = None
        if artifact == "conversations.csv":
            earlier = {name: (out / name).read_bytes() for name in ("ruleset.csv", "hygiene.txt")}
            text = path.read_text()
            lines = text.split("\n")
            src, dst, protocol, port, count = lines[2].split(",")

            def first_row(row):
                return "\n".join(lines[:2] + [row] + lines[3:])

            # The new text (None deletes the file) and what the message says.
            text, said = {
                "missing": (None, f"{path}: No such file or directory"),
                "cut mid-line": (text[:-3], f"{path} is truncated"),
                "other fingerprint": (
                    "\n".join(["fingerprint," + "0" * 64] + lines[1:]),
                    f"{path} is stale or damaged",
                ),
                "padded count": (
                    first_row(f"{src},{dst},{protocol},{port},0{count}"), f"{path} line 3: '0"
                ),
                "TCP port 0": (first_row(f"{src},{dst},TCP,0,{count}"), f"{path}: dst_port 0"),
                "address not IPv4": (
                    first_row(f"10.0.0.300,{dst},{protocol},{port},{count}"),
                    f"{path}: Octet 300",
                ),
                "address outside scope": (
                    first_row(f"{src},192.0.2.1,{protocol},{port},{count}"),
                    f"{path}: address 192.0.2.1 is neither a member",
                ),
                # No kept flow joins two non-members, so no rule may.
                "no member side": (
                    text + "198.51.100.1,198.51.100.2,UDP,53,3\n",
                    f"{path}: rule object:ext0 -> object:ext1 names no security group",
                ),
                "no member side, universal": (
                    text + "192.0.2.1,192.0.2.2,UDP,53,3\n",
                    f"{path}: rule object:any -> object:any names no security group",
                ),
                "four fields": (
                    first_row(f"{src},{dst},{protocol},{port}"),
                    f"{path} line 3: expected 5 fields, got 4",
                ),
                "lower-case protocol": (
                    first_row(f"{src},{dst},{protocol.lower()},{port},{count}"),
                    f"{path} line 3: protocol '{protocol.lower()}' is not in the written form",
                ),
                "count 0": (
                    first_row(f"{src},{dst},{protocol},{port},0"), f"{path} line 3: count 0 < 1"
                ),
            }[content]
            if text is None:
                path.unlink()
            else:
                path.write_text(text)
            capsys.readouterr()
            assert main([command, "--config", str(run_cfg)]) == 2
            err = capsys.readouterr().err
            assert said in err
            # The stage names itself once, in the reader's message or in
            # its one wrap of the tally's; a file it cannot read is named
            # by the shared file reader, which names no stage.
            assert err.count("rules: ") == (content != "missing")
            if content == "missing":
                assert err.count(str(path)) == 1
            # A refused table leaves the earlier ruleset and report in place.
            assert {name: (out / name).read_bytes() for name in earlier} == earlier
            return
        if content == "truncated":
            content = path.read_text()[:40]
        elif content == "another kind":
            payload = json.loads(path.read_text())
            payload["kind"] = "firewall_rules"
            content = json.dumps(payload)
            said = f"{path} is not a security-groups artifact"
        elif content == "deny":
            content = path.read_text().replace(",allow,", ",deny,", 1)
        elif content == "extra key":
            # A rule between groups on a port that no rule uses, so no kept
            # flow backs it, though every kept flow is still allowed. It is
            # written in its canonical place, so the load takes it.
            ruleset = rules.load_ruleset(path)
            port = min(set(range(1, 65536)) - {r.service.dst_port for r in ruleset.rules})
            src = ruleset.rules[0].src
            extra = rules.FirewallRule(src, src, rules.ServiceTuple("TCP", port), 1)
            content = rules.ruleset_to_csv(rules.RuleSet.from_rules([*ruleset.rules, extra]))
            said = re.escape(f"{path}: rule {rules.format_rule(extra)} allows no kept flow")
        elif content == "edited count":
            # The first rule's key is backed, but not with this count.
            content = path.read_text()
            lines = content.split("\n")
            first, _, count = lines[1].rpartition(",")
            lines[1] = f"{first},999999"
            content = "\n".join(lines)
            said = re.escape(f"{path}: rule {lines[1]} counts 999999, the log {count}")
        elif content in (
            "endpoint in two groups", "member not an address", "suggested_qty off",
            "suggested_qty true", "padded id", "no groups", "empty group",
            "unreferenced member not an address", "id over digit limit",
        ):
            # Edit the real artifact, so its fingerprint still matches.
            payload = json.loads(path.read_text())
            groups = payload["groups"]
            first, second = list(groups.values())[:2]
            if content == "endpoint in two groups":
                second.append(first[0])
            elif content == "member not an address":
                second.append("not-an-address")
            elif content == "suggested_qty off":
                payload["suggested_qty"] = 99
            elif content == "suggested_qty true":
                # One group, so the count check alone would pass: a JSON
                # true equals 1, but no writer writes it.
                members = sorted(ep for group in groups.values() for ep in group)
                groups.clear()
                groups["0"] = members
                payload["suggested_qty"] = True
            elif content == "no groups":
                groups.clear()
                payload["suggested_qty"] = 0
            elif content == "empty group":
                groups["999"] = []
                payload["suggested_qty"] = len(groups)
            elif content == "unreferenced member not an address":
                # No rule names a new group, so only load_groups can see it.
                groups["999"] = ["not-an-ip"]
                payload["suggested_qty"] = len(groups)
            elif content == "id over digit limit":
                # Longer than the 4,300 digits int() reads by default.
                groups["1" * 5000] = groups.pop(next(iter(groups)))
            else:
                # "0<id>" after "<id>" names the same int and would replace
                # that group; only the id check catches it, because the
                # padded group takes a member moved out of a larger group.
                donor = next(m for m in groups.values() if len(m) > 1)
                groups["0" + next(iter(groups))] = [donor.pop()]
                payload["suggested_qty"] = len(groups)
            content = json.dumps(payload)
        path.write_text(content)
        if command == "verify":
            with pytest.raises(DataError, match=said):
                verify_ruleset_completeness(load_config(run_cfg))
        else:
            capsys.readouterr()
            assert main([command, "--config", str(run_cfg)]) == 2
            assert said is None or said in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,setting",
        [
            ("group", "--seed -1"),
            ("synth", "--seed -1"),
            ("group", "restarts = 0"),
            ("group", "restarts = 1001"),
            ("group", "restarts = 1000000000000000000000000000000"),
            ("group", "max_iter = 0"),
            ("group", "k = 1.5"),
            ("group", "k = 0"),
            ("group", "tol = 0"),
            ("group", "tol = nan"),
            ("group", "dataset = a,b"),
            ("group", "window_seconds = 1000000000000000000000000000000"),
            ("group", "homogeneity_floor = 1.5"),
            ("group", "homogeneity_floor = -0.1"),
            ("group", "homogeneity_floor = nan"),
            ("synth", "synth_endpoints_per_group = 0"),
            ("synth", "synth_windows = 0"),
            ("synth", "synth_flows_per_endpoint_window = 0"),
            ("synth", "synth_external_fraction = 2.0"),
            ("synth", "synth_external_fraction = -1"),
            ("synth", "synth_external_fraction = nan"),
            ("synth", "synth_noise_rate = 1.0"),
            ("synth", "synth_group_count = 0"),
            ("synth", "synth_services_per_group = 0"),
            ("synth", "synth_port_pool = 0"),
            ("synth", "synth_port_pool = 9078"),
            ("synth", "synth_object_count = 256"),
            ("synth", "synth_object_count = -1"),
            ("synth", "synth_object_count = 0\nsynth_external_fraction = 0.5"),
        ],
    )
    def test_bad_config_value_exit_one(self, tmp_path, command, setting):
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        cfg = synth_cfg if command == "synth" else run_cfg
        flags = setting.split() if setting.startswith("--") else []
        if not flags:
            with cfg.open("a") as f:
                f.write(setting + "\n")
        assert main([command, "--config", str(cfg), *flags]) == 1

    @pytest.mark.parametrize(
        "setting,said",
        [
            ("k = abc", "config key k: cannot parse 'abc'"),
            ("strict = maybe", "config key strict: expected a boolean, got 'maybe'"),
            ("top_k_ports = 0", "top_k_ports must be >= 1"),
            ("pca_target = 1.5", "pca_target fraction must be in (0, 1]"),
            ("pca_target = 0", "pca_target dimension must be >= 1"),
        ],
        ids=["k-abc", "strict-maybe", "top_k_ports-0", "pca_target-1.5", "pca_target-0"],
    )
    def test_bad_config_value_named_exit_one(self, tmp_path, capsys, setting, said):
        _, run_cfg = self._write_cli_configs(tmp_path)
        with run_cfg.open("a") as f:
            f.write(setting + "\n")
        assert main(["group", "--config", str(run_cfg)]) == 1
        assert f"usage error: {said}\n" in capsys.readouterr().err

    def test_removed_workers_key_exit_one_before_any_artifact(self, tmp_path, capsys):
        # Every best_config.txt written by an older tune sets it.
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        with run_cfg.open("a") as f:
            f.write("workers = 1\n")
        capsys.readouterr()
        assert main(["group", "--config", str(run_cfg)]) == 1
        assert "config line 8: unknown key 'workers'" in capsys.readouterr().err
        assert not (tmp_path / "artifacts").exists()

    @pytest.mark.parametrize(
        "command, path, code",
        [
            ("group", "run.cfg", 1),
            ("group", "data/scope.txt", 2),
            ("eval", "data/truth.csv", 2),
        ],
        ids=["config", "scope", "ground-truth"],
    )
    def test_undecodable_input_file(self, tmp_path, command, path, code):
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        assert main(["group", "--config", str(run_cfg)]) == 0
        (tmp_path / path).write_bytes(b"\xff\xfe not utf-8\n")
        assert main([command, "--config", str(run_cfg)]) == code

    def test_empty_ground_truth_exit_two(self, tmp_path, capsys):
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        assert main(["group", "--config", str(run_cfg)]) == 0
        truth = tmp_path / "data" / "truth.csv"
        truth.write_text("")
        capsys.readouterr()
        assert main(["eval", "--config", str(run_cfg)]) == 2
        assert f"data error: eval: ground truth {truth} is empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "log,setting,said",
        [
            (
                "0,192.0.2.1,192.0.2.2,TCP,80,1,60\n1,192.0.2.3,198.51.100.1,UDP,53,1,60\n",
                "unknown_policy = map_to_objects",
                "ingest: no records kept after filtering",
            ),
            (
                "0,10.0.0.1,198.51.100.1,UDP,53,1,60\n",
                "unknown_policy = map_to_objects",
                "grouping: standardize requires at least 2 rows",
            ),
            (
                "0,10.0.0.1,10.0.0.2,TCP,80,1,60\ngarbage,line\n1,10.0.0.2,10.0.0.1,TCP,80,1,60\n",
                "--strict",
                "line 2: expected 7 fields, got 2",
            ),
        ],
        ids=["no-row-kept", "one-flow", "strict-malformed-line"],
    )
    def test_unusable_flow_log_exit_two(self, tmp_path, capsys, log, setting, said):
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        (tmp_path / "data" / "flows.csv").write_text(log)
        flags = [setting] if setting.startswith("--") else []
        if not flags:
            with run_cfg.open("a") as f:
                f.write(setting + "\n")
        capsys.readouterr()
        assert main(["group", "--config", str(run_cfg), *flags]) == 2
        assert f"data error: {said}" in capsys.readouterr().err
        assert not (tmp_path / "artifacts" / "groups.json").exists()

    def test_synth_endpoints_beyond_member_network_exit_two(self, tmp_path, capsys):
        synth_cfg, _ = self._write_cli_configs(tmp_path)
        with synth_cfg.open("a") as f:
            f.write(
                "synth_group_count = 2\nsynth_endpoints_per_group = 32768\n"
                "synth_windows = 1\nsynth_flows_per_endpoint_window = 1\n"
            )
        assert main(["synth", "--config", str(synth_cfg)]) == 2
        assert "do not fit in 10.0.0.0/16" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command", ["synth", "group", "tune"])
    def test_out_dir_is_a_file_exit_two_before_fit(self, tmp_path, monkeypatch, capsys, command):
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        fits = []
        monkeypatch.setattr(clustering, "fit_groups", lambda *args: fits.append(args))
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        grid = tmp_path / "grid.txt"
        grid.write_text("pca_target = 0.9\n")
        cfg = synth_cfg if command == "synth" else run_cfg
        with cfg.open("a") as f:
            f.write(f"out_dir = {blocker}\ngrid = {grid}\n")
        assert main([command, "--config", str(cfg)]) == 2
        assert fits == []
        assert capsys.readouterr().err.count(str(blocker)) == 1

    @pytest.mark.parametrize("edit", ["protocol", "scope"])
    def test_non_ascii_inputs_under_c_locale(self, tmp_path, edit):
        # Inputs are read and artifacts written as UTF-8 whatever the
        # locale: a portless protocol "ÉSP" in the log and an object named
        # "café" in the scope give the bytes a UTF-8 locale gives.
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        data = tmp_path / "data"
        if edit == "protocol":
            first = (data / "flows.csv").read_text().split("\n", 1)[0].split(",")
            first[3:5] = ["ÉSP", "0"]
            with (data / "flows.csv").open("a", encoding="utf-8") as f:
                f.write(",".join(first) + "\n")
        else:
            with (data / "scope.txt").open("a", encoding="utf-8") as f:
                f.write("object 198.51.100.0/24 café\n")
        written = []
        for locale_env in (C_LOCALE, {"PYTHONUTF8": "1"}):
            out = tmp_path / f"out{len(written)}"
            cfg = tmp_path / f"run{len(written)}.cfg"
            cfg.write_text(run_cfg.read_text() + f"out_dir = {out}\n")
            for command in ("group", "rules"):
                proc = run_cli(command, cfg, locale_env)
                assert proc.returncode == 0, proc.stderr
            written.append((out / "ruleset.csv").read_bytes())
        assert written[0] == written[1]
        if edit == "protocol":
            assert ",ÉSP,0,allow," in written[0].decode("utf-8")

    def test_summaries_print_as_utf8_under_c_locale(self, tmp_path):
        # A non-ASCII dataset name reaches the group and eval summaries; they
        # print as UTF-8 under an ASCII locale, as under a UTF-8 one.
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        with run_cfg.open("a", encoding="utf-8") as f:
            f.write("dataset = café\n")
        printed = []
        for locale_env in (C_LOCALE, {"PYTHONUTF8": "1"}):
            lines = []
            for command in ("synth", "group", "rules", "eval"):
                cfg = synth_cfg if command == "synth" else run_cfg
                proc = run_cli(command, cfg, locale_env)
                assert proc.returncode == 0, proc.stderr
                lines += proc.stdout.decode("utf-8").split("\n")
            printed.append(lines)
        for lines in printed:
            assert lines[3].startswith("café,6,") and lines[8].startswith("café,6,")
            # The measured runtime: the group row's last field, the eval row's fifth.
            lines[3] = lines[3].rsplit(",", 1)[0]
            fields = lines[8].split(",")
            lines[8] = ",".join(fields[:4] + fields[5:])
        assert printed[0] == printed[1]

    def test_closed_stdout_exit_zero(self, tmp_path):
        # With fd 1 closed there is no stdout to print to; the run succeeds.
        synth_cfg, _ = self._write_cli_configs(tmp_path)
        proc = run_cli("synth", synth_cfg, preexec_fn=lambda: os.close(1))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "data" / "flows.csv").exists()

    @pytest.mark.parametrize("sink", ["full-device", "closed-pipe"])
    def test_failed_summary_write_exit_two(self, tmp_path, sink):
        # The summary is written last; a full disk or a pipe with no reader
        # is a data error, reported on one line, after every artifact.
        synth_cfg, _ = self._write_cli_configs(tmp_path)
        if sink == "full-device":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            with open("/dev/full", "wb") as full:
                proc = run_cli("synth", synth_cfg, stdout=full)
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = run_cli("synth", synth_cfg, stdout=write_end)
            finally:
                os.close(write_end)
        assert proc.returncode == 2, proc.stderr
        [message] = proc.stderr.decode().splitlines()
        assert message.startswith("data error: cannot write the summary to stdout: ")
        assert (tmp_path / "data" / "flows.csv").exists()

    def test_text_only_stdout_takes_the_summary(self, tmp_path):
        # An in-process caller may redirect stdout to a stream with no byte
        # buffer; the summary lands there as text and the run succeeds.
        synth_cfg, _ = self._write_cli_configs(tmp_path)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            assert main(["synth", "--config", str(synth_cfg)]) == 0
        assert "flows" in captured.getvalue()

    @pytest.mark.parametrize(
        "command, key, value, code",
        [
            ("group", "flow_log", "nö.csv", 2),
            ("group", "out_dir", "café", 2),
            ("synth", "out_dir", "café", 2),
            ("tune", "grid", "grïd.txt", 1),
        ],
        ids=["group-flow-log", "group-out-dir", "synth-out-dir", "tune-grid"],
    )
    def test_unencodable_path_under_c_locale(self, tmp_path, command, key, value, code):
        # Under an ASCII filesystem encoding a non-ASCII path cannot be
        # opened or made: that is a data error, or a usage error for the
        # grid, and the message names the path.
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        cfg = synth_cfg if command == "synth" else run_cfg
        path = tmp_path / value
        with cfg.open("a", encoding="utf-8") as f:
            f.write(f"grid = {tmp_path / 'grid.txt'}\n{key} = {path}\n")
        (tmp_path / "grid.txt").write_text("pca_target = 0.9\n")
        proc = run_cli(command, cfg, C_LOCALE)
        assert proc.returncode == code, proc.stderr
        assert str(path).encode("ascii", "backslashreplace") in proc.stderr
        assert not path.exists() and not (tmp_path / "artifacts").exists()

    def test_edited_scope_makes_groups_stale(self, tmp_path):
        # Groups learned under one scope must not pass as current after the
        # scope loses two of its objects.
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        with synth_cfg.open("a") as f:
            f.write("synth_external_fraction = 0.3\nsynth_object_count = 3\n")
        with run_cfg.open("a") as f:
            f.write("unknown_policy = map_to_objects\n")
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        assert main(["group", "--config", str(run_cfg)]) == 0
        scope = tmp_path / "data" / "scope.txt"
        lines = scope.read_text().split("\n")
        objects = [i for i, line in enumerate(lines) if line.startswith("object ")]
        assert len(objects) == 3
        scope.write_text("\n".join(l for i, l in enumerate(lines) if i not in objects[:2]))
        assert main(["rules", "--config", str(run_cfg)]) == 2
        assert main(["eval", "--config", str(run_cfg)]) == 2

    def test_object_name_with_comma_exit_two(self, tmp_path, capsys):
        # ruleset.csv could not hold the name, so the scope is refused
        # before group writes anything.
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        scope = tmp_path / "data" / "scope.txt"
        lines = scope.read_text().split("\n")
        with scope.open("a") as f:
            f.write("object 198.51.100.1/32 web,proxy\n")
        assert main(["group", "--config", str(run_cfg)]) == 2
        assert f"scope line {len(lines)}: object name 'web,proxy'" in capsys.readouterr().err
        assert not (tmp_path / "artifacts").exists()

    def test_ported_protocol_with_port_zero_is_malformed(self, tmp_path):
        # group and rules read the log by one rule, so a line that group
        # skips cannot fail rules.
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        log = tmp_path / "data" / "flows.csv"
        fields = log.read_text().split("\n", 1)[0].split(",")
        fields[3:5] = ["TCP", "0"]
        with log.open("a") as f:
            f.write(",".join(fields) + "\n")
        assert main(["group", "--config", str(run_cfg)]) == 0
        report = json.loads((tmp_path / "artifacts" / "ingest_report.json").read_text())
        assert report["malformed_lines"] == 1
        assert main(["rules", "--config", str(run_cfg)]) == 0

    def test_artifacts_independent_of_blas_threads(self, tmp_path):
        # The CLI pins one BLAS thread before numpy loads, so the caller's
        # thread setting changes no byte that group or rules writes.
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        with synth_cfg.open("a") as f:
            f.write("synth_noise_rate = 0.1\n")
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            cfg = tmp_path / f"threads{threads}.cfg"
            cfg.write_text(run_cfg.read_text() + f"out_dir = {out}\n")
            env = {
                var: threads
                for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            }
            for command in ("group", "rules"):
                proc = run_cli(command, cfg, env)
                assert proc.returncode == 0, proc.stderr
            written.append(
                {p.name: p.read_bytes() for p in out.iterdir() if p.name != "timing.json"}
            )
        assert {"groups.json", "ruleset.csv", "hygiene.txt"} <= written[0].keys()
        assert written[0] == written[1]
        # At this size no artifact differs even unpinned, so check the pin too.
        probe = "import os, microseg.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        pinned = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(env)
        )
        assert pinned.stdout.strip() == "1", pinned.stderr

    def test_data_error_exit_two(self, tmp_path):
        run_cfg = write_config(
            tmp_path / "run.cfg",
            flow_log=tmp_path / "missing.csv",
            scope=tmp_path / "missing.txt",
            out_dir=tmp_path / "artifacts",
        )
        assert main(["group", "--config", str(run_cfg)]) == 2

    def test_seed_override(self, tmp_path):
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        main(["synth", "--config", str(synth_cfg)])
        assert main(["group", "--config", str(run_cfg), "--seed", "99"]) == 0
        groups, _ = load_groups(tmp_path / "artifacts" / "groups.json")
        payload = json.loads((tmp_path / "artifacts" / "groups.json").read_text())
        assert payload["config"]["seed"] == 99

    def test_subprocess_entry_point(self, tmp_path):
        synth_cfg, _ = self._write_cli_configs(tmp_path)
        proc = run_cli("synth", synth_cfg, text=True)
        assert proc.returncode == 0
        assert "flows" in proc.stdout
