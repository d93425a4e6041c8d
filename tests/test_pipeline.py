import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import microseg
import microseg.pipeline as pipeline
from microseg.cli import main
from microseg.flows import DROP_UNKNOWN, MAP_TO_OBJECTS, DataError, scope_to_text
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

ARTIFACTS = [
    "pca_model.json",
    "cluster_model.json",
    "groups.json",
    "assignments.csv",
    "mean_distances.csv",
    "ingest_report.json",
]


def write_config(path: Path, **overrides) -> Path:
    lines = [f"{key} = {value}" for key, value in overrides.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def synth_setup(tmp_path: Path, **synth_overrides) -> PipelineConfig:
    """Generate a small scenario and return a config pointing at it."""
    data = tmp_path / "data"
    synth_config = PipelineConfig(out_dir=str(data), seed=5)
    synth_config.synth_group_count = synth_overrides.pop("group_count", 4)
    synth_config.synth_endpoints_per_group = synth_overrides.pop("endpoints_per_group", 3)
    synth_config.synth_windows = synth_overrides.pop("windows", 4)
    synth_config.synth_flows_per_endpoint_window = synth_overrides.pop("flows", 12)
    synth_config.synth_services_per_group = synth_overrides.pop("services", 1)
    synth_config.synth_port_pool = synth_overrides.pop("port_pool", 32)
    synth_config.synth_noise_rate = synth_overrides.pop("noise", 0.0)
    synth_config.synth_external_fraction = synth_overrides.pop("external_fraction", 0.0)
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

    def test_insensitive_to_workers_and_paths(self, tmp_path):
        a = PipelineConfig(workers=1, out_dir="x", scope=self.scope_file(tmp_path))
        b = PipelineConfig(workers=8, out_dir="y", scope=self.scope_file(tmp_path, name="s2"))
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
        summary = run_group(config)
        assert summary["asset_qty"] == 12
        assert summary["suggested_group_qty"] == 4
        out = Path(config.out_dir)
        for name in ARTIFACTS + ["timing.json"]:
            assert (out / name).exists(), name
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

    def test_rerun_is_byte_identical(self, tmp_path):
        config = synth_setup(tmp_path)
        run_group(config)
        first = {
            name: (Path(config.out_dir) / name).read_bytes() for name in ARTIFACTS
        }
        run_group(config)
        for name in ARTIFACTS:
            assert (Path(config.out_dir) / name).read_bytes() == first[name], name

    def test_feature_export_flag(self, tmp_path):
        config = synth_setup(tmp_path)
        config.export_features = True
        run_group(config)
        text = (Path(config.out_dir) / "features.csv").read_text()
        assert text.startswith("endpoint,window,f0")

    def test_failed_write_keeps_earlier_artifact(self, tmp_path, monkeypatch):
        config = synth_setup(tmp_path)
        run_group(config)
        out = Path(config.out_dir)
        models = ("groups.json", "pca_model.json", "cluster_model.json")
        before = {name: (out / name).read_bytes() for name in models}

        def fail_replace(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", fail_replace)
        # A new seed changes the centroids, a new PCA target the PCA model.
        config.seed = 6
        config.pca_target = 2
        with pytest.raises(OSError, match="simulated crash"):
            run_group(config)
        assert {name: (out / name).read_bytes() for name in models} == before
        assert not list(out.glob(".*.tmp"))


class TestRunRules:
    def test_rules_after_group(self, tmp_path):
        config = synth_setup(tmp_path)
        run_group(config)
        summary = run_rules(config)
        assert summary["rules"] > 0
        assert summary["any_to_any"] == 0
        assert summary["duplicates"] == 0
        allowed, total = verify_ruleset_completeness(config)
        assert allowed == total

    def test_two_group_one_service_each_way(self, tmp_path):
        data = tmp_path / "data"
        synth_config = PipelineConfig(out_dir=str(data), seed=5)
        synth_config.synth_group_count = 2
        synth_config.synth_endpoints_per_group = 2
        synth_config.synth_windows = 2
        synth_config.synth_flows_per_endpoint_window = 8
        synth_config.synth_services_per_group = 1
        synth_config.synth_port_pool = 8
        run_synth(synth_config)
        config = PipelineConfig(
            flow_log=str(data / "flows.csv"),
            scope=str(data / "scope.txt"),
            out_dir=str(tmp_path / "artifacts"),
            seed=5,
            top_k_ports=8,
        )
        run_group(config)
        summary = run_rules(config)
        ruleset = (Path(config.out_dir) / "ruleset.csv").read_text().strip().split("\n")
        assert len(ruleset) == 1 + summary["rules"]
        # one service per group: at most one rule per ordered group pair seen
        assert summary["rules"] <= 4

    def test_stale_artifacts_rejected(self, tmp_path):
        config = synth_setup(tmp_path)
        run_group(config)
        config.seed = 6  # semantic change invalidates the fingerprint
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
        first = {n: (out / n).read_bytes() for n in ("ruleset.csv", "hygiene.txt")}
        run_rules(config)
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob


class TestRunEval:
    def test_row_and_artifacts(self, tmp_path):
        config = synth_setup(tmp_path)
        run_group(config)
        report, row = run_eval(config)
        assert report.homogeneity == 1.0
        assert report.v_measure == 1.0
        fields = row.split(",")
        assert fields[0] == "synthetic"
        assert fields[1] == "12"
        assert (Path(config.out_dir) / "eval_report.csv").read_text().startswith(
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


class TestRunTune:
    def test_single_entry_grid_echoed(self, tmp_path):
        config = synth_setup(tmp_path)
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text("pca_target = 0.9\n")
        config.grid = str(grid_path)
        summary = run_tune(config)
        assert summary["winner_index"] == 0
        best = load_config(Path(config.out_dir) / "best_config.txt")
        assert best.pca_target == 0.9

    def test_three_entry_grid_deterministic(self, tmp_path):
        config = synth_setup(tmp_path)
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text(
            "pca_target = 0.9\n"
            "pca_target = 0.99 ; k = 0.5\n"
            "top_k_ports = 8\n"
        )
        config.grid = str(grid_path)
        first = run_tune(config)
        second = run_tune(config)
        assert first == second
        report = (Path(config.out_dir) / "tune_report.csv").read_text()
        assert len(report.strip().split("\n")) == 4

    def test_empty_grid_rejected(self, tmp_path):
        config = synth_setup(tmp_path)
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text("# nothing here\n")
        config.grid = str(grid_path)
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
        summary = run_tune(config)
        assert summary["below_floor"]
        rows = (tmp_path / "out" / "tune_report.csv").read_text().strip().split("\n")
        assert rows[0].endswith(",below_floor")
        assert rows[1].endswith(",1")

    def test_other_policy_ingested_once(self, tmp_path, monkeypatch):
        # Three entries under the policy the base config does not use: one
        # ingest per policy, and the same fits, report and winner as a run
        # whose base config already uses that policy.
        config = synth_setup(tmp_path, external_fraction=0.3)
        config.grid = str(tmp_path / "grid.txt")
        entries = ["pca_target = 0.9", "pca_target = 0.99 ; k = 0.5", "top_k_ports = 8"]
        ingested, fitted = [], []
        real_ingest, real_fit = pipeline.ingest, pipeline.fit_groups

        def spy_ingest(c):
            ingested.append(c.unknown_policy)
            return real_ingest(c)

        def spy_fit(kept, params):
            fitted.append(len(kept))
            return real_fit(kept, params)

        monkeypatch.setattr(pipeline, "ingest", spy_ingest)
        monkeypatch.setattr(pipeline, "fit_groups", spy_fit)

        def tune(base_policy, prefix):
            ingested.clear()
            fitted.clear()
            Path(config.grid).write_text("".join(prefix + e + "\n" for e in entries))
            config.unknown_policy = base_policy
            run_tune(config)
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
        assert mixed[0] == [DROP_UNKNOWN, MAP_TO_OBJECTS]
        assert plain[0] == [MAP_TO_OBJECTS]
        assert mixed[1:] == plain[1:]
        kept = {
            p: len(real_ingest(replace(config, unknown_policy=p))[0])
            for p in (DROP_UNKNOWN, MAP_TO_OBJECTS)
        }
        assert kept[DROP_UNKNOWN] < kept[MAP_TO_OBJECTS]
        assert mixed[1] == [kept[MAP_TO_OBJECTS]] * 3

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

    def test_usage_error_exit_one(self, capsys):
        assert main(["group"]) == 1  # --config required
        assert main(["nonsense"]) == 1

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
            ("eval", "timing.json", "garbage\n"),
            ("eval", "timing.json", "{}\n"),
            ("rules", "groups.json", "suggested_qty off"),
            ("eval", "groups.json", "suggested_qty off"),
            ("eval", "groups.json", "padded id"),
            ("verify", "ruleset.csv", "deny"),
        ],
        ids=[
            "groups-truncated",
            "groups-keys-missing",
            "groups-wrong-type",
            "groups-endpoint-twice-rules",
            "groups-endpoint-twice-eval",
            "groups-member-not-ipv4",
            "timing-garbage",
            "timing-empty",
            "groups-suggested-qty-mismatch-rules",
            "groups-suggested-qty-mismatch-eval",
            "groups-padded-id",
            "ruleset-deny-action",
        ],
    )
    def test_corrupt_artifact_exit_two(self, tmp_path, command, artifact, content):
        synth_cfg, run_cfg = self._write_cli_configs(tmp_path)
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        assert main(["group", "--config", str(run_cfg)]) == 0
        if command == "verify":
            assert main(["rules", "--config", str(run_cfg)]) == 0
        path = tmp_path / "artifacts" / artifact
        if content == "truncated":
            content = path.read_text()[:40]
        elif content == "deny":
            content = path.read_text().replace(",allow,", ",deny,", 1)
        elif content in (
            "endpoint in two groups", "member not an address", "suggested_qty off",
            "padded id",
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
            else:
                # "0<id>" after "<id>" names the same int; its empty list
                # would replace the group.
                groups["0" + next(iter(groups))] = []
                payload["suggested_qty"] = len(groups)
            content = json.dumps(payload)
        path.write_text(content)
        if command == "verify":
            with pytest.raises(DataError):
                verify_ruleset_completeness(load_config(run_cfg))
        else:
            assert main([command, "--config", str(run_cfg)]) == 2

    @pytest.mark.parametrize(
        "command,setting",
        [
            ("group", "--seed -1"),
            ("synth", "--seed -1"),
            ("group", "restarts = 0"),
            ("group", "max_iter = 0"),
            ("group", "k = 1.5"),
            ("group", "k = 0"),
            ("group", "tol = 0"),
            ("group", "tol = nan"),
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
        # The child imports the package this process imported, also when
        # pytest put src on sys.path itself rather than through PYTHONPATH.
        src = str(Path(microseg.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "microseg", "synth", "--config", str(synth_cfg)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert "flows" in proc.stdout
