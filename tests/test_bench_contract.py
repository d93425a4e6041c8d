"""The benchmark's traced run (bench/trace.py) imports microseg layer
functions directly, and bench/run.py's completeness check imports two more
in a child process. Loading trace.py, binding the calls both files make and
running trace.py on a tiny scenario here makes a deleted or renamed name or
attribute fail the suite instead of only the benchmark run."""

import importlib.util
import inspect
from dataclasses import replace
from pathlib import Path

from microseg.cli import main as cli_main
from microseg.clustering import kmeans_fit, kmeans_pp_init
from microseg.features import encode_windows
from microseg.flows import filter_flows, parse_flow_log
from microseg.pca import fit_pca
from microseg.pipeline import (
    PipelineConfig,
    fingerprint,
    ingest,
    load_config,
    run_synth,
    verify_ruleset_completeness,
)
from microseg.rules import check_ruleset, extract_service_flows, generalize, make_matcher

TRACE = Path(__file__).resolve().parents[1] / "bench" / "trace.py"


def _load_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # module-level imports only; main() is not run
    return module


def test_trace_module_imports_resolve():
    assert callable(_load_trace().main)
    # trace.py passes config.workers to encode_windows as the fourth positional.
    inspect.signature(encode_windows).bind(None, None, None, PipelineConfig().workers)
    inspect.signature(fit_pca).bind(None, 0.95, schema_fingerprint="")


def test_ingest_path_signatures_bind_trace_arguments():
    # The calls trace.py makes on the ingest -> rules path, argument for argument.
    inspect.signature(parse_flow_log).bind("", strict=False)
    inspect.signature(filter_flows).bind([], None, PipelineConfig().unknown_policy)
    inspect.signature(extract_service_flows).bind([], None, None)
    inspect.signature(generalize).bind({})
    inspect.signature(check_ruleset).bind(None, None, None)
    inspect.signature(make_matcher).bind(None, None, None)  # also probe.match
    inspect.signature(ingest).bind(PipelineConfig())
    # Every stage hashes (log bytes, config), positionally.
    inspect.signature(fingerprint).bind(b"", PipelineConfig())


def test_kmeans_signatures_bind_trace_arguments():
    # The group-stage fit and the probe.pp_init call, argument for argument.
    params = PipelineConfig().grouping_params()
    inspect.signature(kmeans_fit).bind(
        None, 2, params.seed,
        tol=params.tol, max_iter=params.max_iter, restarts=params.restarts,
    )
    inspect.signature(kmeans_pp_init).bind(None, 2, PipelineConfig().seed)


def test_completeness_check_signatures_bind_run_arguments():
    # bench/run.py imports these inside the code string it runs in a child
    # process, so loading trace.py does not cover them.
    inspect.signature(load_config).bind("run.cfg")
    inspect.signature(verify_ruleset_completeness).bind(PipelineConfig())


def test_traced_run_matches_cli_artifacts(tmp_path):
    # Every attribute trace.py reads is exercised, and its artifacts must be
    # the CLI's, as bench/run.py checks on the full workloads.
    data = tmp_path / "data"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"flow_log = {data / 'flows.csv'}",
                f"scope = {data / 'scope.txt'}",
                f"ground_truth = {data / 'truth.csv'}",
                f"out_dir = {tmp_path / 'cli'}",
                "seed = 5",
                "top_k_ports = 16",
                "unknown_policy = map_to_objects",
                "synth_group_count = 3",
                "synth_endpoints_per_group = 2",
                "synth_windows = 3",
                "synth_external_fraction = 0.3",
            ]
        )
        + "\n"
    )
    run_synth(replace(load_config(cfg), out_dir=str(data)))
    assert cli_main(["group", "--config", str(cfg)]) == 0
    assert cli_main(["rules", "--config", str(cfg)]) == 0
    traced = tmp_path / "trace"
    argv = [str(cfg), str(traced), str(tmp_path / "trace.json"), "contract"]
    assert _load_trace().main(argv) == 0
    # Every file both write, except the measured timing.json.
    for name in (
        "groups.json", "assignments.csv", "ingest_report.json", "ruleset.csv",
        "hygiene.txt",
    ):
        assert (traced / name).read_bytes() == (tmp_path / "cli" / name).read_bytes(), name
