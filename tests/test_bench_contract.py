"""The benchmark's traced run (bench/trace.py) imports microseg layer
functions directly, and bench/run.py's completeness check imports two more
in a child process. Loading trace.py, binding the calls both files make and
running trace.py on a tiny scenario here makes a deleted or renamed name or
attribute fail the suite instead of only the benchmark run. The scenarios
bench/run.py generates are pinned here too, since its quality pins hold only
for those bytes."""

import hashlib
import importlib.util
import inspect
from dataclasses import replace
from pathlib import Path

import pytest

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

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACE = BENCH / "trace.py"
# SHA-256 of (flows.csv, scope.txt, truth.csv) that `microseg synth` writes
# for a benchmark workload at bench/run.py's default seed.
SCENARIO_DIGESTS = {
    "table1": (
        "86c1d61a1efa58acc100998ac0f3498a0b4ee1989f59a53fae0f1463b3807b5e",
        "8b03b3f867be06f72e0b12b364a18c9e260cdd87b30a542df5a2dfa1a9105b54",
        "8087f1d987a7caf2f8c2b83b891e5ead7b0c7758ffc2cf883c60627f8d59186e",
    ),
    "objects_dense": (
        "676fc22ad2a0eb56b0fc6c1cba49d608f27e69fd12f4e22dbc1e3b08c646c1b9",
        "2ff5cc5b8169e3946ab91343b4dcb6646463e6218c45af86e2f9936e7459145a",
        "8d5632d26ac89a9ff11d7a52482e206cde6dceaf1e56425bd8f83a233c697e28",
    ),
}


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # module-level code only; main() is not run
    return module


def test_trace_module_imports_resolve():
    assert callable(_load(TRACE, "bench_trace").main)
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
    assert _load(TRACE, "bench_trace").main(argv) == 0
    # Every file both write, except the measured timing.json.
    for name in (
        "groups.json", "assignments.csv", "ingest_report.json", "ruleset.csv",
        "hygiene.txt",
    ):
        assert (traced / name).read_bytes() == (tmp_path / "cli" / name).read_bytes(), name


@pytest.mark.parametrize("workload", sorted(SCENARIO_DIGESTS))
def test_benchmark_scenario_bytes_are_pinned(tmp_path, workload):
    # The settings bench/run.py writes into its synth config, at its seed.
    bench = _load(BENCH / "run.py", "bench_run")
    settings = dict(
        bench.COMMON, **bench.WORKLOADS[workload], seed=bench.DEFAULT_SEED, out_dir=tmp_path
    )
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    run_synth(load_config(cfg))
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("flows.csv", "scope.txt", "truth.csv")
    )
    assert digests == SCENARIO_DIGESTS[workload]
