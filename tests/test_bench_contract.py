"""The benchmark's traced run (bench/trace.py) imports microseg layer
functions directly, and bench/run.py's completeness check imports two more
in a child process. Loading trace.py and binding the calls both files make
here makes a deleted or renamed name fail the suite instead of only the
benchmark run."""

import importlib.util
import inspect
from pathlib import Path

from microseg.clustering import kmeans_fit, kmeans_pp_init
from microseg.features import encode_windows
from microseg.flows import filter_flows, parse_flow_log
from microseg.pca import fit_pca
from microseg.pipeline import (
    PipelineConfig,
    fingerprint,
    ingest,
    load_config,
    verify_ruleset_completeness,
)
from microseg.rules import check_ruleset, extract_service_flows, generalize, make_matcher

TRACE = Path(__file__).resolve().parents[1] / "bench" / "trace.py"


def test_trace_module_imports_resolve():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # module-level imports only; main() is not run
    assert callable(module.main)
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
