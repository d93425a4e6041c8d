"""The benchmark's traced run (bench/trace.py) imports microseg layer
functions directly. Loading it here makes a deleted or renamed name fail
the suite instead of only the traced benchmark run."""

import importlib.util
import inspect
from pathlib import Path

from microseg.clustering import kmeans_fit, kmeans_pp_init
from microseg.features import encode_windows
from microseg.flows import filter_flows, parse_flow_log
from microseg.pipeline import PipelineConfig
from microseg.rules import extract_service_flows

TRACE = Path(__file__).resolve().parents[1] / "bench" / "trace.py"


def test_trace_module_imports_resolve():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # module-level imports only; main() is not run
    assert callable(module.main)
    # trace.py passes config.workers to encode_windows as the fourth positional.
    inspect.signature(encode_windows).bind(None, None, None, PipelineConfig().workers)


def test_ingest_path_signatures_bind_trace_arguments():
    # The calls trace.py makes on the ingest -> rules path, argument for argument.
    inspect.signature(parse_flow_log).bind("", strict=False)
    inspect.signature(filter_flows).bind([], None, PipelineConfig().unknown_policy)
    inspect.signature(extract_service_flows).bind([], None, None)


def test_kmeans_signatures_bind_trace_arguments():
    # The group-stage fit and the probe.pp_init call, argument for argument.
    params = PipelineConfig().grouping_params()
    inspect.signature(kmeans_fit).bind(
        None, 2, params.seed,
        tol=params.tol, max_iter=params.max_iter, restarts=params.restarts,
    )
    inspect.signature(kmeans_pp_init).bind(None, 2, PipelineConfig().seed)
