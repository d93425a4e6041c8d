"""The benchmark's traced run (bench/trace.py) imports microseg layer
functions directly. Loading it here makes a deleted or renamed name fail
the suite instead of only the traced benchmark run."""

import importlib.util
import inspect
from pathlib import Path

from microseg.features import encode_windows
from microseg.pipeline import PipelineConfig

TRACE = Path(__file__).resolve().parents[1] / "bench" / "trace.py"


def test_trace_module_imports_resolve():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # module-level imports only; main() is not run
    assert callable(module.main)
    # trace.py passes config.workers to encode_windows as the fourth positional.
    inspect.signature(encode_windows).bind(None, None, None, PipelineConfig().workers)
