"""Benchmark of the microseg CLI over synthetic flow-log workloads.

Run from the repository root:

    python3 bench/run.py --workload table1 --seed 42 --seconds 30 --trace 0

``--trace 0`` generates the workload's scenario with ``microseg synth``
(several times; ``setup_s`` is the median), then runs ``microseg group``,
``rules`` and ``eval`` as child processes, one at a time, and repeats that
pass while another one is expected to end within ``--seconds`` (at least
once). Each stage is timed from outside and its peak RSS read from
``os.wait4``; the end-to-end metrics are medians over the passes.

``--trace 1`` makes one untraced CLI pass, then runs ``bench/trace.py`` in a
fresh process, which calls each layer's public functions in the CLI's order
and records spans and counts. It prints the per-layer metrics, and a
``trace_error`` line instead of them when the traced run fails or its
artifacts differ from the CLI's.

Every run checks the outputs (see ``check_pass``). The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit status is 0 only when every check
passed. ``--workload all`` runs every workload in turn and prefixes each
metric with its workload name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BASELINE = ROOT / "tests" / "data" / "baseline_metrics.json"

DEFAULT_SEED = 42
# One BLAS thread in every child: with two, the first fit_pca in a fresh
# process sometimes stalls for about a second, and k-means inertia differs
# in the last ulp. Both sides of a comparison must use the same value.
BLAS_THREADS = 1
SETUP_REPEATS = 3
STARTUP_REPEATS = 5

COMMON = {
    "restarts": 2,
    "top_k_ports": 128,
    "synth_endpoints_per_group": 3,
    "synth_windows": 24,
    "synth_noise_rate": 0.05,
    "synth_services_per_group": 5,
    "synth_port_pool": 128,
}
WORKLOADS = {
    # The acceptance scenario: 144k flows, 7,200 samples, k = 300.
    "table1": {
        "synth_group_count": 100,
        "synth_flows_per_endpoint_window": 20,
        "synth_object_count": 3,
        "unknown_policy": "drop_unknown",
    },
    # Few endpoints, many flows, 30% to external objects: 324k flows,
    # 2,160 samples, k = 90. Stresses parse/filter/encode and rules.
    "objects_dense": {
        "synth_group_count": 30,
        "synth_flows_per_endpoint_window": 150,
        "synth_external_fraction": 0.3,
        "synth_object_count": 8,
        "unknown_policy": "map_to_objects",
    },
    # Twice the acceptance scenario: 288k flows, 14,400 samples, k = 600.
    # K-means and check_ruleset dominate.
    "groups2x": {
        "synth_group_count": 200,
        "synth_flows_per_endpoint_window": 20,
        "synth_object_count": 3,
        "unknown_policy": "drop_unknown",
    },
}
# (homogeneity, v_measure, suggested groups) at DEFAULT_SEED; table1's come
# from the test suite's baseline file.
PINNED = {
    "objects_dense": (1.0, 0.9907295384913861, 33),
    "groups2x": (1.0, 0.9594033046025345, 345),
}
MIN_HOMOGENEITY = 0.95
MIN_V_MEASURE = 0.85

END_TO_END = (
    ("pipeline_s", "s"),
    ("flows_per_s", "flows/s"),
    ("group_rss_mb", "MiB"),
    ("rules_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("homogeneity", "fraction"),
    ("v_measure", "fraction"),
)
# Printed with the end-to-end metrics but left out of the JSON result: one
# stage's wall time spreads too much between runs on a shared VM to hold a
# 0.25 bound (see README.md). The traced run reports them per layer.
STAGE_TIMES = (("group_s", "s"), ("rules_s", "s"))
# Summed durations of the traced spans of that name.
SPAN_METRICS = (
    "flows.parse", "flows.filter", "pipeline.ingest", "pipeline.fingerprint",
    "features.encode", "features.standardize", "pca.fit", "pca.project",
    "clustering.kmeans", "clustering.assign", "pipeline.artifacts",
    "rules.extract", "rules.generalize", "rules.check", "metrics.evaluate",
    "synth.generate",
)
PROBE_METRICS = {"probe.pp_init": "clustering.pp_init_s", "probe.match": "rules.match_s"}
COUNT_METRICS = (
    ("flows.lines", "count"),
    ("flows.malformed", "count"),
    ("flows.kept_ratio", "fraction"),
    ("features.samples", "count"),
    ("features.dim", "count"),
    ("pca.retained_dim", "count"),
    ("pca.explained_fraction", "fraction"),
    ("clustering.k", "count"),
    ("clustering.iterations", "count"),
    ("clustering.nonempty_ratio", "fraction"),
    ("clustering.lloyd_gflop", "GFLOP"),
    ("rules.count", "count"),
    ("rules.pairs_compared", "count"),
    ("rules.redundant", "count"),
)
STAGES = ("group", "rules", "eval")
IDENTICAL_ARTIFACTS = ("groups.json", "assignments.csv", "ruleset.csv")
COMPLETENESS = (
    "import sys\n"
    "from microseg.pipeline import load_config, verify_ruleset_completeness\n"
    "print(*verify_ruleset_completeness(load_config(sys.argv[1])))\n"
)


def per_layer_units() -> dict[str, str]:
    units = {"cli.startup_s": "s"}
    units.update({f"stage.{stage}.cli_s": "s" for stage in STAGES})
    units.update({f"{name}_s": "s" for name in SPAN_METRICS})
    units.update({metric: "s" for metric in PROBE_METRICS.values()})
    units.update(dict(COUNT_METRICS))
    for stage in STAGES:
        units[f"stage.{stage}.self_s"] = "s"
        units[f"stage.{stage}.coverage"] = "fraction"
        units[f"stage.{stage}.overhead_s"] = "s"
    return units


class Run:
    """Stage runs and check results of one workload run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.dir = WORK / workload
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"{self.workload}: CHECK FAILED: {message}", file=sys.stderr)

    def child(self, argv: list[str], log_name: str) -> tuple[int, float, float]:
        """Run one child to completion: (exit code, wall s, peak RSS MiB)."""
        log = self.dir / "logs" / log_name
        log.parent.mkdir(parents=True, exist_ok=True)
        with log.open("w") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=out, stderr=subprocess.STDOUT
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def stage(self, command: str, config: Path, log_name: str) -> tuple[float, float] | None:
        """One timed ``microseg <command>`` child; None when it exits non-zero."""
        self.attempted += 1
        argv = [sys.executable, "-m", "microseg", command, "--config", str(config)]
        code, wall, rss = self.child(argv, log_name)
        if code != 0:
            tail = (self.dir / "logs" / log_name).read_text()[-500:]
            self.fail(f"{command} exited {code}: {tail.strip()}")
            return None
        return wall, rss

    def write_config(self, name: str, data: Path, out: Path) -> Path:
        settings = dict(
            COMMON,
            **WORKLOADS[self.workload],
            seed=self.seed,
            dataset=self.workload,
            flow_log=data / "flows.csv",
            scope=data / "scope.txt",
            ground_truth=data / "truth.csv",
            out_dir=out,
        )
        path = self.dir / name
        path.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
        return path

    def setup(self, repeats: int) -> tuple[Path, list[float]] | None:
        """Generate the scenario ``repeats`` times into separate directories;
        the copies must be byte-identical. Returns the first directory and
        the synth wall times."""
        walls, digests = [], []
        for i in range(repeats):
            data = self.dir / f"data{i}"
            config = self.write_config(f"synth{i}.conf", data, data)
            result = self.stage("synth", config, f"synth{i}.log")
            if result is None:
                return None
            walls.append(result[0])
            digests.append(digest_files(data, ("flows.csv", "scope.txt", "truth.csv")))
        if any(d != digests[0] for d in digests):
            self.fail("synth output differs between repeats")
            return None
        return self.dir / "data0", walls

    def cli_pass(self, config: Path, index: int) -> dict | None:
        """group, rules, eval once; per stage (wall s, peak RSS MiB)."""
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        result = {}
        for command in STAGES:
            timed = self.stage(command, config, f"{command}{index}.log")
            if timed is None:
                return None
            result[command] = timed
        return result

    def check_pass(self, config: Path, first: dict | None) -> dict:
        """Check the artifacts of the pass just run. ``first`` holds the
        first pass's artifact digests and quality; later passes must equal
        it. Returns this pass's digests and quality."""
        out = self.dir / "out"
        hygiene = dict(
            line.split(": ", 1)
            for line in (out / "hygiene.txt").read_text().splitlines()
            if not line.startswith(" ")
        )
        for key in ("any_to_any", "duplicates"):
            if hygiene.get(key) != "0":
                self.fail(f"hygiene {key} = {hygiene.get(key)}")
        report = json.loads((out / "eval_report.json").read_text())
        state = {
            "digests": digest_files(out, IDENTICAL_ARTIFACTS),
            "quality": (report["homogeneity"], report["v_measure"],
                        report["suggested_group_qty"]),
        }
        if first is not None:
            if state != first:
                self.fail("artifacts or quality differ between passes")
            return state
        self.check_quality(*state["quality"])
        self.check_completeness(config)
        self.check_recorded_digests(state["digests"])
        return state

    def check_quality(self, h: float, v: float, groups: int) -> None:
        if self.seed != DEFAULT_SEED:
            if h < MIN_HOMOGENEITY or v < MIN_V_MEASURE:
                self.fail(f"h={h} v={v} below the acceptance bounds")
            return
        if self.workload == "table1":
            base = json.loads(BASELINE.read_text())
            pinned = (base["homogeneity"], base["v_measure"], base["suggested_group_qty"])
        else:
            pinned = PINNED[self.workload]
        if abs(h - pinned[0]) > 1e-9 or abs(v - pinned[1]) > 1e-9 or groups != pinned[2]:
            self.fail(f"(h, v, groups) = {(h, v, groups)}, pinned {pinned}")

    def check_completeness(self, config: Path) -> None:
        """Every kept flow must be allowed by the persisted ruleset."""
        proc = subprocess.run(
            [sys.executable, "-c", COMPLETENESS, str(config)],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
        )
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2 or fields[0] != fields[1]:
            self.fail(f"completeness check: {proc.stdout.strip()} {proc.stderr[-300:]}")

    def check_recorded_digests(self, digests: dict) -> None:
        """Artifacts must be byte-identical across runs of the same code,
        workload and seed in this checkout."""
        record = WORK / "digests" / f"{self.workload}-{self.seed}-{source_hash()}.json"
        if record.exists():
            if json.loads(record.read_text()) != digests:
                self.fail("artifacts differ from an earlier run with this seed")
        else:
            record.parent.mkdir(parents=True, exist_ok=True)
            record.write_text(json.dumps(digests, sort_keys=True))


def digest_files(directory: Path, names) -> dict[str, str]:
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in names
    }


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "microseg").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def describe_environment() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"env: python={platform.python_version()} numpy={metadata.version('numpy')} "
        f"nproc={len(os.sched_getaffinity(0))} blas_threads={BLAS_THREADS} loadavg={load}"
    )


def measure(run: Run, seconds: float) -> dict:
    """The ``--trace 0`` run: end-to-end metrics."""
    setup = run.setup(SETUP_REPEATS)
    if setup is None:
        return {}
    data, synth_walls = setup
    config = run.write_config("run.conf", data, run.dir / "out")
    passes, state, measured = [], None, 0.0
    while True:
        timed = run.cli_pass(config, len(passes))
        if timed is None:
            return {}
        passes.append(timed)
        print(f"{run.workload}: pass {len(passes)}: " + ", ".join(
            f"{command} {wall:.3f} s" for command, (wall, _) in timed.items()
        ))
        state = run.check_pass(config, state)
        pass_time = sum(wall for wall, _ in timed.values())
        measured += pass_time
        # Start another pass only if it should end inside the window.
        if measured + pass_time > seconds:
            break
    flows = (data / "flows.csv").read_bytes().count(b"\n")
    pipeline = statistics.median(sum(w for w, _ in p.values()) for p in passes)
    h, v, _ = state["quality"]
    print(f"{run.workload}: {len(passes)} pass(es), {flows} flows")
    return {
        "group_s": statistics.median(p["group"][0] for p in passes),
        "rules_s": statistics.median(p["rules"][0] for p in passes),
        "pipeline_s": pipeline,
        "flows_per_s": flows / pipeline,
        "group_rss_mb": statistics.median(p["group"][1] for p in passes),
        "rules_rss_mb": statistics.median(p["rules"][1] for p in passes),
        "setup_s": statistics.median(synth_walls),
        "homogeneity": h,
        "v_measure": v,
    }


def startup_seconds(run: Run) -> float:
    """Median wall time of ``python -m microseg --help``."""
    walls = []
    for i in range(STARTUP_REPEATS):
        code, wall, _ = run.child(
            [sys.executable, "-m", "microseg", "--help"], f"startup{i}.log"
        )
        if code != 0:
            raise RuntimeError(f"microseg --help exited {code}")
        walls.append(wall)
    return statistics.median(walls)


class TraceError(Exception):
    """The traced run failed or disagrees with the CLI."""


def trace(run: Run) -> dict:
    """The ``--trace 1`` run: one untraced CLI pass, then the traced run."""
    setup = run.setup(1)
    if setup is None:
        return {}
    data, _ = setup
    config = run.write_config("run.conf", data, run.dir / "out")
    untraced = run.cli_pass(config, 0)
    if untraced is None:
        return {}
    run.check_pass(config, None)
    metrics = {"cli.startup_s": startup_seconds(run)}
    metrics.update({f"stage.{stage}.cli_s": untraced[stage][0] for stage in STAGES})
    try:
        metrics.update(traced_metrics(run, config, untraced, metrics["cli.startup_s"]))
    except (TraceError, KeyError, StopIteration) as exc:
        # Per-layer metrics are left out; the CLI checks above still count.
        print(f"{run.workload}: trace_error: {exc}")
    return metrics


def traced_metrics(run: Run, config: Path, untraced: dict, startup: float) -> dict:
    out = run.dir / "trace_out"
    trace_file = run.dir / "trace.json"
    shutil.rmtree(out, ignore_errors=True)
    trace_file.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "trace.py"), str(config), str(out),
            str(trace_file), f"{run.workload}-{run.seed}"]
    code, _, _ = run.child(argv, "trace.log")
    if code != 0:
        tail = (run.dir / "logs" / "trace.log").read_text()[-500:]
        raise TraceError(f"traced run exited {code}: {tail.strip()}")
    if digest_files(out, IDENTICAL_ARTIFACTS) != digest_files(
        run.dir / "out", IDENTICAL_ARTIFACTS
    ):
        raise TraceError("traced artifacts differ from the CLI's")
    recorded = json.loads(trace_file.read_text())
    spans = recorded["spans"]
    duration = {}
    for span in spans:
        duration[span["name"]] = duration.get(span["name"], 0.0) + span["end"] - span["start"]
    metrics = {f"{name}_s": duration[name] for name in SPAN_METRICS}
    metrics.update({metric: duration[name] for name, metric in PROBE_METRICS.items()})
    metrics.update({name: recorded["counts"][name] for name, _ in COUNT_METRICS})
    for stage in STAGES:
        root = next(s for s in spans if s["name"] == f"stage.{stage}")
        total = root["end"] - root["start"]
        covered = sum(s["end"] - s["start"] for s in spans if s["parent"] == root["id"])
        # The CLI child also pays interpreter start-up, which the traced
        # process pays once before any stage.
        cli_work = untraced[stage][0] - startup
        metrics[f"stage.{stage}.self_s"] = total - covered
        metrics[f"stage.{stage}.coverage"] = covered / untraced[stage][0]
        metrics[f"stage.{stage}.overhead_s"] = total - cli_work
    return metrics


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> tuple[Run, dict]:
    run = Run(workload, seed)
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)
    start = time.perf_counter()
    metrics = trace(run) if traced else measure(run, seconds)
    print(f"{workload}: run took {time.perf_counter() - start:.1f} s")
    units = per_layer_units() if traced else dict(END_TO_END + STAGE_TIMES)
    for name, value in metrics.items():
        print(f"{workload}  {name:<28} {value:>14.6g} {units[name]}")
    rate = run.failed / run.attempted
    print(f"{workload}  {'failure_rate':<28} {rate:>14.6g} fraction "
          f"({run.failed} of {run.attempted} stage runs)")
    reported = units if traced else dict(END_TO_END)
    return run, {
        name: {"value": value, "unit": units[name]}
        for name, value in metrics.items() if name in reported
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "microseg" / "__init__.py").is_file():
        print(f"bench: no microseg source under {SRC}", file=sys.stderr)
        return 2
    print(describe_environment())
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        run, result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        correct = correct and not run.failed
        attempted += run.attempted
        failed += run.failed
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: value for name, value in result.items()})
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
