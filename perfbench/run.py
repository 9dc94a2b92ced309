"""The repository benchmark: four workloads, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cluster_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload cluster_cold --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke      # tiny sizes, every workload, self-checks

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
Their times are CPU time of the program, which the host's stolen time does
not move (see ``procs.py``); the wall-clock figures go to the report.
``--trace 1`` measures half the time untraced and half traced, and reports
the per-layer metrics (self time per layer, counts, the unattributed share
and the tracing overhead).  Every answer is checked against an oracle after
the timed phase.  The last line of standard output is the result object;
the lines before it are the environment header and a named report.  A copy
of everything, spans included, is left under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: The end-to-end metrics, identical on every workload.
END_TO_END = (
    ("ops_per_cpu_s", "1/s"),
    ("cpu_latency_p50_ms", "ms"),
    ("cpu_latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("cold_start_cpu_ms", "ms"),
    ("bits_per_entry", "bits"),
    ("peak_rss_mb", "MB"),
)

FULL_SETUPS = 3
FULL_COLD_STARTS = 7


def pin_to_one_cpu() -> None:
    """Run the benchmark and every process it starts on one CPU.

    Waking a process on another virtual CPU costs an interrupt through the
    hypervisor, whose price swings with the host's load; on one CPU every
    hand-off between client, server and workers is a local switch.  The
    end-to-end times are CPU time of the program, so sharing the CPU with
    the client does not count against it.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _source_ready() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))


def environment(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """The header every result carries."""
    from repro.bits import kernel

    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "kernel_backend": kernel.active_backend(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "host_loop_ms": _host_loop_ms(),
    }


def _host_loop_ms() -> float:
    """Time of a fixed pure-Python loop: how fast the host was at the start."""
    started = time.perf_counter()
    total = 0
    for step in range(1_000_000):
        total += step & 7
    return (time.perf_counter() - started) * 1000.0


def _git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as source:
            ref = source.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="ascii") as source:
                return source.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as source:
            for line in source:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """Digest of ``src/``: identifies the program when there is no git."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as source:
            digest.update(source.read())
    return digest.hexdigest()[:16]


def ops_per_cpu_s(measured) -> float:
    return measured.ops / measured.cpu_s


def _latency_ms(measured, fraction: float) -> float:
    import procs

    return procs.percentile(measured.latencies, fraction) * 1000.0


def end_to_end(measured, setups: List[float], colds: List[float]) -> Dict[str, Dict[str, Any]]:
    values = {
        "ops_per_cpu_s": ops_per_cpu_s(measured),
        "cpu_latency_p50_ms": _latency_ms(measured, 0.50),
        "cpu_latency_p99_ms": _latency_ms(measured, 0.99),
        "setup_s": statistics.median(setups),
        "cold_start_cpu_ms": statistics.median(colds) * 1000.0,
        "bits_per_entry": measured.bits_per_entry,
        "peak_rss_mb": measured.peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run_end_to_end(workload, setups_wanted: int, colds_wanted: int, seconds: float):
    """Set up several times, cold-start a few more, then one timed phase."""
    setups: List[float] = []
    colds: List[float] = []
    workload.prepare()
    try:
        for _ in range(setups_wanted):
            setup_s, cold_s = workload.setup(traced=False)
            setups.append(setup_s)
            colds.append(cold_s)
        while len(colds) < colds_wanted:
            colds.append(workload.relaunch())
        measured = workload.measure(seconds)
    finally:
        workload.teardown()
    report = dict(measured.report)
    report.update(
        ops=measured.ops,
        cpu_s=measured.cpu_s,
        error_rate=measured.failed / measured.attempted,
        setups_cpu_s=setups,
        cold_starts_cpu_ms=[c * 1000.0 for c in colds],
        cold_starts_wall_ms=[c * 1000.0 for c in workload.cold_wall_s],
    )
    return measured, end_to_end(measured, setups, colds), report


def _wait_for_dumps(trace_dir: str, pids: List[int], timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    for pid in pids:
        path = os.path.join(trace_dir, f"proc-{pid}.json")
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise TimeoutError(f"process {pid} wrote no trace")
            time.sleep(0.01)


def run_traced(workload, ctx, seconds: float):
    """Half the time untraced, half traced: per-layer metrics + overhead."""
    import layers
    import tracer

    half = seconds / 2.0
    workload.prepare()
    try:
        workload.setup(traced=False)
        untraced = workload.measure(half)
    finally:
        workload.teardown()

    ctx.trace_dir = os.path.join(ctx.work, "trace")
    os.makedirs(ctx.trace_dir, exist_ok=True)
    tracer.install()
    signalled: List[int] = []

    def window(which: str, pids: List[int]) -> None:
        if not pids:  # in-library workload: the window is this process
            if which == "open":
                tracer.tracer.open_window()
            return
        signum = signal.SIGUSR1 if which == "open" else signal.SIGUSR2
        for pid in pids:
            os.kill(pid, signum)
        if which == "close":
            signalled.extend(pids)

    try:
        workload.setup(traced=True)
        traced = workload.measure(half, window=window)
        _wait_for_dumps(ctx.trace_dir, signalled)
    finally:
        workload.teardown()

    own = tracer.tracer.snapshot()
    tracer.tracer.dump(ctx.trace_dir, "bench")
    snapshots = [own]
    for path in sorted(glob.glob(os.path.join(ctx.trace_dir, "proc-*.json"))):
        with open(path, encoding="utf-8") as source:
            snapshots.append(json.load(source))
    in_library = not signalled
    me = os.getpid()
    trace = layers.merge(
        snapshots,
        serving=lambda snap: (snap["pid"] == me) == in_library,
    )
    base = ops_per_cpu_s(untraced)
    trace.extra["overhead_share"] = 1.0 - ops_per_cpu_s(traced) / base
    trace.extra["worker_restarts"] = traced.report.get("worker_restarts", 0)
    values = workload.lower_bound_values()
    if values:
        from repro.analysis.bounds import compute_bounds

        trace.extra["bits_over_lb"] = (
            traced.bits_per_entry * len(values) / compute_bounds(values).lb_bits
        )
    report = {
        "untraced_ops_per_cpu_s": base,
        "traced_ops_per_cpu_s": ops_per_cpu_s(traced),
        "span_names": sorted(trace.span_names),
        "processes": len(snapshots),
        "trace_dir": os.path.relpath(ctx.trace_dir, ROOT),
    }
    return traced, layers.derive(trace), report, trace


def run_once(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> bool:
    """One benchmark run, printed; returns whether the oracle gate passed."""
    from workloads import WORKLOADS, Context, WrongAnswer

    work = os.path.join(WORK_ROOT, f"{name}-{seed}-{'t' if trace else 'e'}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = Context(root=ROOT, work=work, seed=seed, tiny=tiny)
    header = environment(name, seed, seconds, trace)
    print("# env " + json.dumps(header, sort_keys=True), flush=True)
    workload = WORKLOADS[name](ctx)
    try:
        if trace:
            measured, metrics, report, _ = run_traced(workload, ctx, seconds)
        else:
            setups, colds = (1, 2) if tiny else (FULL_SETUPS, FULL_COLD_STARTS)
            measured, metrics, report = run_end_to_end(workload, setups, colds, seconds)
    except WrongAnswer as error:
        print(f"# oracle gate FAILED: {error}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return False
    print("# report " + json.dumps(report, sort_keys=True, default=str))
    result = {
        "correct": True,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": metrics,
    }
    _keep(name, seed, trace, header, report, result, work)
    print(json.dumps(result))
    return True


def _keep(name, seed, trace, header, report, result, work) -> None:
    """Leave the result (and the spans) under .perfbench_work; drop the rest."""
    results = os.path.join(WORK_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as sink:
        json.dump({"env": header, "report": report, "result": result}, sink,
                  indent=1, sort_keys=True, default=str)
    traces = os.path.join(work, "trace")
    if os.path.isdir(traces):
        shutil.rmtree(stem + ".trace", ignore_errors=True)
        shutil.move(traces, stem + ".trace")
    shutil.rmtree(work, ignore_errors=True)


# ----------------------------------------------------------------------
# Smoke mode: tiny sizes, every workload, the benchmark checks itself
# ----------------------------------------------------------------------
def smoke() -> int:
    """Run every workload at tiny sizes, each in its own process as the
    benchmark is run for real, and check the benchmark's own contract."""
    import layers
    import tracer
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        spec = json.load(source)
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: List[str] = []
    if declared_e2e != dict(END_TO_END):
        problems.append(f"BENCHMARK.json end_to_end {declared_e2e} != {dict(END_TO_END)}")
    if declared_layer != {name: unit for name, unit, _, _ in layers.PER_LAYER}:
        problems.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        problems.append("BENCHMARK.json names a workload workloads.WORKLOADS lacks")
    for name in WORKLOADS:
        for trace in (0, 1):
            label = f"{name} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", "1",
                 "--seconds", str(2 * trace + 1), "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=300,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: oracle gate did not pass cleanly: {lines[-2:]}")
                continue
            expected = declared_layer if trace else declared_e2e
            for metric, unit in expected.items():
                got = result["metrics"].get(metric)
                if got is None or got["unit"] != unit:
                    problems.append(f"{label}: metric {metric} missing or unit wrong")
                elif not trace and not got["value"] > 0:
                    problems.append(f"{label}: {metric} = {got['value']}")
            if trace:
                report = json.loads(lines[-2][len("# report "):])
                for layer in layers.LAYERS:
                    if name in layer["spans_on"] and not any(
                        tracer.LAYER_OF.get(span.split(".", 1)[0]) == layer["layer"]
                        for span in report["span_names"]
                    ):
                        problems.append(f"{label}: no span of layer {layer['layer']}")
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke ok" if not problems else f"smoke FAILED ({len(problems)} problems)")
    return 0 if not problems else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and check the benchmark itself")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes (what --smoke runs)")
    args = parser.parse_args(argv)
    if not _source_ready():
        print(f"error: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    pin_to_one_cpu()
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    try:
        correct = run_once(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except Exception:  # noqa: BLE001 - the benchmark's outer boundary
        traceback.print_exc()
        return 1
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
