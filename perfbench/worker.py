"""One repeat of one workload, in a fresh process.

Usage: python3 worker.py < spec.json; the spec names the checkout root,
the workload, the seed, the size, the output directory, and whether to trace
or to run the parallel-determinism probe.  The result goes to
``<out_dir>/result.json``; the orchestrator (run.py) checks it.

Set-up is everything from process start until numpy and spinlight are
imported and the inputs are built.  It ends at a CLOCK_MONOTONIC reading,
which the orchestrator subtracts from its own reading taken just before it
started this process.  After the body the worker times a fixed host-speed
probe, which belongs to neither.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import layers
import spans
import workloads


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_mb() -> float:
    """Largest peak RSS of this process and of its waited-for children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _import_spinlight(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import spinlight
    import spinlight.cli  # noqa: F401  (the CLI module is not imported by the package)

    where = os.path.realpath(spinlight.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"spinlight imported from {where}, not from {src}")
    return spinlight


def host_speed_probe() -> float:
    """Seconds a fixed piece of work takes now; run.py scales body times by it.

    On a shared host the speed wanders by 20 to 50% over seconds to minutes,
    and each CPU wanders on its own.  The probe runs right after the body and
    its peak RSS, in the same process and unpinned, so it mostly runs on the
    CPU the body ran on.  (Pinned once to each CPU and averaged, the scaled
    times spread more.)  The work uses no spinlight code, so a change to the
    package cannot change it: the best of three passes of an interpreter part
    (float formatting, dict updates) plus the best of three of a
    single-threaded numpy part (random draws, an elementwise pass, a
    cumulative sum).  Its arrays of 64 KiB stay below glibc's mmap threshold,
    so the heap the body leaves behind barely moves it.
    """
    import numpy as np

    values = [i * 1.2345678901 for i in range(20_000)]
    interp, vector = [], []
    for _ in range(3):
        started = time.perf_counter()
        ",".join(repr(v) for v in values)
        sums: dict = {}
        for i, v in enumerate(values):
            sums[i % 977] = sums.get(i % 977, 0.0) + v
        middle = time.perf_counter()
        rng = np.random.default_rng(3)
        for _ in range(60):
            x = rng.standard_normal(8192)
            float(np.cumsum(x * x)[-1])
        interp.append(middle - started)
        vector.append(time.perf_counter() - middle)
    return min(interp) + min(vector)


def run_body(spec: dict, sl) -> dict:
    inputs = workloads.build_inputs(spec["workload"], spec["seed"], spec["size"])
    out_dir = spec["out_dir"]
    ops = workloads.make_ops(spec["workload"], inputs, out_dir, sl)
    ready = _monotonic()

    tracer = None
    if spec["traced"]:
        tracer = spans.Tracer("spinlight")
        tracer.install(layers.TRACED, layers.RSS_TRACED)

    outputs = []
    start = time.perf_counter()
    for op in ops:
        try:
            outputs.append({"ok": True, "out": op()})
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
            break
    wall = time.perf_counter() - start
    peak_rss_mb = _peak_rss_mb()
    result = {"ready": ready, "wall_s": wall, "probe_s": host_speed_probe(),
              "peak_rss_mb": peak_rss_mb, "outputs": outputs}
    if tracer is not None:
        summary = tracer.summary()
        facts = workloads.workload_facts(spec["workload"], inputs)
        result["layers"] = layers.layer_metrics(summary, facts, wall, out_dir)
        result["absent"] = summary["absent"]
    return result


def run_probe(spec: dict, sl) -> dict:
    """Run the workload's command at --parallel 1 and 2 on the same output path."""
    seed = workloads.build_inputs(spec["workload"], spec["seed"], spec["size"])["seeds"][0]
    argv_of = workloads.run_argv if spec["workload"] == "cycles_csv" else workloads.sweep_argv
    path = os.path.join(spec["out_dir"], "probe.csv")
    outputs = []
    for parallel in (1, 2):
        try:
            outputs.append(workloads.call_cli(
                sl.cli, argv_of(workloads.PROBE_CYCLES, seed, path, parallel)))
        except Exception as exc:
            outputs.append({"rc": None, "stdout": f"{type(exc).__name__}: {exc}"})
        if os.path.exists(path):
            os.replace(path, os.path.join(spec["out_dir"], f"probe_p{parallel}.csv"))
    return {"outputs": outputs}


def main() -> int:
    spec = json.load(sys.stdin)
    sl = _import_spinlight(spec["root"])
    result = run_probe(spec, sl) if spec["probe"] else run_body(spec, sl)
    with open(os.path.join(spec["out_dir"], "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
