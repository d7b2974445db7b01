"""Benchmark of the spinlight package: three workloads, checked outputs, traced layers.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cycles_csv --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --smoke      # every workload, tiny sizes

Each repeat of a workload runs in a fresh process (worker.py), one after the
other, until ``--seconds`` have passed and at least three repeats were made.
The program is imported from ``src/`` of the checkout.  Every repeat's
outputs are checked (checks.py); an operation fails on a non-zero exit, an
exception or a failed check.

With ``--trace 0`` the result reports, over the repeats, the medians of the
set-up time and of the body's wall time, both scaled to a fixed host speed,
and the median peak RSS.  With ``--trace 1`` untraced and traced
repeats alternate, and the result reports the per-layer metrics of the
traced repeats (layers.py) plus the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH_ROOT = os.path.join(ROOT, ".perfbench_tmp")
# Fixed-width names keep the program's paths the same length on every run: the
# length shifts the heap layout, which moved the sweep's peak RSS by 30 MB.
SCRATCH = os.path.join(SCRATCH_ROOT, f"{os.getpid():07d}")
END_TO_END = (("setup_s", "s"), ("wall_norm_s", "s"), ("peak_rss_mb", "MB"))
#: Seconds the worker's host-speed probe takes on the reference host; set-up and
#: body times are scaled to the speed at which the probe takes this long.
PROBE_REF_S = 0.03
WORKLOADS = tuple(workloads.SIZES)
MIN_REPEATS = 3
#: A workload's run gives up this long after its timed loop was due to end,
#: so that a hung program still ends the run within 180 s.
GRACE_S = 120


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine_info() -> dict:
    """Hardware and software the numbers were measured on."""
    import numpy as np

    info = {"nproc": os.cpu_count(), "python": sys.version.split()[0], "numpy": np.__version__}
    try:
        info["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    info["blas_threads"] = _blas_threads()
    try:
        getconf = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10)
        info["l3_bytes"] = int(getconf.stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        info["l3_bytes"] = None
    info["commit"] = _commit()
    return info


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes
    import glob

    import numpy as np

    lib_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(lib_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def _commit():
    """The checked-out commit, read from .git without leaving the checkout."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown"
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref_path = os.path.join(ROOT, ".git", head[5:])
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    return head


def spawn(spec: dict, timeout: float):
    """Run one worker; returns (result, None) or (None, reason).

    The worker leads its own process group, so a timeout also kills the
    process pool it may have started.
    """
    os.makedirs(spec["out_dir"])
    started = _monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(json.dumps(spec), timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"worker killed after {timeout:.0f} s"
    except BaseException:  # interrupted or terminated: take the worker down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}"
    with open(os.path.join(spec["out_dir"], "result.json")) as fh:
        result = json.load(fh)
    if "ready" in result:
        result["setup_s"] = result["ready"] - started
    return result, None


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failures: dict, tag: str) -> None:
        """Count ``attempted`` operations; ``failures`` maps each failed one to its reasons."""
        self.attempted += attempted
        self.failed += len(failures)
        for op, reasons in failures.items():
            self.messages += [f"{tag} {op}: {reason}" for reason in reasons]


def collect(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            tally: Tally) -> dict:
    """Run the repeats of one workload; returns {traced: [result of each repeat]}."""
    size = "smoke" if smoke else "full"
    inputs = workloads.build_inputs(workload, seed, size)
    n_ops = len(workloads.OPS[workload])
    counter = itertools.count()
    deadline = _monotonic() + seconds
    give_up = deadline + GRACE_S

    def spec(**extra):
        return {"root": ROOT, "workload": workload, "seed": seed, "size": size,
                "out_dir": os.path.join(SCRATCH, f"{workload}-{next(counter):04d}"),
                "probe": False, "traced": False, **extra}

    if workload in workloads.PROBED:
        probe = spec(probe=True)
        result, error = spawn(probe, give_up - _monotonic())
        reasons = [error] if result is None else checks.check_probe(probe["out_dir"],
                                                                     result["outputs"])
        tally.add(1, {"probe": reasons} if reasons else {}, workload)
        shutil.rmtree(probe["out_dir"], ignore_errors=True)

    modes = (False, True) if trace else (False,)
    runs = {mode: [] for mode in modes}
    repeats = len(modes) * (1 if smoke else MIN_REPEATS)
    i = 0
    while _monotonic() < give_up and (i < repeats or (not smoke and _monotonic() < deadline)):
        job = spec(traced=modes[i % len(modes)])
        i += 1
        result, error = spawn(job, give_up - _monotonic())
        if result is None:
            failures = {op: [error] for op in range(n_ops)}
        else:
            try:
                failures = checks.check_outputs(workload, inputs, job["out_dir"],
                                                result["outputs"])
            except Exception as exc:  # a check that cannot read the output fails it
                failures = {op: [f"check raised {type(exc).__name__}: {exc}"]
                            for op in range(n_ops)}
            runs[job["traced"]].append(result)
        tally.add(n_ops, {workloads.OPS[workload][op]: reasons
                          for op, reasons in sorted(failures.items())}, workload)
        shutil.rmtree(job["out_dir"], ignore_errors=True)
    return runs


def at_ref_speed(result: dict, key: str) -> float:
    """A repeat's time ``result[key]`` at the reference host speed.

    The host's speed wanders by 20 to 50% over seconds to minutes, and the
    medians of whole runs wandered with it.  The probe runs in the same
    process right after the body, so the ratio cancels the host's speed.
    """
    return result[key] / result["probe_s"] * PROBE_REF_S


def end_to_end(workload: str, plain: list) -> dict:
    """The end-to-end metrics of a run from its untraced repeats, all medians."""
    walls = [r["wall_s"] for r in plain]
    print(f"{workload}: unscaled setup_s median "
          f"{statistics.median(r['setup_s'] for r in plain):.6g} s, unscaled wall_s median "
          f"{statistics.median(walls):.6g} s, fastest {min(walls):.6g} s, "
          f"over {len(plain)} repeats")
    return {"setup_s": statistics.median(at_ref_speed(r, "setup_s") for r in plain),
            "wall_norm_s": statistics.median(at_ref_speed(r, "wall_s") for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}


def per_layer(workload: str, plain: list, traced: list) -> dict:
    """The per-layer metrics of a run from its traced repeats."""
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    # untraced and traced repeats alternate; pairing neighbours cancels most
    # of the machine's slow drift in speed, and the probe the rest
    metrics["trace.overhead_frac"] = statistics.median(
        at_ref_speed(t, "wall_s") / at_ref_speed(p, "wall_s")
        for p, t in zip(plain, traced)) - 1.0
    absent = sorted(set().union(*(r["absent"] for r in traced)))
    if absent:
        print(f"{workload}: absent from the package (read as 0): {', '.join(absent)}")
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            tally: Tally) -> dict:
    runs = collect(workload, seed, seconds, trace, smoke, tally)
    plain = runs[False]
    if not plain or (trace and not runs[True]):
        return {}
    return per_layer(workload, plain, runs[True]) if trace else end_to_end(workload, plain)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repeat per mode, same code paths and checks")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like SIGINT, so the running worker is killed and the
    # scratch directory removed on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(ROOT, "src", "spinlight", "__init__.py")):
        print(f"error: no spinlight package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in layers.PER_LAYER}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    tally = Tally()
    results = {}
    try:
        for name in names:
            before = (tally.attempted, tally.failed)
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace),
                                    args.smoke, tally)
            attempted, failed = tally.attempted - before[0], tally.failed - before[1]
            shown = results[name] if not args.trace else {
                k: results[name][k] for k in ("trace.overhead_frac", "trace.top_level_cover_frac")
                if k in results[name]}
            print(f"{name}: " + " | ".join(f"{k} {v:.6g} {units[k]}" for k, v in shown.items())
                  + f" | failed_frac {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_ROOT)
        except OSError:  # another run still uses it
            pass
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)

    complete = all(set(units) <= set(r) for r in results.values())
    if len(names) == 1:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in results[names[0]].items()}
    else:
        metrics = {f"{w}.{k}": {"value": v, "unit": units[k]}
                   for w, r in results.items() for k, v in r.items()}
    print(json.dumps({"correct": tally.failed == 0 and complete, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
