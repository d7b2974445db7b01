"""Workload table of the spinlight benchmark: sizes, inputs and timed bodies.

A workload is a fixed sequence of operations (CLI invocations or library
calls) that one caller runs back to back: each call starts only after the
previous one returned.  Inputs are built from the benchmark seed alone; the
program sees only the values built here.

This module imports nothing from numpy or spinlight at import time, so the
orchestrator can use the table without paying for those imports.  The
operation bodies receive the imported spinlight modules as arguments.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

THETA_GRID = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
BETA = 0.65
RUN_KAPPA2 = 1.0
TELEPORT_KAPPA2 = 100.0
SWAP_KAPPA2 = 4.0
MEMORY_SQUEEZE_R = 1.5
MEMORY_KAPPA2 = 100.0
PULSE_KAPPA = 1.0
PULSE_STEPS = 65_000  # the minimum resolution at DEFAULT_OMEGA_T (650 Larmor cycles)

#: Cycles of the parallel-determinism probe: five chunks of CYCLE_CHUNK (4096)
#: plus a partial one, so chunks are scheduled on both workers.
PROBE_CYCLES = 5 * 4096 + 1000

#: Sizes per workload.  "full" is what the timed runs use; "smoke" runs the
#: same code paths and checks in a few seconds.
SIZES = {
    "cycles_csv": {"full": {"cycles": 150_000}, "smoke": {"cycles": 5_000}},
    "sweep": {"full": {"cycles": 300_000}, "smoke": {"cycles": 5_000}},
    "engines": {"full": {"teleport": 150, "swap": 110, "memory": 150, "runs": 64},
                "smoke": {"teleport": 20, "swap": 15, "memory": 20, "runs": 16}},
}

#: Operation names per workload, in call order.  An operation fails on a
#: non-zero exit, an exception, or a failed output check.
OPS = {
    "cycles_csv": ("cli.run",),
    "sweep": ("cli.sweep",),
    "engines": ("teleport_spin_state", "entanglement_swap", "quantum_memory",
                "pulse_ensemble", "simulate_pulse", "write_trace_csv"),
}

#: Workloads that also run the --parallel 1 vs 2 determinism probe.
PROBED = ("cycles_csv", "sweep")


def build_inputs(workload: str, seed: int, size: str) -> dict:
    """Every value the program receives, derived from the benchmark seed."""
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}")
    draw = random.Random(f"{workload}/{seed}")
    inputs = dict(SIZES[workload][size])
    # ten digits each, so the command lines have the same length for every seed
    inputs["seeds"] = [draw.randrange(10**9, 2**31) for _ in range(5)]
    return inputs


def call_cli(cli, argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue()}


def run_argv(cycles: int, seed: int, out: str, parallel: int) -> list[str]:
    return ["run", "--kappa2", format(RUN_KAPPA2), "--beta", format(BETA),
            "--cycles", str(cycles), "--seed", str(seed), "--out", out,
            "--parallel", str(parallel)]


def sweep_argv(cycles: int, seed: int, out: str, parallel: int) -> list[str]:
    return ["sweep", "--theta-grid", ",".join(format(t, "g") for t in THETA_GRID),
            "--beta", format(BETA), "--cycles", str(cycles), "--parallel", str(parallel),
            "--seed", str(seed), "--out", out]


def make_ops(workload: str, inputs: dict, out_dir: str, sl) -> list:
    """The timed body as a list of zero-argument callables, one per operation.

    ``sl`` is the imported ``spinlight`` package.  Each callable returns a
    JSON-serialisable record of what the orchestrator checks; files go to
    ``out_dir``.
    """
    seeds = inputs["seeds"]
    if workload == "cycles_csv":
        argv = run_argv(inputs["cycles"], seeds[0], os.path.join(out_dir, "cycles.csv"), 1)
        return [lambda: call_cli(sl.cli, argv)]
    if workload == "sweep":
        argv = sweep_argv(inputs["cycles"], seeds[0], os.path.join(out_dir, "sweep.csv"), 1)
        return [lambda: call_cli(sl.cli, argv)]
    if workload == "engines":
        import numpy as np

        def summary(result):
            return {"n_runs": result.n_runs, "mean_fidelity": result.mean_fidelity,
                    "duan_sum_out": result.duan_sum_out,
                    "mean_displacement_error": [float(v) for v in result.mean_displacement_error]}

        td = sl.timedomain
        pulse = {}
        ensemble_path = os.path.join(out_dir, "ensemble.npy")
        trace_path = os.path.join(out_dir, "trace.csv")

        def ensemble():
            data = td.pulse_ensemble(PULSE_KAPPA, td.DEFAULT_OMEGA_T, PULSE_STEPS,
                                     inputs["runs"], seeds[3])
            np.save(ensemble_path, data)
            return {"path": ensemble_path}

        def single():
            rng = np.random.default_rng(seeds[4])
            pulse["trace"], lock_in = td.simulate_pulse(
                PULSE_KAPPA, td.DEFAULT_OMEGA_T, PULSE_STEPS, (0.0, 0.0, 0.0, 0.0), rng)
            return {"x_l1": lock_in.x_l1, "x_l2": lock_in.x_l2}

        def dump():
            td.write_trace_csv(pulse["trace"], trace_path)
            return {"path": trace_path}

        return [
            lambda: summary(sl.protocols.teleport_spin_state(
                (0.0, 0.0), TELEPORT_KAPPA2, n_runs=inputs["teleport"], seed=seeds[0])),
            lambda: summary(sl.protocols.entanglement_swap(
                SWAP_KAPPA2, n_runs=inputs["swap"], seed=seeds[1])),
            lambda: summary(sl.protocols.quantum_memory(
                (0.0, 0.0), MEMORY_SQUEEZE_R, MEMORY_KAPPA2, n_runs=inputs["memory"],
                seed=seeds[2])),
            ensemble, single, dump,
        ]
    raise ValueError(f"unknown workload {workload!r}")


def workload_facts(workload: str, inputs: dict) -> dict:
    """Work sizes the per-layer rates are divided by."""
    if workload == "cycles_csv":
        return {"cycles": inputs["cycles"], "cycles_per_call": inputs["cycles"],
                "csv_rows": inputs["cycles"]}
    if workload == "sweep":
        return {"cycles": inputs["cycles"] * len(THETA_GRID),
                "cycles_per_call": inputs["cycles"]}
    return {"runs": {"teleport_spin_state": inputs["teleport"],
                     "entanglement_swap": inputs["swap"],
                     "quantum_memory": inputs["memory"]},
            "pulse_steps": inputs["runs"] * PULSE_STEPS}
