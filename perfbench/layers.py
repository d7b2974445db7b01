"""What the traced run wraps, and the per-layer metrics derived from its spans.

Layers are the package's modules.  ``physics`` gets no spans: it is scalar
formulas that take under a millisecond in every workload.
"""

from __future__ import annotations

import os

import numpy as np

GAUSSIAN_OPS = ("apply_symplectic", "measure_x", "add_vacuum_modes", "displace",
                "vacuum_state", "coherent_fidelity", "apply_qnd", "rotate",
                "two_mode_squeeze")
PROTOCOL_RUNS = ("teleport_spin_state", "entanglement_swap", "quantum_memory")
EXPERIMENT_STAGES = ("cycle_stats", "optimal_alpha", "conditional_variance", "density_sweep")

#: Functions wrapped by the traced run, as module.function of the package.
TRACED = (
    ("cli.main",)
    + tuple(f"experiment.{f}" for f in ("run_cycles",) + EXPERIMENT_STAGES + ("write_cycles_csv",))
    + tuple(f"gaussian.{op}" for op in GAUSSIAN_OPS)
    + tuple(f"protocols.{f}" for f in PROTOCOL_RUNS + ("entangling_pulse",))
    + ("timedomain.pulse_ensemble", "timedomain.simulate_pulse", "timedomain.write_trace_csv")
)
RSS_TRACED = ("experiment.run_cycles", "timedomain.pulse_ensemble")

#: Per-layer metrics as (name, unit, better).
PER_LAYER = (
    [("cli.main.self_s", "s", "lower"),
     ("experiment.run_cycles.calls", "count", "lower"),
     ("experiment.run_cycles.self_s", "s", "lower"),
     ("experiment.run_cycles.cycles_per_s", "1/s", "higher"),
     ("experiment.run_cycles.rss_step_mb", "MB", "lower"),
     ("experiment.bytes_per_cycle", "B/cycle", "lower")]
    + [(f"experiment.{f}.self_s", "s", "lower") for f in EXPERIMENT_STAGES]
    + [("experiment.write_cycles_csv.self_s", "s", "lower"),
       ("experiment.write_cycles_csv.rows_per_s", "1/s", "higher"),
       ("experiment.write_cycles_csv.bytes", "B", "lower")]
    + [m for op in GAUSSIAN_OPS for m in ((f"gaussian.{op}.calls", "count", "lower"),
                                          (f"gaussian.{op}.self_s", "s", "lower"))]
    + [(f"gaussian.{op}.{q}", "us", "lower")
       for op in ("apply_symplectic", "measure_x") for q in ("p50_us", "p99_us")]
    + [("gaussian.calls_per_run", "calls/run", "lower")]
    + [(f"protocols.{f}.self_s", "s", "lower") for f in PROTOCOL_RUNS + ("entangling_pulse",)]
    + [(f"protocols.{f}.us_per_run", "us", "lower") for f in PROTOCOL_RUNS]
    + [("timedomain.pulse_ensemble.self_s", "s", "lower"),
       ("timedomain.pulse_ensemble.steps_per_s", "1/s", "higher"),
       ("timedomain.pulse_ensemble.rss_step_mb", "MB", "lower"),
       ("timedomain.pulse_ensemble.noise_bytes_computed", "B", "lower"),
       ("timedomain.simulate_pulse.self_s", "s", "lower"),
       ("timedomain.write_trace_csv.self_s", "s", "lower"),
       ("timedomain.write_trace_csv.bytes", "B", "lower"),
       ("trace.overhead_frac", "ratio", "lower"),
       ("trace.top_level_cover_frac", "ratio", "higher")]
)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def layer_metrics(summary: dict, facts: dict, body_s: float, out_dir: str) -> dict:
    """Per-layer metrics of one traced repeat, except ``trace.overhead_frac``.

    A function that was not called, or is absent from the package, reads 0.
    """
    fns = summary["functions"]
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "durations": np.zeros(0)}

    def fn(qual):
        return fns.get(qual, empty)

    def rss_step(qual):
        return max(summary["rss_steps"].get(qual) or [0.0])

    m = {"cli.main.self_s": fn("cli.main")["self_s"]}

    run_cycles = fn("experiment.run_cycles")
    step_mb = rss_step("experiment.run_cycles")
    per_call = facts.get("cycles_per_call", 0)
    m["experiment.run_cycles.calls"] = run_cycles["calls"]
    m["experiment.run_cycles.self_s"] = run_cycles["self_s"]
    m["experiment.run_cycles.cycles_per_s"] = _rate(facts.get("cycles", 0), run_cycles["self_s"])
    m["experiment.run_cycles.rss_step_mb"] = step_mb
    m["experiment.bytes_per_cycle"] = step_mb * 2**20 / per_call if per_call else 0.0
    for f in EXPERIMENT_STAGES:
        m[f"experiment.{f}.self_s"] = fn(f"experiment.{f}")["self_s"]
    write = fn("experiment.write_cycles_csv")
    m["experiment.write_cycles_csv.self_s"] = write["self_s"]
    m["experiment.write_cycles_csv.rows_per_s"] = _rate(facts.get("csv_rows", 0), write["self_s"])
    m["experiment.write_cycles_csv.bytes"] = _size(os.path.join(out_dir, "cycles.csv"))

    total_calls = 0
    for op in GAUSSIAN_OPS:
        rec = fn(f"gaussian.{op}")
        total_calls += rec["calls"]
        m[f"gaussian.{op}.calls"] = rec["calls"]
        m[f"gaussian.{op}.self_s"] = rec["self_s"]
    for op in ("apply_symplectic", "measure_x"):
        durations = fn(f"gaussian.{op}")["durations"]
        for q, pct in (("p50_us", 50), ("p99_us", 99)):
            m[f"gaussian.{op}.{q}"] = float(np.percentile(durations, pct)) * 1e6 if durations.size else 0.0
    runs = facts.get("runs", {})
    m["gaussian.calls_per_run"] = total_calls / sum(runs.values()) if runs else 0.0
    for f in PROTOCOL_RUNS + ("entangling_pulse",):
        m[f"protocols.{f}.self_s"] = fn(f"protocols.{f}")["self_s"]
    for f in PROTOCOL_RUNS:
        m[f"protocols.{f}.us_per_run"] = (fn(f"protocols.{f}")["incl_s"] / runs[f] * 1e6
                                          if runs else 0.0)

    ensemble = fn("timedomain.pulse_ensemble")
    steps = facts.get("pulse_steps", 0) if ensemble["calls"] else 0
    m["timedomain.pulse_ensemble.self_s"] = ensemble["self_s"]
    m["timedomain.pulse_ensemble.steps_per_s"] = _rate(steps, ensemble["self_s"])
    m["timedomain.pulse_ensemble.rss_step_mb"] = rss_step("timedomain.pulse_ensemble")
    # the xi and zeta normals, float64, one per run and step
    m["timedomain.pulse_ensemble.noise_bytes_computed"] = 2 * 8 * steps
    m["timedomain.simulate_pulse.self_s"] = fn("timedomain.simulate_pulse")["self_s"]
    m["timedomain.write_trace_csv.self_s"] = fn("timedomain.write_trace_csv")["self_s"]
    m["timedomain.write_trace_csv.bytes"] = _size(os.path.join(out_dir, "trace.csv"))
    m["trace.top_level_cover_frac"] = summary["top_level_s"] / body_s
    return m
