"""Output checks of the spinlight benchmark.

Deterministic outputs are checked exactly (exit codes, line counts, values
recomputed from the written CSV to a relative 1e-9, closed forms of
outcome-independent quantities).  Statistical outputs are checked against
closed forms at 6 standard errors, so correct code fails a check with
probability below 1e-8 per quantity.  The CLI's own 3% PASS/FAIL line is
never used: it fails by chance on correct code.

Each check function returns {operation index: [messages]} for the
operations whose outputs failed.
"""

from __future__ import annotations

import math
import os

import numpy as np

import workloads as wl

SIGMAS = 6.0
REL = 1e-9


def cond_theory(kappa2: float, beta: float) -> float:
    """Model conditional variance 1 + k (1 + (1 - beta^2) k) / (1 + k)."""
    return 1.0 + kappa2 * (1.0 + (1.0 - beta**2) * kappa2) / (1.0 + kappa2)


def swap_duan_theory(kappa2: float) -> float:
    """Outcome-independent Duan sum of the swapped pair (2, 4)."""
    k = kappa2
    return (2.0 + 4.0 * k + 3.0 * k**2) / (2.0 + 4.0 * k + 2.0 * k**2 + k**3)


class _Failures(dict):
    def fail(self, op: int, message: str) -> None:
        self.setdefault(op, []).append(message)

    def close(self, op: int, label: str, got: float, want: float, rel: float = REL) -> None:
        got, want = float(got), float(want)
        if not abs(got - want) <= rel * max(abs(got), abs(want), 1e-300):
            self.fail(op, f"{label} = {got!r}, expected {want!r} to relative {rel:g}")

    def within(self, op: int, label: str, got: float, want: float, se: float) -> None:
        got, want = float(got), float(want)
        if not abs(got - want) <= SIGMAS * se:
            self.fail(op, f"{label} = {got!r} is {abs(got - want) / se:.1f} standard "
                          f"errors from {want!r}")


def _read_csv(fails: _Failures, op: int, path: str, header: str, rows: int):
    """Parse a CSV with the given header and row count; None if it fails."""
    if not os.path.exists(path):
        fails.fail(op, f"{os.path.basename(path)} was not written")
        return None
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        data = np.loadtxt(fh, delimiter=",", ndmin=2) if first == header else None
    if data is None:
        fails.fail(op, f"{os.path.basename(path)} header {first!r} != {header!r}")
        return None
    if data.shape != (rows, header.count(",") + 1):
        fails.fail(op, f"{os.path.basename(path)} has shape {data.shape}, expected {rows} rows")
        return None
    if not np.isfinite(data).all():
        fails.fail(op, f"{os.path.basename(path)} holds non-finite values")
        return None
    return data


def _summary(text: str) -> dict:
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            values[key] = value
    return values


def check_cycles_csv(inputs: dict, out_dir: str, outputs: list) -> dict:
    fails = _Failures()
    out = outputs[0]["out"]
    if out["rc"] != 0:
        fails.fail(0, f"exit status {out['rc']}")
        return fails
    n = inputs["cycles"]
    try:
        data = _read_csv(fails, 0, os.path.join(out_dir, "cycles.csv"),
                         "cycle_index,a1,b1,a2,b2", n)
    except ValueError as exc:
        fails.fail(0, f"cycles.csv does not parse: {exc}")
        return fails
    if data is None:
        return fails
    if not np.array_equal(data[:, 0], np.arange(n)):
        fails.fail(0, "cycle_index column is not 0..n-1")
    a1, b1, a2, b2 = data[:, 1], data[:, 2], data[:, 3], data[:, 4]
    k, beta = wl.RUN_KAPPA2, wl.BETA
    var1 = (a1 @ a1 + b1 @ b1) / (n - 1)
    var2 = (a2 @ a2 + b2 @ b2) / (n - 1)
    alpha = (a1 @ a2 + b1 @ b2) / (a1 @ a1 + b1 @ b1)
    res_a, res_b = a2 - alpha * a1, b2 - alpha * b1
    cond = (res_a @ res_a + res_b @ res_b) / (n - 1)
    want = {"var1": var1, "var2": var2, "alpha_star": alpha, "cond_var": cond,
            "atomic_var": (cond - 1.0) / k, "kappa2": k, "beta": beta}
    got = _summary(out["stdout"])
    try:
        if int(got["n"]) != n:
            fails.fail(0, f"summary n = {got['n']}, expected {n}")
        for key, value in want.items():
            fails.close(0, key, float(got[key]), float(value))
        if got["entangled"] != ("true" if cond < 1.0 + k else "false"):
            fails.fail(0, f"entangled = {got['entangled']} disagrees with cond_var {cond!r}")
    except (KeyError, ValueError) as exc:
        fails.fail(0, f"summary block unreadable: {exc!r}")
    fails.within(0, "var1", var1, 1.0 + k, (1.0 + k) / math.sqrt(n))
    fails.within(0, "cond_var", cond, cond_theory(k, beta), cond_theory(k, beta) / math.sqrt(n))
    return fails


SWEEP_HEADER = ("theta_deg,kappa2,pn1,pn2,cond_var_minus_shot,alpha_star,"
                "theory_cond,theory_alpha,theory_cond_ideal,theory_alpha_ideal")


def check_sweep(inputs: dict, out_dir: str, outputs: list) -> dict:
    fails = _Failures()
    out = outputs[0]["out"]
    if out["rc"] != 0:
        fails.fail(0, f"exit status {out['rc']}")
        return fails
    path = os.path.join(out_dir, "sweep.csv")
    rows = len(wl.THETA_GRID)
    if out["stdout"] != f"wrote {rows} sweep rows to {path}\n":
        fails.fail(0, f"unexpected stdout {out['stdout']!r}")
    try:
        data = _read_csv(fails, 0, path, SWEEP_HEADER, rows)
    except ValueError as exc:
        fails.fail(0, f"sweep.csv does not parse: {exc}")
        return fails
    if data is None:
        return fails
    n, beta = inputs["cycles"], wl.BETA
    for row, theta in zip(data, wl.THETA_GRID):
        (theta_got, k, pn1, _pn2, cond_minus_shot, _alpha,
         th_cond, th_alpha, th_cond_ideal, th_alpha_ideal) = row
        tag = f"theta={theta:g}"
        fails.close(0, f"{tag} theta_deg", theta_got, theta)
        fails.close(0, f"{tag} kappa2", k, 0.10 * theta)
        fails.close(0, f"{tag} theory_cond", th_cond, cond_theory(k, beta) - 1.0)
        fails.close(0, f"{tag} theory_alpha", th_alpha, beta * k / (1.0 + k))
        fails.close(0, f"{tag} theory_cond_ideal", th_cond_ideal, cond_theory(k, 1.0) - 1.0)
        fails.close(0, f"{tag} theory_alpha_ideal", th_alpha_ideal, k / (1.0 + k))
        fails.within(0, f"{tag} var1", pn1 + 1.0, 1.0 + k, (1.0 + k) / math.sqrt(n))
        cond = cond_theory(k, beta)
        fails.within(0, f"{tag} cond_var", cond_minus_shot + 1.0, cond, cond / math.sqrt(n))
    return fails


def check_protocols(inputs: dict, out_dir: str, outputs: list) -> dict:
    fails = _Failures()
    runs = (inputs["teleport"], inputs["swap"], inputs["memory"])
    for op, (rec, n_runs) in enumerate(zip(outputs, runs)):
        out = rec["out"]
        if out["n_runs"] != n_runs:
            fails.fail(op, f"n_runs = {out['n_runs']}, expected {n_runs}")
        if not all(math.isfinite(v) for v in out["mean_displacement_error"]):
            fails.fail(op, "non-finite mean displacement error")
        fid = out["mean_fidelity"]
        if op != 1 and not (fid is not None and 0.0 < fid <= 1.0):
            fails.fail(op, f"mean_fidelity = {fid!r} outside (0, 1]")
    tele = outputs[0]["out"]["mean_fidelity"]
    if tele is not None and 0.0 < tele <= 1.0:
        # Fidelity with a pure state is linear in the state, so the mean over
        # runs is the fidelity of the run-averaged output, which carries the
        # unity-gain added noise 2/kappa^2 per quadrature: F = k / (k + 2).
        # F lies in [0, 1], so its variance is at most F (1 - F).
        k = wl.TELEPORT_KAPPA2
        fails.within(0, "teleport mean_fidelity", tele, k / (k + 2.0),
                     math.sqrt(max(tele * (1.0 - tele), 1e-12) / runs[0]))
    duan = outputs[1]["out"]["duan_sum_out"]
    if duan is None:
        fails.fail(1, "swap reported no duan_sum_out")
    else:
        fails.close(1, "swap duan_sum_out", duan, swap_duan_theory(wl.SWAP_KAPPA2))
    return fails


TRACE_HEADER = "step,t_ms,sy_sample,jy_sum,jz_sum,jy_diff,jz_diff"


def pulse_covariance(kappa: float) -> np.ndarray:
    """Exact covariance of (x_l1, x_l2, X_A1, P_A1, X_A2, P_A2) for vacuum input.

    One QND pulse per channel: x_l = x_l,in + kappa P_A and
    X_A = X_A,in + kappa P_l, with every input quadrature at variance 1/2.
    """
    cov = np.diag([0.5 + 0.5 * kappa**2] * 2 + [0.5 + 0.5 * kappa**2, 0.5] * 2)
    cov[0, 3] = cov[3, 0] = 0.5 * kappa
    cov[1, 5] = cov[5, 1] = 0.5 * kappa
    return cov


def check_pulses(inputs: dict, out_dir: str, outputs: list) -> dict:
    fails = _Failures()
    runs = inputs["runs"]
    ens = np.load(outputs[0]["out"]["path"])
    if ens.shape != (runs, 6) or not np.isfinite(ens).all():
        fails.fail(0, f"ensemble has shape {ens.shape} or non-finite values")
    else:
        exact = pulse_covariance(wl.PULSE_KAPPA)
        mc = np.cov(ens, rowvar=False)
        for i in range(6):
            fails.within(0, f"mean[{i}]", float(ens[:, i].mean()), 0.0,
                         math.sqrt(exact[i, i] / runs))
            for j in range(i, 6):
                se = math.sqrt((exact[i, i] * exact[j, j] + exact[i, j] ** 2) / (runs - 1))
                fails.within(0, f"cov[{i},{j}]", float(mc[i, j]), float(exact[i, j]), se)

    lock_in = outputs[1]["out"]
    if not all(math.isfinite(lock_in[k]) for k in ("x_l1", "x_l2")):
        fails.fail(1, f"non-finite lock-in outputs {lock_in}")
    try:
        trace = _read_csv(fails, 2, os.path.join(out_dir, "trace.csv"), TRACE_HEADER,
                          wl.PULSE_STEPS)
    except ValueError as exc:
        fails.fail(2, f"trace.csv does not parse: {exc}")
        return fails
    if trace is not None:
        if not np.array_equal(trace[:, 0], np.arange(wl.PULSE_STEPS)):
            fails.fail(2, "step column is not 0..n_steps-1")
        drift = float(np.max(np.abs(trace[:, 3:5] - trace[0, 3:5])))
        if not drift <= 1e-10:
            fails.fail(1, f"spin-sum drift {drift:.3e} > 1e-10")
    return fails


def check_engines(inputs: dict, out_dir: str, outputs: list) -> dict:
    """Operations 0-2 are the protocols, 3-5 the time-domain calls."""
    fails = check_protocols(inputs, out_dir, outputs[:3])
    for op, reasons in check_pulses(inputs, out_dir, outputs[3:]).items():
        fails.setdefault(op + 3, []).extend(reasons)
    return fails


CHECKS = {"cycles_csv": check_cycles_csv, "sweep": check_sweep, "engines": check_engines}


def check_outputs(workload: str, inputs: dict, out_dir: str, outputs: list) -> dict:
    """Failures of one repeat's operations; an operation that raised is failed."""
    fails = _Failures()
    for op, rec in enumerate(outputs):
        if not rec["ok"]:
            fails.fail(op, rec["error"])
    if fails or len(outputs) < len(wl.OPS[workload]):
        for op in range(len(outputs), len(wl.OPS[workload])):
            fails.fail(op, "not run: an earlier operation failed")
        return fails
    return CHECKS[workload](inputs, out_dir, outputs)


def check_probe(out_dir: str, outputs: list) -> list:
    """Messages for a --parallel 1 vs 2 mismatch of stdout, CSV bytes or exit code."""
    if any(rec["rc"] != 0 for rec in outputs):
        return [f"probe exit status {[rec['rc'] for rec in outputs]}"]
    messages = []
    if outputs[0]["stdout"] != outputs[1]["stdout"]:
        messages.append("stdout differs between --parallel 1 and --parallel 2")
    blobs = []
    for parallel in (1, 2):
        path = os.path.join(out_dir, f"probe_p{parallel}.csv")
        if not os.path.exists(path):
            return messages + [f"--parallel {parallel} wrote no CSV"]
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    if blobs[0] != blobs[1]:
        messages.append("CSV bytes differ between --parallel 1 and --parallel 2")
    return messages
