"""Command-line front end: calibrate, run, sweep, timedomain, protocol.

Configuration is a flat ``key = value`` text file mirroring the flag names
(underscored); command-line flags override file values.  All outputs are
deterministic for a fixed seed, independent of the --parallel level.

Exit codes: 0 success, 1 usage/config error, 2 I/O error, 3 internal
invariant violation, 4 gate failed (``timedomain`` printed ``overall = FAIL``).
"""

from __future__ import annotations

import argparse
import math
import sys
import typing
from dataclasses import dataclass, fields, replace

import numpy as np

from . import experiment, gaussian, physics, protocols, timedomain
from .output import _fmt, write_csv

DEFAULT_THETA_GRID = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)


class UsageError(ValueError):
    """Bad flags or config content."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings of one invocation."""

    kappa2: float | None = None
    beta: float = 1.0
    theta_deg: float | None = None
    power_mw: float = 4.5
    pulse_ms: float = 2.0
    detuning_mhz: float = 700.0
    n_atoms: float = 1.0e11
    cycles: int = 10_000
    seed: int = 1
    out: str | None = None
    parallel: int = 1
    protocol: str | None = None
    gain: float = 1.0
    squeeze_r: float = 0.0
    theta_grid: tuple[float, ...] = DEFAULT_THETA_GRID

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            reals = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(v) for v in reals if isinstance(v, float)):
                raise UsageError(f"{f.name} must be finite")
        if self.cycles < 2:
            raise UsageError("cycles must be >= 2")
        if self.parallel < 1:
            raise UsageError("parallel must be >= 1")
        if not 0.0 <= self.beta <= 1.0:
            raise UsageError("beta must lie in [0, 1]")
        if self.kappa2 is not None and self.kappa2 < 0:
            raise UsageError("kappa2 must be >= 0")

    def physical_params(self) -> physics.PhysicalParams:
        try:
            return physics.PhysicalParams(
                detuning_MHz=self.detuning_mhz, power_mW=self.power_mw,
                pulse_ms=self.pulse_ms, n_atoms=self.n_atoms)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    def resolve_kappa2(self) -> float:
        """Explicit --kappa2 wins; otherwise derive it from the physical side."""
        if self.kappa2 is not None:
            return self.kappa2
        cal = physics.calibrate(self.physical_params(), theta_deg=self.theta_deg)
        return cal.kappa2


def _parse_grid(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _field_parsers() -> dict:
    """Text-to-value parser of each RunConfig field, taken from its type hint."""
    parsers = {}
    for name, hint in typing.get_type_hints(RunConfig).items():
        if typing.get_origin(hint) is tuple:
            parsers[name] = _parse_grid
        else:  # a plain type, or `type | None`
            parsers[name] = (typing.get_args(hint) or (hint,))[0]
    return parsers


def read_config(path: str) -> dict:
    """Parse a flat key = value file; '#' starts a comment."""
    parsers = _field_parsers()
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if key not in parsers:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = parsers[key](text)
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: bad value for {key}: {text!r}") from exc
    return values


def write_config(config: RunConfig, path: str) -> None:
    """Emit a config file that read_config parses back to the same run."""
    with open(path, "w") as fh:
        for f in fields(config):
            value = getattr(config, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = ",".join(map(_fmt, value))
            elif isinstance(value, float):
                value = _fmt(value)
            fh.write(f"{f.name} = {value}\n")


def load_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config is not None:
        try:
            config = replace(config, **read_config(args.config))
        except OSError as exc:
            raise UsageError(f"cannot read config: {exc}") from exc
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                 if getattr(args, f.name) is not None}
    config = replace(config, **overrides)
    config.validate()
    return config


def cmd_calibrate(config: RunConfig) -> int:
    params = config.physical_params()
    cal = physics.calibrate(params, theta_deg=config.theta_deg)
    k2_th = physics.kappa2_theory(config.power_mw, config.pulse_ms,
                                  cal.theta_deg, config.detuning_mhz)
    k2_exp = physics.kappa2_experimental(cal.theta_deg)
    print(f"theta_deg = {_fmt(cal.theta_deg)}")
    print(f"kappa2_theory = {_fmt(k2_th)}")
    print(f"kappa2_exp = {_fmt(k2_exp)}")
    if k2_exp > 0:  # no ratio to a zero coupling
        print(f"ratio = {_fmt(k2_th / k2_exp)}")
    print(f"a = {_fmt(cal.a_coupling)}")
    print(f"j_x = {_fmt(cal.j_x)}")
    print(f"s_x = {_fmt(cal.s_x)}")
    print(f"kappa2_first_principles = {_fmt(cal.kappa2)}")
    return 0


def cmd_run(config: RunConfig) -> int:
    stats = experiment.stream_cycle_stats(config.resolve_kappa2(), config.beta, config.cycles,
                                          config.seed, parallel=config.parallel, out=config.out)
    sys.stdout.write(experiment.summary_text(stats))
    return 0


def cmd_sweep(config: RunConfig) -> int:
    if not config.theta_grid:
        raise UsageError("theta grid must be nonempty")
    if config.out is None:
        raise UsageError("sweep requires --out for the CSV")
    rows = experiment.density_sweep(config.theta_grid, config.beta,
                                    config.cycles, config.seed,
                                    parallel=config.parallel)
    experiment.write_sweep_csv(rows, config.out)
    print(f"wrote {len(rows)} sweep rows to {config.out}")
    return 0


def cmd_timedomain(config: RunConfig) -> int:
    kappa2 = config.resolve_kappa2()
    kappa = float(np.sqrt(kappa2))
    omega_T = timedomain.DEFAULT_OMEGA_T
    n_steps = round(timedomain.STEPS_PER_CYCLE * omega_T / (2.0 * np.pi))
    rows = experiment.cross_engine_rows(kappa, config.cycles, omega_T, n_steps, config.seed)
    print(f"kappa2 = {_fmt(kappa2)}")
    print(f"runs = {config.cycles}")
    print(f"{'moment':<18}{'timedomain':>14}{'engine':>14}  status")
    all_ok = True
    for label, got, want, ok in rows:
        all_ok &= ok
        print(f"{label:<18}{got:>14.6f}{want:>14.6f}  {'PASS' if ok else 'FAIL'}")

    rng = np.random.default_rng(config.seed)
    trace, _ = timedomain.simulate_pulse(kappa, omega_T, n_steps,
                                         (0.0, 0.0, 0.0, 0.0), rng)
    drift = float(np.max(np.abs(trace.spin_sums - trace.spin_sums[0])))
    print(f"spin-sum drift = {drift:.3e} ({'PASS' if drift <= 1e-10 else 'FAIL'})")
    if config.out is not None:
        timedomain.write_trace_csv(trace, config.out)
    passed = all_ok and drift <= 1e-10
    print(f"overall = {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 4


def cmd_protocol(config: RunConfig) -> int:
    if config.protocol is None:
        raise UsageError("--protocol is required (teleport, swap, memory)")
    kappa2 = config.resolve_kappa2()
    record = config.out is not None
    runs = dict(n_runs=config.cycles, seed=config.seed, record_runs=record)
    if config.protocol == "teleport":
        result = protocols.teleport_spin_state((0.0, 0.0), kappa2, gain=config.gain, **runs)
    elif config.protocol == "swap":
        result = protocols.entanglement_swap(kappa2, **runs)
    elif config.protocol == "memory":
        result = protocols.quantum_memory((0.0, 0.0), config.squeeze_r, kappa2, **runs)
    else:
        raise UsageError(f"unknown protocol {config.protocol!r}")

    print(f"protocol = {config.protocol}")
    print(f"kappa2 = {_fmt(kappa2)}")
    print(f"n_runs = {result.n_runs}")
    if result.mean_fidelity is not None:
        print(f"mean_fidelity = {_fmt(result.mean_fidelity)}")
    if result.duan_sum_out is not None:
        print(f"duan_sum_out = {_fmt(result.duan_sum_out)}")
        print(f"entangled = {'true' if result.duan_sum_out < 1.0 else 'false'}")
    ex, ep = result.mean_displacement_error
    print(f"mean_displacement_error_x = {_fmt(ex)}")
    print(f"mean_displacement_error_p = {_fmt(ep)}")
    if record and result.runs is not None:
        write_csv(config.out, ("run_index", *result.run_columns),
                  [(np.arange(result.n_runs), *result.runs.T)])
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinlight",
                     description="Two-cell QND entanglement simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = _field_parsers()
    for name, help_text in (
            ("calibrate", "report coupling constants for lab parameters"),
            ("run", "Monte Carlo measurement cycles at one operating point"),
            ("sweep", "projection-noise / entanglement sweep over density"),
            ("timedomain", "cross-check stochastic engine vs Gaussian engine"),
            ("protocol", "run teleport/swap/memory on the Gaussian engine")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config")
        for key, parse in parsers.items():
            p.add_argument("--" + key.replace("_", "-"), type=parse)
    return parser


_COMMANDS = {
    "calibrate": cmd_calibrate,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "timedomain": cmd_timedomain,
    "protocol": cmd_protocol,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args)
        return _COMMANDS[args.command](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except gaussian.InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
