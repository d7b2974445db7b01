"""Peak memory of the Monte Carlo engines does not grow with the ensemble size.

Each workload runs in a fresh interpreter that reports its own peak resident
set size (VmHWM in /proc/self/status) when it is done, so only the child is
measured.  getrusage's ru_maxrss would not do: a child started by vfork and
exec inherits the parent's peak in it, so under a test runner that has peaked
at 181 MB a child of 40 MB and one of 320 MB would read the same.
"""

import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="/proc/self/status is Linux only")

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
#: Allowed growth of the peak; the cycles of the large runs below would alone
#: take 64 MB if kept.  pulse_ensemble keeps no per-step noise: each run draws
#: only its four noise projections, so its large run adds 60 rows of 6 values.
MARGIN_MB = 16.0


def peak_mb(code: str) -> float:
    script = (code + "\nprint(next(line for line in open('/proc/self/status')"
              " if line.startswith('VmHWM:')))")  # VmHWM: <peak> kB
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return int(done.stdout.split()[-2]) / 1024.0


def test_run_without_out_streams_the_cycles():
    run = "from spinlight.cli import main\nmain(['run', '--kappa2', '1', '--cycles', '{}'])"
    small, large = peak_mb(run.format(4096)), peak_mb(run.format(2_000_000))
    assert large - small < MARGIN_MB, (small, large)


def test_run_with_out_streams_the_cycles(tmp_path):
    run = ("from spinlight.cli import main\n"
           "main(['run', '--kappa2', '1', '--cycles', '{}', '--out', {!r}])")
    path = str(tmp_path / "cycles.csv")
    small, large = peak_mb(run.format(4096, path)), peak_mb(run.format(2_000_000, path))
    assert large - small < MARGIN_MB, (small, large)


def test_sweep_streams_the_cycles(tmp_path):
    sweep = ("from spinlight.cli import main\n"
             "main(['sweep', '--theta-grid', '2,10', '--cycles', '{}', '--out', {!r}])")
    path = str(tmp_path / "sweep.csv")
    small, large = peak_mb(sweep.format(4096, path)), peak_mb(sweep.format(2_000_000, path))
    assert large - small < MARGIN_MB, (small, large)


def test_pulse_ensemble_reduces_noise_in_blocks():
    ens = ("from spinlight.timedomain import DEFAULT_OMEGA_T, pulse_ensemble\n"
           "pulse_ensemble(1.0, DEFAULT_OMEGA_T, 65_000, {}, seed=1)")
    small, large = peak_mb(ens.format(4)), peak_mb(ens.format(64))
    assert large - small < MARGIN_MB, (small, large)
