"""Peak memory of the Monte Carlo engines does not grow with the ensemble size.

Each workload runs in a fresh interpreter that reports its own peak resident
set size (getrusage ru_maxrss) when it is done, so only the child is measured.
"""

import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="ru_maxrss is in KiB on Linux only")

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
#: Allowed growth of the peak; the materialized data of the large runs below
#: would alone take 64 MB (cycles) and 66 MB (pulse noise).
MARGIN_MB = 16.0


def peak_mb(code: str) -> float:
    script = (code + "\nimport resource\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return int(done.stdout.split()[-1]) / 1024.0


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


def test_pulse_ensemble_reduces_noise_in_blocks():
    ens = ("from spinlight.timedomain import DEFAULT_OMEGA_T, pulse_ensemble\n"
           "pulse_ensemble(1.0, DEFAULT_OMEGA_T, 65_000, {}, seed=1)")
    small, large = peak_mb(ens.format(4)), peak_mb(ens.format(64))
    assert large - small < MARGIN_MB, (small, large)
