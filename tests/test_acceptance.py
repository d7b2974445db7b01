"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here, not tuned: +-2% on Monte Carlo variances
at N = 1e5, +-0.02 on weights, 1e-10 on exact engine identities, 3% on
cross-engine moments at 2e4 runs, 5% on fitted slopes.
"""

import time

import numpy as np
import pytest

from linear_oracle import swap_duan_sum, symplectic_eigenvalues, teleport_mean_fidelity

from spinlight import cli, experiment
from spinlight.experiment import (
    engine_conditioned_duan,
    stream_cycle_stats,
    theory_curves,
)
from spinlight.gaussian import (
    apply_qnd,
    displace,
    measure_x,
    symplectic_form,
    vacuum_state,
)
from spinlight.protocols import entanglement_swap, quantum_memory, teleport_spin_state
from spinlight.timedomain import shot_noise_scaling, simulate_pulse

N_CYCLES = 100_000


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


@pytest.fixture(scope="module")
def ideal_run():
    """Shared kappa^2 = 1, beta = 1, N = 1e5 ensemble (criteria 1 and 2)."""
    start = time.perf_counter()
    stats = stream_cycle_stats(1.0, 1.0, N_CYCLES, seed=2024)
    elapsed = time.perf_counter() - start
    return stats, elapsed


def test_criterion_01_projection_noise_calibration(ideal_run):
    stats, elapsed = ideal_run
    assert stats.var1 == pytest.approx(2.00, rel=0.02)
    assert elapsed < 10.0
    _report(1, f"var(A1)+var(B1) = {stats.var1:.4f} (2.00 +-2%), "
               f"N=1e5 in {elapsed:.2f}s < 10s")


def test_criterion_02_ideal_entanglement_theory(ideal_run):
    stats, _ = ideal_run
    assert stats.alpha_star == pytest.approx(0.500, abs=0.02)
    assert stats.cond_var == pytest.approx(1.500, rel=0.02)
    exact = engine_conditioned_duan(1.0, 1.0)
    assert exact == pytest.approx(0.5, abs=1e-10)
    _report(2, f"alpha* = {stats.alpha_star:.4f} (0.500 +-0.02), "
               f"cond_var = {stats.cond_var:.4f} (1.500 +-2%), "
               f"engine duan_sum = {exact:.12f} (0.5 exact)")


def test_criterion_03_decoherence_model_grid():
    beta = 0.65
    for i, kappa2 in enumerate((0.25, 0.5, 1.0, 2.0)):
        stats = stream_cycle_stats(kappa2, beta, N_CYCLES, seed=300 + i)
        cond_th, alpha_th = theory_curves(kappa2, beta)
        assert stats.cond_var == pytest.approx(cond_th, rel=0.02), kappa2
        assert stats.alpha_star == pytest.approx(alpha_th, abs=0.02), kappa2
    _report(3, "beta=0.65 grid kappa2 in {0.25,0.5,1,2}: cond_var +-2% and "
               "alpha +-0.02 of the decoherence model")


def test_criterion_04_headline_noise_reduction():
    stats = stream_cycle_stats(1.449, 0.65, N_CYCLES, seed=404)
    assert stats.atomic_var_inferred == pytest.approx(0.75, abs=0.02)
    _report(4, f"kappa2=1.449, beta=0.65: inferred atomic variance "
               f"{stats.atomic_var_inferred:.4f} = 0.75 +-0.02 (25% reduction)")


def test_criterion_05_low_coupling_entanglement():
    kappa2, beta = 0.5, 0.65
    stats = stream_cycle_stats(kappa2, beta, N_CYCLES, seed=505)
    assert stats.entangled is True
    margin = (1.0 + kappa2) - stats.cond_var
    se = stats.cond_var / np.sqrt(stats.n)
    assert margin >= 3.0 * se
    _report(5, f"kappa2=0.5, beta=0.65: entangled with margin {margin:.4f} "
               f"= {margin / se:.1f} standard errors (>= 3)")


def test_criterion_06_calibration_slopes(capsys):
    code = cli.main(["calibrate", "--theta-deg", "10"])
    out = capsys.readouterr().out
    assert code == 0
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    slope = float(values["kappa2_theory"]) / 10.0
    assert slope == pytest.approx(18.6 * 4.5 * 2.0 / 700.0, rel=1e-12)
    ratio = float(values["ratio"])
    assert ratio == pytest.approx(2.39, abs=0.005)
    with capsys.disabled():
        _report(6, f"kappa2_theory/theta = {slope:.6f} (exactly 18.6*P*T/Delta "
                   f"= 0.239143), theory/experiment ratio = {ratio:.3f}")


def test_criterion_07_cross_engine_oracle():
    start = time.perf_counter()
    worst = 0.0
    for kappa in (0.5, 1.0, 2.0):
        rows, _ = experiment.cross_engine_rows(kappa**2, 20_000, seed=17)  # the CLI's grid
        for label, got, want, ok in rows:
            assert ok, (kappa, label, got, want)
            worst = max(worst, abs(got - want) / max(abs(want), 0.5))
    # trajectory conservation at the full default resolution (650 cycles), with drawn
    # atoms: the vacuum pulse of the drift row above starts both cells at 0 and reads 0
    rng = np.random.default_rng(7)
    for kappa in (0.5, 1.0, 2.0):
        trace, _ = simulate_pulse(kappa, 2.0 * np.pi * 650.0, 65_000,
                                  tuple(np.sqrt(0.5) * rng.standard_normal(4)), rng)
        drift = float(np.max(np.abs(trace.spin_sums - trace.spin_sums[0])))
        assert drift <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(7, f"time-domain vs engine moments within 3% (worst {worst:.3f}) at "
               f"kappa in {{0.5,1,2}} over 2e4 runs of 650 cycles; spin sums conserved to "
               f"1e-10; {elapsed:.1f}s < 120s")


def test_criterion_08_shot_noise_scaling():
    n_ph = [2.0, 4.0, 8.0, 16.0, 32.0]
    variances = shot_noise_scaling(n_ph, np.random.default_rng(808))
    slope = float(np.polyfit(n_ph, variances, 1)[0])
    assert slope == pytest.approx(0.25, rel=0.05)
    _report(8, f"integrated Stokes variance vs photon number: slope "
               f"{slope:.4f} = 0.25 +-5%")


def test_criterion_09_invariant_suites():
    omega = symplectic_form(2)
    for kappa in (0.1, 0.5, 1.0, 2.0, 10.0):
        smat = np.eye(4)
        smat[2, 1] = kappa
        smat[0, 3] = kappa
        assert np.max(np.abs(smat @ omega @ smat.T - omega)) <= 1e-12

        state = apply_qnd(vacuum_state(2), 0, 1, kappa)
        _, post = measure_x(state, 1, np.random.default_rng(1))
        product = post.variance(0, "x") * post.variance(0, "p")
        assert product == pytest.approx(0.25, abs=1e-10)
        assert np.allclose(symplectic_eigenvalues(post.cov), 0.5, atol=1e-10)

    state = apply_qnd(vacuum_state(2), 0, 1, 1.0)
    rng = np.random.default_rng(2)
    covs = {measure_x(state, 1, rng)[1].cov.tobytes() for _ in range(1000)}
    assert len(covs) == 1
    _report(9, "symplectic preservation 1e-12, conditioning determinism "
               "(bitwise over 1000 draws), min-uncertainty product 1/4 and "
               "purity at 1e-10")


def test_criterion_10_protocols():
    tele = teleport_spin_state((0.5, -0.5), 100.0, gain=1.0, n_runs=500, seed=10)
    assert tele.mean_fidelity >= 0.95

    tele4 = teleport_spin_state((0.5, -0.5), 4.0, gain=1.0, n_runs=4000, seed=11)
    assert tele4.mean_fidelity == pytest.approx(teleport_mean_fidelity(4.0), abs=0.02)

    # oracle-pinned swap values: exactly on the separability boundary at
    # kappa^2 = 1, strictly entangled beyond it
    swap_vals = {}
    for kappa2 in (1.0, 4.0, 100.0):
        result = entanglement_swap(kappa2, n_runs=3, seed=12)
        assert result.duan_sum_out == pytest.approx(swap_duan_sum(np.sqrt(kappa2)),
                                                    abs=1e-9)
        swap_vals[kappa2] = result.duan_sum_out
    assert swap_vals[1.0] == pytest.approx(1.0, abs=1e-9)
    assert swap_vals[4.0] < 1.0 and swap_vals[100.0] < 1.0

    mem = quantum_memory((0.7, 0.2), 12.0, 1.0e6, n_runs=50, seed=13)
    assert mem.mean_fidelity >= 0.999
    assert abs(mem.mean_displacement_error[0]) < 1e-4
    assert abs(mem.mean_displacement_error[1]) < 1e-4
    # input-independent residual: stored mean moves one-for-one with the input
    mem0 = quantum_memory((0.0, 0.0), 12.0, 1.0e6, n_runs=50, seed=13)
    assert np.allclose(mem.mean_displacement_error, mem0.mean_displacement_error,
                       atol=1e-9)
    _report(10, f"teleport F = {tele.mean_fidelity:.4f} >= 0.95 at kappa2=100; "
                f"swap duan = {swap_vals[4.0]:.4f} (<1 for kappa2>1, "
                f"boundary 1.0 at kappa2=1 per oracle); memory stores the "
                f"input mean exactly in the ideal-resource limit")


def test_criterion_11_determinism_across_parallelism(tmp_path, capsys):
    outputs = []
    for workers in (1, 4, 8):
        path = tmp_path / f"cycles_p{workers}.csv"
        code = cli.main(["run", "--kappa2", "1", "--beta", "0.65",
                         "--cycles", "9000", "--seed", "1111",
                         "--parallel", str(workers), "--out", str(path)])
        stdout = capsys.readouterr().out
        assert code == 0
        outputs.append((path.read_bytes(), stdout))
    assert outputs[0] == outputs[1] == outputs[2]
    with capsys.disabled():
        _report(11, "byte-identical cycles CSV and summary at parallelism 1, 4, 8")
