"""Stochastic pulse integration, lock-in demodulation, shot-noise scaling."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlight.experiment import engine_pulse_covariance
from spinlight.timedomain import (
    DEFAULT_OMEGA_T,
    PULSE_MS,
    _pulse,
    _pulse_map,
    final_atoms,
    pulse_covariance,
    pulse_ensemble,
    shot_noise_scaling,
    simulate_pulse,
    write_trace_csv,
)

from test_output import reference_csv

# light resolution for unit tests: 20 Larmor cycles, 100 steps each
OMEGA_T = 2.0 * np.pi * 20.0
N_STEPS = 2000


class TestSimulatePulse:
    def test_shot_noise_only_variance(self):
        ens = pulse_ensemble(0.0, OMEGA_T, N_STEPS, 10_000, seed=21)
        var = np.var(ens[:, 0], ddof=1)
        assert var == pytest.approx(0.5, rel=0.03)

    def test_fixed_atoms_mean_extraction(self):
        rng = np.random.default_rng(4)
        atoms = (0.0, 1.0, 0.0, -0.8)
        xs = np.empty((3000, 2))
        for i in range(xs.shape[0]):
            _, lock = simulate_pulse(1.0, OMEGA_T, N_STEPS, atoms, rng)
            xs[i] = lock.x_l1, lock.x_l2
        assert xs[:, 0].mean() == pytest.approx(1.0, abs=0.03)
        assert xs[:, 1].mean() == pytest.approx(-0.8, abs=0.03)

    @pytest.mark.parametrize("kappa", [0.0, 1.0, 2.0])
    def test_spin_sums_conserved(self, kappa):
        rng = np.random.default_rng(8)
        trace, _ = simulate_pulse(kappa, OMEGA_T, N_STEPS, (0.3, -0.2, 0.1, 0.4), rng)
        drift = np.max(np.abs(trace.spin_sums - trace.spin_sums[0]))
        assert drift <= 1e-10

    def test_trace_shapes_and_finals(self):
        rng = np.random.default_rng(2)
        atoms = (0.3, -0.2, 0.1, 0.4)
        trace, lock = simulate_pulse(1.0, OMEGA_T, N_STEPS, atoms, rng)
        assert trace.sy_samples.shape == (N_STEPS,)
        assert trace.spin_sums.shape == (N_STEPS, 2)
        assert np.isfinite([lock.x_l1, lock.x_l2]).all()
        xa1, pa1, xa2, pa2 = final_atoms(trace)
        assert pa1 == pytest.approx(atoms[1], abs=1e-12)  # QND conserved
        assert pa2 == pytest.approx(atoms[3], abs=1e-12)

    def test_under_resolved_rejected(self):
        with pytest.raises(ValueError):
            simulate_pulse(1.0, OMEGA_T, 500, (0, 0, 0, 0), np.random.default_rng(0))
        with pytest.raises(ValueError):
            pulse_ensemble(1.0, OMEGA_T, 500, 10, seed=0)

    def test_every_whole_cycle_count_resolves_at_100_steps_each(self):
        # omega_T / 2 pi rounds one ulp above 13, 26, 52, 83, 99 and 30 more
        # of these counts; one step fewer than 100 per cycle is still refused
        for cycles in range(1, 651):
            omega_t = 2.0 * np.pi * cycles
            assert np.isfinite(pulse_covariance(1.0, omega_t, 100 * cycles)).all()
            with pytest.raises(ValueError, match="under-resolves"):
                pulse_covariance(1.0, omega_t, 100 * cycles - 1)

    @pytest.mark.parametrize("kappa,n_steps,message,omega_t", [
        (1.0, 500, "n_steps=500 under-resolves the Larmor precession; "
                   "need >= 100 steps per cycle (20.0 cycles)", OMEGA_T),
        (1.0, N_STEPS - 1, "n_steps=1999 under-resolves", OMEGA_T),
        (-1.0, N_STEPS, "kappa must be >= 0", OMEGA_T),
        (-1.0, 500, "kappa must be >= 0", OMEGA_T),
        # nan passed kappa < 0 and gave nan rows; inf warned in the matmul
        (np.nan, N_STEPS, "kappa must be >= 0 and finite", OMEGA_T),
        (np.inf, N_STEPS, "kappa must be >= 0 and finite", OMEGA_T),
        # no sin weight, then no weight at all: the Gram matrix has no Cholesky factor
        (1.0, N_STEPS, "omega_T=0.0 leaves a lock-in channel with no weight", 0.0),
        (1.0, N_STEPS, "omega_T=nan leaves a lock-in channel with no weight", np.nan)])
    def test_every_kernel_refuses_alike(self, kappa, n_steps, message, omega_t):
        kernels = (
            lambda: simulate_pulse(kappa, omega_t, n_steps, (0, 0, 0, 0), np.random.default_rng(0)),
            lambda: pulse_ensemble(kappa, omega_t, n_steps, 10, seed=0),
            lambda: pulse_covariance(kappa, omega_t, n_steps))
        for kernel in kernels:
            with pytest.raises(ValueError, match="^" + re.escape(message)):
                kernel()

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            simulate_pulse(-1.0, OMEGA_T, N_STEPS, (0, 0, 0, 0),
                           np.random.default_rng(0))


class TestShotNoise:
    def test_level_at_four_photons(self):
        var, = shot_noise_scaling([4.0], np.random.default_rng(6))
        assert var == pytest.approx(1.0, rel=0.05)

    def test_linear_scaling_slope(self):
        n_ph = [2.0, 4.0, 8.0, 16.0, 32.0]
        variances = shot_noise_scaling(n_ph, np.random.default_rng(7))
        slope = np.polyfit(n_ph, variances, 1)[0]
        assert slope == pytest.approx(0.25, rel=0.05)

    def test_pulse_concatenation_additivity(self):
        v = shot_noise_scaling([8.0, 8.0, 16.0], np.random.default_rng(9))
        assert v[0] + v[1] == pytest.approx(v[2], rel=0.1)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            shot_noise_scaling([], np.random.default_rng(0))

    def test_non_positive_photon_number_rejected(self):
        with pytest.raises(ValueError, match="photon numbers must be positive"):
            shot_noise_scaling([0.0], np.random.default_rng(0))

    @pytest.mark.parametrize("n_runs", [1, 0])
    def test_fewer_than_two_runs_refused(self, n_runs):
        # the sample variance (ddof=1) was nan, with numpy's RuntimeWarning
        with pytest.raises(ValueError, match="^n_runs must be >= 2$"):
            shot_noise_scaling([4.0], np.random.default_rng(0), n_runs=n_runs)

    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_no_steps_refused(self, n_steps):
        # n_steps = 0 divided by zero in the per-step scale
        with pytest.raises(ValueError, match="^n_steps must be >= 1$"):
            shot_noise_scaling([4.0], np.random.default_rng(0), n_steps=n_steps)


class TestDiffNoise:
    @pytest.mark.parametrize("kappa,expected", [(0.0, 0.5), (1.0, 1.0), (2.0, 2.5)])
    def test_back_action_growth(self, kappa, expected):
        # the back-action of the S_z noise grows var(X_A1) to (1 + kappa^2)/2,
        # exactly on a whole number of Larmor cycles
        cov = pulse_covariance(kappa, OMEGA_T, N_STEPS)
        assert cov[2, 2] == pytest.approx(expected, abs=1e-12)


class TestDemodulation:
    def test_channel_orthogonality_integer_cycles(self):
        ens = pulse_ensemble(1.0, 2.0 * np.pi * 100.0, 10_000, 10_000, seed=13)
        cov = float(np.cov(ens[:, 0], ens[:, 1])[0, 1])
        # both variances are 1; statistical error of the cross estimate
        assert abs(cov) <= 4.0 / np.sqrt(10_000)

    def test_integer_cycle_moments_exact(self):
        # the sums stay QND-protected while var(X_A1) grows by the back-action
        for kappa, omega_t, n_steps in [(1.3, 2.0 * np.pi * 100.0, 10_000), (0.0, OMEGA_T, N_STEPS),
                                        (1.0, OMEGA_T, N_STEPS), (2.0, OMEGA_T, N_STEPS)]:
            cov = pulse_covariance(kappa, omega_t, n_steps)
            assert cov[0, 0] == pytest.approx(0.5 + kappa**2 / 2, abs=1e-12)
            assert cov[0, 1] == pytest.approx(0.0, abs=1e-12)
            assert 2 * cov[0, 3] == pytest.approx(kappa, abs=1e-12)  # effective coupling
            assert cov[2, 2] == pytest.approx((1 + kappa**2) / 2, abs=1e-12)

    def test_discretization_convergence(self):
        # non-integer cycle count exposes genuine discretization effects
        omega_t = 2.0 * np.pi * 100.37
        coarse = pulse_covariance(1.0, omega_t, 10_050)[0, 0]
        fine = pulse_covariance(1.0, omega_t, 20_100)[0, 0]
        assert abs(fine - coarse) / coarse < 0.005

    def test_closed_form_matches_monte_carlo_off_resonance(self):
        # the convergence check above leans on the exact covariance; pin it to a
        # brute-force per-step ensemble at a non-integer cycle count
        omega_t = 2.0 * np.pi * 20.43
        cov = pulse_covariance(1.0, omega_t, 2100)
        ens = reference_ensemble(1.0, omega_t, 2100, 40_000, 9, per_step_projections)
        se = cov[0, 0] * np.sqrt(2.0 / 40_000)
        assert np.var(ens[:, 0], ddof=1) == pytest.approx(cov[0, 0], abs=4 * se)
        assert np.var(ens[:, 1], ddof=1) == pytest.approx(cov[1, 1], abs=4 * se)
        assert np.cov(ens[:, 0], ens[:, 3])[0, 1] / 0.5 == pytest.approx(
            2 * cov[0, 3], abs=4 * se)

    @given(kappa=st.one_of(st.just(0.0), st.floats(0.0, 5.0)), cycles=st.integers(1, 650))
    @settings(max_examples=60, deadline=None)
    def test_whole_cycles_equal_the_engine(self, kappa, cycles):
        # 100 steps per cycle.  The phases carry rounding up to eps omega_T, which
        # the n_steps-term sums accumulate as a random walk: a relative error
        # of about 2 eps omega_T / sqrt(n_steps) = 0.13 eps sqrt(n_steps),
        # on entries of size up to 1 + kappa^2.  The bound allows 8 times that
        # (every count from 1 to 650 at kappa = 5 stays under 0.28 of it).
        omega_t = 2.0 * np.pi * cycles
        n_steps = 100 * cycles
        got = pulse_covariance(kappa, omega_t, n_steps)
        assert np.array_equal(got, got.T)
        bound = np.finfo(float).eps * np.sqrt(n_steps) * (1.0 + kappa**2)
        np.testing.assert_allclose(got, engine_pulse_covariance(kappa), rtol=0, atol=bound)

    @pytest.mark.parametrize("cycles,n_steps", [(1.25, 125), (20.0, N_STEPS)])
    def test_ensemble_follows_the_exact_law(self, cycles, n_steps):
        # 10^6 runs, every mean and covariance in standard errors; at 1.25 cycles
        # cov(x_l1, x_l2) = 0.191 is ~190 of them, so a wrong cross term l21 fails
        ens = pulse_ensemble(1.0, 2.0 * np.pi * cycles, n_steps, 10**6, seed=41)
        cov = pulse_covariance(1.0, 2.0 * np.pi * cycles, n_steps)
        n, var = len(ens), np.diag(cov)
        z_cov = (np.cov(ens.T) - cov) / np.sqrt((np.outer(var, var) + cov**2) / (n - 1))
        z_mean = ens.mean(axis=0) / np.sqrt(var / n)
        # 27 statistics: chance alone exceeds 4.5 about 2e-4 of the time
        assert max(np.abs(z_cov).max(), np.abs(z_mean).max()) < 4.5

    def test_single_run_path_variance(self):
        # full-trace integrator (not the closed-over ensemble) at kappa = 1
        rng = np.random.default_rng(31)
        vals = np.empty(4000)
        for i in range(vals.size):
            atoms = tuple(np.sqrt(0.5) * rng.standard_normal(4))
            _, lock = simulate_pulse(1.0, OMEGA_T, N_STEPS, atoms, rng)
            vals[i] = lock.x_l1
        se = np.sqrt(2.0 / vals.size)
        assert np.var(vals, ddof=1) == pytest.approx(1.0, abs=4 * se)


class UnitNormals:
    """A generator stand-in for simulate_pulse: its draws, xi then zeta, are
    the unit vector k of their 2 n_steps concatenated normals (all zero for
    k < 0)."""

    def __init__(self, k):
        self.k, self.drawn = k, 0

    def standard_normal(self, size):
        out = np.zeros(size)
        if 0 <= self.k - self.drawn < size:
            out[self.k - self.drawn] = 1.0
        self.drawn += size
        return out


def euler_covariance(kappa, omega_T, n_steps):
    """The exact covariance of simulate_pulse's (x_l1, x_l2, *final_atoms).

    The integrator is linear in its 4 atomic inputs and 2 n_steps normals, so
    its response to each unit input is a column of its matrix A, and the
    covariance is A D A^T, D = 1/2 on the atoms and 1 on the noise.  Each
    entry is summed exactly (math.fsum): a float sum adds 2 n_steps small
    terms to a large one, which alone reads up to 40 eps (1 + kappa^2) at
    2000 steps."""
    columns = []
    for k in range(4 + 2 * n_steps):
        atoms = tuple(float(k == i) for i in range(4))
        trace, lock = simulate_pulse(kappa, omega_T, n_steps, atoms, UnitNormals(k - 4))
        columns.append((lock.x_l1, lock.x_l2, *final_atoms(trace)))
    a = np.array(columns).T
    d = np.ones(4 + 2 * n_steps)
    d[:4] = 0.5
    return np.array([[math.fsum(a[i] * a[j] * d) for j in range(6)] for i in range(6)])


class TestEulerIntegrator:
    """The step-by-step integrator against pulse_covariance, with no Monte
    Carlo: Euler = pulse_covariance to round-off at any resolution, and
    pulse_covariance = the symplectic engine at whole cycle counts
    (TestDemodulation), so the three kernels form one chain.

    Bound: every sum in simulate_pulse has a single nonzero term for a unit
    input, except the lock-in dot products of the atomic columns, which
    pulse_covariance forms as other sums of the same terms.  So each entry of
    A carries a few roundings, and so does F F^T; the covariance entries
    are of size up to 1 + kappa^2.  Over 300 random points (kappa in [0, 5],
    1 to 5 cycles) and points up to 10^4 steps the difference stayed below
    3.1 eps (1 + kappa^2), with no growth in n_steps; the bound is 8 of them."""

    @staticmethod
    def assert_chain(kappa, cycles, n_steps):
        omega_t = 2.0 * np.pi * cycles
        bound = 8.0 * np.finfo(float).eps * (1.0 + kappa**2)
        np.testing.assert_allclose(euler_covariance(kappa, omega_t, n_steps),
                                   pulse_covariance(kappa, omega_t, n_steps), rtol=0, atol=bound)

    # off-resonance points (1.25 and 20.43 cycles) too, where the law is not the engine's
    @pytest.mark.parametrize("kappa,cycles,n_steps", [(1.0, 1.25, 125), (1.3, 20.0, 2000),
                                                      (0.7, 20.43, 2100), (2.0, 3.0, 300)])
    def test_matches_pulse_covariance(self, kappa, cycles, n_steps):
        self.assert_chain(kappa, cycles, n_steps)

    @given(kappa=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
           cycles=st.one_of(st.integers(1, 5), st.floats(1.0, 5.0)),
           extra_steps=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_matches_pulse_covariance_property(self, kappa, cycles, extra_steps):
        self.assert_chain(kappa, cycles, math.ceil(100 * cycles) + extra_steps)


def per_step_projections(rng, m, c, s, sums):
    """The brute-force noise: whole (m, n_steps) xi and zeta arrays, projected."""
    xi = rng.standard_normal((m, len(c)))
    zeta = rng.standard_normal((m, len(c)))
    return xi @ c, xi @ s, zeta @ c, zeta @ s


def gram_law_projections(rng, m, c, s, sums):
    """pulse_ensemble's draw: z of shape (4, m) through the Cholesky factor of
    the Gram matrix sums = (sum_cc, sum_ss, sum_cs), every array a fresh one."""
    sum_cc, sum_ss, sum_cs = sums
    l11 = np.sqrt(sum_cc)
    l21 = sum_cs / l11
    l22 = np.sqrt(max(sum_ss - l21**2, 0.0))
    z = rng.standard_normal((4, m))
    return l11 * z[0], l21 * z[0] + l22 * z[1], l11 * z[2], l21 * z[2] + l22 * z[3]


def reference_ensemble(kappa, omega_T, n_steps, n_runs, seed, projections):
    """pulse_ensemble's rows, each column written out term by term (the map
    of _pulse_map stated independently), each 256-run chunk drawing its atoms
    and then projections(rng, m, c, s, (sum_cc, sum_ss, sum_cs)): xi @ c,
    xi @ s, zeta @ c, zeta @ s."""
    dt, c, s, norm_c, norm_s = _pulse(kappa, omega_T, n_steps)
    sum_cc, sum_ss, sum_cs = norm_c / dt, norm_s / dt, float(np.sum(c * s))
    out = np.empty((n_runs, 6))
    atomic_scale = np.sqrt(2.0) * kappa / np.sqrt(PULSE_MS) * dt
    drive_scale = kappa * np.sqrt(dt / PULSE_MS)
    for chunk, start in enumerate(range(0, n_runs, 256)):
        m = min(256, n_runs - start)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))
        atoms = np.sqrt(0.5) * rng.standard_normal((m, 4))
        xi_c, xi_s, zeta_c, zeta_s = projections(rng, m, c, s, (sum_cc, sum_ss, sum_cs))
        atom_c = atomic_scale * (atoms[:, 1] * sum_cc + atoms[:, 3] * sum_cs)
        atom_s = atomic_scale * (atoms[:, 1] * sum_cs + atoms[:, 3] * sum_ss)
        out[start:start + m, 0] = (np.sqrt(0.5 * dt) * xi_c + atom_c) / np.sqrt(norm_c)
        out[start:start + m, 1] = (np.sqrt(0.5 * dt) * xi_s + atom_s) / np.sqrt(norm_s)
        out[start:start + m, 2] = atoms[:, 0] + drive_scale * zeta_c
        out[start:start + m, 3] = atoms[:, 1]
        out[start:start + m, 4] = atoms[:, 2] - drive_scale * zeta_s
        out[start:start + m, 5] = atoms[:, 3]
    return out


def mapped_ensemble(kappa, omega_T, n_steps, n_runs, seed):
    """pulse_ensemble's rows as [atoms, noise^T] @ F^T, with F from _pulse_map:
    each 256-run chunk drawn from SeedSequence(seed, spawn_key=(chunk,)), the
    (count, 4) atomic normals first, then a (4, count) block of noise normals,
    every array a fresh one."""
    f = _pulse_map(kappa, omega_T, n_steps)
    out = np.empty((n_runs, 6))
    for chunk, start in enumerate(range(0, n_runs, 256)):
        count = min(256, n_runs - start)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))
        atoms = rng.standard_normal((count, 4))
        noise = rng.standard_normal((4, count))
        out[start:start + count] = np.column_stack([atoms, noise.T]) @ f.T
    return out


def reference_pulse(kappa, omega_T, n_steps, atoms_in, rng):
    """simulate_pulse as it was before its temporaries reused buffers: every
    intermediate array is a fresh one."""
    dt, c, s, norm_c, norm_s = _pulse(kappa, omega_T, n_steps)
    xa1, pa1, xa2, pa2 = (float(v) for v in atoms_in)
    jy1_0, jy2_0 = 0.5 * (pa2 + xa1), 0.5 * (pa2 - xa1)
    jz1_0, jz2_0 = 0.5 * (pa1 - xa2), 0.5 * (pa1 + xa2)
    xi = rng.standard_normal(n_steps)
    zeta = rng.standard_normal(n_steps)
    drive = 0.5 * kappa * np.sqrt(dt / PULSE_MS) * zeta
    cum_y = np.cumsum(drive * c)
    cum_z = np.cumsum(drive * s)
    jy1, jy2 = jy1_0 + cum_y, jy2_0 - cum_y
    jz1, jz2 = jz1_0 + cum_z, jz2_0 - cum_z
    spin_sums = np.column_stack([jy1 + jy2, jz1 + jz2])
    spin_diffs = np.column_stack([jy1 - jy2, jz1 - jz2])
    atomic = np.sqrt(2.0) * (kappa / np.sqrt(PULSE_MS)) * dt * (
        spin_sums[:, 1] * c + spin_sums[:, 0] * s)
    w = np.sqrt(0.5 * dt) * xi + atomic
    x_l1 = float(np.dot(w, c) / np.sqrt(norm_c))
    x_l2 = float(np.dot(w, s) / np.sqrt(norm_s))
    return w / np.sqrt(0.5 * PULSE_MS), spin_sums, spin_diffs, x_l1, x_l2


class TestPulseDeterminism:
    @given(kappa=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
           atoms=st.tuples(*[st.floats(-3.0, 3.0)] * 4),
           grid=st.sampled_from([(OMEGA_T, N_STEPS), (OMEGA_T, N_STEPS + 37),
                                 (2.0 * np.pi * 20.43, 2100), (2.0 * np.pi, 100),
                                 (DEFAULT_OMEGA_T, 65_000)]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_bitwise(self, kappa, atoms, grid, seed):
        omega_t, n_steps = grid
        trace, lock = simulate_pulse(kappa, omega_t, n_steps, atoms, np.random.default_rng(seed))
        sy, sums, diffs, x_l1, x_l2 = reference_pulse(kappa, omega_t, n_steps, atoms,
                                                      np.random.default_rng(seed))
        assert trace.sy_samples.tobytes() == sy.tobytes()
        assert trace.spin_sums.tobytes() == sums.tobytes()
        assert trace.spin_diffs.tobytes() == diffs.tobytes()
        assert (lock.x_l1, lock.x_l2) == (x_l1, x_l2)


def traced_peak_steps(fn, n_steps):
    """Peak of the heap that fn allocates, in arrays of n_steps float64s.
    numpy reports its buffers to tracemalloc, so this is deterministic."""
    np.random.default_rng(0)  # numpy.random imports lazily; keep its modules out of the peak
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (8 * n_steps)
    finally:
        tracemalloc.stop()


class TestHeapPeak:
    # the ensemble holds no noise of step length, only its set-up's grid (5 step
    # arrays at the peak); the pulse needs 10: c and s, xi, zeta, the two
    # (n_steps, 2) traces and two scratch arrays
    def test_ensemble_reuses_one_noise_block(self):
        peak = traced_peak_steps(
            lambda: pulse_ensemble(1.0, DEFAULT_OMEGA_T, 65_000, 64, seed=1), 65_000)
        assert peak <= 6, peak

    def test_pulse_reuses_its_temporaries(self):
        peak = traced_peak_steps(
            lambda: simulate_pulse(1.0, DEFAULT_OMEGA_T, 65_000, (0.1, 0.2, 0.3, 0.4),
                                   np.random.default_rng(1)), 65_000)
        assert peak <= 12, peak


class TestEnsembleDeterminism:
    def test_seeded_repeatability(self):
        a = pulse_ensemble(1.0, OMEGA_T, N_STEPS, 600, seed=3)
        b = pulse_ensemble(1.0, OMEGA_T, N_STEPS, 600, seed=3)
        assert np.array_equal(a, b)

    def test_zero_runs_refused(self):
        # numpy's concatenate raised "need at least one array to concatenate"
        with pytest.raises(ValueError, match="n_runs must be >= 1"):
            pulse_ensemble(1.0, OMEGA_T, N_STEPS, 0, seed=3)

    @pytest.mark.parametrize("omega_t,n_steps,n_runs", [
        (OMEGA_T, N_STEPS, 1), (OMEGA_T, N_STEPS, 257), (2.0 * np.pi * 1.25, 125, 600),
        (DEFAULT_OMEGA_T, 65_000, 64)])
    def test_matches_fresh_array_reference_bitwise(self, omega_t, n_steps, n_runs):
        # pins the seeding, the draw order and the 256-run chunks
        got = pulse_ensemble(1.3, omega_t, n_steps, n_runs, seed=23)
        want = mapped_ensemble(1.3, omega_t, n_steps, n_runs, 23)
        assert got.tobytes() == want.tobytes()

    @given(kappa=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
           cycles=st.one_of(st.integers(1, 5), st.floats(0.001, 5.0)),
           extra_steps=st.integers(0, 50),
           n_runs=st.one_of(st.integers(1, 800), st.sampled_from([255, 256, 257, 512, 513])),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_follows_the_hand_algebra(self, kappa, cycles, extra_steps, n_runs, seed):
        # reference_ensemble states the map term by term; the product sums the
        # same terms in another order, so rows agree to a few roundings of the
        # terms, which are of the size of the row's standard deviation or of
        # the row itself (at most 1.14 of the unit below over 300 random cases)
        omega_t = 2.0 * np.pi * cycles
        n_steps = math.ceil(100 * cycles) + extra_steps  # 1 step at 0.01 cycles or fewer
        got = pulse_ensemble(kappa, omega_t, n_steps, n_runs, seed)
        want = reference_ensemble(kappa, omega_t, n_steps, n_runs, seed, gram_law_projections)
        sd = np.sqrt(np.diag(pulse_covariance(kappa, omega_t, n_steps)))
        bound = 8.0 * np.finfo(float).eps * (1.0 + kappa) * (np.abs(want) + sd)
        assert np.all(np.abs(got - want) <= bound), np.max(np.abs(got - want) / bound)


class TestTraceDump:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        trace, _ = simulate_pulse(1.0, OMEGA_T, N_STEPS, (0.1, 0.2, 0.3, 0.4), rng)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "step,t_ms,sy_sample,jy_sum,jz_sum,jy_diff,jz_diff"
        assert len(lines) == N_STEPS + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[2]) == trace.sy_samples[0]  # 17 digits: exact

    def test_bytes_match_per_value_format(self, tmp_path):
        """The trace at the command's grid, with an integer and two all-zero columns."""
        n_steps = 65_000
        trace, _ = simulate_pulse(1.0, DEFAULT_OMEGA_T, n_steps, (0.0, 0.0, 0.0, 0.0),
                                  np.random.default_rng(26))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        steps = np.arange(n_steps)
        header = ("step", "t_ms", "sy_sample", "jy_sum", "jz_sum", "jy_diff", "jz_diff")
        columns = (steps, (steps + 0.5) * (PULSE_MS / n_steps), trace.sy_samples,
                   *trace.spin_sums.T, *trace.spin_diffs.T)
        assert sum(not col.any() for col in columns) == 2
        assert path.read_bytes() == reference_csv(header, columns)
