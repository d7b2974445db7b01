"""Teleportation, entanglement swapping, quantum memory vs the linear oracle."""

import numpy as np
import pytest

from linear_oracle import (
    memory_mean_fidelity,
    swap_duan_sum,
    teleport_conditional_var,
    teleport_mean_fidelity,
)
from test_gaussian import PresetRng

from spinlight.gaussian import (
    add_vacuum_modes,
    apply_qnd,
    coherent_fidelity,
    displace,
    duan_sum,
    measure_x,
    rotate,
    two_mode_squeeze,
    vacuum_state,
)
from spinlight.protocols import (
    entangling_pulse,
    entanglement_swap,
    quantum_memory,
    teleport_spin_state,
)


class TestTeleport:
    def test_trivial_vacuum_case(self):
        result = teleport_spin_state((0.0, 0.0), 0.0, gain=0.0, n_runs=5, seed=1)
        assert result.mean_fidelity == pytest.approx(1.0, abs=1e-12)
        assert result.mean_displacement_error == (0.0, 0.0)

    def test_strong_coupling_regime(self):
        result = teleport_spin_state((0.4, -0.2), 100.0, gain=1.0, n_runs=500, seed=2)
        assert result.mean_fidelity >= 0.95
        assert result.mean_fidelity == pytest.approx(teleport_mean_fidelity(100.0),
                                                     abs=0.005)

    def test_kappa2_one_matches_oracle(self):
        oracle = teleport_mean_fidelity(1.0)
        assert oracle == pytest.approx(1.0 / 3.0, rel=1e-12)
        result = teleport_spin_state((2.0, -1.5), 1.0, gain=1.0, n_runs=20_000, seed=4)
        assert result.mean_fidelity == pytest.approx(oracle, abs=0.01)
        # beats handing over vacuum (for an input displaced well beyond vacuum)
        baseline = np.exp(-0.5 * (2.0**2 + 1.5**2))
        assert baseline < result.mean_fidelity < 1.0

    def test_fidelity_monotone_in_coupling(self):
        means = [teleport_spin_state((0.5, 0.5), k2, gain=1.0, n_runs=800,
                                     seed=5).mean_fidelity
                 for k2 in (0.25, 1.0, 4.0, 16.0, 100.0)]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_displacement_changes_mean_only(self):
        small = teleport_spin_state((0.0, 0.0), 1.0, gain=1.0, n_runs=200, seed=6)
        large = teleport_spin_state((1.3, -0.7), 1.0, gain=1.0, n_runs=200, seed=6)
        # unit mean transfer at unity gain: identical fidelities and residuals
        assert large.mean_fidelity == pytest.approx(small.mean_fidelity, abs=1e-10)
        assert np.allclose(large.mean_displacement_error,
                           small.mean_displacement_error, atol=1e-10)

    def test_mean_transfer_unbiased(self):
        result = teleport_spin_state((2.0, 1.0), 4.0, gain=1.0, n_runs=5000, seed=7)
        assert result.mean_displacement_error[0] == pytest.approx(0.0, abs=0.05)
        assert result.mean_displacement_error[1] == pytest.approx(0.0, abs=0.05)

    @pytest.mark.parametrize("kappa2,gain", [(0.25, 1.0), (1.0, 1.0), (4.0, 1.0),
                                             (1.0, 0.7), (100.0, 1.0)])
    def test_output_covariance_matches_oracle_exactly(self, kappa2, gain):
        kappa = np.sqrt(kappa2)
        rng = np.random.default_rng(21)
        state = vacuum_state(3, ["cell1", "cell2", "cell3"])
        state = displace(state, "cell3", 0.4, -0.9)
        a1, b1, state = entangling_pulse(state, "cell1", "cell2", kappa, rng)
        a2, b2, state = entangling_pulse(state, "cell1", "cell3", kappa, rng)
        coeff = gain * np.sqrt(2.0) / kappa
        state = displace(state, "cell2", coeff * (b2 - b1), coeff * (a1 - a2))
        want = teleport_conditional_var(kappa, gain)
        assert np.allclose(state.mode_cov("cell2"), want * np.eye(2), atol=1e-10)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            teleport_spin_state((0, 0), -1.0)
        with pytest.raises(ValueError):
            teleport_spin_state((0, 0), 1.0, gain=-0.5)

    def test_zero_runs_refused(self):
        # the mean of no runs was nan, with numpy's "Mean of empty slice" warning
        with pytest.raises(ValueError, match="n_runs must be >= 1"):
            teleport_spin_state((0, 0), 1.0, n_runs=0)

    @pytest.mark.parametrize("seed", [1, 141])
    def test_mean_error_that_overflows_refused(self, seed):
        # each run's error is finite; their sum overflowed to inf (seed 1), or to
        # inf - inf = nan (seed 141), with a numpy RuntimeWarning
        with pytest.raises(ValueError, match="the mean displacement error is not finite"):
            teleport_spin_state((0, 0), 100.0, gain=1e307, n_runs=10, seed=seed)


class TestSwap:
    def test_negative_coupling_refused(self):
        with pytest.raises(ValueError, match="kappa2 must be >= 0"):
            entanglement_swap(-1.0)

    def test_zero_runs_refused(self):
        with pytest.raises(ValueError, match="n_runs must be >= 1"):
            entanglement_swap(1.0, n_runs=0)

    def test_no_coupling_is_separable_boundary(self):
        result = entanglement_swap(0.0, n_runs=3, seed=1)
        assert result.duan_sum_out == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kappa2", [0.25, 1.0, 2.0, 4.0, 16.0, 100.0])
    def test_matches_covariance_oracle(self, kappa2):
        result = entanglement_swap(kappa2, n_runs=3, seed=2)
        assert result.duan_sum_out == pytest.approx(swap_duan_sum(np.sqrt(kappa2)),
                                                    abs=1e-9)

    def test_strong_coupling_entangles_distant_cells(self):
        result = entanglement_swap(100.0, n_runs=3, seed=3)
        assert result.duan_sum_out < 1.0

    def test_kappa2_one_sits_exactly_on_boundary(self):
        # closed form (3k^4+4k^2+2)/(k^6+2k^4+4k^2+2) equals 1 at k = 1: the
        # swap needs kappa^2 > 1 to certify entanglement
        assert swap_duan_sum(1.0) == pytest.approx(1.0, rel=1e-12)
        result = entanglement_swap(1.0, n_runs=3, seed=4)
        assert result.duan_sum_out == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("kappa2", [0.25, 1.0, 4.0, 100.0])
    def test_never_better_than_direct_entanglement(self, kappa2):
        direct = 1.0 / (1.0 + kappa2)
        result = entanglement_swap(kappa2, n_runs=3, seed=5)
        assert result.duan_sum_out >= direct - 1e-12

    def test_feedback_keeps_pair_mean_small(self):
        # correct displacement signs leave only O(1/kappa) residuals in the
        # certified pair combinations
        result = entanglement_swap(100.0, n_runs=200, seed=6)
        assert abs(result.mean_displacement_error[0]) < 0.05
        assert abs(result.mean_displacement_error[1]) < 0.05

    def test_secret_shift_recovered_by_bob(self):
        # composing displace with the swap: a shift Alice applies to cell 3
        # before her pulse reappears, same magnitude, in Bob's pair mean
        def bob_pair_mean(shift_p, seed=7):
            kappa = 3.0
            coeff = np.sqrt(2.0) / kappa
            rng = np.random.default_rng(seed)
            state = vacuum_state(4, ["cell1", "cell2", "cell3", "cell4"])
            a1, b1, state = entangling_pulse(state, "cell1", "cell2", kappa, rng)
            a1p, b1p, state = entangling_pulse(state, "cell4", "cell3", kappa, rng)
            state = displace(state, "cell3", 0.0, shift_p)
            a2, b2, state = entangling_pulse(state, "cell1", "cell3", kappa, rng)
            state = displace(state, "cell2", coeff * (b2 - b1 - b1p),
                             -coeff * (a2 - a1 - a1p))
            (_, p2), (_, p4) = state.mode_mean("cell2"), state.mode_mean("cell4")
            return (p4 - p2) / np.sqrt(2.0)

        delta = 1.25
        diff = bob_pair_mean(delta) - bob_pair_mean(0.0)
        assert abs(abs(diff) - delta / np.sqrt(2.0)) < 1e-10


class TestMemory:
    def test_ideal_resource_limit(self):
        result = quantum_memory((0.8, -0.5), 12.0, 1.0e6, n_runs=50, seed=1)
        assert result.mean_fidelity >= 0.999
        assert abs(result.mean_displacement_error[0]) < 1e-4
        assert abs(result.mean_displacement_error[1]) < 1e-4

    def test_unsqueezed_resource_matches_oracle(self):
        oracle = memory_mean_fidelity(0.0, 100.0)
        assert oracle == pytest.approx(0.499376169439, abs=1e-9)
        result = quantum_memory((0.3, 0.9), 0.0, 100.0, n_runs=4000, seed=2)
        assert result.mean_fidelity == pytest.approx(oracle, abs=0.01)

    def test_atomic_variables_cancel_exactly(self):
        # displacing the resource pair in the combinations the feedback taps
        # (common-mode p, antisymmetric x) must not move the stored mean at all
        def stored_mean(extra_dx, extra_dp, seed=3):
            rng = np.random.default_rng(seed)
            state = vacuum_state(3, ["light", "mem1", "mem2"])
            state = displace(state, "light", 0.45, -0.15)
            state = two_mode_squeeze(state, "mem1", "mem2", 1.0)
            state = displace(state, "mem1", extra_dx, extra_dp)
            state = displace(state, "mem2", -extra_dx, extra_dp)
            state = apply_qnd(state, "mem1", "light", 1.0)
            m1, state = measure_x(state, "light", rng)
            state = displace(state, "mem2", 0.0, -m1)
            state = rotate(state, "mem1", np.pi / 2.0)
            state = add_vacuum_modes(state, ["readout"])
            state = apply_qnd(state, "mem1", "readout", 10.0)
            m2, state = measure_x(state, "readout", rng)
            state = displace(state, "mem2", -m2 / 10.0, 0.0)
            state = rotate(state, "mem2", -np.pi / 2.0)
            return np.array(state.mode_mean("mem2"))

        clean = stored_mean(0.0, 0.0)
        shifted = stored_mean(1.7, -2.3)
        assert np.allclose(clean, shifted, atol=1e-10)

    def test_mean_transfer_is_exactly_linear(self):
        # same seed, different inputs: the residual error is input-independent,
        # so the stored mean moves one-for-one with the input mean at any r
        a = quantum_memory((0.0, 0.0), 0.5, 25.0, n_runs=150, seed=4)
        b = quantum_memory((2.0, -1.5), 0.5, 25.0, n_runs=150, seed=4)
        assert np.allclose(a.mean_displacement_error, b.mean_displacement_error,
                           atol=1e-10)

    def test_excess_noise_shrinks_with_squeezing(self):
        low = quantum_memory((0.0, 0.0), 0.0, 400.0, n_runs=800, seed=5)
        high = quantum_memory((0.0, 0.0), 2.0, 400.0, n_runs=800, seed=5)
        assert high.mean_fidelity > low.mean_fidelity

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            quantum_memory((0, 0), -1.0, 100.0)
        with pytest.raises(ValueError):
            quantum_memory((0, 0), 1.0, -4.0)

    def test_zero_runs_refused(self):
        with pytest.raises(ValueError, match="n_runs must be >= 1"):
            quantum_memory((0, 0), 1.0, 4.0, n_runs=0)


class TestPulsePrimitive:
    def test_pair_pulse_reproduces_collective_qnd(self):
        # the per-cell pulse must give the same conditioned pair variances as
        # the collective-mode engine route: duan-type sum = 1/(1+kappa^2)
        kappa = 1.3
        rng = np.random.default_rng(8)
        state = vacuum_state(2, ["plus", "minus"])
        _, _, state = entangling_pulse(state, "plus", "minus", kappa, rng)
        cov = state.cov
        var_p = 0.5 * (cov[1, 1] + cov[3, 3] - 2 * cov[1, 3])
        var_x = 0.5 * (cov[0, 0] + cov[2, 2] + 2 * cov[0, 2])
        assert var_p + var_x == pytest.approx(1.0 / (1.0 + kappa**2), abs=1e-12)

    def test_pulse_outcome_statistics(self):
        kappa = 1.0
        rng = np.random.default_rng(9)
        outcomes = []
        for _ in range(4000):
            state = vacuum_state(2, ["plus", "minus"])
            a, b, _ = entangling_pulse(state, "plus", "minus", kappa, rng)
            outcomes.append((a, b))
        outcomes = np.array(outcomes)
        assert np.var(outcomes[:, 0], ddof=1) == pytest.approx(1.0, rel=0.06)
        assert np.var(outcomes[:, 1], ddof=1) == pytest.approx(1.0, rel=0.06)

    def test_record_runs_round_trip(self):
        result = teleport_spin_state((0.1, 0.2), 1.0, n_runs=7, seed=10)
        assert [v.shape for v in result.runs.values()] == [(7,)] * 7
        assert tuple(result.runs)[:4] == ("a1", "b1", "a2", "b2")
        assert result.runs["fidelity"].mean() == pytest.approx(result.mean_fidelity)


class TestEprResource:
    def test_two_mode_squeezed_pair_beats_duan_bound_in_pair_combos(self):
        state = two_mode_squeeze(vacuum_state(2), 0, 1, 1.5)
        cov = state.cov
        var_p = 0.5 * (cov[1, 1] + cov[3, 3] - 2 * cov[1, 3])
        var_x = 0.5 * (cov[0, 0] + cov[2, 2] + 2 * cov[0, 2])
        assert var_p + var_x == pytest.approx(np.exp(-3.0), rel=1e-10)
        # individual modes are thermal: duan on raw P variances grows
        assert duan_sum(state, 0, 1) == pytest.approx(np.cosh(3.0), rel=1e-10)


class TestBatchedEnsemble:
    def test_single_run_replays_the_unbatched_engine(self):
        # n_runs = 1 draws from default_rng(seed) in the order an unbatched
        # run of the same steps does, one scalar per measurement
        rng = np.random.default_rng(31)
        state = vacuum_state(3, ["cell1", "cell2", "cell3"])
        state = displace(state, "cell3", 0.3, -0.2)
        a1, b1, state = entangling_pulse(state, "cell1", "cell2", 2.0, rng)
        a2, b2, state = entangling_pulse(state, "cell1", "cell3", 2.0, rng)
        result = teleport_spin_state((0.3, -0.2), 4.0, n_runs=1, seed=31)
        recorded = [result.runs[name][0] for name in ("a1", "b1", "a2", "b2")]
        assert np.array(recorded).tobytes() == np.array([a1, b1, a2, b2]).tobytes()

    def test_each_run_matches_an_unbatched_run_with_its_outcomes(self):
        result = teleport_spin_state((0.6, -0.3), 2.0, gain=0.8, n_runs=6, seed=33)
        coeff = 0.8 * np.sqrt(2.0) / np.sqrt(2.0)
        names = ("a1", "b1", "a2", "b2", "disp_x", "disp_p", "fidelity")
        for a1, b1, a2, b2, disp_x, disp_p, fid in zip(*(result.runs[n] for n in names)):
            rng = PresetRng([a1, b1, a2, b2])
            state = vacuum_state(3, ["cell1", "cell2", "cell3"])
            state = displace(state, "cell3", 0.6, -0.3)
            _, _, state = entangling_pulse(state, "cell1", "cell2", np.sqrt(2.0), rng)
            _, _, state = entangling_pulse(state, "cell1", "cell3", np.sqrt(2.0), rng)
            assert (disp_x, disp_p) == (coeff * (b2 - b1), coeff * (a1 - a2))
            state = displace(state, "cell2", disp_x, disp_p)
            assert fid == pytest.approx(coherent_fidelity(state, "cell2", 0.6, -0.3),
                                        rel=0.0, abs=1e-12)

    def test_runs_are_independent_draws(self):
        result = entanglement_swap(4.0, n_runs=4000, seed=32)
        names = ("a1", "b1", "a1_prime", "b1_prime", "a2", "b2")
        outcomes = np.column_stack([result.runs[name] for name in names])
        corr = np.corrcoef(outcomes[:-1, 0], outcomes[1:, 0])[0, 1]
        assert abs(corr) < 5.0 / np.sqrt(4000)
        assert len(np.unique(outcomes[:, 0])) == 4000
