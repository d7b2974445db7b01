"""Gaussian engine: state preparation, QND coupling, homodyne conditioning."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linear_oracle import conditioned_atom_cov, qnd_output_cov, symplectic_eigenvalues

from spinlight.gaussian import (
    VACUUM_VAR,
    GaussianState,
    InvariantViolation,
    add_vacuum_modes,
    apply_beta_decay,
    apply_qnd,
    apply_symplectic,
    coherent_fidelity,
    displace,
    duan_sum,
    measure_x,
    rotate,
    symplectic_form,
    two_mode_squeeze,
    vacuum_state,
    validate,
)

KAPPA_GRID = [0.1, 0.5, 1.0, 2.0, 10.0]


class TestVacuum:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mean_and_cov(self, n):
        state = vacuum_state(n)
        assert np.array_equal(state.mean, np.zeros(2 * n))
        assert np.array_equal(state.cov, 0.5 * np.eye(2 * n))

    def test_symplectic_spectrum_is_half(self):
        state = vacuum_state(3)
        assert np.allclose(symplectic_eigenvalues(state.cov), 0.5, atol=1e-12)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            vacuum_state(0)

    def test_labels(self):
        state = vacuum_state(2, ["atom", "light"])
        assert state.index("light") == 1
        with pytest.raises(ValueError):
            state.index("missing")
        with pytest.raises(ValueError):
            state.index(5)

    def test_label_count_must_match(self):
        with pytest.raises(ValueError, match="labels length must equal n_modes"):
            vacuum_state(2, ["atom"])

    def test_variance_reads_x_or_p_in_either_case(self):
        state = GaussianState(("m0",), np.zeros(2), np.diag([2.0, 3.0]))
        assert state.variance(0, "x") == state.variance(0, "X") == 2.0
        assert state.variance(0, "p") == state.variance(0, "P") == 3.0
        # any other string read var(P)
        for quadrature in ("y", "", "xp"):
            with pytest.raises(ValueError, match="quadrature must be 'x' or 'p'"):
                state.variance(0, quadrature)


class TestDisplace:
    def test_zero_shift_is_identity(self):
        state = vacuum_state(1)
        shifted = displace(state, 0, 0.0, 0.0)
        assert np.array_equal(shifted.mean, state.mean)
        assert np.array_equal(shifted.cov, state.cov)

    def test_shifts_mean_only(self):
        shifted = displace(vacuum_state(1), 0, 1.0, 0.0)
        assert np.array_equal(shifted.mean, [1.0, 0.0])
        assert np.array_equal(shifted.cov, 0.5 * np.eye(2))

    def test_inverse_restores_state(self):
        state = displace(vacuum_state(2), 1, 0.7, -1.3)
        state = displace(state, 1, -0.7, 1.3)
        assert np.allclose(state.mean, 0.0, atol=1e-15)


class TestQnd:
    def test_kappa_zero_is_identity(self):
        state = vacuum_state(2)
        out = apply_qnd(state, 0, 1, 0.0)
        assert np.array_equal(out.cov, state.cov)

    def test_kappa_one_matches_matrix_oracle(self):
        out = apply_qnd(vacuum_state(2, ["atom", "light"]), "atom", "light", 1.0)
        assert np.allclose(out.cov, qnd_output_cov(1.0), atol=1e-14)
        assert out.variance("light", "x") == pytest.approx(1.0)
        assert out.variance("atom", "x") == pytest.approx(1.0)
        assert out.variance("atom", "p") == pytest.approx(0.5)
        # cov(X_l, P_a)
        assert out.cov[out.x_index("light"), out.p_index("atom")] == pytest.approx(0.5)

    @pytest.mark.parametrize("kappa", KAPPA_GRID)
    def test_minimum_uncertainty_after_measurement(self, kappa):
        state = apply_qnd(vacuum_state(2, ["atom", "light"]), "atom", "light", kappa)
        _, post = measure_x(state, "light", np.random.default_rng(0))
        product = post.variance("atom", "x") * post.variance("atom", "p")
        assert product == pytest.approx(0.25, abs=1e-10)

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError):
            apply_qnd(vacuum_state(2), 1, 1, 1.0)

    @pytest.mark.parametrize("kappa", KAPPA_GRID)
    def test_map_is_symplectic(self, kappa):
        smat = np.eye(4)
        smat[2, 1] = kappa
        smat[0, 3] = kappa
        omega = symplectic_form(2)
        assert np.allclose(smat @ omega @ smat.T, omega, atol=1e-12)

    @given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_symplectic_for_any_kappa(self, kappa):
        out = apply_qnd(vacuum_state(2), 0, 1, kappa)
        # purity: symplectic map keeps the vacuum spectrum at 1/2
        assert np.allclose(symplectic_eigenvalues(out.cov), 0.5,
                           atol=1e-10 * max(1.0, kappa**2))


class TestMeasure:
    def test_uncorrelated_mode_left_in_vacuum(self):
        rng = np.random.default_rng(3)
        _, post = measure_x(vacuum_state(2), 0, rng)
        assert post.n_modes == 1
        assert np.array_equal(post.cov, 0.5 * np.eye(2))
        assert np.array_equal(post.mean, np.zeros(2))

    def test_outcome_variance_matches_marginal(self):
        rng = np.random.default_rng(5)
        n = 20_000
        values = np.array([measure_x(vacuum_state(1), 0, rng)[0]
                           for _ in range(n)])
        sample = np.var(values, ddof=1)
        assert abs(sample - 0.5) <= 5.0 * np.sqrt(2.0 / n) * 0.5

    def test_conditional_atom_variance_kappa_one(self):
        state = apply_qnd(vacuum_state(2, ["atom", "light"]), "atom", "light", 1.0)
        _, post = measure_x(state, "light", np.random.default_rng(1))
        assert post.variance("atom", "p") == pytest.approx(0.25, abs=1e-12)
        # two such pairs: sum = 1/2 = 1/(1 + kappa^2)
        assert 2 * post.variance("atom", "p") == pytest.approx(0.5, abs=1e-12)

    def test_conditional_variance_kappa_two_schur_oracle(self):
        state = apply_qnd(vacuum_state(2, ["atom", "light"]), "atom", "light", 2.0)
        _, post = measure_x(state, "light", np.random.default_rng(1))
        assert post.variance("atom", "p") == pytest.approx(0.1, abs=1e-12)
        assert np.allclose(post.mode_cov("atom"), conditioned_atom_cov(2.0), atol=1e-12)

    def test_conditioning_is_outcome_independent(self):
        state = apply_qnd(vacuum_state(2), 0, 1, 1.3)
        rng = np.random.default_rng(11)
        covs = {measure_x(state, 1, rng)[1].cov.tobytes() for _ in range(1000)}
        assert len(covs) == 1

    @pytest.mark.parametrize("kappa", KAPPA_GRID)
    def test_purity_preserved(self, kappa):
        state = apply_qnd(vacuum_state(2), 0, 1, kappa)
        _, post = measure_x(state, 1, np.random.default_rng(2))
        assert np.allclose(symplectic_eigenvalues(post.cov), 0.5, atol=1e-10)

    def test_non_positive_marginal_refused(self):
        # var(X) var(P) >= 1/4 for every physical state, so no physical X marginal
        # is 0: diag(0, 13) was once measured as a deterministic outcome
        for var_x in (0.0, -1e-15):
            state = GaussianState(("pin",), np.array([0.75, 0.0]), np.diag([var_x, 13.0]))
            with pytest.raises(InvariantViolation, match="marginal variance .* is not > 0"):
                measure_x(state, 0, np.random.default_rng(0))

    def test_conditional_mean_tracks_outcome(self):
        state = apply_qnd(vacuum_state(2, ["atom", "light"]), "atom", "light", 1.0)
        outcome, post = measure_x(state, "light", np.random.default_rng(9))
        # E[P_a | X_l = v] = v * kappa var(P_a) / var(X_l) = v / 2 at kappa = 1
        assert post.mode_mean("atom")[1] == pytest.approx(outcome / 2.0)


class TestBetaDecay:
    def test_beta_one_is_identity(self):
        state = apply_qnd(vacuum_state(2), 0, 1, 1.0)
        out = apply_beta_decay(state, 0, 1.0)
        assert np.allclose(out.cov, state.cov, atol=1e-15)

    def test_beta_zero_resets_to_vacuum(self):
        state = apply_qnd(vacuum_state(2), 0, 1, 1.5)
        out = apply_beta_decay(state, 0, 0.0)
        assert np.allclose(out.mode_cov(0), 0.5 * np.eye(2), atol=1e-15)
        # cross covariances vanish
        assert np.allclose(out.cov[:2, 2:], 0.0, atol=1e-15)

    def test_admixture_rule(self):
        # variance 1/4 decayed with beta = 0.65
        state = apply_qnd(vacuum_state(2, ["atom", "light"]), "atom", "light", 1.0)
        _, post = measure_x(state, "light", np.random.default_rng(1))
        out = apply_beta_decay(post, "atom", 0.65)
        expected = 0.65**2 * 0.25 + (1 - 0.65**2) * 0.5
        assert out.variance("atom", "p") == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.394375)

    @pytest.mark.parametrize("beta", [-0.1, 1.1])
    def test_range_checked(self, beta):
        with pytest.raises(ValueError):
            apply_beta_decay(vacuum_state(1), 0, beta)

    def test_mean_scales(self):
        state = displace(vacuum_state(1), 0, 2.0, -4.0)
        out = apply_beta_decay(state, 0, 0.5)
        assert np.allclose(out.mean, [1.0, -2.0])

    def test_duan_sum_monotone_in_decay(self):
        base = _entangled_pair(1.0)
        sums = [duan_sum(apply_beta_decay(apply_beta_decay(base, "pair_a", b),
                                          "pair_b", b), "pair_a", "pair_b")
                for b in (1.0, 0.9, 0.65, 0.3, 0.0)]
        assert all(s2 >= s1 - 1e-12 for s1, s2 in zip(sums, sums[1:]))

    @given(n=st.integers(1, 4), mode=st.integers(0, 3), runs=st.sampled_from([None, 1, 3]),
           beta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0, exclude_min=True,
                                                        exclude_max=True),
           product=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_equals_row_and_column_scaling(self, n, mode, runs, beta, product, seed):
        # a product state has exact zeros off its 2x2 blocks: there the two may
        # differ in the sign of a zero, which == ignores
        rng = np.random.default_rng(seed)
        batch = () if runs is None else (runs,)
        mean = rng.normal(size=batch + (2 * n,))
        mean[..., rng.integers(2 * n)] = 0.0
        if product:
            cov = np.zeros((2 * n, 2 * n))
            for k in range(n):
                a = rng.normal(size=(2, 2))
                cov[2 * k:2 * k + 2, 2 * k:2 * k + 2] = a @ a.T + VACUUM_VAR * np.eye(2)
        else:
            a = rng.normal(size=(2 * n, 2 * n))
            cov = a @ a.T + VACUUM_VAR * np.eye(2 * n)
        state = GaussianState(tuple(f"m{k}" for k in range(n)), mean, 0.5 * (cov + cov.T))
        mode = mode % n
        out = apply_beta_decay(state, mode, beta)
        want_mean, want_cov = reference_beta_decay(state, mode, beta)
        assert np.array_equal(out.mean, want_mean)
        assert np.array_equal(out.cov, want_cov)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_channel_preserves_physicality(self, beta, kappa):
        # probe + homodyne + decay must never break the uncertainty relation
        state = apply_qnd(vacuum_state(2), 0, 1, kappa)
        _, state = measure_x(state, 1, np.random.default_rng(0))
        state = apply_beta_decay(state, 0, beta)
        validate(state)


def reference_beta_decay(state, mode, beta):
    """apply_beta_decay as rows and columns scaled by hand: the mean and the
    symmetrized covariance, independent of the engine's linear map."""
    i = state.x_index(mode)
    sel = [i, i + 1]
    mean = state.mean.copy()
    cov = state.cov.copy()
    mean[..., sel] *= beta
    cov[sel, :] *= beta
    cov[:, sel] *= beta
    # the block got beta^2; add the vacuum admixture
    cov[np.ix_(sel, sel)] += (1.0 - beta**2) * VACUUM_VAR * np.eye(2)
    return mean, 0.5 * (cov + cov.T)


def _entangled_pair(kappa: float) -> "GaussianState":
    state = vacuum_state(2, ["pair_a", "pair_b"])
    rng = np.random.default_rng(0)
    for mode in ("pair_a", "pair_b"):
        state = add_vacuum_modes(state, ["probe"])
        state = apply_qnd(state, mode, "probe", kappa)
        _, state = measure_x(state, "probe", rng)
    return state


class TestDuanSum:
    def test_vacuum_boundary(self):
        assert duan_sum(vacuum_state(2), 0, 1) == pytest.approx(1.0)

    def test_ideal_entangling_pulse(self):
        assert duan_sum(_entangled_pair(1.0), "pair_a", "pair_b") == pytest.approx(0.5, abs=1e-12)

    def test_paper_headline_point(self):
        state = _entangled_pair(np.sqrt(1.449))
        state = apply_beta_decay(state, "pair_a", 0.65)
        state = apply_beta_decay(state, "pair_b", 0.65)
        expected = (1 + (1 - 0.65**2) * 1.449) / (1 + 1.449)
        assert duan_sum(state, "pair_a", "pair_b") == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.75, abs=2e-5)

    def test_distinct_modes_required(self):
        with pytest.raises(ValueError):
            duan_sum(vacuum_state(2), 1, 1)


class TestHelpers:
    def test_two_mode_squeeze_duan(self):
        state = two_mode_squeeze(vacuum_state(2), 0, 1, 0.8)
        assert duan_sum(state, 0, 1) > 1.0  # individual P variances grow
        # but the pair combinations squeeze: var(p0 - p1) = e^(-2r)
        cov = state.cov
        var_diff = cov[1, 1] + cov[3, 3] - 2 * cov[1, 3]
        assert var_diff == pytest.approx(np.exp(-1.6), rel=1e-12)

    def test_rotation_exchanges_quadratures(self):
        state = displace(vacuum_state(1), 0, 1.0, 2.0)
        out = rotate(state, 0, np.pi / 2)
        assert np.allclose(out.mean, [2.0, -1.0])

    def test_apply_symplectic_refuses_a_matrix_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match="shape does not match mode count"):
            apply_symplectic(vacuum_state(2), np.eye(2), [0, 1])

    def test_apply_symplectic_rejects_non_symplectic(self):
        with pytest.raises(ValueError):
            apply_symplectic(vacuum_state(1), 2.0 * np.eye(2), [0])

    def test_coherent_fidelity_bounds(self):
        assert coherent_fidelity(vacuum_state(1), 0, 0.0, 0.0) == pytest.approx(1.0)
        displaced = displace(vacuum_state(1), 0, 1.0, 0.0)
        fid = coherent_fidelity(displaced, 0, 0.0, 0.0)
        assert fid == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_coherent_fidelity_refuses_sub_vacuum_noise(self):
        # det(Sigma + I/2) = 0.36 gave F = 1/0.6 = 1.67
        bad = GaussianState(("m0",), np.zeros(2), 0.1 * np.eye(2))
        with pytest.raises(InvariantViolation, match="unphysical reduced covariance"):
            coherent_fidelity(bad, 0, 0.0, 0.0)
        # a vacuum a round-off below 1/2 still passes, at F = 1
        near = GaussianState(("m0",), np.zeros(2), (0.5 - 1e-15) * np.eye(2))
        assert coherent_fidelity(near, 0, 0.0, 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("size", [1e160, np.inf])
    def test_apply_symplectic_refuses_matrices_it_cannot_check(self, size):
        # diag(s, 1/s) is symplectic, but S Omega S^T overflows; 1e160 raised
        # OverflowError and inf printed numpy warnings
        smat = np.diag([size, 1.0 / size])
        with pytest.raises(ValueError, match="overflow the symplectic check"):
            apply_symplectic(vacuum_state(1), smat, [0])

    def test_validate_flags_unphysical_state(self):
        bad = GaussianState(("m0",), np.zeros(2), 0.1 * np.eye(2))
        with pytest.raises(InvariantViolation):
            validate(bad)
        validate(vacuum_state(3))

    def test_validate_refuses_an_asymmetric_covariance(self):
        cov = 0.5 * np.eye(4)
        cov[0, 2] = 1e-3
        with pytest.raises(InvariantViolation, match="covariance asymmetry"):
            validate(GaussianState(("m0", "m1"), np.zeros(4), cov))

    @pytest.mark.parametrize("r", [4.0, 6.0, 10.0, 12.0])
    def test_validate_passes_deep_two_mode_squeezing(self, r):
        # the nonsymmetric spectrum of i Omega sigma read nu = 0.49999999971 at
        # r = 4 and 0.0 at r = 10, and refused these pure states
        validate(two_mode_squeeze(vacuum_state(2), 0, 1, r))

    @given(st.floats(0.0, 40.0), st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi),
           st.sampled_from([None, 0, 1]), st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_validate_passes_squeezed_rotated_and_coupled_states(self, r, phi0, phi1,
                                                                 coupled, kappa):
        # lowest eigenvalue / (eps 2n max|sigma|) stayed above -0.81 in 3000 draws
        state = two_mode_squeeze(vacuum_state(3), 0, 1, r)
        state = rotate(rotate(state, 0, phi0), 1, phi1)
        if coupled is not None:
            state = apply_qnd(state, coupled, 2, kappa)
        validate(state)

    @given(st.floats(1e-12, 0.5))
    @example(1e-12)  # lowest eigenvalue / (eps 2n max|sigma|) reads -1126; the bound is -4
    @settings(max_examples=100, deadline=None)
    def test_validate_refuses_a_shrunk_vacuum(self, delta):
        shrunk = GaussianState(("m0", "m1"), np.zeros(4), 0.5 * (1 - delta) * np.eye(4))
        with pytest.raises(InvariantViolation, match="eigenvalue"):
            validate(shrunk)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_validate_refuses_a_non_finite_covariance(self, entry):
        # eigvalsh does not check for NaN or inf, and a NaN fails every comparison
        cov = 0.5 * np.eye(4)
        cov[1, 1] = entry
        with pytest.raises(InvariantViolation, match="not finite"):
            validate(GaussianState(("m0", "m1"), np.zeros(4), cov))

    def test_add_vacuum_modes_keeps_block(self):
        state = apply_qnd(vacuum_state(2), 0, 1, 1.0)
        grown = add_vacuum_modes(state, ["extra"])
        assert grown.n_modes == 3
        assert np.array_equal(grown.cov[:4, :4], state.cov)
        assert np.array_equal(grown.cov[4:, 4:], 0.5 * np.eye(2))

    def test_add_no_vacuum_modes_returns_an_equal_state(self):
        state = apply_qnd(vacuum_state(2, batch=(3,)), 0, 1, 1.0)
        same = add_vacuum_modes(state, [])
        assert same.labels == state.labels
        assert same.mean.tobytes() == state.mean.tobytes()
        assert same.cov.tobytes() == state.cov.tobytes()


class PresetRng:
    """Stands in for a Generator: normal(loc, scale) returns preset outcomes."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def normal(self, loc, scale):
        value = self.outcomes.pop(0)
        assert np.shape(value) == np.shape(loc)
        return value


def _probe_sequence(state, kappa, r, beta, shift, rng):
    """Squeeze, probe, homodyne, decay, re-probe: every op on the batch path."""
    state = displace(state, "a", shift, -0.5 * shift)
    state = two_mode_squeeze(state, "a", "b", r)
    state = add_vacuum_modes(state, ["probe"])
    state = apply_qnd(state, "a", "probe", kappa)
    first, state = measure_x(state, "probe", rng)
    state = apply_beta_decay(state, "a", beta)
    state = rotate(state, "b", 0.3)
    state = displace(state, "b", first, 0.0)
    state = add_vacuum_modes(state, ["probe"])
    state = apply_qnd(state, "b", "probe", kappa)
    second, state = measure_x(state, "probe", rng)
    return (first, second), state


CASE = dict(kappa=st.floats(0.0, 5.0), r=st.floats(0.0, 1.5), beta=st.floats(0.0, 1.0),
            seed=st.integers(0, 2**32 - 1))


class TestBatch:
    @given(runs=st.integers(1, 6), **CASE)
    @settings(max_examples=40, deadline=None)
    def test_covariance_bitwise_equal_to_unbatched(self, kappa, r, beta, runs, seed):
        shifts = np.random.default_rng(seed).normal(size=runs)
        _, batched = _probe_sequence(vacuum_state(2, ["a", "b"], batch=(runs,)),
                                     kappa, r, beta, shifts, np.random.default_rng(seed))
        _, single = _probe_sequence(vacuum_state(2, ["a", "b"]), kappa, r, beta,
                                    shifts[0], np.random.default_rng(seed))
        assert batched.mean.shape == (runs, 4)
        assert batched.cov.tobytes() == single.cov.tobytes()

    @given(runs=st.integers(1, 6), **CASE)
    @settings(max_examples=40, deadline=None)
    def test_each_row_matches_unbatched_run_with_its_outcomes(self, kappa, r, beta, runs, seed):
        draws = np.random.default_rng(seed).normal(scale=2.0, size=(3, runs))
        shifts, outcomes = draws[0], list(draws[1:])
        _, batched = _probe_sequence(vacuum_state(2, ["a", "b"], batch=(runs,)),
                                     kappa, r, beta, shifts, PresetRng(outcomes))
        fid = coherent_fidelity(batched, "b", 0.2, -0.1)
        bx, bp = batched.mode_mean("b")
        assert fid.shape == bx.shape == bp.shape == (runs,)
        for row in range(runs):
            _, single = _probe_sequence(vacuum_state(2, ["a", "b"]), kappa, r, beta,
                                        shifts[row], PresetRng([o[row] for o in outcomes]))
            assert np.allclose(batched.mean[row], single.mean, rtol=0.0, atol=1e-12)
            assert fid[row] == pytest.approx(coherent_fidelity(single, "b", 0.2, -0.1),
                                             rel=0.0, abs=1e-12)

    @given(**CASE)
    @settings(max_examples=40, deadline=None)
    def test_single_row_batch_reproduces_scalar_stream(self, kappa, r, beta, seed):
        batch_out, batched = _probe_sequence(vacuum_state(2, ["a", "b"], batch=(1,)),
                                             kappa, r, beta, 0.7, np.random.default_rng(seed))
        scalar_out, single = _probe_sequence(vacuum_state(2, ["a", "b"]), kappa, r, beta,
                                             0.7, np.random.default_rng(seed))
        assert all(isinstance(v, float) for v in scalar_out)
        assert [v.shape for v in batch_out] == [(1,), (1,)]
        assert np.array([v[0] for v in batch_out]).tobytes() == np.array(scalar_out).tobytes()
        assert batched.mean[0].tobytes() == single.mean.tobytes()

    def test_rows_draw_in_order_from_one_call(self):
        state = apply_qnd(vacuum_state(2, batch=(5,)), 0, 1, 1.0)
        outcome, _ = measure_x(state, 1, np.random.default_rng(3))
        want = np.random.default_rng(3).normal(0.0, np.sqrt(state.variance(1, "x")), size=5)
        assert outcome.tobytes() == want.tobytes()

    def test_array_shift_broadcasts_over_batch(self):
        state = displace(vacuum_state(2), 1, np.array([1.0, 2.0, 3.0]), 0.5)
        assert state.mean.shape == (3, 4)
        assert np.array_equal(state.mean[:, 2], [1.0, 2.0, 3.0])
        assert np.array_equal(state.mean[:, 3], [0.5, 0.5, 0.5])
        assert np.array_equal(state.cov, 0.5 * np.eye(4))
