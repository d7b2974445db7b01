"""Measurement-cycle Monte Carlo, statistics, verdicts, density sweep."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spinlight.experiment
from spinlight.cli import main
from spinlight.experiment import (
    CYCLE_CHUNK,
    _stats,
    cross_engine_rows,
    density_sweep,
    duan_spin_check,
    engine_conditioned_duan,
    stream_cycle_stats,
    summary_text,
    theory_curves,
    write_sweep_csv,
)
from spinlight.gaussian import apply_beta_decay, apply_qnd, vacuum_state
from spinlight.output import CSV_BLOCK_ROWS, write_csv
from spinlight.physics import kappa2_experimental

from linear_oracle import conditional_variance, cycle_stat_laws

N = 100_000


def cycles(kappa2, beta, n, seed):
    """The (n, 4) rows (a1, b1, a2, b2) that stream_cycle_stats writes with
    `out`: the blocks of experiment._cycle_rows for _gram_draw's W, stacked."""
    gram = spinlight.experiment._gram_draw(kappa2, beta, n, seed)
    return np.concatenate([np.column_stack(block[1:]) for block in
                           spinlight.experiment._cycle_rows(gram, n, seed)])


def miscalibrated_stats(n):
    """_stats at kappa2 = 1 of an exact pooled Gram matrix whose first-pulse
    variance is 2.18, not 1 + kappa2 = 2: far outside 5 standard errors, yet
    cond_var = 1.72 < 2."""
    h, g = 1.09, 0.5
    return _stats((n - 1) * np.array([[2 * h, 2 * g], [2 * g, 2 * h]]), n, 1.0, 1.0)


def reference_cycles(kappa2, beta, n, seed):
    """(W, rows): the pooled Gram matrix and the (n, 4) rows (a1, b1, a2, b2)
    of run, restated from the draw's definition with numpy alone, in the
    arithmetic the package must reproduce bit for bit.

    W = L A A^T L^T is Wishart(S, 2n) by Bartlett (stream (0,)).  Chunk j's
    Bartlett factor A_j of Wishart(I, 2 count) comes from stream (2,), all
    chunks' diagonals first; its cycles' standard normals, a (4, count) block
    X_j, from stream (1, j).  A pair of columns is whitened by the upper
    Cholesky factor R of its Gram matrix, twice; the stacked A_j^T, whitened
    and mapped by R_W, give A_j^T M, and each chunk's pairs (x, x') of both
    channels, whitened and mapped by A_j^T M, give its (a1, a2)."""
    def stream(*key):
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))

    def upper_root(g00, g01, g11):  # R with R^T R = G, as (r00, r01, r11)
        return np.sqrt(g00), g01 / np.sqrt(g00), np.sqrt(g11 - g01 * (g01 / g00))

    def whiten(first, second, u=(1.0, 0.0, 1.0)):  # the columns times R^-1 U
        r = upper_root(np.sum(first * first), np.sum(first * second), np.sum(second * second))
        t00, t01, t11 = u[0] / r[0], (u[1] - r[1] * (u[2] / r[2])) / r[0], u[2] / r[2]
        return t00 * first, t01 * first + t11 * second

    rng = stream(0)
    h, g = (1.0 + kappa2) / 2.0, kappa2 * beta / 2.0
    low = np.array([[np.sqrt(h), 0.0], [g / np.sqrt(h), np.sqrt(h - g * (g / h))]])
    bartlett = np.diag(np.sqrt(rng.chisquare(2.0 * n - np.arange(2))))
    bartlett[1, 0] = rng.standard_normal()
    half = low @ bartlett
    gram = half @ half.T

    starts = range(0, n, CYCLE_CHUNK)
    counts = np.array([min(CYCLE_CHUNK, n - start) for start in starts], dtype=float)
    m = len(counts)
    rng = stream(2)
    chi = np.sqrt(rng.chisquare(np.concatenate([2.0 * counts, 2.0 * counts - 1.0])))
    first = np.concatenate([chi[:m], np.zeros(m)])  # A_j^T's first column, then its zero
    second = np.concatenate([rng.standard_normal(m), chi[m:]])
    first, second = whiten(first, second)
    first, second = whiten(first, second, upper_root(gram[0, 0], gram[0, 1], gram[1, 1]))
    rows = []
    for j, count in enumerate(counts.astype(int)):
        x = stream(1, j).standard_normal((4, count))
        pairs = whiten(x[:2].ravel(), x[2:].ravel())  # x and x' of channel a, then of b
        pairs = whiten(*pairs, (first[j], second[j], second[m + j]))
        cycle = np.empty((count, 4))
        cycle[:, 0:2] = pairs[0].reshape(2, -1).T
        cycle[:, 2:4] = pairs[1].reshape(2, -1).T
        rows.append(cycle)
    return gram, np.concatenate(rows)


class TestRunCycles:
    def test_no_interaction_decorrelates_pulses(self):
        rows = cycles(0.0, 1.0, 20_000, seed=1)
        corr = np.corrcoef(rows[:, 0], rows[:, 2])[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(len(rows))

    def test_projection_noise_level(self):
        stats = stream_cycle_stats(1.0, 1.0, N, seed=2)
        assert stats.var1 == pytest.approx(2.0, rel=0.02)

    def test_full_decay_makes_first_pulse_useless(self):
        stats = stream_cycle_stats(1.0, 0.0, N, seed=3)
        assert stats.alpha_star == pytest.approx(0.0, abs=0.02)
        assert stats.cond_var == pytest.approx(2.0, rel=0.02)

    def test_seeded_determinism(self):
        assert np.array_equal(cycles(0.7, 0.9, 5000, seed=5), cycles(0.7, 0.9, 5000, seed=5))

    @given(n=st.sampled_from([1, 2, CYCLE_CHUNK - 1, CYCLE_CHUNK, CYCLE_CHUNK + 1,
                              2 * CYCLE_CHUNK, 2 * CYCLE_CHUNK + 1]),
           kappa2=st.sampled_from([0.0, 1e-300, 1.0, 1e8]), beta=st.sampled_from([0.0, 0.65, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_kernel_matches_reference_bitwise(self, n, kappa2, beta, seed):
        want_gram, want_rows = reference_cycles(kappa2, beta, n, seed)
        assert cycles(kappa2, beta, n, seed).tobytes() == want_rows.tobytes()
        # the Gram matrix that stream_cycle_stats hands to _stats is the reference's W
        handed, stats_of_gram = [], spinlight.experiment._stats

        def spy(gram, *args):
            handed.append(gram)
            return stats_of_gram(gram, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spinlight.experiment, "_stats", spy)
            try:
                stream_cycle_stats(kappa2, beta, n, seed)
            except ValueError:  # a single cycle is refused by _stats
                assert n == 1
        assert handed[0].tobytes() == want_gram.tobytes()

    def test_record_access(self):
        assert cycles(1.0, 1.0, 10, seed=9).shape == (10, 4)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            cycles(-1.0, 1.0, 10, seed=0)
        with pytest.raises(ValueError):
            cycles(1.0, 1.5, 10, seed=0)
        with pytest.raises(ValueError):
            cycles(1.0, 1.0, 0, seed=0)


class TestStreamedStats:
    @given(n=st.integers(2, 3 * CYCLE_CHUNK + 17),
           kappa2=st.floats(0.0, 5.0), beta=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_materialized_bitwise(self, n, kappa2, beta, seed):
        try:
            stats = stream_cycle_stats(kappa2, beta, n, seed)
        except ValueError:  # subnormal kappa2
            return
        # the statistics of the drawn Gram matrix against direct sums over the
        # cycles that --out writes with it
        rows = cycles(kappa2, beta, n, seed)
        a1, b1, a2, b2 = rows.T
        var1, var2 = (a1 @ a1 + b1 @ b1) / (n - 1), (a2 @ a2 + b2 @ b2) / (n - 1)
        assert stats.var1 == pytest.approx(var1, rel=1e-12)
        assert stats.var2 == pytest.approx(var2, rel=1e-12)
        # round-off in the cross sum scales with sqrt(S11 S22), not with the sum
        # itself, which nearly cancels when the weight is close to 0
        alpha = (a1 @ a2 + b1 @ b2) / (a1 @ a1 + b1 @ b1)
        assert stats.alpha_star == pytest.approx(alpha, rel=1e-12,
                                                 abs=1e-12 * np.sqrt(var2 / var1))
        assert abs(stats.cond_var - conditional_variance(rows, stats.alpha_star)) <= (
            1e-12 * (stats.var2 + stats.alpha_star**2 * stats.var1))

    @given(n=st.sampled_from([2, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, CYCLE_CHUNK - 1,
                              CYCLE_CHUNK, CYCLE_CHUNK + 1, 2 * CYCLE_CHUNK + CSV_BLOCK_ROWS])
           | st.integers(2, 3 * CYCLE_CHUNK + 17),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_streamed_csv_equals_one_block(self, tmp_path_factory, n, seed):
        tmp = tmp_path_factory.mktemp("csv")
        args = (0.7, 0.8, n, seed)
        streamed = stream_cycle_stats(*args, out=str(tmp / "streamed.csv"))
        assert repr(streamed) == repr(stream_cycle_stats(*args))
        write_csv(str(tmp / "whole.csv"), ("cycle_index", "a1", "b1", "a2", "b2"),
                  [(np.arange(n), *cycles(*args).T)])
        assert (tmp / "streamed.csv").read_bytes() == (tmp / "whole.csv").read_bytes()

    def test_overflow_in_first_chunk_refused_before_the_csv(self, tmp_path):
        path = tmp_path / "cycles.csv"
        with pytest.raises(ValueError, match="not finite"):
            stream_cycle_stats(1e308, 1.0, 100, seed=1, out=str(path))
        assert not path.exists()

    def test_overflow_of_the_chunk_sum_refused(self):
        # the drawn sum of a1^2 + b1^2, about 3e304 chi2(4 CYCLE_CHUNK), overflows
        with pytest.raises(ValueError, match="not finite"):
            stream_cycle_stats(6e304, 1.0, 2 * CYCLE_CHUNK, seed=1)

    def test_matches_direct_sums(self):
        # the drawn Gram matrix differs from the written cycles' sums by round-off only
        n = 3 * CYCLE_CHUNK + 17
        rows = cycles(1.449, 0.65, n, seed=61)
        stats = stream_cycle_stats(1.449, 0.65, n, seed=61)
        a1, b1, a2, b2 = rows.T
        alpha = (a1 @ a2 + b1 @ b2) / (a1 @ a1 + b1 @ b1)
        assert stats.alpha_star == pytest.approx(alpha, rel=1e-12)
        assert stats.var1 == pytest.approx((a1 @ a1 + b1 @ b1) / (n - 1), rel=1e-12)
        assert stats.var2 == pytest.approx((a2 @ a2 + b2 @ b2) / (n - 1), rel=1e-12)
        assert stats.cond_var == pytest.approx(conditional_variance(rows, alpha), rel=1e-12)

    def test_argument_validation(self):
        for args in ((-1.0, 1.0, 10), (1.0, 1.5, 10), (1.0, 1.0, 0), (1.0, 1.0, 1)):
            with pytest.raises(ValueError):
                stream_cycle_stats(*args, seed=0)


class TestCycleRows:
    """The cycles that run --out writes: their Gram matrix is the drawn one
    that the summary is computed from, and their law is N(0, S) per channel."""

    @pytest.mark.parametrize("parallel", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, CYCLE_CHUNK - 1, CYCLE_CHUNK, CYCLE_CHUNK + 1])
    def test_csv_gram_matrix_is_the_drawn_one(self, tmp_path, n, parallel):
        # entry ij within 16 eps sqrt(W_ii W_jj), summed exactly here: 3 times the
        # most seen, 4.99 eps, over 10000 draws each at 2, 3 and 5 cycles, 300 at
        # 8193 and 20 at 150000.  Whitened once, not twice, 2 cycles reached 536 eps.
        # Written by the command, whose --parallel changes no byte
        path = tmp_path / "cycles.csv"
        assert main(["run", "--kappa2", "1", "--beta", "0.65", "--cycles", str(n), "--seed", "71",
                     "--parallel", str(parallel), "--out", str(path)]) == 0
        a1, b1, a2, b2 = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:].T
        sums = [[math.fsum(np.concatenate([u * v, p * q])) for v, q in ((a1, b1), (a2, b2))]
                for u, p in ((a1, b1), (a2, b2))]
        gram = spinlight.experiment._gram_draw(1.0, 0.65, n, seed=71)
        scale = np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
        assert (np.abs(np.array(sums) - gram) <= 16 * np.finfo(float).eps * scale).all()

    def test_blocks_of_rows_are_wishart_over_seeds(self):
        # 512 cycles pool 1024 iid N(0, S) pairs, so their Gram matrix is
        # Wishart(S, 1024): mean 1024 S_ij, variance 1024 (S_ij^2 + S_ii S_jj).
        # The first block lies in chunk 0, the last spans chunks 0 and 1
        n, k, kappa2, beta = CYCLE_CHUNK + 4, 1024, 1.0, 0.65
        h, g = (1.0 + kappa2) / 2.0, kappa2 * beta / 2.0
        cov = np.array([[h, g], [g, h]])
        grams = []
        for seed in range(300):
            rows = cycles(kappa2, beta, n, seed)
            grams.append([pairs.T @ pairs for pairs in (
                np.concatenate([rows[block, 0::2], rows[block, 1::2]])
                for block in (slice(0, 512), slice(n - 512, n)))])
        grams = np.array(grams)  # (seed, block, 2, 2)
        for i, j in ((0, 0), (0, 1), (1, 1)):
            law = (k * cov[i, j], k * (cov[i, j] ** 2 + cov[i, i] * cov[j, j]))
            for block in (0, 1):
                TestSamplingLaws.assert_law(grams[:, block, i, j], law, f"W{i}{j} of block {block}")

    def test_streams_are_disjoint(self, monkeypatch, tmp_path):
        # W, the chunks' Bartlett factors and each chunk's cycles draw from
        # streams of their own: no two share a SeedSequence
        keys, default_rng = [], np.random.default_rng

        def spy(seq):
            keys.append((seq.entropy, tuple(seq.spawn_key)))
            return default_rng(seq)

        monkeypatch.setattr(np.random, "default_rng", spy)
        stream_cycle_stats(1.0, 0.65, 2 * CYCLE_CHUNK + 1, seed=5, out=str(tmp_path / "c.csv"))
        assert len(keys) == 5  # W, the factors, three chunks
        assert len(set(keys)) == len(keys)


class TestAlpha:
    def test_independent_pulses_give_zero(self):
        alpha = stream_cycle_stats(0.0, 1.0, 50_000, seed=11).alpha_star
        assert alpha == pytest.approx(0.0, abs=3.0 / np.sqrt(50_000))

    def test_ideal_value_half(self):
        assert stream_cycle_stats(1.0, 1.0, N, seed=12).alpha_star == pytest.approx(0.5, abs=0.02)


class TestConditionalVariance:
    def test_alpha_zero_is_raw_second_moment(self):
        rows = cycles(1.0, 1.0, 5000, seed=14)
        got = conditional_variance(rows, 0.0)
        want = (rows[:, 2] @ rows[:, 2] + rows[:, 3] @ rows[:, 3]) / (len(rows) - 1)
        assert got == pytest.approx(want, rel=1e-12)

    def test_ideal_minimum(self):
        rows = cycles(1.0, 1.0, N, seed=15)
        cond = conditional_variance(rows, stream_cycle_stats(1.0, 1.0, N, seed=15).alpha_star)
        assert cond == pytest.approx(1.5, rel=0.02)

    def test_decohered_minimum(self):
        rows = cycles(1.0, 0.65, N, seed=16)
        cond = conditional_variance(rows, stream_cycle_stats(1.0, 0.65, N, seed=16).alpha_star)
        expected = 1.0 + (1.0 + (1.0 - 0.65**2)) / 2.0
        assert expected == pytest.approx(1.78875)
        assert cond == pytest.approx(expected, rel=0.02)


class TestTheoryCurves:
    def test_ideal_point(self):
        assert theory_curves(1.0, 1.0) == (pytest.approx(1.5), pytest.approx(0.5))

    def test_full_decay_limit(self):
        for kappa2 in (0.3, 1.0, 4.0):
            cond, alpha = theory_curves(kappa2, 0.0)
            assert cond == pytest.approx(1.0 + kappa2)
            assert alpha == 0.0

    def test_headline_noise_reduction(self):
        cond, _ = theory_curves(1.449, 0.65)
        assert (cond - 1.0) / 1.449 == pytest.approx(0.75, abs=2e-5)

    def test_beta_outside_unit_interval_refused(self):
        with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\]"):
            theory_curves(1.0, 1.5)


class TestVerdict:
    def test_entangled_ideal(self):
        stats = stream_cycle_stats(1.0, 1.0, N, seed=17)
        assert stats.entangled is True

    def test_low_coupling_with_decoherence(self):
        stats = stream_cycle_stats(0.5, 0.65, N, seed=18)
        assert stats.entangled is True

    def test_calibration_failure_withholds_verdict(self):
        stats = miscalibrated_stats(N)
        assert not stats.calibration_ok and stats.entangled is None

    def test_zero_coupling_withholds_verdict(self):
        stats = stream_cycle_stats(0.0, 1.0, 1000, seed=1)
        assert stats.calibration_ok and stats.entangled is None
        assert "entangled = undetermined" in summary_text(stats)

    def test_coupling_below_the_bound_resolution_withholds_verdict(self):
        stats = stream_cycle_stats(1e-300, 1.0, 1000, seed=1)
        assert stats.calibration_ok and stats.entangled is None

    @given(st.one_of(st.just(0.0), st.floats(1e-300, 1e-16), st.floats(1e-3, 1e3)),
           st.integers(2, 10**9), st.floats(-4.0, 4.0), st.floats(-0.99, 0.99))
    @settings(max_examples=300, deadline=None)
    def test_verdict_is_decided_once(self, kappa2, n, r, rho):
        """_stats of a pooled Gram matrix (n - 1) [[2h, 2g], [2g, 2h]] whose
        first-pulse variance is r calibration widths off 1 + kappa2: no verdict
        where |r| > 1 or where 1 + kappa2 rounds to 1, and summary_text prints
        exactly that verdict."""
        bound = 1.0 + kappa2
        var1 = bound * (1.0 + r * 5.0 / np.sqrt(n - 1))
        assume(var1 > 0.05 * bound and abs(abs(r) - 1.0) > 1e-6)
        h = var1 / 2.0
        g = rho * h
        stats = _stats((n - 1) * np.array([[2 * h, 2 * g], [2 * g, 2 * h]]), n, kappa2, 1.0)
        assert stats.calibration_ok == (abs(r) < 1.0)
        if abs(r) > 1.0 or bound == 1.0:
            assert stats.entangled is None
        else:
            assert stats.entangled == (stats.cond_var < bound)
        text = summary_text(stats)
        assert ("entangled = undetermined" in text) == (stats.entangled is None)
        assert ("atomic_var = " in text) == (bound > 1.0)

    @pytest.mark.parametrize("kappa2,n", [(1e16, 100), (1e16, 10_000), (1e306, 100)])
    def test_cond_var_below_its_rounding_refused(self, kappa2, n):
        with pytest.raises(ValueError, match="no correct digit"):
            stream_cycle_stats(kappa2, 1.0, n, seed=1)

    def test_cond_var_evaluated_halved(self):
        # halving moves no bit of cond_var where the plain Gram form is finite ...
        for kappa2, seed in ((1e-6, 1), (1.0, 2), (1e8, 3), (1e15, 4)):
            gram, n = spinlight.experiment._gram_draw(kappa2, 0.65, 100, seed), 100
            alpha = gram[0, 1] / gram[0, 0]
            plain = (gram[1, 1] - 2.0 * alpha * gram[0, 1] + alpha**2 * gram[0, 0]) / (n - 1)
            assert _stats(gram, n, kappa2, 0.65).cond_var == plain
        # ... and keeps it finite where 2 alpha S12, about 1.9e308, overflows: the
        # model's 0.36 kappa2 within 5 standard errors, not a refusal
        stats = stream_cycle_stats(1.5e306, 0.8, 100, seed=1)
        assert stats.cond_var == pytest.approx(0.36 * 1.5e306, rel=5 * np.sqrt(2 / 199))

    @pytest.mark.parametrize("beta", [1.0, 0.65, 0.0])
    def test_definitional_bound(self, beta):
        stats = stream_cycle_stats(1.0, beta, 20_000, seed=20)
        assert stats.cond_var <= stats.var2 + stats.var1 * stats.alpha_star**2
        # expected weight sits in [0, 1]; the estimate only leaves it by noise
        assert -0.02 <= stats.alpha_star <= 1.0

    def test_margin_monotone_in_beta(self):
        margins = []
        for i, beta in enumerate((1.0, 0.8, 0.65, 0.4, 0.0)):
            stats = stream_cycle_stats(1.0, beta, N, seed=100 + i)
            margins.append(2.0 - stats.cond_var)
        # statistical slack well below the ~0.1 gaps between grid points
        assert all(m2 <= m1 + 0.02 for m1, m2 in zip(margins, margins[1:]))


class TestSpinUnits:
    def test_css_boundary_not_entangled(self):
        j_x = 4e11
        assert duan_spin_check(j_x, j_x, j_x) is False

    def test_squeezed_sums_entangled(self):
        j_x = 4e11
        assert duan_spin_check(0.4 * j_x, 0.4 * j_x, j_x) is True

    def test_matches_canonical_criterion(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            j_x = float(rng.uniform(1e10, 1e12))
            vy = float(rng.uniform(0.1, 1.5)) * j_x
            vz = float(rng.uniform(0.1, 1.5)) * j_x
            canonical = vy / (2 * j_x) + vz / (2 * j_x) < 1.0
            assert duan_spin_check(vy, vz, j_x) is canonical

    def test_positive_spin_required(self):
        with pytest.raises(ValueError):
            duan_spin_check(1.0, 1.0, 0.0)


class TestEngineAgreement:
    @pytest.mark.parametrize("kappa2,beta", [(0.25, 1.0), (1.0, 1.0), (1.0, 0.65),
                                             (2.0, 0.65), (4.0, 1.0)])
    def test_monte_carlo_matches_engine(self, kappa2, beta):
        stats = stream_cycle_stats(kappa2, beta, N, seed=31)
        exact = engine_conditioned_duan(kappa2, beta)
        se = stats.cond_var / np.sqrt(N) / kappa2
        assert stats.atomic_var_inferred == pytest.approx(exact, abs=5 * se)

    @pytest.mark.parametrize("kappa2,beta", [(1.0, 0.65), (0.5, 1.0), (4.0, 0.0),
                                             (1e-3, 0.3), (100.0, 0.9), (0.0, 0.5)])
    def test_outcome_covariance_is_the_engines(self, kappa2, beta):
        """One channel with unmeasured probes (QND, decay, QND): the probes' X
        block is the outcome covariance [[h, g], [g, h]] that _gram_draw and
        linear_oracle.cycle_stat_laws use, h = (1 + kappa2)/2, g = kappa2 beta/2."""
        kappa = float(np.sqrt(kappa2))
        state = vacuum_state(3, ["pair", "probe1", "probe2"])
        state = apply_qnd(state, "pair", "probe1", kappa)
        state = apply_beta_decay(state, "pair", beta)
        state = apply_qnd(state, "pair", "probe2", kappa)
        probes = [state.x_index("probe1"), state.x_index("probe2")]
        h, g = (1.0 + kappa2) / 2.0, kappa2 * beta / 2.0
        error = np.abs(state.cov[np.ix_(probes, probes)] - [[h, g], [g, h]]).max()
        assert error <= 2.0 * np.finfo(float).eps * h

    @pytest.mark.parametrize("n_runs", [1, 0])
    def test_cross_engine_rows_refuses_fewer_than_two_runs(self, n_runs):
        # np.cov raised "Degrees of freedom <= 0" at one run; the CLI refuses --cycles < 2
        with pytest.raises(ValueError, match="^n_runs must be >= 2$"):
            cross_engine_rows(1.0, n_runs, seed=17)

    def test_engine_route_exact_values(self):
        assert engine_conditioned_duan(1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
        for kappa2 in (0.25, 0.5, 1.0, 2.0):
            want = (1.0 + (1.0 - 0.65**2) * kappa2) / (1.0 + kappa2)
            assert engine_conditioned_duan(kappa2, 0.65) == pytest.approx(want, abs=1e-12)


class TestCalibrationIdentity:
    @pytest.mark.parametrize("kappa2", [0.1, 0.25, 0.5, 1.0, 2.0, 4.0])
    def test_first_pulse_noise_is_shot_plus_projection(self, kappa2):
        stats = stream_cycle_stats(kappa2, 1.0, N, seed=37)
        tol = 3.0 * np.sqrt(2.0 / N) * (1.0 + kappa2)
        assert abs((stats.var1 - 1.0) - kappa2) <= tol

    def test_qnd_repeatability(self):
        stats = stream_cycle_stats(1.0, 1.0, N, seed=38)
        assert stats.var2 == pytest.approx(stats.var1, rel=0.02)

    def test_alpha_consistency(self):
        for beta in (1.0, 0.65):
            stats = stream_cycle_stats(1.0, beta, N, seed=39)
            assert abs(stats.alpha_star - theory_curves(1.0, beta)[1]) < 0.02


class TestDensitySweep:
    def test_zero_angle_row(self):
        row, = density_sweep([0.0], 0.65, 20_000, seed=41)
        assert row.kappa2 == 0.0
        assert row.pn1 == pytest.approx(0.0, abs=0.05)
        assert row.cond_var_minus_shot == pytest.approx(0.0, abs=0.05)

    def test_projection_noise_slope(self):
        grid = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
        rows = density_sweep(grid, 0.65, N, seed=1)
        slope = np.polyfit([r.theta_deg for r in rows], [r.pn1 for r in rows], 1)[0]
        assert slope == pytest.approx(0.10, rel=0.05)
        # verifying pulse carries the same noise as the entangling pulse
        for row in rows:
            assert row.pn2 == pytest.approx(row.pn1, abs=0.05 * (1 + row.kappa2))
        # conditional rows sit clearly below the projection-noise line
        for row in rows:
            assert row.cond_var_minus_shot < row.pn1

    def test_theory_columns(self):
        row, = density_sweep([10.0], 0.65, 1000, seed=43)
        cond, alpha = theory_curves(1.0, 0.65)
        assert row.theory_cond == pytest.approx(cond - 1.0)
        assert row.theory_alpha == pytest.approx(alpha)
        cond1, alpha1 = theory_curves(1.0, 1.0)
        assert row.theory_cond_ideal == pytest.approx(cond1 - 1.0)
        assert row.theory_alpha_ideal == pytest.approx(alpha1)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            density_sweep([], 0.65, 100, seed=0)

    def test_negative_angle_refused_before_simulating(self, monkeypatch):
        calls = []
        monkeypatch.setattr(spinlight.experiment, "_gram_draw",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="theta values must be >= 0"):
            density_sweep([2.0, -1.0], 0.65, 100, seed=0)
        assert calls == []

    @pytest.mark.parametrize("n_cycles", [2, 3, 4, 5, 4097, 8195])
    def test_short_last_chunks_give_finite_rows(self, n_cycles):
        rows = density_sweep([0.0, 10.0], 0.65, n_cycles, seed=44)
        assert all(np.isfinite(astuple(row)).all() for row in rows)

    @pytest.mark.parametrize("n_cycles", [5 * CYCLE_CHUNK + 3, 10**12])
    def test_one_gram_draw_per_point(self, monkeypatch, n_cycles):
        # one draw of all the cycles per point, so the cost is flat in n_cycles
        calls = []
        draw = spinlight.experiment._gram_draw

        def counted(*args):
            calls.append(args[2])
            return draw(*args)

        def no_rows(*args):
            raise AssertionError("density_sweep reached _cycle_rows")

        monkeypatch.setattr(spinlight.experiment, "_gram_draw", counted)
        monkeypatch.setattr(spinlight.experiment, "_cycle_rows", no_rows)
        density_sweep([2.0, 4.0, 6.0], 0.65, n_cycles, seed=45)
        assert calls == [n_cycles] * 3


class TestSamplingLaws:
    """The one Wishart draw of run's and the sweep's statistics against the
    exact laws of linear_oracle.cycle_stat_laws, in mean and variance, over
    many seeds.  8 cycles show the laws' degrees of freedom; CYCLE_CHUNK + 4
    span two chunks of the cycles that run --out writes.  The sweep also runs
    at 2 cycles, the fewest a command accepts, whose last Bartlett diagonal
    is sqrt(chi2(3)), at 4, and at 10**12."""

    BETAS = (0.65, 1.0, 0.0)
    THETAS = (0.0, 10.0, 40.0)  # kappa2 = 0, 1, 4

    @staticmethod
    def assert_law(samples, law, label):
        # 4.5 standard errors; the variance's SE from the samples' own 4th moment
        mean, var = law
        samples = np.asarray(samples)
        dev = samples - samples.mean()
        var_se = np.sqrt((np.mean(dev**4) - np.mean(dev**2) ** 2) / samples.size)
        assert abs(samples.mean() - mean) <= 4.5 * np.sqrt(var / samples.size), label
        assert abs(np.var(samples, ddof=1) - var) <= 4.5 * var_se, label

    def check(self, stats_of, n_cycles, n_seeds):
        # stats_of(thetas, beta, n_cycles, seed) -> [(kappa2, var1, cond_var, alpha_star)]
        for beta in self.BETAS:
            draws = np.array([stats_of(self.THETAS, beta, n_cycles, seed)
                              for seed in range(n_seeds)])
            for i, (kappa2, *_) in enumerate(draws[0]):
                laws = cycle_stat_laws(kappa2, beta, n_cycles)
                for j, name in enumerate(("var1", "cond_var", "alpha_star"), start=1):
                    label = f"{name} at kappa2={kappa2}, beta={beta}"
                    self.assert_law(draws[:, i, j], laws[name], label)

    @pytest.mark.parametrize("n_cycles,n_seeds", [(8, 2000), (CYCLE_CHUNK + 4, 200),
                                                  (4, 2000), (2, 2000), (10**12, 200)])
    def test_density_sweep(self, n_cycles, n_seeds):
        def stats_of(thetas, beta, n, seed):
            return [(row.kappa2, row.pn1 + 1.0, row.cond_var_minus_shot + 1.0, row.alpha_star)
                    for row in density_sweep(thetas, beta, n, seed)]

        self.check(stats_of, n_cycles, n_seeds)

    @pytest.mark.parametrize("n_cycles,n_seeds", [(8, 2000), (CYCLE_CHUNK + 4, 200)])
    def test_stream_cycle_stats(self, n_cycles, n_seeds):
        def stats_of(thetas, beta, n, seed):
            rows = []
            for theta in thetas:
                kappa2 = kappa2_experimental(theta)
                stats = stream_cycle_stats(kappa2, beta, n, seed)
                rows.append((kappa2, stats.var1, stats.cond_var, stats.alpha_star))
            return rows

        self.check(stats_of, n_cycles, n_seeds)

    @pytest.mark.parametrize("kappa2", [0.0, 1.0, 4.0])
    def test_residual_law_is_the_model_at_zero_electronics(self, kappa2):
        n = 100
        mean, _ = cycle_stat_laws(kappa2, 0.65, n)["cond_var"]
        assert 2.0 * mean * (n - 1) / (2 * n - 1) == pytest.approx(
            theory_curves(kappa2, 0.65)[0], rel=1e-14)


class TestOutputs:
    def test_cycles_csv(self, tmp_path):
        rows = cycles(1.0, 1.0, 50, seed=51)
        path = tmp_path / "cycles.csv"
        stream_cycle_stats(1.0, 1.0, 50, seed=51, out=str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "cycle_index,a1,b1,a2,b2"
        assert len(lines) == 51
        cells = lines[5].split(",")
        assert int(cells[0]) == 4
        assert float(cells[1]) == rows[4, 0]  # 17 significant digits round-trip

    def test_sweep_csv(self, tmp_path):
        rows = density_sweep([2.0, 4.0], 0.65, 500, seed=52)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["theta_deg", "kappa2", "pn1", "pn2"]
        assert len(lines) == 3

    def test_summary_block(self):
        stats = stream_cycle_stats(1.0, 1.0, 5000, seed=53)
        text = summary_text(stats)
        assert "n = 5000" in text
        assert "entangled = true" in text
        keys = [line.split(" = ")[0] for line in text.strip().splitlines()]
        assert keys == ["n", "kappa2", "beta", "var1", "var2", "alpha_star",
                        "cond_var", "atomic_var", "calibration", "entangled"]
        assert "calibration = ok" in text

    def test_failed_calibration_withholds_verdict(self):
        stats = miscalibrated_stats(N)
        assert not stats.calibration_ok and stats.entangled is None
        text = summary_text(stats)
        assert "calibration = failed" in text
        assert "entangled = undetermined" in text
