"""Measurement-cycle Monte Carlo, statistics, verdicts, density sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinlight.experiment
from spinlight.experiment import (
    CYCLE_CHUNK,
    CalibrationError,
    conditional_variance,
    density_sweep,
    duan_spin_check,
    engine_conditioned_duan,
    entanglement_verdict,
    run_cycles,
    stream_cycle_stats,
    summary_text,
    theory_curves,
    write_sweep_csv,
)
from spinlight.output import CSV_BLOCK_ROWS, write_csv

N = 100_000


class TestRunCycles:
    def test_no_interaction_decorrelates_pulses(self):
        rec = run_cycles(0.0, 1.0, 20_000, seed=1)
        corr = np.corrcoef(rec.a1, rec.a2)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(len(rec))

    def test_projection_noise_level(self):
        stats = stream_cycle_stats(1.0, 1.0, N, seed=2)
        assert stats.var1 == pytest.approx(2.0, rel=0.02)

    def test_full_decay_makes_first_pulse_useless(self):
        stats = stream_cycle_stats(1.0, 0.0, N, seed=3)
        assert stats.alpha_star == pytest.approx(0.0, abs=0.02)
        assert stats.cond_var == pytest.approx(2.0, rel=0.02)

    def test_seeded_determinism(self):
        a = run_cycles(0.7, 0.9, 5000, seed=5)
        b = run_cycles(0.7, 0.9, 5000, seed=5)
        assert np.array_equal(a.a1, b.a1) and np.array_equal(a.b2, b.b2)

    def test_parallel_matches_serial(self):
        # n chosen to straddle several chunk boundaries
        serial = run_cycles(0.5, 0.8, 4096 * 2 + 7, seed=7, parallel=1)
        pooled = run_cycles(0.5, 0.8, 4096 * 2 + 7, seed=7, parallel=4)
        for name in ("a1", "b1", "a2", "b2"):
            assert np.array_equal(getattr(serial, name), getattr(pooled, name))

    def test_record_access(self):
        rec = run_cycles(1.0, 1.0, 10, seed=9)
        assert len(rec) == 10

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_cycles(-1.0, 1.0, 10, seed=0)
        with pytest.raises(ValueError):
            run_cycles(1.0, 1.5, 10, seed=0)
        with pytest.raises(ValueError):
            run_cycles(1.0, 1.0, 0, seed=0)


class TestStreamedStats:
    @given(n=st.integers(2, 3 * CYCLE_CHUNK + 17), parallel=st.sampled_from([1, 2, 4]),
           kappa2=st.floats(0.0, 5.0), beta=st.floats(0.0, 1.0),
           electronics_std=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_materialized_bitwise(self, n, parallel, kappa2, beta, electronics_std, seed):
        def outcome(workers):
            # repr round-trips every float exactly and treats nan (kappa2 = 0) as
            # equal; a refusal (subnormal kappa2) must carry the same message
            try:
                return stream_cycle_stats(kappa2, beta, n, seed, parallel=workers,
                                          electronics_std=electronics_std)
            except ValueError as exc:
                return f"ValueError: {exc}"

        stats = outcome(1)
        assert repr(outcome(parallel)) == repr(stats)
        if isinstance(stats, str):
            return
        # the Gram-matrix sums against direct sums over the materialized cycles
        rec = run_cycles(kappa2, beta, n, seed, electronics_std=electronics_std)
        a1, b1, a2, b2 = rec.a1, rec.b1, rec.a2, rec.b2
        var1, var2 = (a1 @ a1 + b1 @ b1) / (n - 1), (a2 @ a2 + b2 @ b2) / (n - 1)
        assert stats.var1 == pytest.approx(var1, rel=1e-12)
        assert stats.var2 == pytest.approx(var2, rel=1e-12)
        # round-off in the cross sum scales with sqrt(S11 S22), not with the sum
        # itself, which nearly cancels when the weight is close to 0
        alpha = (a1 @ a2 + b1 @ b2) / (a1 @ a1 + b1 @ b1)
        assert stats.alpha_star == pytest.approx(alpha, rel=1e-12,
                                                 abs=1e-12 * np.sqrt(var2 / var1))
        assert abs(stats.cond_var - conditional_variance(rec, stats.alpha_star)) <= (
            1e-12 * (stats.var2 + stats.alpha_star**2 * stats.var1))

    @given(n=st.sampled_from([2, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, CYCLE_CHUNK - 1,
                              CYCLE_CHUNK, CYCLE_CHUNK + 1, 2 * CYCLE_CHUNK + CSV_BLOCK_ROWS])
           | st.integers(2, 3 * CYCLE_CHUNK + 17),
           parallel=st.sampled_from([1, 2, 4]), electronics_std=st.sampled_from([0.0, 0.3]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_streamed_csv_equals_one_block(self, tmp_path_factory, n, parallel,
                                           electronics_std, seed):
        tmp = tmp_path_factory.mktemp("csv")
        args = (0.7, 0.8, n, seed)
        streamed = stream_cycle_stats(*args, parallel=parallel, electronics_std=electronics_std,
                                      out=str(tmp / "streamed.csv"))
        assert repr(streamed) == repr(stream_cycle_stats(
            *args, parallel=parallel, electronics_std=electronics_std))
        rec = run_cycles(*args, electronics_std=electronics_std)
        write_csv(str(tmp / "whole.csv"), ("cycle_index", "a1", "b1", "a2", "b2"),
                  [(np.arange(n), rec.a1, rec.b1, rec.a2, rec.b2)])
        assert (tmp / "streamed.csv").read_bytes() == (tmp / "whole.csv").read_bytes()

    def test_overflow_in_first_chunk_refused_before_the_csv(self, tmp_path):
        path = tmp_path / "cycles.csv"
        with pytest.raises(ValueError, match="not finite"):
            stream_cycle_stats(1e308, 1.0, 100, seed=1, out=str(path))
        assert not path.exists()

    def test_overflow_of_the_chunk_sum_refused(self):
        # each chunk's sum of a1^2 is about 1.2e308, finite; two of them are not
        with pytest.raises(ValueError, match="not finite"):
            stream_cycle_stats(6e304, 1.0, 2 * CYCLE_CHUNK, seed=1)

    def test_chunk_windows_match_serial(self):
        # parallel 2 hands the pool 128 chunks at a time: cover two windows and a partial
        n = 2 * 128 * CYCLE_CHUNK + 5
        serial = run_cycles(0.6, 0.9, n, seed=57)
        pooled = run_cycles(0.6, 0.9, n, seed=57, parallel=2)
        assert all(np.array_equal(getattr(serial, k), getattr(pooled, k))
                   for k in ("a1", "b1", "a2", "b2"))
        streamed = stream_cycle_stats(0.6, 0.9, n, seed=57, parallel=2)
        assert repr(streamed) == repr(stream_cycle_stats(0.6, 0.9, n, seed=57))

    def test_matches_direct_sums(self):
        # the Gram-matrix route differs from the direct sums by round-off only
        n = 3 * CYCLE_CHUNK + 17
        rec = run_cycles(1.449, 0.65, n, seed=61)
        stats = stream_cycle_stats(1.449, 0.65, n, seed=61)
        a1, b1, a2, b2 = rec.a1, rec.b1, rec.a2, rec.b2
        alpha = (a1 @ a2 + b1 @ b2) / (a1 @ a1 + b1 @ b1)
        assert stats.alpha_star == pytest.approx(alpha, rel=1e-12)
        assert stats.var1 == pytest.approx((a1 @ a1 + b1 @ b1) / (n - 1), rel=1e-12)
        assert stats.var2 == pytest.approx((a2 @ a2 + b2 @ b2) / (n - 1), rel=1e-12)
        assert stats.cond_var == pytest.approx(conditional_variance(rec, alpha), rel=1e-12)

    def test_argument_validation(self):
        for args in ((-1.0, 1.0, 10), (1.0, 1.5, 10), (1.0, 1.0, 0), (1.0, 1.0, 1)):
            with pytest.raises(ValueError):
                stream_cycle_stats(*args, seed=0)


class TestAlpha:
    def test_independent_pulses_give_zero(self):
        alpha = stream_cycle_stats(0.0, 1.0, 50_000, seed=11).alpha_star
        assert alpha == pytest.approx(0.0, abs=3.0 / np.sqrt(50_000))

    def test_ideal_value_half(self):
        assert stream_cycle_stats(1.0, 1.0, N, seed=12).alpha_star == pytest.approx(0.5, abs=0.02)


class TestConditionalVariance:
    def test_alpha_zero_is_raw_second_moment(self):
        rec = run_cycles(1.0, 1.0, 5000, seed=14)
        got = conditional_variance(rec, 0.0)
        want = (np.dot(rec.a2, rec.a2) + np.dot(rec.b2, rec.b2)) / (len(rec) - 1)
        assert got == pytest.approx(want, rel=1e-12)

    def test_ideal_minimum(self):
        rec = run_cycles(1.0, 1.0, N, seed=15)
        cond = conditional_variance(rec, stream_cycle_stats(1.0, 1.0, N, seed=15).alpha_star)
        assert cond == pytest.approx(1.5, rel=0.02)

    def test_decohered_minimum(self):
        rec = run_cycles(1.0, 0.65, N, seed=16)
        cond = conditional_variance(rec, stream_cycle_stats(1.0, 0.65, N, seed=16).alpha_star)
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


class TestVerdict:
    def test_entangled_ideal(self):
        stats = stream_cycle_stats(1.0, 1.0, N, seed=17)
        assert entanglement_verdict(stats) is True

    def test_low_coupling_with_decoherence(self):
        stats = stream_cycle_stats(0.5, 0.65, N, seed=18)
        assert entanglement_verdict(stats) is True

    def test_calibration_failure_withholds_verdict(self):
        # electronics noise lifts var1 to ~2.18, far outside 2 +- 5 standard errors
        stats = stream_cycle_stats(1.0, 1.0, N, seed=19, electronics_std=0.3)
        assert not stats.calibration_ok
        with pytest.raises(CalibrationError):
            entanglement_verdict(stats)

    def test_zero_coupling_withholds_verdict(self):
        stats = stream_cycle_stats(0.0, 1.0, 1000, seed=1)
        assert stats.calibration_ok and stats.entangled is None
        with pytest.raises(CalibrationError):
            entanglement_verdict(stats)
        assert "entangled = undetermined" in summary_text(stats)

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
        monkeypatch.setattr(spinlight.experiment, "stream_cycle_stats",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="theta values must be >= 0"):
            density_sweep([2.0, -1.0], 0.65, 100, seed=0)
        assert calls == []


class TestElectronicsFloor:
    def test_floor_added_and_subtracted(self):
        e_std = 0.4
        stats = stream_cycle_stats(1.0, 1.0, N, seed=47, electronics_std=e_std)
        assert stats.var1 == pytest.approx(2.0 + 2 * e_std**2, rel=0.02)
        row, = density_sweep([10.0], 1.0, N, seed=48, electronics_std=e_std)
        assert row.pn1 == pytest.approx(1.0, rel=0.05)

    def test_electronics_noise_drawn_after_the_cycle_normals(self):
        # the cycles at electronics_std = 0 are the same with the extra draws
        # skipped, because they come last from each chunk's own generator
        e_std, count = 0.3, 100
        noisy = run_cycles(1.0, 0.65, count, seed=49, electronics_std=e_std)
        clean = run_cycles(1.0, 0.65, count, seed=49)
        rng = np.random.default_rng(np.random.SeedSequence(49, spawn_key=(0,)))
        rng.standard_normal((count, 8))
        elec = e_std * rng.standard_normal((count, 4))
        for i, name in enumerate(("a1", "b1", "a2", "b2")):
            assert np.array_equal(getattr(noisy, name), getattr(clean, name) + elec[:, i])


class TestOutputs:
    def test_cycles_csv(self, tmp_path):
        rec = run_cycles(1.0, 1.0, 50, seed=51)
        path = tmp_path / "cycles.csv"
        stream_cycle_stats(1.0, 1.0, 50, seed=51, out=str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "cycle_index,a1,b1,a2,b2"
        assert len(lines) == 51
        cells = lines[5].split(",")
        assert int(cells[0]) == 4
        assert float(cells[1]) == rec.a1[4]  # 17 significant digits round-trip

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
        # electronics noise lifts var1 to ~2.18, far outside 2 +- 5 standard errors
        stats = stream_cycle_stats(1.0, 1.0, N, seed=54, electronics_std=0.3)
        assert not stats.calibration_ok and stats.entangled
        text = summary_text(stats)
        assert "calibration = failed" in text
        assert "entangled = undetermined" in text
