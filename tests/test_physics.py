"""Calibration formulas: coupling constant, Faraday angle, kappa routes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlight.physics import (
    PhysicalParams,
    beta_from_t2,
    calibrate,
    coupling_a,
    css_variance,
    faraday_theta,
    j_x_from_theta,
    kappa2_experimental,
    kappa2_first_principles,
    kappa2_theory,
    kappa_from_params,
    macroscopic_spin,
    mean_sy_small_angle,
    stokes_sx,
)

DEFAULTS = PhysicalParams()

# golden value from the dimensional oracle below, frozen at the defaults
GOLDEN_A = -3.4384288633981904e-13


def _dimensional_oracle_a(wavelength_nm, linewidth_MHz, detuning_MHz, area_cm2):
    """Independent unit-tracking route: everything converted to SI by hand."""
    lam = wavelength_nm * 1e-9            # m
    gamma = linewidth_MHz * 1e6           # 1/s
    delta = detuning_MHz * 1e6            # 1/s
    area = area_cm2 * 1e-4                # m^2
    return -(gamma * lam**2) / (8.0 * math.pi * area * delta)  # dimensionless


class TestCouplingA:
    def test_golden_constant(self):
        # abs=0: the default absolute tolerance would swallow 1e-13 magnitudes
        a = coupling_a(DEFAULTS)
        assert a == pytest.approx(_dimensional_oracle_a(852.0, 5.0, 700.0, 6.0),
                                  rel=1e-12, abs=0.0)
        assert a == pytest.approx(GOLDEN_A, rel=1e-12, abs=0.0)

    def test_far_detuned_limit(self):
        near = coupling_a(DEFAULTS)
        far = coupling_a(PhysicalParams(detuning_MHz=7.0e5))
        assert abs(far) == pytest.approx(abs(near) / 1000.0, rel=1e-12, abs=0.0)

    def test_doubling_area_halves_coupling(self):
        a1 = coupling_a(DEFAULTS)
        a2 = coupling_a(PhysicalParams(area_eff_cm2=12.0))
        assert a2 == pytest.approx(a1 / 2.0, rel=1e-12, abs=0.0)

    def test_blue_detuning_gives_negative_a(self):
        assert coupling_a(DEFAULTS) < 0

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            PhysicalParams(detuning_MHz=0.0)


class TestFaraday:
    def test_zero_spin(self):
        assert faraday_theta(0.0, DEFAULTS) == 0.0

    def test_linear_in_spin(self):
        theta1 = faraday_theta(1e11, DEFAULTS)
        theta2 = faraday_theta(2e11, DEFAULTS)
        assert theta2 == pytest.approx(2.0 * theta1, rel=1e-12)

    def test_round_trip(self):
        j_x = 3.7e11
        theta = faraday_theta(j_x, DEFAULTS)
        assert j_x_from_theta(theta, DEFAULTS) == pytest.approx(j_x, rel=1e-10)


class TestKappa2Formulas:
    def test_practical_slope_at_paper_settings(self):
        # 18.6 * 4.5 * 2 / 700 per degree
        assert kappa2_theory(4.5, 2.0, 1.0, 700.0) == pytest.approx(167.4 / 700.0, rel=1e-14)
        assert kappa2_theory(4.5, 2.0, 1.0, 700.0) == pytest.approx(0.2391, abs=5e-5)
        assert kappa2_theory(4.5, 2.0, 10.0, 700.0) == pytest.approx(2.391, abs=5e-4)

    def test_zero_angle(self):
        assert kappa2_theory(4.5, 2.0, 0.0, 700.0) == 0.0
        assert kappa2_experimental(0.0) == 0.0

    def test_red_detuning_and_zero_detuning(self):
        # kappa^2 depends on |Delta|, as kappa_from_params uses |a|
        assert kappa2_theory(4.5, 2.0, 1.0, -700.0) == kappa2_theory(4.5, 2.0, 1.0, 700.0)
        with pytest.raises(ValueError, match="detuning nonzero"):
            kappa2_theory(4.5, 2, 1, 0)  # raised ZeroDivisionError

    def test_experimental_slope(self):
        assert kappa2_experimental(10.0) == pytest.approx(1.0)

    def test_theory_experiment_ratio(self):
        ratio = kappa2_theory(4.5, 2.0, 10.0, 700.0) / kappa2_experimental(10.0)
        assert ratio == pytest.approx(2.39, abs=5e-3)

    def test_first_principles_sits_near_practical(self):
        # the published 18.6 prefactor runs a few percent hot against the
        # rounded gamma = 5 MHz; both routes are exposed, never reconciled
        ratio = (kappa2_first_principles(4.5, 2.0, 10.0, 700.0)
                 / kappa2_theory(4.5, 2.0, 10.0, 700.0))
        assert 0.94 < ratio < 0.99

    @given(p=st.floats(0.5, 20), t=st.floats(0.5, 10), theta=st.floats(0.1, 20),
           delta=st.floats(200, 2000), factor=st.floats(1.1, 5))
    @settings(max_examples=50, deadline=None)
    def test_scaling_properties(self, p, t, theta, delta, factor):
        base = kappa2_theory(p, t, theta, delta)
        assert kappa2_theory(factor * p, t, theta, delta) == pytest.approx(factor * base, rel=1e-9)
        assert kappa2_theory(p, factor * t, theta, delta) == pytest.approx(factor * base, rel=1e-9)
        assert kappa2_theory(p, t, factor * theta, delta) == pytest.approx(factor * base, rel=1e-9)
        assert kappa2_theory(p, t, theta, factor * delta) == pytest.approx(base / factor, rel=1e-9)


class TestRouteConsistency:
    def test_two_routes_through_formula_graph_agree(self):
        # kappa^2 from (a, J_x, S_x, T) versus the composed form through the
        # Faraday angle, for 20 parameter draws
        import numpy as np
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = PhysicalParams(
                wavelength_nm=float(rng.uniform(300, 1600)),
                linewidth_MHz=float(rng.uniform(1, 40)),
                detuning_MHz=float(rng.uniform(100, 3000)),
                power_mW=float(rng.uniform(0.5, 30)),
                pulse_ms=float(rng.uniform(0.2, 10)),
                area_eff_cm2=float(rng.uniform(0.5, 20)),
                n_atoms=float(rng.uniform(1e10, 1e12)),
            )
            direct = kappa_from_params(p)**2
            theta = abs(faraday_theta(macroscopic_spin(p.n_atoms), p))
            via_theta = kappa2_first_principles(p.power_mW, p.pulse_ms, theta,
                                                p.detuning_MHz, p)
            assert via_theta == pytest.approx(direct, rel=1e-8)

    def test_calibration_invariant(self):
        cal = calibrate(DEFAULTS)
        t_s = DEFAULTS.pulse_ms * 1e-3
        assert cal.kappa**2 == pytest.approx(
            cal.a_coupling**2 * cal.j_x * cal.s_x * t_s, rel=1e-10)

    def test_calibrate_from_theta_matches_forward(self):
        cal = calibrate(DEFAULTS)
        again = calibrate(DEFAULTS, theta_deg=cal.theta_deg)
        assert again.j_x == pytest.approx(cal.j_x, rel=1e-10)
        assert again.kappa == pytest.approx(cal.kappa, rel=1e-10)


class TestSmallFormulas:
    def test_css_variance(self):
        assert css_variance(1.0) == 2.0
        assert css_variance(1e11) == 2e11
        assert css_variance(0.5) == 1.0
        with pytest.raises(ValueError):
            css_variance(0.0)

    def test_beta_from_t2(self):
        assert beta_from_t2(5.0, 2.0) == pytest.approx(math.exp(-0.4))
        assert beta_from_t2(5.0, 2.0) == pytest.approx(0.6703, abs=5e-5)
        assert beta_from_t2(5.0, 0.0) == 1.0
        assert beta_from_t2(1e12, 2.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            beta_from_t2(-1.0, 1.0)

    def test_mean_sy(self):
        assert mean_sy_small_angle(1.0, 0.0) == 0.0
        assert mean_sy_small_angle(1.0, 0.01) == pytest.approx(0.02)

    def test_mean_sy_consistent_with_interaction(self):
        # rotation by theta = a J_x / 2 reproduces the a S_x J_x output term
        p = DEFAULTS
        j_x = macroscopic_spin(p.n_atoms)
        s_x = stokes_sx(p.power_mW, p.wavelength_nm)
        theta = coupling_a(p) * j_x / 2.0
        assert mean_sy_small_angle(s_x, theta) == pytest.approx(
            coupling_a(p) * s_x * j_x, rel=1e-12)

    @pytest.mark.parametrize("call,message", [
        (lambda: css_variance(0), "n_atoms must be positive"),
        (lambda: faraday_theta(-1, DEFAULTS), "j_x must be >= 0"),
        (lambda: calibrate(DEFAULTS, theta_deg=-1), "theta_deg must be >= 0"),
        (lambda: kappa2_experimental(-1), "theta_deg must be >= 0"),
        (lambda: beta_from_t2(1, -1), "gap_ms must be >= 0")],
        ids=["css_variance", "faraday_theta", "calibrate", "kappa2_experimental", "beta_from_t2"])
    def test_out_of_range_argument_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PhysicalParams(power_mW=-1.0)
        with pytest.raises(ValueError):
            PhysicalParams(n_atoms=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["power_mW", "detuning_MHz", "n_atoms"])
    def test_params_reject_non_finite(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            PhysicalParams(**{name: value})
