import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import reference_eps_lower_bound

from aloe_lab.linesearch import snap_to_step_grid
from aloe_lab.theory import (TheoremInapplicableError, azuma_tail, bar_alpha,
                             bernstein_tail, constants_report,
                             convex_eps1_min, derive_constants,
                             eps_lower_bound, eta_range, h_of_alpha, r_damage,
                             strongly_convex_display_C, subexp_params_r,
                             success_prob_p)


def simplified_nonconvex_eps_min(eps_g: float, eps_f: float, L: float,
                                 kappa: float, alpha_max: float) -> float:
    """Simplified-constants form of the nonconvex accuracy floor."""
    return 4 * max(eps_g, (1 + kappa * alpha_max) * math.sqrt((L + 2 * kappa) * eps_f))


class TestEtaAndBarAlpha:
    def test_eta_range(self):
        assert eta_range(0.2) == pytest.approx(0.8 / 1.8)

    def test_bar_alpha_value(self):
        # theta=0.2, L=1, kappa=0, eta=0.1:
        # min{0.8/0.5, 2(1 - 0.2 - 0.2*0.9)/0.9} = min{1.6, 1.37778}
        assert bar_alpha(0.2, 1.0, 0.0, 0.1) == pytest.approx(2 * 0.62 / 0.9)

    def test_kappa_shrinks_bar_alpha(self):
        assert bar_alpha(0.2, 1.0, 2.0, 0.1) < bar_alpha(0.2, 1.0, 0.0, 0.1)

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            bar_alpha(0.2, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            bar_alpha(0.2, 1.0, 0.0, 0.0)

    @given(theta=st.floats(0.05, 0.9), L=st.floats(0.1, 100.0),
           kappa=st.floats(0.0, 10.0), frac=st.floats(0.05, 0.95))
    @settings(max_examples=200, deadline=None)
    def test_positive_on_valid_inputs(self, theta, L, kappa, frac):
        eta = frac * eta_range(theta)
        assert bar_alpha(theta, L, kappa, eta) > 0


class TestSuccessProb:
    def test_bounded(self):
        assert success_prob_p(0.1, 5.0, 5.0, 0.0, bounded=True) == pytest.approx(0.9)

    def test_unbounded_formula(self):
        # exp(-min{u^2/(2 nu^2), u/(2b)}) with u=0.1, nu=b=0.1:
        # min{0.5, 0.5} = 0.5
        p = success_prob_p(0.05, 0.1, 0.1, 0.1, bounded=False)
        assert p == pytest.approx(1 - 0.05 - math.exp(-0.5))

    def test_zero_slack_kills_probability(self):
        p = success_prob_p(0.0, 0.1, 0.1, 0.0, bounded=False)
        assert p == pytest.approx(0.0)

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            success_prob_p(0.0, 0.1, 0.1, -0.1, bounded=False)


class TestProgressAndDamage:
    def test_nonconvex_h(self):
        # min{theta eps^2 alpha / (1+kappa a_max)^2, theta alpha (1-eta)^2 eps^2}
        h = h_of_alpha("nonconvex", 0.5, 0.2, 2.0, 1.0, 1.0, 0.25)
        assert h == pytest.approx(min(0.2 * 4 * 0.5 / 4, 0.2 * 0.5 * 0.5625 * 4))

    def test_strongly_convex_h(self):
        h = h_of_alpha("strongly_convex", 0.5, 0.2, 0.1, 0.0, 1.0, 0.25, beta=1.0)
        a1 = 1 - 0.5 * 0.2 * 1.0
        a2 = 1 - 0.5 * 1.0 * 0.2 * 0.75
        assert h == pytest.approx(min(-math.log(a1), -math.log(a2)))

    def test_strongly_convex_h_invalid(self):
        with pytest.raises(ValueError):
            h_of_alpha("strongly_convex", 10.0, 0.9, 0.1, 0.0, 10.0, 0.01, beta=1.0)

    def test_convex_h_needs_D(self):
        with pytest.raises(ValueError):
            h_of_alpha("convex", 0.5, 0.2, 0.1, 0.0, 1.0, 0.25)
        h = h_of_alpha("convex", 0.5, 0.2, 0.1, 0.0, 1.0, 0.25, D=2.0)
        assert h == pytest.approx(0.5 * 0.2 / 16 * min(0.5625, 1.0))

    def test_zero_alpha_zero_progress(self):
        assert h_of_alpha("nonconvex", 0.0, 0.2, 1.0, 0.0, 1.0, 0.25) == 0.0

    @pytest.mark.parametrize("tag,expected", [
        ("nonconvex", 2 * 0.01 + 0.03),
        ("strongly_convex", math.log(1 + (2 * 0.01 + 0.03) / 0.5)),
        ("convex", (2 * 0.01 + 0.03) / 0.25),
    ])
    def test_r_damage(self, tag, expected):
        assert r_damage(tag, 0.01, 0.03, 0.5) == pytest.approx(expected)

    def test_r_damage_negative_rejected(self):
        with pytest.raises(ValueError):
            r_damage("nonconvex", 0.01, -1.0, 0.5)

    @pytest.mark.parametrize("tag", ["nonconvex", "convex", "strongly_convex"])
    def test_subexp_params_r(self, tag):
        nu_r, b_r = subexp_params_r(tag, 0.2, 0.1, 0.5, eps_f=0.05)
        if tag == "nonconvex":
            assert (nu_r, b_r) == (0.4, 0.2)
        elif tag == "convex":
            assert nu_r == pytest.approx(0.4 / 0.25)
            assert b_r == pytest.approx(0.2 / 0.25)
        else:
            m = 4 * math.e ** 2 * max(0.4 / 0.25, 0.2 / 0.25) + 8 * math.e * 0.05
            assert nu_r == pytest.approx(m)
            assert b_r == pytest.approx(m)


class TestTails:
    def test_azuma_value(self):
        assert azuma_tail(0.9, 0.7, 10) == pytest.approx(
            math.exp(-(0.2 ** 2) * 10 / (2 * 0.81)))

    def test_azuma_domain(self):
        with pytest.raises(ValueError):
            azuma_tail(0.7, 0.9, 10)

    def test_azuma_decreasing_in_t(self):
        assert azuma_tail(0.9, 0.7, 100) < azuma_tail(0.9, 0.7, 10)

    def test_bernstein_value(self):
        assert bernstein_tail(0.1, 10, 0.5, 0.5) == pytest.approx(
            math.exp(-min(0.01 * 10 / 0.5, 0.1 * 10 / 1.0)))

    def test_bernstein_s_zero(self):
        assert bernstein_tail(0.0, 10, 0.5, 0.5) == 1.0

    def test_bernstein_deterministic(self):
        assert bernstein_tail(0.1, 10, 0.0, 0.0) == 0.0


class TestEpsLowerBound:
    CONSTS = dict(theta=0.2, L=10.0, kappa=1.0, alpha_max=1.0,
                  eps_f=1e-3, eps_g=1e-3, p=0.9)

    def test_exact_oracle_floor_is_zero(self):
        eps_min, _ = eps_lower_bound("nonconvex", 0.2, 10.0, 1.0, 1.0,
                                     0.0, 0.0, 1.0)
        assert eps_min == 0.0

    def test_grid_min_dominates_fixed_eta(self):
        from aloe_lab.theory import _eps_min_at_eta
        eps_min, eta_star = eps_lower_bound("nonconvex", **self.CONSTS)
        at_01 = _eps_min_at_eta("nonconvex", 0.1, 0.2, 10.0, 1.0, 1.0,
                                1e-3, 1e-3, 0.9, 0.0, None)
        assert eps_min <= at_01 + 1e-12
        assert 0 < eta_star < eta_range(0.2)

    def test_simplified_nonconvex_value(self):
        v = simplified_nonconvex_eps_min(1e-3, 1e-3, 10.0, 1.0, 1.0)
        assert v == pytest.approx(4 * max(1e-3, 2 * math.sqrt(12 * 1e-3)))

    def test_strongly_convex_4epsf_clause(self):
        with_clause, _ = eps_lower_bound("strongly_convex", 0.2, 10.0, 0.0,
                                         1.0, 1e-3, 0.0, 0.9, beta=0.1)
        assert with_clause >= 4e-3

    def test_convex_needs_positive_p(self):
        with pytest.raises(TheoremInapplicableError):
            eps_lower_bound("convex", 0.2, 10.0, 0.0, 1.0, 1e-3, 0.0, 0.4,
                            D=2.0)

    def test_convex_eps1_min(self):
        assert convex_eps1_min(0.01, 0.1) == pytest.approx(0.1)


def floor_outcome(fn, *args):
    """eps_min and eta_star as hex strings, or the error's type and text."""
    try:
        eps_min, eta_star = fn(*args)
    except Exception as exc:   # compared, not swallowed
        return type(exc).__name__, str(exc)
    return eps_min.hex(), eta_star.hex()


def maybe_zero(strategy):
    return st.one_of(st.just(0.0), strategy)


class TestEtaScreen:
    """eps_lower_bound screens the eta grid in one array pass and returns
    its first minimum, falling back to the scalar formula at every point; it
    must return the literal grid loop's (eps_min, eta_star) bit for bit and
    raise what it raises."""

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(class_tag=st.sampled_from(("nonconvex", "strongly_convex", "convex")),
           # theta in [1, 2): no feasible eta; theta > 2: eta's range
           # passes 1 and the formulas leave their domain at some points
           theta=st.one_of(st.just(0.2), st.floats(0.01, 0.99),
                           st.floats(1.0, 1.9), st.floats(2.05, 3.0)),
           L=st.floats(1e-2, 1e3),
           kappa=maybe_zero(st.floats(1e-3, 1e2)),
           alpha_max=st.floats(0.1, 100.0),
           eps_f=maybe_zero(st.floats(1e-9, 1.0)),
           eps_g=maybe_zero(st.floats(1e-9, 1.0)),
           p=st.one_of(st.floats(0.0, 1.0), st.just(0.5), st.just(1.0),
                       st.floats(0.5, 0.5 + 1e-6)),
           beta_frac=st.floats(1e-4, 1.0),
           D=st.floats(0.1, 100.0))
    @example(class_tag="nonconvex", theta=0.2, L=10.0, kappa=0.0, alpha_max=1.0,
             eps_f=0.0, eps_g=0.0, p=1.0, beta_frac=1.0, D=1.0)
    @example(class_tag="strongly_convex", theta=0.2, L=10.0, kappa=0.0,
             alpha_max=1.0, eps_f=1e-3, eps_g=0.0, p=0.5, beta_frac=0.01, D=1.0)
    @example(class_tag="convex", theta=0.2, L=10.0, kappa=1.0, alpha_max=1.0,
             eps_f=1e-3, eps_g=1e-3, p=0.4, beta_frac=1.0, D=2.0)
    @example(class_tag="nonconvex", theta=2.5, L=10.0, kappa=1.0, alpha_max=1.25,
             eps_f=1e-3, eps_g=1e-3, p=0.9, beta_frac=1.0, D=1.0)
    # magnitudes past the drawn ranges, where the screen alone differs from
    # the grid loop and the scalar fallback decides: theta = 1 (no feasible
    # eta), eps_g ** 2 overflowing, kappa * alpha_max overflowing to a zero
    # denominator, and the last with a value
    @example(class_tag="nonconvex", theta=1.0, L=1e-300, kappa=0.0,
             alpha_max=1e-3, eps_f=1e-300, eps_g=0.0, p=0.9, beta_frac=1.0,
             D=1.0)
    @example(class_tag="strongly_convex", theta=0.2, L=1e-300, kappa=0.0,
             alpha_max=1e-3, eps_f=1e-300, eps_g=1e300, p=0.0, beta_frac=1e-3,
             D=1.0)
    @example(class_tag="convex", theta=0.2, L=1e-300, kappa=1e300,
             alpha_max=1e200, eps_f=1e-300, eps_g=0.0, p=0.5000001,
             beta_frac=1.0, D=1.0)
    @example(class_tag="nonconvex", theta=2.5, L=1e-300, kappa=1e300,
             alpha_max=1e200, eps_f=1e-300, eps_g=0.0, p=0.5000001,
             beta_frac=1.0, D=1.0)
    # a clean screen whose second term underflows to -0.0: eps_min is the
    # scalar's 0.0, not np.maximum's -0.0
    @example(class_tag="nonconvex", theta=2.5, L=1e-300, kappa=0.0,
             alpha_max=1.0, eps_f=1e-300, eps_g=0.0, p=0.9, beta_frac=1.0,
             D=1.0)
    def test_equals_the_grid_loop(self, class_tag, theta, L, kappa, alpha_max,
                                  eps_f, eps_g, p, beta_frac, D):
        args = (class_tag, theta, L, kappa, alpha_max, eps_f, eps_g, p,
                beta_frac * L if class_tag == "strongly_convex" else 0.0,
                D if class_tag == "convex" else None)
        assert (floor_outcome(eps_lower_bound, *args)
                == floor_outcome(reference_eps_lower_bound, *args))

    @pytest.mark.parametrize("class_tag, extra", [
        ("nonconvex", {}), ("strongly_convex", {"beta": 0.1}),
        ("convex", {"D": 2.0})])
    def test_no_exact_point_on_a_clean_screen(self, monkeypatch, class_tag,
                                              extra):
        import aloe_lab.theory as theory
        calls = []

        def counted(*args):
            calls.append(args[1])
            return exact(*args)

        exact = theory._eps_min_at_eta
        monkeypatch.setattr(theory, "_eps_min_at_eta", counted)
        args = (class_tag, 0.2, 10.0, 1.0, 1.25, 1e-3, 1e-3, 0.9)
        assert math.isfinite(eps_lower_bound(*args, **extra)[0])
        assert calls == []


EXACT = dict(eps=1e-3, theta=0.2, gamma=0.8, alpha0=1.0, alpha_max=10.0,
             L=10.0, kappa=0.0, eps_g=0.0, delta=0.0, eps_f=0.0, nu=0.0,
             b=0.0, u=0.0, bounded=True, phi0=25.0, phi_star=0.0)


class TestDeriveConstants:
    def test_exact_limit(self):
        c = derive_constants("nonconvex", **EXACT)
        assert c.p == 1.0
        assert c.r_at_2epsf == 0.0
        assert c.eps_min == 0.0
        ok, reasons = c.admissible()
        assert ok, reasons

    def test_bar_alpha_snapped_below(self):
        c = derive_constants("nonconvex", **EXACT)
        assert c.bar_alpha_grid <= c.bar_alpha * (1 + 1e-12)
        snapped, i = snap_to_step_grid(c.bar_alpha, 1.0, 0.8)
        assert c.bar_alpha_grid == snapped
        assert c.d == float(max(i, 0))

    def test_exact_t_min_reduces_to_deterministic_form(self):
        c = derive_constants("nonconvex", **EXACT)
        for p_hat in (0.6, 0.75, 0.9):
            t_min, R, C, d = c.iteration_threshold(0.0, p_hat)
            assert t_min == math.ceil(R / (p_hat - 0.5))
        assert R == pytest.approx(c.Z0 / c.h_at_bar_grid + c.d)

    def test_p_hat_near_one_gives_2R(self):
        c = derive_constants("nonconvex", **EXACT)
        t_min, R, _, _ = c.iteration_threshold(0.0, 1.0 - 1e-12)
        assert t_min == pytest.approx(2 * R, rel=1e-6)

    def test_start_inside_target_gives_t_min_one(self):
        # log(gap / eps) = log(1e-6) makes R negative
        c = derive_constants("strongly_convex", **{**EXACT, "phi0": 1e-9},
                             beta=0.1)
        t_min, R, _, _ = c.iteration_threshold(0.0, 0.75)
        assert R < 0
        assert t_min == 1
        assert 0.0 <= c.tail_lower_bound(0.0, 0.75, t_min) <= 1.0

    def test_p_hat_outside_interval_raises(self):
        c = derive_constants("nonconvex", **EXACT)
        with pytest.raises(TheoremInapplicableError):
            c.iteration_threshold(0.0, 0.4)
        with pytest.raises(TheoremInapplicableError):
            c.iteration_threshold(0.0, 1.0)

    def test_noisy_inadmissible_when_eps_below_floor(self):
        params = dict(EXACT, eps_f=1e-2, nu=0.0, b=0.0, u=5e-3,
                      delta=0.1, eps=1e-6)
        c = derive_constants("nonconvex", **params)
        ok, reasons = c.admissible()
        assert not ok
        assert any("floor" in r or "progress" in r for r in reasons)

    def test_tail_lower_bound_monotone_and_bounded(self):
        c = derive_constants("nonconvex", **EXACT)
        t_min, _, _, _ = c.iteration_threshold(0.0, 0.75)
        vals = [c.tail_lower_bound(0.0, 0.75, t)
                for t in (t_min, 2 * t_min, 4 * t_min)]
        assert vals == sorted(vals)
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_bernstein_term_included_when_unbounded(self):
        params = dict(EXACT, eps=20.0, eps_f=0.05, nu=5e-3, b=5e-3, u=0.025,
                      delta=0.05, bounded=False)
        c = derive_constants("nonconvex", **params)
        ok, reasons = c.admissible()
        assert ok, reasons
        t_min, _, _, _ = c.iteration_threshold(0.01, 0.7)
        with_s = c.tail_lower_bound(0.01, 0.7, t_min)
        bern = bernstein_tail(0.01, t_min, c.nu_r, c.b_r)
        azuma = azuma_tail(c.p, 0.7, t_min)
        assert with_s == pytest.approx(max(1 - azuma - bern, 0.0))

    def test_eta_override(self):
        c = derive_constants("nonconvex", eta=0.1, **EXACT)
        assert c.eta == 0.1
        assert c.bar_alpha == pytest.approx(bar_alpha(0.2, 10.0, 0.0, 0.1))

    def test_strongly_convex_chain(self):
        params = dict(EXACT, eps=1e-2)
        c = derive_constants("strongly_convex", beta=0.1, **params)
        ok, reasons = c.admissible()
        assert ok, reasons
        assert c.Z0 == pytest.approx(math.log(25.0 / 1e-2))

    def test_convex_chain_sets_eps1(self):
        params = dict(EXACT, eps_g=1e-3)
        c = derive_constants("convex", D=5.0, **params)
        assert c.eps1 == pytest.approx(1e-3 / c.eta)


class TestDisplayC:
    def test_value(self):
        v = strongly_convex_display_C(0.2, 0.5, 0.4)
        assert v == pytest.approx(-math.log(1 - 0.4 ** 2 * 0.2 * 0.5))

    def test_invalid(self):
        with pytest.raises(TheoremInapplicableError):
            strongly_convex_display_C(1.0, 10.0, 1.0)


class TestReport:
    def test_contains_fields_and_admissibility(self):
        c = derive_constants("strongly_convex", beta=0.1, **dict(EXACT, eps=1e-2))
        text = constants_report(c)
        for key in ("bar_alpha", "bar_alpha_grid", "p =", "Z0",
                    "admissible = True", "display_rate_constant"):
            assert key in text

    def test_inadmissible_reasons_listed(self):
        params = dict(EXACT, eps_f=1e-2, u=5e-3, delta=0.1, eps=1e-6)
        c = derive_constants("nonconvex", **params)
        text = constants_report(c)
        assert "admissible = False" in text
        assert "inadmissible_reason" in text


class TestSnapProperty:
    @given(bar=st.floats(1e-3, 50.0), gamma=st.floats(0.5, 0.95),
           alpha0=st.floats(0.1, 5.0))
    @settings(max_examples=300, deadline=None)
    def test_snap_brackets(self, bar, gamma, alpha0):
        snapped, i = snap_to_step_grid(bar, alpha0, gamma)
        assert snapped <= bar * (1 + 1e-9)
        assert alpha0 * gamma ** (i - 1) > bar * (1 - 1e-9)
