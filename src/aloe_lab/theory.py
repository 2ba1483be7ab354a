"""Closed-form constants and probability bounds for the line-search analysis.

Everything here is a pure function of the problem and oracle constants: the
critical step size, the per-iteration progress and damage functions, the
per-iteration success probability of the accuracy events, the minimal
achievable accuracy, and the Azuma / Bernstein tail factors that combine
into the high-probability iteration-complexity bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .instrument import snap_to_step_grid
from .problems import CLASS_TAGS


class TheoremInapplicableError(ValueError):
    """The supplied constants violate a precondition of the bound."""


def eta_range(theta: float) -> float:
    """Upper end of the open interval of admissible eta values."""
    return (1 - theta) / (2 - theta)


def bar_alpha(theta: float, L: float, kappa: float, eta: float) -> float:
    """Critical step size below which true iterations are guaranteed to
    satisfy the sufficient-decrease test."""
    if not 0 < eta < eta_range(theta):
        raise ValueError(f"eta must lie in (0, {eta_range(theta)})")
    return min((1 - theta) / (0.5 * L + kappa),
               2 * (1 - 2 * eta - theta * (1 - eta)) / (L * (1 - eta)))


def success_prob_p(delta: float, nu: float, b: float, u: float, bounded: bool) -> float:
    """Lower bound on the conditional probability that an iteration is true.

    With bounded function noise only the gradient oracle can fail (1 - delta).
    Otherwise the Bernstein tail of the function-error sum, with mean slack
    u = eps_f - E[e(x)], is subtracted as well.
    """
    if bounded:
        return 1 - delta
    if u < 0:
        raise ValueError("u must be nonnegative")
    exponents = []
    if nu > 0:
        exponents.append(u ** 2 / (2 * nu ** 2))
    if b > 0:
        exponents.append(u / (2 * b))
    tail = math.exp(-min(exponents)) if exponents else 0.0
    return 1 - delta - tail


def h_of_alpha(class_tag: str, alpha: float, theta: float, eps: float,
               kappa: float, alpha_max: float, eta: float,
               beta: float = 0.0, D: float | None = None) -> float:
    """Guaranteed progress of a true successful iteration at step size alpha."""
    if alpha == 0:
        return 0.0
    cap = (1 + kappa * alpha_max) ** 2
    if class_tag == "nonconvex":
        return min(theta * eps ** 2 * alpha / cap,
                   theta * alpha * (1 - eta) ** 2 * eps ** 2)
    if class_tag == "strongly_convex":
        a1 = 1 - alpha * theta * beta / cap
        a2 = 1 - alpha * beta * theta * (1 - eta)
        if min(a1, a2) <= 0:
            raise ValueError("invalid parameter combination: log argument <= 0")
        return min(-math.log(a1), -math.log(a2))
    if class_tag == "convex":
        if D is None or D <= 0:
            raise ValueError("convex progress needs D > 0")
        return alpha * theta / (4 * D ** 2) * min((1 - eta) ** 2, 1 / cap)
    raise ValueError(f"unknown class_tag {class_tag!r}")


def r_damage(class_tag: str, eps_f: float, e_sum: float, eps: float) -> float:
    """Worst-case increase of the progress measure in one iteration, as a
    function of the realized function-error sum."""
    if e_sum < 0:
        raise ValueError("e_sum must be nonnegative")
    raw = 2 * eps_f + e_sum
    if class_tag == "nonconvex":
        return raw
    if class_tag == "strongly_convex":
        return math.log(1 + raw / eps)
    if class_tag == "convex":
        return raw / eps ** 2
    raise ValueError(f"unknown class_tag {class_tag!r}")


def subexp_params_r(class_tag: str, nu: float, b: float, eps: float,
                    eps_f: float = 0.0) -> tuple[float, float]:
    """Sub-exponential parameters of the per-iteration damage variable."""
    if class_tag == "nonconvex":
        return 2 * nu, 2 * b
    if class_tag == "convex":
        return 2 * nu / eps ** 2, 2 * b / eps ** 2
    if class_tag == "strongly_convex":
        m = 4 * math.e ** 2 * max(2 * nu / eps ** 2, 2 * b / eps ** 2) \
            + 8 * math.e * eps_f
        return m, m
    raise ValueError(f"unknown class_tag {class_tag!r}")


def azuma_tail(p: float, p_hat: float, t: float) -> float:
    """Probability that fewer than p_hat * t of t iterations are true, when
    each is true with conditional probability at least p."""
    if not 0 <= p_hat < p <= 1:
        raise ValueError("need 0 <= p_hat < p <= 1")
    if t < 1:
        raise ValueError("t must be >= 1")
    return math.exp(-((p - p_hat) ** 2) * t / (2 * p ** 2))


def bernstein_tail(s: float, t: float, nu_r: float, b_r: float) -> float:
    """Probability that the average damage exceeds its mean bound by s."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if t < 1:
        raise ValueError("t must be >= 1")
    if s == 0:
        return 1.0
    if nu_r == 0 and b_r == 0:
        return 0.0
    exponents = []
    if nu_r > 0:
        exponents.append(s ** 2 * t / (2 * nu_r ** 2))
    if b_r > 0:
        exponents.append(s * t / (2 * b_r))
    return math.exp(-min(exponents))


# ---------------------------------------------------------------------------
# Minimal achievable accuracy


def simplified_nonconvex_eps_min(eps_g: float, eps_f: float, L: float,
                                 kappa: float, alpha_max: float) -> float:
    """Simplified-constants form of the nonconvex accuracy floor."""
    return 4 * max(eps_g, (1 + kappa * alpha_max) * math.sqrt((L + 2 * kappa) * eps_f))


def _eps_min_at_eta(class_tag, eta, theta, L, kappa, alpha_max, eps_f, eps_g,
                    p, beta, D, include_4epsf_clause):
    ab = bar_alpha(theta, L, kappa, eta)
    if class_tag == "nonconvex":
        if eps_g > 0 and eta == 0:
            return math.inf
        first = eps_g / eta if eps_g > 0 else 0.0
        if eps_f > 0:
            if p <= 0.5:
                return math.inf
            inner = max((0.5 * L + kappa) / (1 - theta),
                        L * (1 - eta) / (2 * (1 - 2 * eta - theta * (1 - eta))))
            second = max(1 + kappa * alpha_max, 1 / (1 - eta)) * math.sqrt(
                4 * eps_f / (theta * (p - 0.5)) * inner)
        else:
            second = 0.0
        return max(first, second)
    if class_tag == "strongly_convex":
        first = eps_g ** 2 / (2 * beta * eta ** 2) if eps_g > 0 else 0.0
        if eps_f > 0:
            if p <= 0.5:
                return math.inf
            m = min(1 / (1 + kappa * alpha_max) ** 2, 1 - eta)
            base = 1 - m * theta * beta * ab
            if base <= 0:
                return math.inf
            denom = base ** (0.5 - p) - 1
            if denom <= 0:
                return math.inf
            second = 4 * eps_f / denom
        else:
            second = 0.0
        out = max(first, second)
        if include_4epsf_clause:
            out = max(out, 4 * eps_f)
        return out
    if class_tag == "convex":
        if eps_f > 0:
            if p <= 0.5:
                return math.inf
            m = min((1 - eta) ** 2, 1 / (1 + kappa * alpha_max) ** 2)
            first = math.sqrt(16 * D ** 2 * eps_f / (theta * (p - 0.5) * m * ab))
        else:
            first = 0.0
        return max(first, 4 * eps_f)
    raise ValueError(f"unknown class_tag {class_tag!r}")


def eps_lower_bound(class_tag: str, theta: float, L: float, kappa: float,
                    alpha_max: float, eps_f: float, eps_g: float, p: float,
                    beta: float = 0.0, D: float | None = None,
                    include_4epsf_clause: bool = True,
                    n_grid: int = 256) -> tuple[float, float]:
    """Smallest achievable accuracy target, minimized over the free analysis
    parameter eta on a grid of `n_grid` interior points.

    Returns (eps_min, eta_star).  In the exact-oracle limit eps_min is 0.
    """
    top = eta_range(theta)
    etas = np.linspace(top / (n_grid + 1), top * n_grid / (n_grid + 1), n_grid)
    best, best_eta = math.inf, None
    for eta in etas:
        try:
            val = _eps_min_at_eta(class_tag, float(eta), theta, L, kappa,
                                  alpha_max, eps_f, eps_g, p, beta, D,
                                  include_4epsf_clause)
        except ValueError:
            continue
        if val < best:
            best, best_eta = val, float(eta)
    if best_eta is None:
        raise TheoremInapplicableError("empty feasible eta range")
    return best, best_eta


def convex_eps1_min(eps_g: float, eta: float) -> float:
    """Floor for the gradient clause of the convex stopping criterion."""
    return eps_g / eta


def strongly_convex_display_C(theta: float, beta: float, bar_alpha_value: float) -> float:
    """Alternate closed form of the strongly convex rate constant,
    -ln(1 - bar_alpha^2 theta beta).  The primary definition used everywhere
    else is h(bar_alpha); this variant is reported alongside it because it
    differs by dropping the step-size cap factor."""
    arg = 1 - bar_alpha_value ** 2 * theta * beta
    if arg <= 0:
        raise TheoremInapplicableError("display rate constant undefined: log argument <= 0")
    return -math.log(arg)


# ---------------------------------------------------------------------------
# Full constant set and iteration-complexity bound


@dataclass(frozen=True)
class TheoryConstants:
    """Every derived quantity the harness needs, for one (class, oracle,
    algorithm, accuracy) configuration."""

    class_tag: str
    eps: float
    eps1: float | None
    theta: float
    gamma: float
    alpha0: float
    alpha_max: float
    L: float
    beta: float
    D: float | None
    kappa: float
    eps_g: float
    delta: float
    eps_f: float
    nu: float
    b: float
    u: float
    bounded: bool
    phi0: float
    phi_star: float
    eta: float
    eps_min: float
    bar_alpha: float
    bar_alpha_grid: float
    grid_index: int
    p: float
    h_at_bar: float
    h_at_bar_grid: float
    r_at_2epsf: float
    d: float
    nu_r: float
    b_r: float

    @property
    def Z0(self) -> float:
        from .instrument import progress_Z
        return progress_Z(self.class_tag, self.phi0, self.phi_star, self.eps)

    def admissible(self) -> tuple[bool, list[str]]:
        """Gate before any experiment: the progress/damage/probability
        relations the analysis assumes, evaluated at the grid-snapped
        critical step size."""
        reasons = []
        h, r, p = self.h_at_bar_grid, self.r_at_2epsf, self.p
        if self.class_tag == "nonconvex":
            if not h > 2 * r:
                reasons.append(f"progress condition fails: h(bar_alpha)={h} <= 2r={2 * r}")
        else:
            if p <= 0.5 or not h > r / (p - 0.5):
                reasons.append(f"progress condition fails: h(bar_alpha)={h} <= r/(p-1/2)")
        if not p > 0.5 + (r / h if h > 0 else math.inf):
            reasons.append(f"success probability too small: p={p} <= 1/2 + r/h")
        if not self.eps > self.eps_min:
            reasons.append(f"eps={self.eps} below the achievable floor {self.eps_min}")
        if self.class_tag == "convex" and self.eps1 is not None and self.eta > 0:
            if self.eps_g > 0 and self.eps1 < convex_eps1_min(self.eps_g, self.eta):
                reasons.append("eps1 below eps_g/eta")
        return not reasons, reasons

    def p_hat_interval(self, s: float = 0.0) -> tuple[float, float]:
        lo = 0.5 + (self.r_at_2epsf + s) / self.h_at_bar_grid
        return lo, self.p

    def iteration_threshold(self, s: float, p_hat: float) -> tuple[int, float, float, float]:
        """Smallest horizon the tail bound covers for deviation budget s and
        split point p_hat.  Returns (t_min, R, C, d)."""
        lo, hi = self.p_hat_interval(s)
        if not lo < p_hat < hi:
            raise TheoremInapplicableError(
                f"p_hat={p_hat} outside ({lo}, {hi}); theorem inapplicable"
            )
        h = self.h_at_bar_grid
        C = h / self._progress_normalizer()
        R = self.Z0 / h + self.d
        # a start already inside the target can make Z0, and so R, negative
        # (log(gap/eps) < -d h); the bound then covers every t >= 1
        t_min = max(1, math.ceil(R / (p_hat - 0.5 - (self.r_at_2epsf + s) / h)))
        return t_min, R, C, self.d

    def _progress_normalizer(self) -> float:
        # h(bar_alpha) = C * normalizer, matching each class's convention
        if self.class_tag == "nonconvex":
            return self.eps ** 2
        return 1.0

    def tail_lower_bound(self, s: float, p_hat: float, t: float) -> float:
        """Guaranteed P(T_eps <= t), valid for t >= t_min(s, p_hat)."""
        prob = 1.0 - azuma_tail(self.p, p_hat, t)
        if not self.bounded:
            prob -= bernstein_tail(s, t, self.nu_r, self.b_r)
        return max(prob, 0.0)


def derive_constants(class_tag: str, *, eps: float, theta: float, gamma: float,
                     alpha0: float, alpha_max: float, L: float, kappa: float,
                     eps_g: float, delta: float, eps_f: float, nu: float,
                     b: float, u: float, bounded: bool, phi0: float,
                     phi_star: float, beta: float = 0.0, D: float | None = None,
                     eps1: float | None = None, eta: float | None = None,
                     include_4epsf_clause: bool = True) -> TheoryConstants:
    """Evaluate the whole constant chain for one configuration.

    When `eta` is omitted it is chosen by grid-minimizing the accuracy floor,
    and the same eta is reused in every downstream constant.
    """
    if class_tag not in CLASS_TAGS:
        raise ValueError(f"unknown class_tag {class_tag!r}")
    p = success_prob_p(delta, nu, b, u, bounded)
    eps_min, eta_star = eps_lower_bound(
        class_tag, theta, L, kappa, alpha_max, eps_f, eps_g, p,
        beta=beta, D=D, include_4epsf_clause=include_4epsf_clause)
    if eta is None:
        eta = eta_star
    ab = bar_alpha(theta, L, kappa, eta)
    ab_grid, grid_index = snap_to_step_grid(ab, alpha0, gamma)
    d = float(max(grid_index, 0))
    h_bar = h_of_alpha(class_tag, ab, theta, eps, kappa, alpha_max, eta, beta, D)
    h_bar_grid = h_of_alpha(class_tag, ab_grid, theta, eps, kappa, alpha_max, eta, beta, D)
    r0 = r_damage(class_tag, eps_f, 2 * eps_f, eps)
    nu_r, b_r = subexp_params_r(class_tag, nu, b, eps, eps_f)
    if class_tag == "convex" and eps1 is None and eps_g > 0:
        eps1 = convex_eps1_min(eps_g, eta)
    return TheoryConstants(
        class_tag=class_tag, eps=eps, eps1=eps1, theta=theta, gamma=gamma,
        alpha0=alpha0, alpha_max=alpha_max, L=L, beta=beta, D=D, kappa=kappa,
        eps_g=eps_g, delta=delta, eps_f=eps_f, nu=nu, b=b, u=u, bounded=bounded,
        phi0=phi0, phi_star=phi_star, eta=eta, eps_min=eps_min,
        bar_alpha=ab, bar_alpha_grid=ab_grid, grid_index=grid_index, p=p,
        h_at_bar=h_bar, h_at_bar_grid=h_bar_grid, r_at_2epsf=r0, d=d,
        nu_r=nu_r, b_r=b_r,
    )


def constants_report(c: TheoryConstants) -> str:
    """Plain key = value dump for experiment output directories."""
    lines = []
    for name in c.__dataclass_fields__:
        lines.append(f"{name} = {getattr(c, name)!r}")
    lines.append(f"Z0 = {c.Z0!r}")
    if c.class_tag == "strongly_convex":
        try:
            lines.append(
                f"display_rate_constant = "
                f"{strongly_convex_display_C(c.theta, c.beta, c.bar_alpha)!r}")
        except TheoremInapplicableError:
            lines.append("display_rate_constant = nan")
    ok, reasons = c.admissible()
    lines.append(f"admissible = {ok}")
    for reason in reasons:
        lines.append(f"inadmissible_reason = {reason}")
    return "\n".join(lines) + "\n"
