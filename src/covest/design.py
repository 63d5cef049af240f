"""Budgeted design of observation probabilities.

Given a variance profile, the design problem picks probabilities close (in
least squares) to a common multiple of the per-coordinate standard
deviations, subject to the budget (the probabilities sum to m) and box
constraints (a strictly positive floor, a cap at 1). A positive floor keeps
every coordinate observable, which the unbiased estimator needs. The solver
takes exact steps on the scale: it projects onto the budgeted box, reads
which entries sit at a bound, and solves the scale in closed form on that
pattern until the pattern no longer changes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _check_finite
from .sampling import MaskDistribution

__all__ = [
    "DesignSolution",
    "project_box_simplex",
    "kkt_residual",
    "design_probabilities",
]


def _check_budget(n: int, m: float, eps: float) -> None:
    """The budget contract: a floor eps in [0, 1] and a budget in [n * eps, n], above 0."""
    _check_finite("eps", eps, ge=0, le=1)
    _check_finite("budget", m, gt=0)
    if not n * eps - 1e-12 <= m <= n * (1 + 1e-12):
        raise ValueError(f"budget {m} must lie in [n * eps, n] = [{n * eps:g}, {n}]")


def _bound_tol(lo: float, hi: float) -> float:
    """How near a bound of [lo, hi] an entry counts as at it, to rounding."""
    return 1e-12 * max(1.0, hi - lo)


@dataclass(frozen=True)
class DesignSolution:
    """Solver output: the design, the fitted scale, and convergence facts.

    Two certificates hold to rounding: p is the exact projection of
    rho * target onto the budgeted box, so kkt_residual(p, rho * target, m,
    floor) is near 0, and rho is the best scale for p, rho = p.target /
    target.target. iterations counts the projections, one per entry of
    objective_history. The solve is exact, so converged is always True.
    """

    p: MaskDistribution
    rho: float
    objective: float
    iterations: int
    converged: bool
    objective_history: tuple = ()


def _solve_on_pattern(v: np.ndarray, m: float, lo: float, hi: float, lam: float):
    """Solve the budget exactly on the pinned/free pattern of clip(v - lam, lo, hi).

    Entries at or past a bound stay there; the free entries share one shift,
    chosen so the sum is m. Returns the result and whether it keeps the
    pattern it was solved on, in which case it is the exact projection.
    """
    shifted = v - lam
    at_hi = shifted >= hi
    at_lo = shifted <= lo
    free = ~(at_hi | at_lo)
    k = np.count_nonzero(free)
    if k == 0:
        return np.clip(shifted, lo, hi), False
    pinned = hi * np.count_nonzero(at_hi) + lo * np.count_nonzero(at_lo)
    p = np.clip(v - (float(v[free].sum()) + pinned - m) / k, lo, hi)
    return p, bool(np.array_equal(p == hi, at_hi) and np.array_equal(p == lo, at_lo))


def _rho_on_pattern(s: np.ndarray, p: np.ndarray, m: float, eps: float) -> float:
    """The rho with rho = p.s / s.s when p keeps the pinned/free pattern it has now.

    With H the entries at 1, L those at eps and the k free ones F sharing one
    shift that meets the budget, both conditions are linear in rho:
    rho = (sum_H s + eps sum_L s - sigma_F (c - m) / k) / (s_H.s_H + s_L.s_L + sigma_F^2 / k),
    where sigma_F = sum_F s and c = |H| + eps |L|.
    """
    at_hi = p == 1.0
    at_lo = (p == eps) & ~at_hi
    free = ~(at_hi | at_lo)
    s_hi, s_lo = s[at_hi], s[at_lo]
    num = float(s_hi.sum()) + eps * float(s_lo.sum())
    den = float(s_hi @ s_hi) + float(s_lo @ s_lo)
    k = int(np.count_nonzero(free))
    if k:
        sigma = float(s[free].sum())
        c = int(np.count_nonzero(at_hi)) + eps * int(np.count_nonzero(at_lo))
        num -= sigma * (c - m) / k
        den += sigma * sigma / k
    return num / den


def project_box_simplex(v: np.ndarray, m: float, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Euclidean projection of v onto {p : sum(p) = m, lo <= p_i <= hi}.

    The projection is clip(v - lam, lo, hi) for the scalar lam at which its
    sum is m. That sum is piecewise linear and nonincreasing in lam, with
    breakpoints at v - hi and v - lo, so lam is exact once the pinned/free
    pattern is known. The pattern at lam = 0 is tried first, in O(n); when
    solving on it moves an entry across a bound, the 2n breakpoints are
    sorted, the segment whose sum brackets m is found by cumulative sums, and
    the pattern at its midpoint is solved (Condat, Math. Prog. 2016). Raises
    when the budget is infeasible for the box. This is the checked boundary;
    _solve calls the kernel _project on inputs that were checked before it.
    """
    v = _check_finite("v", v)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("v must be a nonempty 1-D vector")
    _check_finite("budget m", m)
    _check_finite("hi", hi, ge=_check_finite("lo", lo))
    n = v.size
    slack = 1e-9 * max(1.0, abs(m))
    if not n * lo - slack <= m <= n * hi + slack:
        raise ValueError(f"budget {m} is infeasible for box [{lo}, {hi}]^{n}")
    return _project(v, m, lo, hi)


def _project(v: np.ndarray, m: float, lo: float, hi: float) -> np.ndarray:
    # project_box_simplex on a finite nonempty 1-D float v, finite lo <= hi and a
    # budget within rounding of [n * lo, n * hi]
    n = v.size
    if m >= n * hi:
        return np.full(n, hi)
    if m <= n * lo:
        return np.full(n, lo)

    p, exact = _solve_on_pattern(v, m, lo, hi, 0.0)
    if exact:
        return p
    # entry i is free between its breakpoints v_i - hi and v_i - lo, so the
    # free count steps +1 at the first and -1 at the second
    breaks = np.concatenate([v - hi, v - lo])
    order = np.argsort(breaks, kind="stable")
    breaks = breaks[order]
    free_count = np.cumsum(np.where(order < n, 1, -1))
    drops = free_count[:-1] * np.diff(breaks)
    # the sum at each breakpoint falls from n*hi to n*lo, and its rounding
    # grows with the distance from the end it is accumulated from; taken from
    # the end nearer m, that rounding stays below m's distance from the end
    if m - n * lo < n * hi - m:
        sums = n * lo + np.concatenate([np.cumsum(drops[::-1])[::-1], [0.0]])
    else:
        sums = n * hi - np.concatenate([[0.0], np.cumsum(drops)])
    j = int(np.searchsorted(-sums, -m))
    p, _ = _solve_on_pattern(v, m, lo, hi, 0.5 * (breaks[j - 1] + breaks[j]))
    return p


def kkt_residual(p: np.ndarray, v: np.ndarray, m: float, lo: float = 0.0, hi: float = 1.0) -> float:
    """Optimality residual of a candidate projection output.

    A point is the projection of v exactly when some scalar lam reproduces it
    via clip(v - lam, lo, hi) and the budget holds. Returns the larger of the
    budget violation and the entrywise distance to the best such lam. The lam
    is fitted twice, once taking every entry strictly inside the box as free
    and once pinning entries within rounding of a bound, and the closer fit
    counts: an entry a hair above lo is free when the budget itself is that
    small, but pinned when it is rounding left on a clipped entry.
    """
    p = _check_finite("p", p)
    v = _check_finite("v", v)
    _check_finite("m", m)
    _check_finite("hi", hi, ge=_check_finite("lo", lo))
    budget_dev = abs(float(p.sum()) - m)
    devs = []
    for atol in (0.0, _bound_tol(lo, hi)):
        at_hi = p >= hi - atol
        at_lo = p <= lo + atol
        free = ~(at_hi | at_lo)
        if free.any():
            lam = float(np.mean(v[free] - p[free]))
        else:
            # all entries pinned: any lam in the admissible interval works
            upper = np.min(v[at_hi] - hi) if at_hi.any() else np.inf
            lower = np.max(v[at_lo] - lo) if at_lo.any() else -np.inf
            lam = min(max(0.0, lower), upper) if lower <= upper else 0.5 * (lower + upper)
        devs.append(float(np.max(np.abs(p - np.clip(v - lam, lo, hi)))))
    return max(min(devs), budget_dev)


def design_probabilities(diag_sigma: np.ndarray, m: float, eps: float = 1e-3) -> DesignSolution:
    """Fit observation probabilities to a variance profile under a budget.

    Minimizes 0.5 * ||p - rho * target||^2 over the budgeted box jointly in
    (p, rho), where target is sqrt(diag_sigma); the minimizer is unique. It
    is p = P(rho * target), the projection onto the box, at the root rho of
    g(rho) = rho * target.target - target.P(rho * target), which is
    nondecreasing and piecewise linear. Each step projects, records the
    objective and solves rho in closed form on the pattern of the result (the
    root of g's piece there); the solve ends when that gives back the rho it
    projected from. A step that would leave the sign bracket of g takes the
    bracket's chord instead, and a bracket with no float strictly inside ends
    the solve at rounding level. So there is no iteration cap and no
    tolerance, and both certificates of DesignSolution hold. When the profile
    is flat the answer is exactly uniform by symmetry, with no projection.
    """
    diag_sigma = _check_profile(diag_sigma)
    m, eps = float(m), float(eps)
    _check_budget(diag_sigma.size, m, eps)
    p, rho, history = _solve(np.sqrt(diag_sigma), m, eps)
    return DesignSolution(p=MaskDistribution(p), rho=rho, objective=history[-1] if history else 0.0,
                          iterations=len(history), converged=True, objective_history=history)


def _check_profile(diag_sigma) -> np.ndarray:
    """The variance profile as a nonempty 1-D float vector, finite, >= 0 and not all 0."""
    diag_sigma = _check_finite("variance profile", diag_sigma, ge=0)
    if diag_sigma.ndim != 1 or diag_sigma.size == 0:
        raise ValueError("variance profile must be a nonempty 1-D vector")
    if not np.any(diag_sigma > 0):
        raise ValueError("design needs at least one positive variance")
    return diag_sigma


def _solve(s: np.ndarray, m: float, eps: float) -> tuple:
    # design_probabilities on s = sqrt(profile) of a profile _check_profile
    # passed and a float budget and floor _check_budget passed: the read-only
    # design, rho and the objective history
    n = s.size
    if np.all(s == s[0]):
        p_uniform = min(m / n, 1.0)
        p, rho, history = np.full(n, p_uniform), p_uniform / s[0], []
    else:
        # g(rho) = rho s.s - s.P(rho s) is nondecreasing and piecewise linear, with
        # g(0) = -(m/n) sum(s) since P(0) is uniform; its root is the optimal rho
        s2 = float(s @ s)
        lo, g_lo, hi, g_hi = 0.0, -m / n * float(s.sum()), np.inf, np.inf
        rho = m / float(s.sum())  # the root when every entry is free
        history = []
        while True:
            p = _project(rho * s, m, eps, 1.0)  # checked by _check_budget
            history.append(0.5 * float(np.sum((p - rho * s) ** 2)))
            g = rho * s2 - float(s @ p)
            if g < 0:
                lo, g_lo = rho, g
            else:
                hi, g_hi = rho, g
            step = _rho_on_pattern(s, p, m, eps)
            if step == rho:  # p keeps the pattern its rho was solved on
                break
            if not lo < step < hi:
                # the chord of the bracket; NaN, and so the end, while hi is inf,
                # since a step from g < 0 only falls short of rho by rounding
                step = lo - g_lo * (hi - lo) / (g_hi - g_lo)
                if not lo < step < hi:  # no float left between the bracket ends
                    break
            rho = step

        # with eps = 0 the optimum can put an entry at 0, which rounding may leave
        # a hair above; the entries, and so the hair, scale with a budget below 1
        if eps == 0 and np.any(p <= _bound_tol(0.0, 1.0) * min(1.0, m)):
            raise ValueError(
                "design collapsed a coordinate to zero probability; "
                "use a positive floor (eps) to keep every coordinate observable"
            )
    p.flags.writeable = False
    return p, rho, tuple(history)
