"""Budgeted design of observation probabilities.

Given a variance profile, the design problem picks probabilities close (in
least squares) to a common multiple of the per-coordinate standard
deviations, subject to the budget (the probabilities sum to m) and box
constraints (a strictly positive floor, a cap at 1). A positive floor keeps
every coordinate observable, which the unbiased estimator needs. The solver
alternates an exact one-dimensional scale update with a Euclidean projection
onto the budgeted box.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import CovarianceEstimate
from .sampling import MaskDistribution

__all__ = [
    "DesignProblem",
    "DesignSolution",
    "project_box_simplex",
    "kkt_residual",
    "design_probabilities",
    "update_design",
]


@dataclass(frozen=True)
class DesignProblem:
    """Validated inputs for one design solve.

    target is the vector of per-coordinate standard deviations, m the budget,
    and floor the smallest admissible probability.
    """

    target: np.ndarray
    m: float
    floor: float = 1e-3

    def __post_init__(self):
        target = np.asarray(self.target, dtype=float)
        if target.ndim != 1 or target.size == 0:
            raise ValueError("target must be a nonempty 1-D vector")
        if np.any(target < 0):
            raise ValueError("target entries must be nonnegative")
        if not np.any(target > 0):
            raise ValueError("design needs at least one positive target entry")
        if not 0 <= self.floor <= 1:
            raise ValueError("floor must lie in [0, 1]")
        n = target.size
        if self.m <= 0 or self.m > n * (1 + 1e-12):
            raise ValueError(f"budget must lie in (0, {n}]")
        if self.m < n * self.floor - 1e-12:
            raise ValueError("budget is below the floor times the dimension")
        object.__setattr__(self, "target", target)

    @property
    def n(self) -> int:
        return self.target.size


@dataclass(frozen=True)
class DesignSolution:
    """Solver output: the design, the fitted scale, and convergence facts.

    p is the exact projection of rho * target onto the budgeted box, so
    kkt_residual(p, rho * target, m, floor) certifies it; converged says the
    scale has settled as well.
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


def project_box_simplex(v: np.ndarray, m: float, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Euclidean projection of v onto {p : sum(p) = m, lo <= p_i <= hi}.

    The projection is clip(v - lam, lo, hi) for the scalar lam at which its
    sum is m. That sum is piecewise linear and nonincreasing in lam, with
    breakpoints at v - hi and v - lo, so lam is exact once the pinned/free
    pattern is known. The pattern at lam = 0 is tried first, in O(n); when
    solving on it moves an entry across a bound, the 2n breakpoints are
    sorted, the segment whose sum brackets m is found by cumulative sums, and
    the pattern at its midpoint is solved (Condat, Math. Prog. 2016). Raises
    when the budget is infeasible for the box.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("v must be a nonempty 1-D vector")
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    n = v.size
    slack = 1e-9 * max(1.0, abs(m))
    if m < n * lo - slack or m > n * hi + slack:
        raise ValueError(f"budget {m} is infeasible for box [{lo}, {hi}]^{n}")
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
    sums = n * hi - np.concatenate([[0.0], np.cumsum(free_count[:-1] * np.diff(breaks))])
    # sums falls from n*hi > m; rounding can leave its end above an m close
    # to n*lo, in which case m lies on the last segment
    j = min(int(np.searchsorted(-sums, -m)), 2 * n - 1)
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
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    budget_dev = abs(float(p.sum()) - m)
    devs = []
    for atol in (0.0, 1e-12 * max(1.0, hi - lo)):
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
    (p, rho), where target is sqrt(diag_sigma). Both updates are exact
    partial minimizers, so the objective never increases. Each iteration
    projects, records the objective and stops once it falls by less than
    1e-12, before rescaling, so the returned rho is the one p was projected
    from. When the profile is flat the answer is exactly uniform by symmetry.
    """
    diag_sigma = np.asarray(diag_sigma, dtype=float)
    if not np.all(np.isfinite(diag_sigma)):
        raise ValueError("variance profile must be finite (no NaN or inf entries)")
    if np.any(diag_sigma < 0):
        raise ValueError("variance profile must be nonnegative")
    problem = DesignProblem(target=np.sqrt(diag_sigma), m=float(m), floor=float(eps))
    s = problem.target
    n = problem.n

    if np.all(s == s[0]):
        p_uniform = min(problem.m / n, 1.0)
        return DesignSolution(
            p=MaskDistribution(np.full(n, p_uniform)),
            rho=p_uniform / s[0],
            objective=0.0,
            iterations=0,
            converged=True,
            objective_history=(0.0,),
        )

    rho = problem.m / s.sum()
    prev_obj = np.inf
    history = []
    p = None
    converged = False
    iterations = 0
    for iterations in range(1, 501):
        p = project_box_simplex(rho * s, problem.m, lo=problem.floor, hi=1.0)
        obj = 0.5 * float(np.sum((p - rho * s) ** 2))
        history.append(obj)
        if prev_obj - obj < 1e-12:
            converged = True
            break
        prev_obj = obj
        rho = float(p @ s / (s @ s))

    if np.any(p <= 0.0):
        raise ValueError(
            "design collapsed a coordinate to zero probability; "
            "use a positive floor (eps) to keep every coordinate observable"
        )
    return DesignSolution(
        p=MaskDistribution(p),
        rho=rho,
        objective=history[-1],
        iterations=iterations,
        converged=converged,
        objective_history=tuple(history),
    )


def update_design(estimate, m: float, eps: float = 1e-3) -> DesignSolution:
    """Redesign from an estimated covariance (an estimate or its matrix).

    Negative diagonal entries (possible, since the unbiased estimate need not
    be PSD) are clamped to zero before the solve; clamped coordinates end up
    at the floor.
    """
    if isinstance(estimate, CovarianceEstimate):
        estimate = estimate.matrix
    diag = np.clip(np.diag(np.asarray(estimate, dtype=float)), 0.0, None)
    return design_probabilities(diag, m, eps)
