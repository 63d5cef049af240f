"""Output checks made apart from the program under test.

Each check returns a list of problems; an empty list means it passed. The
formulas come from the observation model itself (Gaussian fourth moments,
independent Bernoulli masks), not from covest's code, so a regression in the
estimator, the design solver or the harness shows up as a problem here.
"""
from __future__ import annotations

import numpy as np

# z-score beyond which a Monte-Carlo mean counts as disagreeing with theory
Z_LIMIT = 4.0


def per_sample_rel_mse(sigma: np.ndarray, p: np.ndarray) -> float:
    """E||S_T - sigma||_F^2 / ||sigma||_F^2 times T for a Gaussian source.

    The reweighted estimator over T samples has entrywise variance v_ij / T.
    Off the diagonal v_ij = (s_ii s_jj + 2 s_ij^2) / (p_i p_j) - s_ij^2, and on
    it v_ii = 3 s_ii^2 / p_i - s_ii^2.
    """
    sigma = np.asarray(sigma, dtype=float)
    p = np.asarray(p, dtype=float)
    d = np.diag(sigma)
    var = (np.outer(d, d) + 2.0 * sigma**2) / np.outer(p, p) - sigma**2
    np.fill_diagonal(var, 3.0 * d**2 / p - d**2)
    return float(var.sum() / np.sum(sigma**2))


def check_exact_mse(errors: np.ndarray, checkpoints: np.ndarray, sigma: np.ndarray,
                    p: np.ndarray, label: str = "") -> list[str]:
    """Mean squared relative error of a fixed design against its exact MSE.

    errors is (trials, checkpoints) of relative Frobenius errors. T * err^2 /
    (per-sample MSE) has expectation 1 at every checkpoint; its average over
    checkpoints is one number per trial, trials are independent, so the
    tolerance is Z_LIMIT standard errors of the trial mean.
    """
    errors = np.asarray(errors, dtype=float)
    trials = errors.shape[0]
    if trials < 2:
        return [f"{label}: exact-MSE check needs at least two trials"]
    scaled = errors**2 * np.asarray(checkpoints, dtype=float) / per_sample_rel_mse(sigma, p)
    per_trial = scaled.mean(axis=1)
    ratio = float(per_trial.mean())
    se = float(per_trial.std(ddof=1) / np.sqrt(trials))
    if not np.isfinite(ratio) or abs(ratio - 1.0) > Z_LIMIT * se:
        return [f"{label}: mean squared error is {ratio:.3f}x the exact MSE "
                f"(standard error {se:.3f}, limit {Z_LIMIT:g} SE)"]
    return []


def check_design(p: np.ndarray, m: float, eps: float, label: str = "") -> list[str]:
    """A design sums to its budget and every entry lies in [eps, 1]."""
    p = np.asarray(p, dtype=float)
    problems = []
    if not np.all(np.isfinite(p)):
        return [f"{label}: design has non-finite entries"]
    if abs(float(p.sum()) - m) > 1e-9 * max(1.0, m):
        problems.append(f"{label}: design sums to {p.sum():.12g}, budget is {m:.12g}")
    if p.min() < eps * (1 - 1e-9) or p.max() > 1.0 + 1e-12:
        problems.append(f"{label}: design leaves [{eps:g}, 1]: min {p.min():.3g}, max {p.max():.3g}")
    return problems


def grid_projection(v: np.ndarray, m: float, lo: float, hi: float = 1.0,
                    step: float = 1e-4) -> np.ndarray:
    """clip(v - lam, lo, hi) at the grid lam whose sum lies closest to m.

    Every projection onto {sum = m, lo <= p <= hi} has that form; scanning lam
    on a grid of the given step lands within one step of it entrywise.
    """
    grid = np.arange(v.min() - hi, v.max() - lo + step, step)
    best, best_gap = None, np.inf
    for chunk in np.array_split(grid, max(1, grid.size * v.size // 2_000_000)):
        cand = np.clip(v[None, :] - chunk[:, None], lo, hi)
        gaps = np.abs(cand.sum(axis=1) - m)
        k = int(np.argmin(gaps))
        if gaps[k] < best_gap:
            best, best_gap = cand[k], gaps[k]
    return best


def check_designed(p: np.ndarray, diag_sigma: np.ndarray, m: float, eps: float,
                   label: str = "", step: float = 1e-4) -> list[str]:
    """The designed arm against an independent oracle of the design problem.

    The design minimizes ||p - rho * s||^2 over the budgeted box jointly in
    (p, rho), s = sqrt(diag sigma). That problem is convex, so p is optimal
    exactly when rho = p.s / s.s and p is the projection of rho * s; the
    projection comes from the grid scan, not from covest.
    """
    p = np.asarray(p, dtype=float)
    s = np.sqrt(np.asarray(diag_sigma, dtype=float))
    rho = float(p @ s / (s @ s))
    oracle = grid_projection(rho * s, m, eps, 1.0, step)
    gap = float(np.abs(p - oracle).max())
    if gap > 2 * step:
        return [f"{label}: designed probabilities are {gap:.2e} from the grid oracle "
                f"(limit {2 * step:.0e})"]
    return []


def check_orderings(final_errors: dict, label: str = "") -> list[str]:
    """Full observation beats every budgeted arm; a larger budget beats a smaller.

    final_errors maps (arm, budget fraction) to the mean final error.
    """
    problems = []
    full = final_errors.get(("full", 1.0))
    budgeted = {k: v for k, v in final_errors.items() if k[0] != "full"}
    if full is not None:
        for (arm, frac), err in sorted(budgeted.items()):
            if not full < err:
                problems.append(f"{label}: full ({full:.4g}) does not beat {arm}@{frac:g} ({err:.4g})")
    for arm in sorted({a for a, _ in budgeted}):
        fracs = sorted(f for a, f in budgeted if a == arm)
        for small, large in zip(fracs, fracs[1:]):
            if not budgeted[(arm, large)] < budgeted[(arm, small)]:
                problems.append(f"{label}: {arm}@{large:g} ({budgeted[(arm, large)]:.4g}) does not "
                                f"beat {arm}@{small:g} ({budgeted[(arm, small)]:.4g})")
    return problems


def check_active_band(final_errors: np.ndarray, samples: int, sigma: np.ndarray,
                      p_designed: np.ndarray, p_uniform: np.ndarray,
                      label: str = "") -> list[str]:
    """The adaptive loop's final error lies between two fixed designs' RMS errors.

    It starts uniform and converges towards the designed probabilities, so its
    mean final error over independent runs should sit between the designed
    and the uniform RMS error at the same sample count, up to Z_LIMIT
    standard errors of that mean; full observation must beat it outright.
    """
    errs = np.asarray(final_errors, dtype=float)
    se = float(errs.std(ddof=1) / np.sqrt(errs.size)) if errs.size > 1 else 0.0
    mean = float(errs.mean())
    rms = {name: float(np.sqrt(per_sample_rel_mse(sigma, p) / samples))
           for name, p in (("designed", p_designed), ("uniform", p_uniform),
                           ("full", np.ones(len(p_uniform))))}
    problems = []
    if not rms["designed"] - Z_LIMIT * se <= mean <= rms["uniform"] + Z_LIMIT * se:
        problems.append(f"{label}: final error {mean:.4f} outside [designed RMS "
                        f"{rms['designed']:.4f}, uniform RMS {rms['uniform']:.4f}] "
                        f"(standard error {se:.2e}, limit {Z_LIMIT:g} SE)")
    if not rms["full"] < mean:
        problems.append(f"{label}: final error {mean:.4f} beats full observation's "
                        f"RMS {rms['full']:.4f}")
    return problems
