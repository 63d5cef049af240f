import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covest import design, linalg, sampling
from covest.bounds import entrywise_norm, error_scale_matrix
from covest.design import design_probabilities, kkt_residual, project_box_simplex
from covest.sampling import MaskDistribution

from helpers import alternating_design, grid_project


def test_projection_example():
    p = project_box_simplex(np.array([2.0, 1.0, 0.0, -1.0]), 2.0)
    assert np.allclose(p, [1.0, 1.0, 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("v", [np.array([]), np.ones((2, 2))], ids=["empty", "2-D"])
def test_projection_needs_a_nonempty_vector(v):
    with pytest.raises(ValueError, match="v must be a nonempty 1-D vector"):
        project_box_simplex(v, 1.0)


def test_projection_budget_and_box():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        v = rng.normal(scale=3.0, size=n)
        m = float(rng.uniform(0.1, n))
        p = project_box_simplex(v, m)
        assert abs(p.sum() - m) <= 1e-9 * max(1.0, m)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_projection_saturated_budgets():
    v = np.array([0.3, -2.0, 5.0])
    assert np.array_equal(project_box_simplex(v, 3.0), np.ones(3))
    assert np.array_equal(project_box_simplex(v, 0.0), np.zeros(3))
    lo = np.full(3, 0.1)
    assert np.array_equal(project_box_simplex(v, 0.3, lo=0.1), lo)


def test_projection_feasible_input_returned_exactly():
    v = np.array([0.25, 0.5, 0.25])
    assert np.array_equal(project_box_simplex(v, 1.0), v)


def test_projection_infeasible_budget():
    with pytest.raises(ValueError):
        project_box_simplex(np.zeros(3), 4.0)
    with pytest.raises(ValueError):
        project_box_simplex(np.zeros(3), -0.5)
    with pytest.raises(ValueError):
        project_box_simplex(np.zeros(3), 1.0, lo=0.6, hi=0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_projection_rejects_non_finite_input(bad):
    # NaN passed every range check and came back as [nan, nan]
    with pytest.raises(ValueError, match="v must be finite"):
        project_box_simplex(np.array([bad, 1.0]), 1.0)
    with pytest.raises(ValueError, match="budget m must be finite"):
        project_box_simplex(np.array([0.5, 1.0]), bad)


def test_projection_of_a_tiny_budget_is_exact():
    # the breakpoint sums were accumulated down from n*hi = 2, whose rounding
    # swamped m = 4e-16; the result [1e-16, 4e-16] missed the budget by 25%
    p = project_box_simplex(np.array([0.0, 3e-16]), 4e-16)
    assert np.allclose(p, [5e-17, 3.5e-16], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kkt_residual_rejects_non_finite_input(bad):
    # each of these returned NaN
    ok = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="^p must be finite"):
        kkt_residual(np.array([bad, 0.5]), ok, 1.0)
    with pytest.raises(ValueError, match="^v must be finite"):
        kkt_residual(ok, np.array([bad, 0.5]), 1.0)
    with pytest.raises(ValueError, match="^m must be finite"):
        kkt_residual(ok, ok, bad)


def test_projection_against_grid_oracle():
    # brute-force scan over the dual scalar, independent of the implementation
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        v = rng.normal(scale=2.0, size=n)
        lo = float(rng.uniform(0.0, 0.2))
        m = float(rng.uniform(n * lo, n))
        fast = project_box_simplex(v, m, lo=lo)
        slow = grid_project(v, m, lo=lo)
        assert np.abs(fast - slow).max() <= 2e-3


def test_projection_kkt_residual():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(1, 41))
        v = rng.normal(scale=rng.uniform(0.5, 5.0), size=n)
        lo = float(rng.uniform(0.0, 0.02))
        m = float(rng.uniform(n * lo, n))
        p = project_box_simplex(v, m, lo=lo)
        assert kkt_residual(p, v, m, lo=lo) <= 1e-8


def test_design_example_two_coordinates():
    # variances [4, 1] with budget 1 split 2:1 along standard deviations
    sol = design_probabilities(np.array([4.0, 1.0]), 1.0)
    assert np.allclose(sol.p.p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-9)
    assert sol.rho == pytest.approx(1.0 / 3.0)
    assert sol.converged


def test_design_cap_binds():
    # the dominant coordinate saturates at 1 and the rest split evenly
    sol = design_probabilities(np.array([100.0, 1.0, 1.0]), 2.5)
    assert np.allclose(sol.p.p, [1.0, 0.75, 0.75], atol=1e-9)


def test_design_flat_profile_is_exactly_uniform():
    sol = design_probabilities(np.full(4, 7.0), 2.0)
    assert np.array_equal(sol.p.p, np.full(4, 0.5))
    assert sol.converged and sol.iterations == 0


def test_design_floor_binds_exactly():
    sol = design_probabilities(np.array([100.0, 1e-8]), 0.5, eps=1e-3)
    assert sol.p.p[1] == 1e-3
    assert sol.p.p[0] == pytest.approx(0.499, abs=1e-9)


def test_design_budget_always_met():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 25))
        diag = rng.uniform(0.0, 10.0, size=n) ** 2
        diag[int(rng.integers(n))] = rng.uniform(5.0, 50.0)
        m = float(rng.uniform(n * 2e-3, n))
        sol = design_probabilities(diag, m, eps=1e-3)
        assert abs(sol.p.p.sum() - m) <= 1e-8 * max(1.0, m)
        assert np.all(sol.p.p >= 1e-3 - 1e-15) and np.all(sol.p.p <= 1.0)


def test_design_scale_invariance():
    diag = np.array([9.0, 4.0, 1.0, 0.25])
    base = design_probabilities(diag, 1.5).p.p
    for c in (1e-3, 7.0, 1e4):
        assert np.abs(design_probabilities(c * diag, 1.5).p.p - base).max() <= 1e-8


def test_design_monotone_in_variance():
    # growing one coordinate's variance never shrinks its probability
    diag = np.array([1.0, 2.0, 3.0, 4.0])
    prev = design_probabilities(diag, 2.0).p.p[0]
    for bump in (2.0, 5.0, 20.0):
        d = diag.copy()
        d[0] = bump
        cur = design_probabilities(d, 2.0).p.p[0]
        assert cur >= prev - 1e-10
        prev = cur


def test_design_objective_history_monotone():
    sol = design_probabilities(np.array([50.0, 3.0, 1.0, 0.2, 0.1]), 1.8)
    hist = np.array(sol.objective_history)
    assert hist.size >= 1
    assert np.all(np.diff(hist) <= 1e-10)
    assert sol.objective == hist[-1]
    assert sol.iterations == hist.size


def test_design_errors():
    with pytest.raises(ValueError):
        design_probabilities(np.array([1.0, -1.0]), 1.0)
    with pytest.raises(ValueError):
        design_probabilities(np.array([1.0, 1.0]), 3.0)
    with pytest.raises(ValueError):
        design_probabilities(np.array([1.0, 1.0]), 1e-6, eps=1e-3)
    with pytest.raises(ValueError):
        design_probabilities(np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        design_probabilities(np.array([[1.0]]), 0.5)
    with pytest.raises(ValueError):
        design_probabilities(np.array([1.0]), 0.5, eps=1.5)
    with pytest.raises(ValueError, match="budget must be positive"):
        design_probabilities(np.array([1.0, 2.0]), np.nan)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_design_rejects_non_finite_profile(bad):
    with pytest.raises(ValueError, match="variance profile"):
        design_probabilities([bad, 1.0], 1.0)


def test_design_scale_norms_prefers_matched_design():
    # for a spiked profile the fitted design scores below uniform
    cov = np.diag([25.0, 1.0, 1.0, 1.0])
    m = 2.0
    designed = design_probabilities(np.diag(cov), m).p
    uniform = MaskDistribution.uniform(4, m)
    scored = [entrywise_norm(error_scale_matrix(cov, p), 2.0) for p in (designed, uniform)]
    assert scored[0] < scored[1]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 784),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["normal", "feasible", "ties"]),
    lo=st.floats(0.0, 0.5),
    width=st.floats(1e-3, 2.0),
    where=st.one_of(st.sampled_from([0.0, 1e-15, 1.0 - 1e-15, 1.0]), st.floats(0.0, 1.0)),
)
def test_projection_kkt_property(n, seed, kind, lo, width, where):
    rng = np.random.default_rng(seed)
    hi = lo + width
    if kind == "feasible":
        v = rng.uniform(lo, hi, size=n)  # already in the box
    else:
        v = rng.normal(loc=0.5 * (lo + hi), scale=rng.uniform(0.01, 20.0), size=n)
        if kind == "ties":
            v = np.round(v, 1)  # repeated values give repeated breakpoints
    m = n * (lo + where * width)
    if kind == "feasible" and 0.0 < where < 1.0:
        m = min(max(float(v.sum()), n * lo), n * hi)  # v is its own projection
    p = project_box_simplex(v, m, lo=lo, hi=hi)
    assert kkt_residual(p, v, m, lo=lo, hi=hi) <= 1e-12 * max(1.0, m)
    # the budget holds to rounding at the scale of the inputs, which shrinks
    # with them: the absolute bound above let [0, 3e-16] with m = 4e-16 miss
    # its budget by 25%. Measured worst over 60,000 random cases: 0.89
    assert abs(p.sum() - m) <= 2 * n * np.finfo(float).eps * max(m, np.abs(v).max())


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 784),
    seed=st.integers(0, 2**32 - 1),
    spikes=st.integers(0, 5),
    zeros=st.floats(0.0, 0.9),
    where=st.floats(0.0, 1.0),
)
def test_design_property(n, seed, spikes, zeros, where):
    eps = 1e-3
    rng = np.random.default_rng(seed)
    diag = rng.uniform(0.0, 10.0, size=n) ** 2
    diag[rng.random(n) < zeros] = 0.0
    diag[rng.integers(n, size=spikes)] *= 100.0
    diag[rng.integers(n)] += 1.0  # at least one positive entry
    m = n * (eps + where * (1.0 - eps))
    sol = design_probabilities(diag, m, eps=eps)
    assert abs(sol.p.p.sum() - m) <= 1e-9 * m
    assert np.all(sol.p.p >= eps) and np.all(sol.p.p <= 1.0)
    hist = np.array(sol.objective_history)
    assert np.all(np.diff(hist) <= 1e-12 * max([1.0, *hist[:1]]))  # a flat profile has no history


@pytest.mark.parametrize("diag, m", [([1.0, 4.0, 0.0], 0.7), ([4.0, 1.0, 0.0], 1.0)])
def test_design_collapse_is_judged_to_rounding(diag, m):
    # without a floor the optimum puts the zero-variance entry at 0 in both;
    # rounding left the first at 3.7e-17 (reweighting factors up to 7.3e32),
    # which passed, and the second at exactly 0, which raised
    with pytest.raises(ValueError, match="collapsed"):
        design_probabilities(np.array(diag), m, eps=0.0)


def test_design_collapse_needs_a_zero_floor_and_scales_with_the_budget():
    # a positive floor, however small, keeps the zero-variance entry at it
    sol = design_probabilities(np.array([1.0, 4.0, 0.0]), 0.7, eps=1e-13)
    assert sol.p.p[2] == 1e-13
    # a budget far below 1 gives every entry a tiny share, which is no collapse,
    # for a non-flat profile as for the flat one
    for diag in ([1.0, 1.0], [1.0, 1.0001]):
        p = design_probabilities(np.array(diag), 1e-13, eps=0.0).p.p
        assert np.all(p > 4e-14) and abs(p.sum() - 1e-13) <= 1e-27


def test_design_n784_regression():
    # the inexact projection raised "alternating descent must not increase the
    # objective" on this valid profile
    sol = design_probabilities(np.random.default_rng(0).uniform(0, 10, 784) ** 2, 0.9 * 784)
    assert sol.converged
    assert abs(sol.p.p.sum() - 705.6) <= 1e-9 * 705.6


def _certificates(sol, diag, m, eps):
    """The projection KKT residual and |rho - p.s/s.s| * ||s||, over max(1, m)."""
    s = np.sqrt(diag)
    p = sol.p.p
    scale = max(1.0, m)
    kkt = kkt_residual(p, sol.rho * s, m, eps)
    fit = abs(sol.rho - p @ s / (s @ s)) * np.linalg.norm(s)
    return kkt / scale, fit / scale


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 784),
    seed=st.integers(0, 2**32 - 1),
    eps=st.sampled_from([0.0, 1e-3, 0.05]),
    shape=st.sampled_from(["lognormal", "spiked", "zeros"]),
    where=st.one_of(st.sampled_from([0.0, 1e-15, 1e-9, 1.0 - 1e-9, 1.0 - 1e-15, 1.0]), st.floats(0.0, 1.0)),
)
def test_design_exact_solve_property(n, seed, eps, shape, where):
    rng = np.random.default_rng(seed)
    if shape == "lognormal":
        diag = rng.lognormal(0.0, 2.0, size=n)
    elif shape == "spiked":
        diag = rng.uniform(0.5, 1.5, size=n)
        diag[rng.integers(n, size=3)] *= 1e3
    else:
        diag = rng.uniform(0.0, 10.0, size=n) ** 2
        diag[rng.random(n) < 0.7] = 0.0
        diag[rng.integers(n)] += 1.0
    m = max(n * (eps + where * (1.0 - eps)), 1e-12 * n)
    try:
        sol = design_probabilities(diag, m, eps=eps)
    except ValueError as err:
        # without a floor, a coordinate may get zero probability
        assert eps == 0.0 and "collapsed" in str(err)
        return
    assert sol.converged and sol.iterations == len(sol.objective_history)
    kkt, fit = _certificates(sol, diag, m, eps)
    assert kkt <= 1e-12 and fit <= 1e-12
    # the joint minimum is no worse than where the alternation stopped; the
    # objective's rounding scales with the budget, as the certificates do
    _, _, history = alternating_design(diag, m, eps)
    assert sol.objective <= history[-1] + 1e-15 * max(1.0, m)


def test_design_root_on_a_kink_terminates():
    # at the optimum rho = 0.2 entry 2 sits exactly at the cap. Pattern steps
    # alone alternate forever between the floats on either side of 0.2 (entry
    # 2 free, then pinned), each solving to the other; the chord of the sign
    # bracket lands between them and ends the solve
    diag = np.array([16.0, 4.0, 25.0, 1.0, 1.0])
    sol = design_probabilities(diag, 2.6, eps=0.05)
    assert np.abs(sol.p.p - [0.8, 0.4, 1.0, 0.2, 0.2]).max() <= 1e-15
    assert sol.rho == pytest.approx(0.2, rel=1e-15, abs=0.0)
    assert max(_certificates(sol, diag, 2.6, 0.05)) <= 1e-15
    assert sol.converged and sol.iterations == len(sol.objective_history)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 784),
    level=st.floats(1e-300, 1e300),
    where=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)
def test_flat_profile_is_exactly_uniform_property(n, level, where):
    eps = 1e-3
    m = n * (eps + where * (1.0 - eps))
    sol = design_probabilities(np.full(n, level), m, eps=eps)
    assert np.all(sol.p.p == sol.p.p[0])
    assert sol.p.p[0] == min(m / n, 1.0)
    assert sol.iterations == 0 and sol.objective_history == () and sol.converged


@pytest.mark.parametrize("diag, m, eps, projections", [
    ([4.0, 1.0], 1.0, 1e-3, 1),
    ([0.001, 12.884, 40.079, 1.121, 2.168, 649.074, 0.076, 0.001], 0.79, 0.05, 4),
])
def test_design_checks_its_inputs_once_per_solve(monkeypatch, diag, m, eps, projections):
    # the profile, eps and the budget, then p in MaskDistribution: the solver's
    # projections run on checked values, so the count does not grow with them
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return linalg._check_finite(*args, **kwargs)

    monkeypatch.setattr(design, "_check_finite", counting)
    monkeypatch.setattr(sampling, "_check_finite", counting)
    sol = design_probabilities(diag, m, eps=eps)
    assert sol.iterations == projections
    assert sorted(calls) == ["budget", "eps", "p", "variance profile"]
