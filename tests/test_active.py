import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import covest.estimator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covest.active import ActiveConfig, ActiveTrace, run_active, run_fixed
from covest.data import make_spiked_model
from covest.design import design_probabilities
from covest.estimator import (
    _PANEL,
    CovarianceEstimate,
    _folding,
    _panels,
    estimate_cov,
    merge_estimates,
    relative_frobenius_error,
)
from covest.sampling import MaskDistribution, child_rng, derive_seed, draw_mask, mask_batch

from helpers import outputs_at_blas_threads


def test_config_validation():
    with pytest.raises(ValueError):
        ActiveConfig(budget=0.0, batch_size=5, iterations=2)
    with pytest.raises(ValueError):
        ActiveConfig(budget=1.0, batch_size=0, iterations=2)
    with pytest.raises(ValueError):
        ActiveConfig(budget=1.0, batch_size=5, iterations=0)
    with pytest.raises(ValueError):
        ActiveConfig(budget=1.0, batch_size=5, iterations=2, eps=1.5)


def test_config_rejects_nan_budget():
    # NaN fails "budget <= 0" as well, so that check let it through
    with pytest.raises(ValueError, match="budget must be positive"):
        ActiveConfig(budget=np.nan, batch_size=5, iterations=2)


class _WrongWidthOracle:
    dim = 4

    def draw(self, count):
        return np.ones((count, 3))


def test_oracle_rows_must_match_dimension():
    with pytest.raises(ValueError, match="oracle returned rows"):
        run_active(_WrongWidthOracle(), ActiveConfig(budget=2.0, batch_size=4, iterations=1))


class _EmptyOracle:
    dim = 3

    def draw(self, count):
        return np.zeros((0, 3))


class _NanOracle:
    dim = 3

    def draw(self, count):
        rows = np.ones((count, 3))
        rows[0, 1] = np.nan
        return rows


def test_oracle_must_return_rows():
    # a 0-row batch used to divide 0 by 0 into a silent NaN estimate
    with pytest.raises(ValueError, match="oracle returned no rows"):
        run_active(_EmptyOracle(), ActiveConfig(budget=1.5, batch_size=4, iterations=1))


def test_oracle_rows_must_be_finite():
    with pytest.raises(ValueError, match="oracle returned non-finite"):
        run_fixed(_NanOracle(), MaskDistribution.uniform(3, 1.5), total=8, batch_size=4)


def test_budget_checks():
    model = make_spiked_model(4, 1, 10.0)
    stream = model.stream(child_rng(0))
    with pytest.raises(ValueError):
        run_active(stream, ActiveConfig(budget=5.0, batch_size=4, iterations=1))
    with pytest.raises(ValueError):
        run_active(stream, ActiveConfig(budget=1e-5, batch_size=4, iterations=1, eps=1e-2))


def test_single_iteration_trace():
    model = make_spiked_model(4, 1, 10.0)
    cfg = ActiveConfig(budget=2.0, batch_size=6, iterations=1, seed=3)
    trace = run_active(model.stream(child_rng(1)), cfg, truth=model.sigma)
    assert len(trace) == 1
    rec = trace.records[0]
    assert rec.iteration == 0
    assert np.array_equal(rec.design, np.full(4, 0.5))
    assert rec.sample_count == 6
    assert 0 <= rec.observed_count <= 6 * 4
    assert rec.rel_error is not None and np.isfinite(rec.rel_error)
    # the loop already redesigned for the iteration that would come next
    assert abs(trace.final_design.sum() - 2.0) <= 1e-8
    assert trace.final_estimate.sample_count == 6


def test_trace_invariants():
    model = make_spiked_model(5, 1, 16.0, seed=2)
    cfg = ActiveConfig(budget=2.5, batch_size=7, iterations=6, eps=1e-2, seed=11)
    trace = run_active(model.stream(child_rng(8)), cfg, truth=model.sigma)
    assert len(trace) == 6
    assert np.array_equal(trace.sample_counts(), 7 * np.arange(1, 7))
    designs = trace.designs()
    assert designs.shape == (6, 5)
    assert np.array_equal(designs[0], np.full(5, 0.5))
    assert np.abs(designs.sum(axis=1) - 2.5).max() <= 1e-8
    assert np.all(designs >= 1e-2 - 1e-15) and np.all(designs <= 1.0)
    assert np.all(np.isfinite(trace.errors()))
    assert [r.iteration for r in trace.records] == list(range(6))


def test_errors_nan_without_truth():
    model = make_spiked_model(3, 1, 4.0)
    cfg = ActiveConfig(budget=1.5, batch_size=5, iterations=3)
    trace = run_active(model.stream(child_rng(4)), cfg)
    assert np.all(np.isnan(trace.errors()))


def test_deterministic_given_seed_and_stream():
    model = make_spiked_model(4, 2, 6.0)
    cfg = ActiveConfig(budget=2.0, batch_size=5, iterations=4, seed=9)
    a = run_active(model.stream(child_rng(6)), cfg, truth=model.sigma)
    b = run_active(model.stream(child_rng(6)), cfg, truth=model.sigma)
    assert np.array_equal(a.final_estimate.matrix, b.final_estimate.matrix)
    assert np.array_equal(a.errors(), b.errors())
    other = run_active(
        model.stream(child_rng(6)),
        ActiveConfig(budget=2.0, batch_size=5, iterations=4, seed=10),
        truth=model.sigma,
    )
    assert not np.array_equal(a.final_estimate.matrix, other.final_estimate.matrix)


def test_record_matrices_flag():
    model = make_spiked_model(3, 1, 4.0)
    cfg = ActiveConfig(budget=1.5, batch_size=5, iterations=2, seed=1)
    trace = run_active(model.stream(child_rng(5)), cfg, truth=model.sigma, record_matrices=False)
    assert all(r.batch_estimate is None and r.merged is None for r in trace.records)
    assert np.all(np.isfinite(trace.errors()))
    assert trace.final_estimate is not None


def test_empty_trace_has_no_final_estimate():
    # no batch has been folded into a running sum
    assert ActiveTrace().final_estimate is None


def test_full_budget_matches_fixed_run_bitwise():
    # with the whole budget the redesign is forced to all-ones, so the
    # adaptive loop and a frozen full design must agree exactly
    model = make_spiked_model(4, 1, 10.0, seed=3)
    cfg = ActiveConfig(budget=4.0, batch_size=6, iterations=5, seed=21)
    active = run_active(model.stream(child_rng(22)), cfg, truth=model.sigma)
    fixed = run_fixed(
        model.stream(child_rng(22)),
        MaskDistribution(np.ones(4)),
        total=30,
        truth=model.sigma,
        batch_size=6,
        seed=21,
    )
    assert np.array_equal(active.final_estimate.matrix, fixed.final_estimate.matrix)
    assert np.array_equal(active.errors(), fixed.errors())
    assert np.array_equal(active.designs(), fixed.designs())


def test_final_estimate_is_built_on_first_read(monkeypatch):
    built = []

    class Counted(CovarianceEstimate):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(covest.estimator, "CovarianceEstimate", Counted)
    model = make_spiked_model(4, 1, 10.0, seed=3)
    p = MaskDistribution.uniform(4, 2.0)
    trace = run_fixed(model.stream(child_rng(5)), p, total=12, truth=model.sigma,
                      batch_size=6, seed=7)
    assert built == []
    first = trace.final_estimate
    assert trace.final_estimate is first and built == [first]
    # the running sum S, rebuilt from the same rows and masks
    xs = model.stream(child_rng(5)).draw(12)
    gram_sum = np.zeros((4, 4))
    with _folding(gram_sum) as fold:
        for t in range(2):
            masks = draw_mask(p, child_rng(7, t), size=6)
            fold(masks * xs[6 * t:6 * (t + 1)], p.p, 1)
    assert np.array_equal(first.matrix, gram_sum / 12)
    assert first.sample_count == 12


def test_run_fixed_validation():
    model = make_spiked_model(4, 1, 10.0)
    p = MaskDistribution.uniform(4, 2.0)
    with pytest.raises(ValueError):
        run_fixed(model.stream(child_rng(0)), p, total=10, batch_size=3)
    with pytest.raises(ValueError):
        run_fixed(model.stream(child_rng(0)), p, total=0)
    with pytest.raises(ValueError):
        run_fixed(model.stream(child_rng(0)), MaskDistribution.uniform(3, 1.5), total=6)


def test_run_fixed_single_batch_default():
    model = make_spiked_model(3, 1, 4.0)
    trace = run_fixed(model.stream(child_rng(2)), MaskDistribution.uniform(3, 1.5), total=12)
    assert len(trace) == 1
    assert trace.final_estimate.sample_count == 12


def test_adaptive_estimate_stays_unbiased():
    # the design depends on past data, yet each batch is conditionally
    # unbiased, so the merged estimate has no bias
    model = make_spiked_model(4, 1, 8.0, seed=1)
    trials = 600
    stack = np.empty((trials, 4, 4))
    for r in range(trials):
        cfg = ActiveConfig(budget=2.0, batch_size=8, iterations=3, seed=derive_seed(66, r))
        trace = run_active(model.stream(child_rng(55, r)), cfg, record_matrices=False)
        stack[r] = trace.final_estimate.matrix
    se = stack.std(axis=0, ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(stack.mean(axis=0) - model.sigma) <= 5 * se)


def test_matched_design_beats_uniform_on_spiked_truth():
    model = make_spiked_model(8, 1, 25.0, seed=5)
    m, batch, iters, trials = 4.0, 300, 10, 10
    uniform = MaskDistribution.uniform(8, m)
    designed = design_probabilities(np.diag(model.sigma), m).p
    errs = {"uniform": [], "designed": [], "active": []}
    for r in range(trials):
        seed = derive_seed(77, r)
        errs["uniform"].append(
            run_fixed(model.stream(child_rng(78, r)), uniform, total=batch * iters,
                      truth=model.sigma, batch_size=batch, seed=seed,
                      record_matrices=False).errors()[-1]
        )
        errs["designed"].append(
            run_fixed(model.stream(child_rng(78, r)), designed, total=batch * iters,
                      truth=model.sigma, batch_size=batch, seed=seed,
                      record_matrices=False).errors()[-1]
        )
        cfg = ActiveConfig(budget=m, batch_size=batch, iterations=iters, seed=seed)
        errs["active"].append(
            run_active(model.stream(child_rng(78, r)), cfg, truth=model.sigma,
                       record_matrices=False).errors()[-1]
        )
    mean = {k: float(np.mean(v)) for k, v in errs.items()}
    assert mean["designed"] < mean["uniform"]
    assert mean["active"] < mean["uniform"]


_EPS = np.finfo(float).eps
_ULPS = 4


def _reference_chain(oracle, p, iterations, batch_size, seed, truth, adapt, budget=None, eps=1e-3):
    """The batch loop composed from the public estimator functions."""
    estimate = CovarianceEstimate.zero(p.n)
    steps = []
    for t in range(iterations):
        batch = mask_batch(oracle.draw(batch_size), p, child_rng(seed, t))
        batch_estimate = estimate_cov(batch, p)
        estimate = merge_estimates(estimate, batch_estimate)
        rel = np.nan if truth is None else relative_frobenius_error(estimate, truth)
        steps.append((p.p, batch_estimate, estimate, rel, batch.observed_count))
        if adapt:
            p = design_probabilities(np.clip(np.diag(estimate.matrix), 0.0, None), budget, eps).p
    return steps, estimate, p.p


def _close(actual, expected, n):
    """Equal up to _ULPS ulp x n, relative to the largest entry of expected."""
    expected = np.asarray(expected, dtype=float)
    return np.abs(actual - expected).max() <= _ULPS * n * _EPS * np.abs(expected).max()


def _assert_trace_matches(trace, truth, steps, estimate, final_design):
    # the loop sums reweighted Gram matrices and divides once, where the
    # chain merges running means, so the matrices and designs agree to
    # rounding; each error is scored on the loop's own merged matrix, bitwise
    # in one panel and to rounding when the loop scores panel by panel
    n = estimate.dim
    assert len(trace) == len(steps)
    for rec, (design, batch_estimate, merged, rel, observed) in zip(trace.records, steps):
        assert _close(rec.design, design, n)
        assert _close(rec.batch_estimate.matrix, batch_estimate.matrix, n)
        assert rec.batch_estimate.sample_count == batch_estimate.sample_count
        assert _close(rec.merged.matrix, merged.matrix, n)
        assert rec.merged.sample_count == merged.sample_count
        assert rec.sample_count == merged.sample_count
        assert rec.observed_count == observed
        if truth is None:
            assert rec.rel_error is None and np.isnan(rel)
        elif n <= _PANEL:
            assert rec.rel_error == relative_frobenius_error(rec.merged, truth)
        else:
            expected = relative_frobenius_error(rec.merged, truth)
            assert abs(rec.rel_error - expected) <= _ULPS * n * _EPS * expected
    assert np.array_equal(trace.final_estimate.matrix, trace.final_estimate.matrix.T)
    assert _close(trace.final_estimate.matrix, estimate.matrix, n)
    assert trace.final_estimate.sample_count == estimate.sample_count
    assert _close(trace.final_design, final_design, n)


@pytest.mark.parametrize("with_truth", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_active_loop_matches_reference_chain_bitwise(seed, with_truth):
    model = make_spiked_model(12, 2, 30.0, theta=0.1, seed=seed)
    truth = model.sigma if with_truth else None
    cfg = ActiveConfig(budget=5.0, batch_size=9, iterations=7, eps=1e-2, seed=derive_seed(seed, 1))
    trace = run_active(model.stream(child_rng(seed, 2)), cfg, truth=truth, record_matrices=True)
    reference = _reference_chain(model.stream(child_rng(seed, 2)), MaskDistribution.uniform(12, 5.0),
                                 7, 9, cfg.seed, truth, adapt=True, budget=5.0, eps=1e-2)
    _assert_trace_matches(trace, truth, *reference)


@pytest.mark.parametrize("with_truth", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fixed_loop_matches_reference_chain_bitwise(seed, with_truth):
    model = make_spiked_model(10, 3, 20.0, theta=0.2, seed=seed)
    truth = model.sigma if with_truth else None
    p = design_probabilities(np.diag(model.sigma), 4.0, eps=1e-2).p
    trace = run_fixed(model.stream(child_rng(seed, 3)), p, total=40, truth=truth,
                      batch_size=8, seed=seed, record_matrices=True)
    reference = _reference_chain(model.stream(child_rng(seed, 3)), p, 5, 8, seed, truth, adapt=False)
    _assert_trace_matches(trace, truth, *reference)


class _DenseStream:
    """Rows drawn with a random mean shift, so every entry of the estimate is generic."""

    def __init__(self, n, seed):
        self.dim = n
        self._rng = child_rng(seed)

    def draw(self, count):
        return self._rng.standard_normal((count, self.dim)) + self._rng.standard_normal(self.dim)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 9),
    batch_size=st.integers(1, 12),
    iterations=st.integers(1, 4),
    p=st.lists(st.floats(0.01, 1.0), min_size=9, max_size=9),
    seed=st.integers(0, 2**32 - 1),
)
def test_fixed_loop_matches_reference_chain_property(n, batch_size, iterations, p, seed):
    design = MaskDistribution(np.array(p[:n]))
    truth = np.eye(n) + 0.5
    trace = run_fixed(_DenseStream(n, seed), design, total=batch_size * iterations, truth=truth,
                      batch_size=batch_size, seed=seed, record_matrices=True)
    reference = _reference_chain(_DenseStream(n, seed), design, iterations, batch_size, seed,
                                 truth, adapt=False)
    _assert_trace_matches(trace, truth, *reference)


def test_multi_panel_split_is_fixed_height():
    # n = 301 folds in three row panels: two of _PANEL rows and the rest
    assert _panels(301) == [(0, _PANEL), (_PANEL, 2 * _PANEL), (2 * _PANEL, 301)]
    assert _panels(_PANEL) == [(0, _PANEL)]


@pytest.mark.parametrize("adapt", [True, False])
def test_multi_panel_batch_estimates_are_estimate_cov_bitwise(adapt):
    # a recorded batch estimate is the batch's rows folded into a zero sum,
    # as estimate_cov folds them, in three panels at n = 301
    n, batch_size, iterations, seed = 301, 40, 3, 4
    model = make_spiked_model(n, 3, 30.0, theta=0.1, seed=seed)
    if adapt:
        cfg = ActiveConfig(budget=80.0, batch_size=batch_size, iterations=iterations, seed=seed)
        trace = run_active(model.stream(child_rng(seed, 5)), cfg, truth=model.sigma, record_matrices=True)
    else:
        p = design_probabilities(np.diag(model.sigma), 80.0).p
        trace = run_fixed(model.stream(child_rng(seed, 5)), p, total=batch_size * iterations,
                          truth=model.sigma, batch_size=batch_size, seed=seed, record_matrices=True)
    stream = model.stream(child_rng(seed, 5))
    for t, rec in enumerate(trace.records):
        p = MaskDistribution(rec.design)
        expected = estimate_cov(mask_batch(stream.draw(batch_size), p, child_rng(seed, t)), p)
        assert np.array_equal(rec.batch_estimate.matrix, expected.matrix)
        assert rec.batch_estimate.sample_count == expected.sample_count


@pytest.mark.parametrize("adapt", [True, False])
def test_multi_panel_loop_matches_reference_chain(adapt):
    n, batch_size, iterations, seed = 301, 40, 3, 4
    model = make_spiked_model(n, 3, 30.0, theta=0.1, seed=seed)
    if adapt:
        cfg = ActiveConfig(budget=80.0, batch_size=batch_size, iterations=iterations, seed=seed)
        trace = run_active(model.stream(child_rng(seed, 5)), cfg, truth=model.sigma, record_matrices=True)
        p = MaskDistribution.uniform(n, 80.0)
    else:
        p = design_probabilities(np.diag(model.sigma), 80.0).p
        trace = run_fixed(model.stream(child_rng(seed, 5)), p, total=batch_size * iterations,
                          truth=model.sigma, batch_size=batch_size, seed=seed, record_matrices=True)
    reference = _reference_chain(model.stream(child_rng(seed, 5)), p, iterations, batch_size, seed,
                                 model.sigma, adapt=adapt, budget=80.0)
    _assert_trace_matches(trace, model.sigma, *reference)


def test_multi_panel_estimate_matches_plain_gram():
    n = 301
    p = design_probabilities(np.linspace(1.0, 4.0, n), 90.0).p
    batch = mask_batch(_DenseStream(n, 6).draw(30), p, child_rng(7))
    a = batch.observed / p.p
    expected = a.T @ a
    expected[np.diag_indices(n)] *= p.p
    estimate = estimate_cov(batch, p)
    assert np.array_equal(estimate.matrix, estimate.matrix.T)
    assert _close(estimate.matrix, expected / 30, n)


def test_records_keep_no_matrices_by_default():
    model = make_spiked_model(4, 1, 9.0, seed=1)
    cfg = ActiveConfig(budget=2.0, batch_size=5, iterations=3, seed=2)
    active = run_active(model.stream(child_rng(3)), cfg, truth=model.sigma)
    fixed = run_fixed(model.stream(child_rng(3)), MaskDistribution.uniform(4, 2.0), total=15,
                      truth=model.sigma, batch_size=5)
    for trace in (active, fixed):
        assert all(r.batch_estimate is None and r.merged is None for r in trace.records)
        assert trace.final_estimate.sample_count == 15


def test_truth_must_match_and_be_nonzero():
    model = make_spiked_model(4, 1, 9.0)
    cfg = ActiveConfig(budget=2.0, batch_size=5, iterations=2)
    with pytest.raises(ValueError, match="share a shape"):
        run_active(model.stream(child_rng(0)), cfg, truth=np.eye(3))
    with pytest.raises(ValueError, match="nonzero"):
        run_fixed(model.stream(child_rng(0)), MaskDistribution.uniform(4, 2.0), total=10,
                  truth=np.zeros((4, 4)))


def test_fixed_loop_rejects_underflowing_reweighting():
    # p_0 p_1 underflows to zero, so the reweighting 1/(p_0 p_1) is infinite
    p = MaskDistribution(np.array([1e-200, 1e-200, 0.5, 0.5]))
    model = make_spiked_model(4, 1, 9.0)
    with pytest.raises(ValueError, match="strictly positive"):
        run_fixed(model.stream(child_rng(0)), p, total=10, batch_size=5)


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loop_memory_does_not_grow_with_iterations():
    # the loop keeps a running sum and one panel product; estimates and their
    # validation add a few transient n x n arrays, never one per batch
    n = 200
    buffer = n * n * 8
    model = make_spiked_model(n, 2, 20.0, theta=0.1, seed=0)

    def run(iterations):
        cfg = ActiveConfig(budget=60.0, batch_size=50, iterations=iterations, seed=2)
        run_active(model.stream(child_rng(1)), cfg, truth=model.sigma, record_matrices=False)

    short, long = _traced_peak(lambda: run(5)), _traced_peak(lambda: run(20))
    # fifteen more records add fifteen designs of n floats each
    assert long - short <= buffer / 2
    assert long <= 7 * buffer


# block += panel on a strided block of S (every panel past the first) makes
# numpy's buffered iteration allocate one buffer of getbufsize() floats per
# input, 132 KB by tracemalloc; each folding thread holds its own while it adds
_UFUNC_BUFFERS = 2 * np.getbufsize() * 8


def test_loop_holds_one_sum_and_one_panel(monkeypatch):
    # at n = 384 (three panels) the loop holds S, per folding thread one panel
    # product of at most _PANEL x n floats and its ufunc buffers, and two
    # batches' rows; a second n x n buffer for the batch's Gram matrix breaks
    # the bound
    n, batch_size = 384, 16
    model = make_spiked_model(n, 2, 20.0, theta=0.1, seed=0)
    p = MaskDistribution.uniform(n, 96.0)
    stream = model.stream(child_rng(1))
    built = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(covest.estimator, "ThreadPoolExecutor", Recording)
    peak = _traced_peak(lambda: run_fixed(stream, p, total=3 * batch_size, truth=model.sigma,
                                          batch_size=batch_size, seed=2))
    # the rows, the stream's draw temporaries and the mask draws fit in 8 row blocks
    rows = 8 * batch_size * n * 8
    # the calling thread and the executor's helpers, if it built one
    threads = 1 + sum(built)
    assert threads == min(3, covest.estimator._cores)
    assert peak <= n * n * 8 + threads * (_PANEL * n * 8 + _UFUNC_BUFFERS) + rows


def test_first_design_takes_the_budget_contract_of_design_probabilities():
    # a budget a rounding step above n passed the budget check and then failed
    # as "p must lie in (0, 1]"
    model = make_spiked_model(4, 1, 9.0)
    cfg = ActiveConfig(budget=4 * (1 + 1e-13), batch_size=5, iterations=2)
    trace = run_active(model.stream(child_rng(0)), cfg)
    assert trace.records[0].design.tolist() == [1.0] * 4
    # for m <= n the first design is m / n everywhere, as MaskDistribution.uniform gives
    for m in (0.3, 1.0, 2.5, 4.0):
        cfg = ActiveConfig(budget=m, batch_size=5, iterations=1)
        first = run_active(model.stream(child_rng(0)), cfg).records[0].design
        assert np.array_equal(first, MaskDistribution.uniform(4, m).p)


class _HugeOracle:
    dim = 3

    def draw(self, count):
        return np.full((count, 3), 1e160)


def test_loop_rejects_an_overflowing_profile():
    # the rows are finite, but their squares overflow the running profile to inf
    with pytest.raises(ValueError, match="variance profile must be finite"):
        with np.errstate(over="ignore", invalid="ignore"):
            run_active(_HugeOracle(), ActiveConfig(budget=1.5, batch_size=4, iterations=2))


def test_designs_are_read_only():
    model = make_spiked_model(6, 2, 20.0, theta=0.1, seed=0)
    cfg = ActiveConfig(budget=3.0, batch_size=10, iterations=4)
    p = MaskDistribution.uniform(6, 3.0)
    for trace in (run_active(model.stream(child_rng(1)), cfg),
                  run_fixed(model.stream(child_rng(1)), p, total=40, batch_size=10)):
        for design in [*(rec.design for rec in trace.records), trace.final_design]:
            assert design.flags.writeable is False


class _UncheckedOracle:
    """Gaussian rows with a spiked profile; draw does not check its count."""

    dim = 6

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def draw(self, count):
        return self._rng.standard_normal((count, self.dim)) * np.arange(1.0, 7.0)


def _finite_checks(monkeypatch, run) -> int:
    calls = []
    original = covest.linalg._check_finite

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in vars(covest).values():
        if getattr(module, "_check_finite", None) is original:
            monkeypatch.setattr(module, "_check_finite", counting)
    run()
    monkeypatch.undo()
    return len(calls)


def test_loop_checks_only_the_running_profile_per_batch(monkeypatch):
    # the budget, eps and the oracle's count are fixed for the run; each
    # redesign checks the profile, the one input that changes per batch
    truth = np.diag(np.arange(1.0, 7.0) ** 2)

    def active(iterations):
        cfg = ActiveConfig(budget=3.0, batch_size=10, iterations=iterations, seed=1)
        return lambda: run_active(_UncheckedOracle(), cfg, truth=truth)

    def fixed(iterations):
        p = MaskDistribution.uniform(6, 3.0)
        return lambda: run_fixed(_UncheckedOracle(), p, total=10 * iterations, truth=truth,
                                 batch_size=10, seed=1)

    assert _finite_checks(monkeypatch, active(12)) - _finite_checks(monkeypatch, active(2)) == 10
    assert _finite_checks(monkeypatch, fixed(12)) == _finite_checks(monkeypatch, fixed(2))


def _trace_arrays(trace) -> list:
    arrays = [trace.errors(), trace.designs(), trace.final_design, trace.final_estimate.matrix]
    for r in trace.records:
        arrays += [r.batch_estimate.matrix, r.merged.matrix]
    return arrays


@pytest.mark.parametrize("n", [301, 784])
@pytest.mark.parametrize("adapt", [True, False])
def test_helper_fold_is_bitwise_the_serial_fold(monkeypatch, n, adapt):
    # with two cores the panels are shared with one helper thread; with one
    # core the calling thread folds them all, and every output keeps its bits
    model = make_spiked_model(n, 4, 30.0, theta=0.1, seed=n)
    p = MaskDistribution.uniform(n, n / 4)

    def run():
        stream = model.stream(child_rng(n, 1))
        if adapt:
            cfg = ActiveConfig(budget=n / 4, batch_size=40, iterations=3, seed=5)
            return run_active(stream, cfg, truth=model.sigma, record_matrices=True)
        return run_fixed(stream, p, total=120, truth=model.sigma, batch_size=40, seed=5,
                         record_matrices=True)

    monkeypatch.setattr(covest.estimator, "_cores", 1)
    serial = _trace_arrays(run())
    monkeypatch.setattr(covest.estimator, "_cores", 2)
    helped = _trace_arrays(run())
    assert all(np.array_equal(a, b) for a, b in zip(serial, helped, strict=True))


def test_many_helpers_fold_each_panel_once(monkeypatch):
    # six helpers on two cores, switching threads every microsecond: a panel
    # claimed twice or not at all would change S and the errors
    n = 784
    model = make_spiked_model(n, 4, 30.0, theta=0.1, seed=1)
    cfg = ActiveConfig(budget=n / 4, batch_size=20, iterations=3, seed=2)

    def run():
        trace = run_active(model.stream(child_rng(1)), cfg, truth=model.sigma)
        return [trace.errors(), trace.designs(), trace.final_estimate.matrix]

    monkeypatch.setattr(covest.estimator, "_cores", 1)
    serial = run()
    monkeypatch.setattr(covest.estimator, "_cores", 8)
    helped = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: helped.update(arrays=run()), daemon=True)
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert all(np.array_equal(a, b) for a, b in zip(serial, helped["arrays"], strict=True))


class _CountingOracle:
    """A stream that logs the thread and the live thread count of each draw, and raises on draw fail_at."""

    def __init__(self, n, fail_at=None):
        self._stream = _DenseStream(n, 3)
        self.dim = n
        self.fail_at = fail_at
        self.calls = []

    def draw(self, count):
        self.calls.append((threading.get_ident(), threading.active_count()))
        if len(self.calls) == self.fail_at:
            raise RuntimeError("oracle failed")
        return self._stream.draw(count)


def test_oracle_is_drawn_once_per_batch_from_the_calling_thread(monkeypatch):
    monkeypatch.setattr(covest.estimator, "_cores", 2)
    before = threading.active_count()
    oracle = _CountingOracle(301)
    run_active(oracle, ActiveConfig(budget=60.0, batch_size=20, iterations=4), truth=np.eye(301))
    assert [ident for ident, _ in oracle.calls] == [threading.get_ident()] * 4
    # the helper starts with the first fold and folds while batches 2-4 are drawn
    assert [live - before for _, live in oracle.calls] == [0, 1, 1, 1]
    assert threading.active_count() == before


@pytest.mark.parametrize("fail_at", [1, 3])
def test_a_failing_oracle_leaves_no_helper_running(monkeypatch, fail_at):
    monkeypatch.setattr(covest.estimator, "_cores", 2)
    before = threading.active_count()
    oracle = _CountingOracle(301, fail_at=fail_at)
    with pytest.raises(RuntimeError, match="oracle failed"):
        run_fixed(oracle, MaskDistribution.uniform(301, 60.0), total=100, batch_size=20)
    # the third draw fails while the helper folds the second batch
    assert [live - before for _, live in oracle.calls] == [0, 1, 1][:fail_at]
    assert threading.active_count() == before


@pytest.mark.parametrize("cores, helpers", [
    (8, {1: 0, _PANEL: 0, _PANEL + 1: 1, 301: 2, 784: 6}),
    (2, {_PANEL: 0, 301: 1, 784: 1}),
    (1, {784: 0}),
])
def test_fold_helpers_take_the_spare_cores(monkeypatch, cores, helpers):
    # one helper per panel past the first, up to the spare cores; with none,
    # the loop builds no executor at all
    monkeypatch.setattr(covest.estimator, "_cores", cores)
    built = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(covest.estimator, "ThreadPoolExecutor", Recording)
    seen = {}
    for n in helpers:
        built.clear()
        run_fixed(_DenseStream(n, 3), MaskDistribution.uniform(n, n / 2), total=40, batch_size=20)
        seen[n] = built[0] if built else 0
        assert len(built) <= 1
    assert seen == helpers


_HASH_RUN = """
import hashlib
import numpy as np
from covest import ActiveConfig, MaskDistribution, child_rng, estimate_cov, make_spiked_model, mask_batch, run_active
model = make_spiked_model(301, 4, 30.0, theta=0.1, seed=4)
trace = run_active(model.stream(child_rng(4)), ActiveConfig(budget=75.0, batch_size=40, iterations=4, seed=4),
                   truth=model.sigma, record_matrices=True)
p = MaskDistribution.uniform(301, 75.0)
estimate = estimate_cov(mask_batch(model.stream(child_rng(4, 1)).draw(200), p, child_rng(4, 2)), p)
# a dense truth, whose norm sums squares through BLAS
a = np.random.default_rng(0).standard_normal((301, 301))
dense = run_active(model.stream(child_rng(4)), ActiveConfig(budget=75.0, batch_size=40, iterations=4, seed=4),
                   truth=model.sigma + 0.01 * (a + a.T))
h = hashlib.sha256()
for a in [trace.errors(), trace.designs(), trace.final_design, trace.final_estimate.matrix, estimate.matrix,
          dense.errors()]:
    h.update(np.ascontiguousarray(a).tobytes())
for r in trace.records:
    h.update(r.batch_estimate.matrix.tobytes() + r.merged.matrix.tobytes())
print(h.hexdigest())
"""


def test_results_do_not_depend_on_the_blas_thread_count():
    # each fold and the truth's norm pin BLAS to one thread; unpinned, a
    # two-thread product gave run_active and estimate_cov other trailing
    # digits than one thread, and so did the norm of a dense truth
    digests = outputs_at_blas_threads(_HASH_RUN)
    assert digests[0] == digests[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_loop_rejects_a_truth_too_large_to_score():
    # the norm of 1e300 * I is finite, its square is not: each error was NaN,
    # after overflow warnings in the norm and the panel scores
    model = make_spiked_model(4, 4, 1e300)
    cfg = ActiveConfig(budget=2.0, batch_size=5, iterations=1)
    with pytest.raises(ValueError, match="^truth is too large to score"):
        run_active(model.stream(child_rng(0)), cfg, truth=model.sigma)


@pytest.mark.parametrize("n", [301, 784])
def test_reading_the_estimate_leaves_the_running_sum_alone(n):
    # final_estimate mirrors a copy of S; it used to mirror S's upper blocks
    # into its lower ones in place
    model = make_spiked_model(n, 4, 30.0, theta=0.1, seed=n)
    cfg = ActiveConfig(budget=n / 4, batch_size=20, iterations=2, seed=3)
    trace = run_active(model.stream(child_rng(n)), cfg, truth=model.sigma)
    before = trace._gram_sum.tobytes()
    assert np.array_equal(trace.final_estimate.matrix, trace.final_estimate.matrix.T)
    assert trace._gram_sum.tobytes() == before


def test_recorded_matrices_leave_the_running_sum_alone():
    n = 301
    model = make_spiked_model(n, 4, 30.0, theta=0.1, seed=1)
    cfg = ActiveConfig(budget=n / 4, batch_size=20, iterations=3, seed=3)
    sums = [run_active(model.stream(child_rng(2)), cfg, truth=model.sigma,
                       record_matrices=record)._gram_sum.tobytes() for record in (False, True)]
    assert sums[0] == sums[1]


class _SignOracle:
    """Rows of +-1e100, the signs drawn at random: the estimate is near 1e200."""

    dim = 3

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def draw(self, count):
        return 1e100 * np.sign(self._rng.standard_normal((count, self.dim)))


def _run_on_sign_rows(adapt, truth):
    if adapt:
        cfg = ActiveConfig(budget=2.0, batch_size=4, iterations=3, seed=1)
        return run_active(_SignOracle(), cfg, truth=truth, record_matrices=True)
    return run_fixed(_SignOracle(), MaskDistribution.uniform(3, 2.0), total=12, truth=truth,
                     batch_size=4, seed=1, record_matrices=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("adapt", [True, False])
def test_loop_scores_errors_whose_squares_overflow(adapt):
    # the errors are about 1e200, their squares past float range: each read
    # inf, after an overflow warning in the panel score
    trace = _run_on_sign_rows(adapt, np.eye(3))
    for record in trace.records:
        scaled = np.linalg.norm((record.merged.matrix - np.eye(3)) / 1e200) * 1e200 / np.sqrt(3)
        assert 1e199 < record.rel_error == pytest.approx(scaled, rel=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("adapt", [True, False])
def test_loop_rejects_an_error_past_float_range(adapt):
    # the truth's norm is near 1e-150, so the relative error passes 1e308
    with pytest.raises(ValueError, match="^oracle returned rows too large to score: estimate is too far"):
        _run_on_sign_rows(adapt, 1e-150 * np.eye(3))
