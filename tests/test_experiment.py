import csv
import gzip
import json
import weakref

import numpy as np
import pytest

import covest.experiment
from covest.active import ActiveConfig, run_active, run_fixed
from covest.bounds import bound_report, effective_rank, entrywise_norm, error_scale_matrix
from covest.data import SyntheticModel
from covest.experiment import (
    ARMS,
    EmpiricalSourceSpec,
    ExperimentSpec,
    SyntheticSourceSpec,
    export_csv,
    run_experiment,
)
from covest.design import design_probabilities
from covest.sampling import MaskDistribution, child_rng, derive_seed

from helpers import count_decompositions, idx_bytes


def small_spec(**overrides):
    base = dict(
        source=SyntheticSourceSpec(n=6, spikes=1, spike=16.0, theta=0.125),
        arms=("uniform", "designed", "active", "full"),
        budget_fracs=(0.5,),
        batch_size=6,
        iterations=3,
        trials=3,
        seed=5,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown arm"):
        small_spec(arms=("uniform", "bogus"))
    with pytest.raises(ValueError, match="distinct"):
        small_spec(arms=("uniform", "uniform"))
    with pytest.raises(ValueError):
        small_spec(trials=0)
    with pytest.raises(ValueError, match="budget fraction"):
        small_spec(budget_fracs=(1.5,))
    with pytest.raises(ValueError, match="budgeted arms"):
        small_spec(arms=("uniform",), budget_fracs=())
    with pytest.raises(ValueError):
        small_spec(eta=1.0)
    with pytest.raises(ValueError):
        small_spec(q=0.5)
    for name in ("eta", "gamma", "q", "sigma_ratio"):  # each accepted NaN
        with pytest.raises(ValueError, match=name):
            small_spec(**{name: float("nan")})


def test_spec_dict_round_trip():
    spec = small_spec()
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec
    emp = small_spec(source=EmpiricalSourceSpec(images="a.idx", labels="b.idx", digit=3))
    assert ExperimentSpec.from_dict(emp.to_dict()) == emp
    with pytest.raises(ValueError, match="unknown experiment fields"):
        ExperimentSpec.from_dict({**spec.to_dict(), "extra": 1})
    with pytest.raises(ValueError, match="unknown source kind"):
        ExperimentSpec.from_dict({**spec.to_dict(), "source": {"kind": "nope"}})


def test_result_shapes_and_keys():
    spec = small_spec()
    result = run_experiment(spec)
    assert result.dim == 6
    assert np.array_equal(result.checkpoints, [6, 12, 18])
    assert result.keys() == sorted(
        [("uniform", 0.5), ("designed", 0.5), ("active", 0.5), ("full", 1.0)]
    )
    for key in result.keys():
        assert result.errors[key].shape == (3, 3)
        assert np.all(np.isfinite(result.errors[key]))
        assert result.final_designs[key].shape == (6,)
        assert result.bound_reports[key].bound > 0
    assert result.truth_erank > 1.0


def test_full_budget_uniform_equals_full_arm():
    # at budget fraction 1 the uniform arm observes everything, so it must
    # reproduce the full arm's curves exactly (arms share data streams)
    spec = small_spec(arms=("uniform", "full"), budget_fracs=(1.0,))
    result = run_experiment(spec)
    assert np.array_equal(result.errors[("uniform", 1.0)], result.errors[("full", 1.0)])


def test_mean_and_std_errors():
    spec = small_spec(trials=4)
    result = run_experiment(spec)
    e = result.errors[("uniform", 0.5)]
    assert np.allclose(result.mean_errors("uniform", 0.5), e.mean(axis=0))
    assert np.allclose(result.std_errors("uniform", 0.5), e.std(axis=0, ddof=1))
    single = run_experiment(small_spec(trials=1))
    assert np.array_equal(single.std_errors("uniform", 0.5), np.zeros(3))


def test_parallel_matches_serial(tmp_path):
    spec = small_spec(trials=4)
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    export_csv(run_experiment(spec, jobs=1), serial)
    export_csv(run_experiment(spec, jobs=2), parallel)
    assert serial.read_bytes() == parallel.read_bytes()
    assert (tmp_path / "serial.meta.json").read_bytes() == (tmp_path / "parallel.meta.json").read_bytes()


def test_export_is_reproducible(tmp_path):
    spec = small_spec()
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    export_csv(run_experiment(spec), a)
    export_csv(run_experiment(spec), b)
    assert a.read_bytes() == b.read_bytes()


def test_export_csv_layout(tmp_path):
    spec = small_spec(trials=2)
    result = run_experiment(spec)
    path = export_csv(result, tmp_path / "out.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["arm", "budget_frac", "checkpoint_T", "mean_rel_err",
                       "std_rel_err", "trials", "seed"]
    body = rows[1:]
    assert len(body) == len(result.keys()) * spec.iterations
    keys = [(r[0], float(r[1])) for r in body]
    assert keys == sorted(keys)
    for row in body:
        arm, frac, t, mean, std, trials, seed = row
        assert arm in ARMS
        assert int(t) in result.checkpoints
        assert trials == "2" and seed == "5"
        j = list(result.checkpoints).index(int(t))
        assert float(mean) == pytest.approx(result.mean_errors(arm, float(frac))[j], rel=1e-11)
        assert float(std) == pytest.approx(result.std_errors(arm, float(frac))[j], rel=1e-11, abs=1e-15)


def test_export_sidecar_contents(tmp_path):
    spec = small_spec(trials=2)
    result = run_experiment(spec)
    export_csv(result, tmp_path / "out.csv")
    meta = json.loads((tmp_path / "out.meta.json").read_text())
    assert ExperimentSpec.from_dict(meta["spec"]) == spec
    assert meta["paired_streams"] is True
    assert meta["dim"] == 6
    assert meta["checkpoints"] == [6, 12, 18]
    assert meta["t_over_n"] == [1.0, 2.0, 3.0]
    assert meta["truth_erank"] == pytest.approx(result.truth_erank)
    assert set(meta["final_designs"]) == {"active@0.5", "designed@0.5", "full@1", "uniform@0.5"}
    for key, report in meta["bounds"].items():
        assert report["bound"] > 0
        assert "scale_matrix" not in report
    assert isinstance(meta["version"], str) and meta["version"]


def test_no_arms_exports_header_only(tmp_path):
    spec = small_spec(arms=(), budget_fracs=())
    path = export_csv(run_experiment(spec), tmp_path / "empty.csv")
    assert path.read_bytes() == b"arm,budget_frac,checkpoint_T,mean_rel_err,std_rel_err,trials,seed\r\n"


def test_empirical_source_runs(tmp_path):
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, size=(40, 4, 4)).astype(np.uint8)
    labels = np.repeat(np.arange(2), 20).astype(np.uint8)
    images_path = tmp_path / "images.idx.gz"
    labels_path = tmp_path / "labels.idx"
    images_path.write_bytes(gzip.compress(idx_bytes(images)))
    labels_path.write_bytes(idx_bytes(labels))
    spec = small_spec(
        source=EmpiricalSourceSpec(images=str(images_path), labels=str(labels_path),
                                   digit=1, theta=0.05),
        arms=("uniform", "active"),
        budget_fracs=(0.6,),
        batch_size=5,
        iterations=2,
        trials=2,
    )
    result = run_experiment(spec)
    assert result.dim == 16
    assert result.errors[("active", 0.6)].shape == (2, 2)
    assert np.all(np.isfinite(result.errors[("active", 0.6)]))


def test_bound_reports_match_public_bound_report():
    spec = small_spec()
    result = run_experiment(spec)
    sigma = covest.experiment._build_source(spec).sigma
    # the run reads the effective rank and the norm from closed forms, which
    # round differently from an eigvalsh and from the built scale matrix
    tol = 4 * len(sigma) * np.finfo(float).eps
    assert result.truth_erank == pytest.approx(effective_rank(sigma), rel=tol, abs=0)
    for key, report in result.bound_reports.items():
        expected = bound_report(sigma, MaskDistribution(result.final_designs[key]),
                                samples=spec.total_samples, eta=spec.eta, gamma=spec.gamma,
                                q=spec.q, sigma_ratio=spec.sigma_ratio)
        assert report.to_dict() == expected.to_dict()
        scale = error_scale_matrix(sigma, MaskDistribution(result.final_designs[key]),
                                   spec.sigma_ratio)
        assert report.scale_norm == pytest.approx(entrywise_norm(scale, spec.q), rel=tol, abs=0)


def _digits_spec(tmp_path):
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, size=(40, 4, 4)).astype(np.uint8)
    labels = np.repeat(np.arange(2), 20).astype(np.uint8)
    (tmp_path / "images.idx").write_bytes(idx_bytes(images))
    (tmp_path / "labels.idx").write_bytes(idx_bytes(labels))
    return small_spec(source=EmpiricalSourceSpec(images=str(tmp_path / "images.idx"),
                                                 labels=str(tmp_path / "labels.idx"),
                                                 digit=1, theta=0.05), trials=2)


@pytest.mark.parametrize("kind, built", [("empirical", 1), ("figure", 0)])
def test_run_decomposes_sigma_only_in_the_source_build(monkeypatch, tmp_path, kind, built):
    # the empirical build takes ||base|| from one eigvalsh; the figure spec's
    # spiked source is diagonal and needs none
    if kind == "empirical":
        spec = _digits_spec(tmp_path)
    else:
        spec = small_spec(source=SyntheticSourceSpec(n=16, spikes=2, spike=50.0, theta=1 / 16),
                          budget_fracs=(0.25, 0.5), trials=2)
    calls = count_decompositions(monkeypatch)
    covest.experiment._build_source(spec)
    assert len(calls) == built
    calls.clear()
    run_experiment(spec, jobs=1)
    assert len(calls) == built


def test_truth_erank_of_an_indefinite_base(monkeypatch):
    # sigma = diag(0, 1.5): its top eigenvalue is 1.5, and (1 + theta) * ||base|| = 2
    # would give an effective rank of 0.75
    base = np.diag([-1.0, 0.5])
    c, s = np.cos(0.3), np.sin(0.3)
    rotation = np.array([[c, -s], [s, c]])
    diagonal = SyntheticModel(base, theta=1.0)
    dense = SyntheticModel(rotation @ base @ rotation.T, theta=1.0)
    spec = small_spec(source=SyntheticSourceSpec(n=2, spikes=1, spike=1.0), trials=1)
    results = []
    for model in (diagonal, dense):
        monkeypatch.setattr(covest.experiment, "_build_source", lambda spec, m=model: m)
        results.append(run_experiment(spec))
    assert results[0].truth_erank == effective_rank(diagonal.sigma) == 1.0
    assert results[0].bound_reports[("uniform", 0.5)].erank == 1.0
    assert results[1].truth_erank == pytest.approx(effective_rank(dense.sigma), rel=8 * np.finfo(float).eps)
    assert effective_rank(dense.sigma) == pytest.approx(1.0, rel=1e-15)


def test_pool_workers_reuse_the_parents_source(monkeypatch):
    # forked workers inherit the patched builder; a call inside one would raise
    build = covest.experiment._build_source
    calls = []

    def build_once(spec):
        if calls:
            raise AssertionError("source built more than once")
        calls.append(spec)
        return build(spec)

    monkeypatch.setattr(covest.experiment, "_build_source", build_once)
    parallel = run_experiment(small_spec(trials=4), jobs=2)
    monkeypatch.setattr(covest.experiment, "_build_source", build)
    serial = run_experiment(small_spec(trials=4), jobs=1)
    assert len(calls) == 1
    for key in serial.errors:
        assert np.array_equal(parallel.errors[key], serial.errors[key])


def test_spec_accepts_a_floor_of_one():
    # ActiveConfig and design_probabilities take eps = 1; the spec took only [0, 1)
    spec = small_spec(eps=1.0, budget_fracs=(1.0,), trials=1)
    result = run_experiment(spec)
    assert result.spec.eps == 1.0
    with pytest.raises(ValueError, match="eps must lie in"):
        small_spec(eps=1.5)


class _CountingSource:
    """A source whose streams count their draw calls in a shared list."""

    def __init__(self, source, draws):
        self._source = source
        self._draws = draws
        self.dim = source.dim
        self.sigma = source.sigma
        self.top_eigenvalue = source.top_eigenvalue

    def stream(self, rng):
        stream = self._source.stream(rng)
        draws = self._draws

        class Counting:
            dim = stream.dim

            def draw(self, count):
                draws.append(count)
                return stream.draw(count)

        return Counting()


def test_each_trial_draws_its_rows_once(monkeypatch):
    build = covest.experiment._build_source
    draws = []
    monkeypatch.setattr(covest.experiment, "_build_source",
                        lambda spec: _CountingSource(build(spec), draws))
    spec = small_spec(budget_fracs=(0.25, 0.5))  # 7 arm tasks per trial
    run_experiment(spec, jobs=1)
    assert draws == [spec.batch_size] * (spec.trials * spec.iterations)


def test_each_arm_trace_is_released_before_the_next_arm(monkeypatch):
    # a trace holds its n x n running sum; keeping the previous arm's trace
    # while the next arm runs puts two of them in a worker at its peak
    traces, alive_at_start = [], []

    def tracked(run):
        def wrapper(*args, **kwargs):
            alive_at_start.append([ref() is not None for ref in traces])
            trace = run(*args, **kwargs)
            traces.append(weakref.ref(trace))
            return trace
        return wrapper

    for name in ("run_fixed", "run_active"):
        monkeypatch.setattr(covest.experiment, name, tracked(getattr(covest.experiment, name)))
    spec = small_spec(budget_fracs=(0.25, 0.5), trials=2)  # 7 arm tasks per trial
    run_experiment(spec, jobs=1)
    assert len(alive_at_start) == 14
    assert all(not any(alive) for alive in alive_at_start)


def _idx_files(tmp_path):
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, size=(40, 3, 3)).astype(np.uint8)
    labels = np.repeat(np.arange(2), 20).astype(np.uint8)
    (tmp_path / "images.idx").write_bytes(idx_bytes(images))
    (tmp_path / "labels.idx").write_bytes(idx_bytes(labels))
    return str(tmp_path / "images.idx"), str(tmp_path / "labels.idx")


@pytest.mark.parametrize("kind", ["synthetic", "empirical"])
def test_arms_equal_standalone_runs_on_their_own_streams(tmp_path, kind):
    # an empirical stream interleaves permutation and noise draws, so replayed
    # batches must come from the same per-batch calls an arm's own stream makes
    spec = small_spec(budget_fracs=(0.25, 0.5), iterations=4, trials=2)
    if kind == "empirical":
        images, labels = _idx_files(tmp_path)
        # 20 rows, drawn 6 at a time: the permutation is redrawn mid-batch
        spec = small_spec(source=EmpiricalSourceSpec(images=images, labels=labels, digit=1,
                                                     theta=0.05),
                          budget_fracs=(0.25, 0.5), iterations=4, trials=2)
    result = run_experiment(spec)
    source = covest.experiment._build_source(spec)
    n = source.dim
    for arm, frac in result.errors:
        frac_index = 0 if arm == "full" else spec.budget_fracs.index(frac)
        designs = []
        for r in range(spec.trials):
            stream = source.stream(child_rng(spec.seed, 1, r))
            seed = derive_seed(spec.seed, 2, r, ARMS.index(arm), frac_index)
            if arm == "active":
                cfg = ActiveConfig(budget=frac * n, batch_size=spec.batch_size,
                                   iterations=spec.iterations, eps=spec.eps, seed=seed)
                trace = run_active(stream, cfg, truth=source.sigma)
            else:
                p = (design_probabilities(np.diag(source.sigma), frac * n, spec.eps).p
                     if arm == "designed" else MaskDistribution.uniform(n, frac * n))
                trace = run_fixed(stream, p, spec.total_samples, truth=source.sigma,
                                  batch_size=spec.batch_size, seed=seed)
            assert np.array_equal(result.errors[(arm, frac)][r], trace.errors()), (arm, frac, r)
            designs.append(trace.final_design)
        assert np.array_equal(result.final_designs[(arm, frac)], np.stack(designs).mean(axis=0))


def test_replayed_rows_are_read_only(monkeypatch):
    writeable = []
    real = covest.experiment.run_fixed

    def spy(oracle, *args, **kwargs):
        rows = oracle.draw(kwargs["batch_size"])
        writeable.append(rows.flags.writeable)
        return real(covest.experiment._Replay([rows], oracle.dim), *args, **kwargs)

    monkeypatch.setattr(covest.experiment, "run_fixed", spy)
    run_experiment(small_spec(arms=("uniform",), iterations=1, trials=1))
    assert writeable == [False]


def test_replay_raises_on_a_batch_it_did_not_record():
    rows = np.zeros((3, 2))
    with pytest.raises(RuntimeError, match="no recorded batch of 4 rows"):
        covest.experiment._Replay([rows], 2).draw(4)
    replay = covest.experiment._Replay([rows], 2)
    assert replay.draw(3) is rows
    with pytest.raises(RuntimeError, match="no recorded batch of 3 rows"):
        replay.draw(3)
