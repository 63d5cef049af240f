"""The numeric-input contract, checked for every public input from one table.

NaN, +inf and -inf given to any float parameter or array input of the public
API raise ValueError, and the message starts with the parameter's name. At the
command line a bad float flag exits 2 and a bad file or vector exits 1, with
nothing on stdout.
"""
import inspect
import json
import re
import types

import numpy as np
import pytest

from covest import active, bounds, data, design, estimator, experiment, sampling
from covest.active import ActiveConfig, run_active, run_fixed
from covest.bounds import (
    bound_report,
    calibrate_gamma,
    effective_rank,
    entrywise_norm,
    error_bound,
    error_scale_matrix,
    error_scale_norm_bound,
)
from covest.cli import _build_parser, _finite_float, _finite_floats, main
from covest.data import EmpiricalSource, SyntheticModel, build_empirical_source, make_spiked_model
from covest.design import design_probabilities, kkt_residual, project_box_simplex
from covest.estimator import CovarianceEstimate, relative_frobenius_error
from covest.experiment import EmpiricalSourceSpec, ExperimentSpec, SyntheticSourceSpec, run_experiment
from covest.sampling import MaskDistribution, MaskedBatch, child_rng, derive_seed, mask_batch

MODULES = (active, bounds, data, design, estimator, experiment, sampling)
# result records: built by the library from checked inputs, never called with user input
RECORDS = {"IterationRecord", "ActiveTrace", "BoundReport", "DesignSolution", "ExperimentResult"}
BAD = [np.nan, np.inf, -np.inf]

M = [[2.0, 0.5], [0.5, 1.0]]
P = MaskDistribution([0.5, 0.5])
CFG = dict(budget=1.0, batch_size=4, iterations=2)
ROWS = [[1.0, 2.0], [3.0, 1.0], [0.0, 4.0]]
IMAGES = np.arange(12.0).reshape(3, 2, 2)


def _with(value, bad):
    """value as a float array whose first entry is bad."""
    out = np.array(value, dtype=float)
    out.flat[0] = bad
    return out


def _stream():
    return make_spiked_model(2, 1, 4.0).stream(child_rng(0))


def _spec(**overrides):
    fields = dict(source=SyntheticSourceSpec(n=4, spikes=1, spike=9.0), arms=("uniform",),
                  budget_fracs=(0.5,), batch_size=5, iterations=2, trials=2)
    return ExperimentSpec(**{**fields, **overrides})


SYNTHETIC = {"kind": "synthetic", "n": 4, "spikes": 1, "spike": 9.0}
EMPIRICAL = {"kind": "empirical", "images": "a.idx", "labels": "b.idx", "digit": 3}


def _config(source):
    """A valid experiment config with the given source fields."""
    return {**_spec().to_dict(), "source": source}


# (callable, parameter): a call with the bad value in that parameter
LIBRARY = {
    ("active.ActiveConfig", "budget"): lambda b: ActiveConfig(**{**CFG, "budget": b}),
    ("active.ActiveConfig", "eps"): lambda b: ActiveConfig(**CFG, eps=b),
    ("active.ActiveConfig", "batch_size"): lambda b: ActiveConfig(**{**CFG, "batch_size": b}),
    ("active.ActiveConfig", "iterations"): lambda b: ActiveConfig(**{**CFG, "iterations": b}),
    ("active.run_active", "truth"): lambda b: run_active(_stream(), ActiveConfig(**CFG), truth=_with(M, b)),
    ("active.run_fixed", "truth"): lambda b: run_fixed(_stream(), P, 4, truth=_with(M, b)),
    ("active.run_fixed", "total"): lambda b: run_fixed(_stream(), P, b),
    ("active.run_fixed", "batch_size"): lambda b: run_fixed(_stream(), P, 4, batch_size=b),
    ("bounds.error_scale_matrix", "cov"): lambda b: error_scale_matrix(_with(M, b), P),
    ("bounds.error_scale_matrix", "sigma_ratio"): lambda b: error_scale_matrix(M, P, b),
    ("bounds.entrywise_norm", "matrix"): lambda b: entrywise_norm(_with(M, b), 2.0),
    ("bounds.entrywise_norm", "q"): lambda b: entrywise_norm(M, b),
    ("bounds.effective_rank", "cov"): lambda b: effective_rank(_with(M, b)),
    ("bounds.error_bound", "scale_norm"): lambda b: error_bound(b, 10, 100, 100.0),
    ("bounds.error_bound", "dim"): lambda b: error_bound(1.0, b, 100, 100.0),
    ("bounds.error_bound", "samples"): lambda b: error_bound(1.0, 10, b, 100.0),
    ("bounds.error_bound", "eta"): lambda b: error_bound(1.0, 10, 100, b),
    ("bounds.error_bound", "gamma"): lambda b: error_bound(1.0, 10, 100, 100.0, gamma=b),
    ("bounds.error_scale_norm_bound", "cov"): lambda b: error_scale_norm_bound(_with(M, b), P),
    ("bounds.error_scale_norm_bound", "sigma_ratio"): lambda b: error_scale_norm_bound(M, P, sigma_ratio=b),
    ("bounds.error_scale_norm_bound", "q"): lambda b: error_scale_norm_bound(M, P, q=b),
    ("bounds.bound_report", "cov"): lambda b: bound_report(_with(M, b), P, 100, 100.0),
    ("bounds.bound_report", "samples"): lambda b: bound_report(M, P, b, 100.0),
    ("bounds.bound_report", "eta"): lambda b: bound_report(M, P, 100, b),
    ("bounds.bound_report", "gamma"): lambda b: bound_report(M, P, 100, 100.0, gamma=b),
    ("bounds.bound_report", "q"): lambda b: bound_report(M, P, 100, 100.0, q=b),
    ("bounds.bound_report", "sigma_ratio"): lambda b: bound_report(M, P, 100, 100.0, sigma_ratio=b),
    ("bounds.calibrate_gamma", "cov"): lambda b: calibrate_gamma(_with(M, b), P, 20, 10.0, trials=3),
    ("bounds.calibrate_gamma", "samples"): lambda b: calibrate_gamma(M, P, b, 10.0, trials=3),
    ("bounds.calibrate_gamma", "eta"): lambda b: calibrate_gamma(M, P, 20, b, trials=3),
    ("bounds.calibrate_gamma", "trials"): lambda b: calibrate_gamma(M, P, 20, 10.0, trials=b),
    ("bounds.calibrate_gamma", "q"): lambda b: calibrate_gamma(M, P, 20, 10.0, trials=3, q=b),
    ("bounds.calibrate_gamma", "sigma_ratio"): lambda b: calibrate_gamma(M, P, 20, 10.0, trials=3, sigma_ratio=b),
    ("data.SyntheticModel", "base_cov"): lambda b: SyntheticModel(_with(M, b)),
    ("data.SyntheticModel", "theta"): lambda b: SyntheticModel(M, theta=b),
    ("data.EmpiricalSource", "records"): lambda b: EmpiricalSource(_with(ROWS, b)),
    ("data.EmpiricalSource", "theta"): lambda b: EmpiricalSource(ROWS, theta=b),
    ("data.make_spiked_model", "spike"): lambda b: make_spiked_model(4, 1, b),
    ("data.make_spiked_model", "theta"): lambda b: make_spiked_model(4, 1, 9.0, theta=b),
    ("data.build_empirical_source", "images"): lambda b: build_empirical_source(_with(IMAGES, b), [3, 3, 1], 3),
    ("data.build_empirical_source", "labels"): lambda b: build_empirical_source(IMAGES, [b, 3, 3], 3),
    ("data.build_empirical_source", "theta"): lambda b: build_empirical_source(IMAGES, [3, 3, 1], 3, theta=b),
    ("design.project_box_simplex", "v"): lambda b: project_box_simplex(_with([0.2, 0.5], b), 0.7),
    ("design.project_box_simplex", "m"): lambda b: project_box_simplex([0.2, 0.5], b),
    ("design.project_box_simplex", "lo"): lambda b: project_box_simplex([0.2, 0.5], 0.7, lo=b),
    ("design.project_box_simplex", "hi"): lambda b: project_box_simplex([0.2, 0.5], 0.7, hi=b),
    ("design.kkt_residual", "p"): lambda b: kkt_residual(_with([0.2, 0.5], b), [0.2, 0.5], 0.7),
    ("design.kkt_residual", "v"): lambda b: kkt_residual([0.2, 0.5], _with([0.2, 0.5], b), 0.7),
    ("design.kkt_residual", "m"): lambda b: kkt_residual([0.2, 0.5], [0.2, 0.5], b),
    ("design.kkt_residual", "lo"): lambda b: kkt_residual([0.2, 0.5], [0.2, 0.5], 0.7, lo=b),
    ("design.kkt_residual", "hi"): lambda b: kkt_residual([0.2, 0.5], [0.2, 0.5], 0.7, hi=b),
    ("design.design_probabilities", "diag_sigma"): lambda b: design_probabilities(_with([4.0, 1.0], b), 1.0),
    ("design.design_probabilities", "m"): lambda b: design_probabilities([4.0, 1.0], b),
    ("design.design_probabilities", "eps"): lambda b: design_probabilities([4.0, 1.0], 1.0, eps=b),
    ("estimator.CovarianceEstimate", "matrix"): lambda b: CovarianceEstimate(_with(M, b), 3),
    ("estimator.CovarianceEstimate", "sample_count"): lambda b: CovarianceEstimate(M, b),
    ("estimator.relative_frobenius_error", "estimate"): lambda b: relative_frobenius_error(_with(M, b), M),
    ("estimator.relative_frobenius_error", "truth"): lambda b: relative_frobenius_error(M, _with(M, b)),
    ("experiment.SyntheticSourceSpec", "spike"): lambda b: SyntheticSourceSpec(n=4, spikes=1, spike=b),
    ("experiment.SyntheticSourceSpec", "theta"): lambda b: SyntheticSourceSpec(n=4, spikes=1, spike=9.0, theta=b),
    ("experiment.SyntheticSourceSpec", "n"): lambda b: SyntheticSourceSpec(n=b, spikes=1, spike=9.0),
    ("experiment.SyntheticSourceSpec", "spikes"): lambda b: SyntheticSourceSpec(n=4, spikes=b, spike=9.0),
    ("experiment.EmpiricalSourceSpec", "digit"): lambda b: EmpiricalSourceSpec("a.idx", "b.idx", b),
    ("experiment.EmpiricalSourceSpec", "theta"): lambda b: EmpiricalSourceSpec("a.idx", "b.idx", 3, theta=b),
    ("experiment.ExperimentSpec", "budget_fracs"): lambda b: _spec(budget_fracs=(0.5, b)),
    ("experiment.ExperimentSpec", "batch_size"): lambda b: _spec(batch_size=b),
    ("experiment.ExperimentSpec", "iterations"): lambda b: _spec(iterations=b),
    ("experiment.ExperimentSpec", "trials"): lambda b: _spec(trials=b),
    ("experiment.ExperimentSpec", "q"): lambda b: _spec(q=b),
    ("experiment.ExperimentSpec", "eps"): lambda b: _spec(eps=b),
    ("experiment.ExperimentSpec", "eta"): lambda b: _spec(eta=b),
    ("experiment.ExperimentSpec", "gamma"): lambda b: _spec(gamma=b),
    ("experiment.ExperimentSpec", "sigma_ratio"): lambda b: _spec(sigma_ratio=b),
    ("sampling.MaskDistribution", "p"): lambda b: MaskDistribution(_with([0.5, 0.5], b)),
    ("sampling.MaskDistribution.uniform", "m"): lambda b: MaskDistribution.uniform(2, b),
    ("sampling.MaskedBatch", "masks"): lambda b: MaskedBatch(masks=_with([[1.0, 0.0]], b), observed=[[1.0, 0.0]]),
    ("sampling.MaskedBatch", "observed"): lambda b: MaskedBatch(masks=[[1.0, 0.0]], observed=_with([[1.0, 0.0]], b)),
    ("sampling.mask_batch", "xs"): lambda b: mask_batch(_with([[1.0, 2.0]], b), P, child_rng(0)),
}

# where a message keeps the wording that existing callers and tests match on,
# it starts with that wording instead of the parameter's name
NAMES = {
    ("design.design_probabilities", "m"): "budget",
    ("design.design_probabilities", "diag_sigma"): "variance profile",
    ("design.project_box_simplex", "m"): "budget m",
    ("experiment.ExperimentSpec", "budget_fracs"): "budget fraction",
}


# (callable, parameter): a call with the given count in that parameter. Counts
# are whole numbers: a non-integral one raises instead of being truncated or
# used as a float
COUNTS = {
    ("active.ActiveConfig", "batch_size"): lambda c: ActiveConfig(**{**CFG, "batch_size": c}),
    ("active.ActiveConfig", "iterations"): lambda c: ActiveConfig(**{**CFG, "iterations": c}),
    ("active.run_fixed", "total"): lambda c: run_fixed(_stream(), P, c),
    ("active.run_fixed", "batch_size"): lambda c: run_fixed(_stream(), P, 4, batch_size=c),
    ("bounds.error_bound", "dim"): lambda c: error_bound(1.0, c, 100, 100.0),
    ("bounds.error_bound", "samples"): lambda c: error_bound(1.0, 10, c, 100.0),
    ("bounds.bound_report", "samples"): lambda c: bound_report(M, P, c, 100.0),
    ("bounds.calibrate_gamma", "samples"): lambda c: calibrate_gamma(M, P, c, 10.0, trials=3),
    ("bounds.calibrate_gamma", "trials"): lambda c: calibrate_gamma(M, P, 20, 10.0, trials=c),
    ("data.make_spiked_model", "n"): lambda c: make_spiked_model(c, 1, 9.0),
    ("data.make_spiked_model", "k"): lambda c: make_spiked_model(4, c, 9.0),
    ("estimator.CovarianceEstimate", "sample_count"): lambda c: CovarianceEstimate(M, c),
    ("experiment.ExperimentSpec", "batch_size"): lambda c: _spec(batch_size=c),
    ("experiment.ExperimentSpec", "iterations"): lambda c: _spec(iterations=c),
    ("experiment.ExperimentSpec", "trials"): lambda c: _spec(trials=c),
    ("experiment.ExperimentSpec.from_dict", "n"): lambda c: ExperimentSpec.from_dict(_config({**SYNTHETIC, "n": c})),
    ("experiment.ExperimentSpec.from_dict", "spikes"): lambda c: ExperimentSpec.from_dict(
        _config({**SYNTHETIC, "spikes": c})),
    ("experiment.ExperimentSpec.from_dict", "digit"): lambda c: ExperimentSpec.from_dict(
        _config({**EMPIRICAL, "digit": c})),
    ("experiment.SyntheticSourceSpec", "n"): lambda c: SyntheticSourceSpec(n=c, spikes=1, spike=9.0),
    ("experiment.SyntheticSourceSpec", "spikes"): lambda c: SyntheticSourceSpec(n=4, spikes=c, spike=9.0),
    ("experiment.EmpiricalSourceSpec", "digit"): lambda c: EmpiricalSourceSpec("a.idx", "b.idx", c),
    ("data.GaussianStream.draw", "count"): lambda c: _stream().draw(c),
    ("data.EpochStream.draw", "count"): lambda c: EmpiricalSource(ROWS).stream(child_rng(0)).draw(c),
    ("sampling.MaskDistribution.uniform", "n"): lambda c: MaskDistribution.uniform(c, 1.0),
    ("active.ActiveConfig", "seed"): lambda c: ActiveConfig(**CFG, seed=c),
    ("active.run_fixed", "seed"): lambda c: run_fixed(_stream(), P, 4, seed=c),
    ("bounds.calibrate_gamma", "seed"): lambda c: calibrate_gamma(M, P, 20, 10.0, trials=3, seed=c),
    ("experiment.ExperimentSpec", "seed"): lambda c: _spec(seed=c),
    ("experiment.ExperimentSpec.from_dict", "seed"): lambda c: ExperimentSpec.from_dict(
        {**_config(SYNTHETIC), "seed": c}),
    ("experiment.run_experiment", "jobs"): lambda c: run_experiment(_spec(trials=1), jobs=c),
    ("data.make_spiked_model", "seed"): lambda c: make_spiked_model(4, 1, 9.0, seed=c),
    ("sampling.child_rng", "master_seed"): lambda c: child_rng(c, 1),
    ("sampling.child_rng", "key"): lambda c: child_rng(0, 1, c),
    ("sampling.derive_seed", "master_seed"): lambda c: derive_seed(c, 1),
    ("sampling.derive_seed", "key"): lambda c: derive_seed(0, 1, c),
}
# a stream address (master_seed, *key) is a seed too
SEEDS = sorted(key for key in COUNTS if key[1] in ("seed", "master_seed", "key"))


@pytest.mark.parametrize("key", sorted(COUNTS), ids=":".join)
def test_counts_must_be_integers(key):
    with pytest.raises(ValueError, match=rf"^{key[1]} must be an integer, got 2.5$"):
        COUNTS[key](2.5)
    COUNTS[key](4.0)  # an integral float is the count it names


@pytest.mark.parametrize("key", SEEDS, ids=":".join)
def test_seeds_are_nonnegative_and_exact(key):
    # a negative seed was accepted, and failed once trials started with numpy's
    # "expected non-negative integer", which names no input
    with pytest.raises(ValueError, match=rf"^{key[1]} must be nonnegative, got -1"):
        COUNTS[key](-1)
    COUNTS[key](2**60 + 1)


def _resolve(qualname):
    module, *path = qualname.split(".")
    obj = globals()[module]
    for part in path:
        obj = getattr(obj, part)
    return obj


def _public_callables():
    """(qualified name, callable) for the submodules' public callables and their methods."""
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for name in module.__all__:
            obj = getattr(module, name)
            if name in RECORDS or not callable(obj):
                continue
            yield f"{short}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and isinstance(
                        member, (classmethod, staticmethod, types.FunctionType)
                    ):
                        yield f"{short}.{name}.{attr}", getattr(obj, attr)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("key", sorted(LIBRARY), ids=":".join)
def test_library_rejects_non_finite_input(key, bad):
    with pytest.raises(ValueError) as err:
        LIBRARY[key](bad)
    assert str(err.value).startswith(f"{NAMES.get(key, key[1])} must "), str(err.value)


def test_every_float_or_array_parameter_has_a_row():
    required = {
        (qualname, param.name)
        for qualname, fn in _public_callables()
        for param in inspect.signature(fn).parameters.values()
        if re.search(r"\b(float|ndarray)\b", str(param.annotation))
    }
    assert len(required) > 40
    assert sorted(required - set(LIBRARY)) == []
    # and no row names a parameter that does not exist
    stale = [key for key in LIBRARY if key[1] not in inspect.signature(_resolve(key[0])).parameters]
    assert stale == []


@pytest.fixture
def files(tmp_path):
    (tmp_path / "sigma.csv").write_text("4,0\n0,1\n")
    (tmp_path / "obs.csv").write_text("1,0\n")
    (tmp_path / "masks.csv").write_text("1,0\n")
    config = {"source": {"kind": "synthetic", "n": 4, "spikes": 1, "spike": 9.0},
              "arms": ["uniform"], "budget_fracs": [0.5], "batch_size": 5, "iterations": 2,
              "trials": 2}
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path


def _commands(d):
    """A valid invocation of every subcommand, with inputs under d."""
    return {
        "design": ["design", "--diag", "4,1", "--budget", "1"],
        "estimate": ["estimate", "--observations", str(d / "obs.csv"), "--masks", str(d / "masks.csv"),
                     "--p", "0.5,0.5"],
        "active": ["active", "--n", "4", "--budget-frac", "0.5", "--batch", "5", "--iters", "1"],
        "bound": ["bound", "--sigma", str(d / "sigma.csv"), "--p", "0.5,0.5", "--samples", "10"],
        "calibrate-gamma": ["calibrate-gamma", "--sigma", str(d / "sigma.csv"), "--p", "0.5,0.5",
                            "--samples", "10", "--trials", "3"],
        "experiment": ["experiment", "--config", str(d / "config.json"), "--out", str(d / "out.csv"),
                       "--jobs", "1"],
    }


def _subparsers():
    (action,) = [a for a in _build_parser()._actions if a.dest == "command"]
    return action.choices


FLAGS = sorted(
    (command, option.option_strings[0])
    for command, parser in _subparsers().items()
    for option in parser._actions
    if option.type in (float, _finite_float, _finite_floats)
)


def _write(path, text):
    path.write_text(text)
    return str(path)


# (subcommand, input): the valid invocation with that file or vector made bad,
# and the name of the library parameter the error message starts with
INPUTS = {
    ("design", "--diag"): (lambda d, b: ["design", f"--diag={b!r},1", "--budget", "1"], "variance profile"),
    ("estimate", "--p"): (lambda d, b: [*_commands(d)["estimate"][:5], f"--p={b!r},0.5"], "p"),
    ("estimate", "--observations"): (
        lambda d, b: [*_commands(d)["estimate"], "--observations", _write(d / "bad.csv", f"{b!r},0\n")],
        "observed"),
    ("estimate", "--masks"): (
        lambda d, b: [*_commands(d)["estimate"], "--masks", _write(d / "bad.csv", f"{b!r},0\n")], "masks"),
    ("bound", "--sigma"): (
        lambda d, b: [*_commands(d)["bound"], "--sigma", _write(d / "bad.csv", f"{b!r},0\n0,1\n")], "cov"),
    ("bound", "--p"): (lambda d, b: [*_commands(d)["bound"], f"--p={b!r},0.5"], "p"),
    ("calibrate-gamma", "--sigma"): (
        lambda d, b: [*_commands(d)["calibrate-gamma"], "--sigma", _write(d / "bad.csv", f"{b!r},0\n0,1\n")],
        "cov"),
    ("calibrate-gamma", "--p"): (lambda d, b: [*_commands(d)["calibrate-gamma"], f"--p={b!r},0.5"], "p"),
    ("experiment", "--config eta"): (
        lambda d, b: [*_commands(d)["experiment"], "--config",
                      _write(d / "bad.json", (d / "config.json").read_text()[:-1] + f', "eta": {json.dumps(b)}}}')],
        "eta"),
    ("experiment", "--config spike"): (
        lambda d, b: [*_commands(d)["experiment"], "--config",
                      _write(d / "bad.json", (d / "config.json").read_text().replace("9.0", json.dumps(b)))],
        "spike"),
}


def test_cli_table_covers_every_subcommand(files, capsys):
    commands = _commands(files)
    assert set(commands) == set(_subparsers())
    assert {command for command, _ in FLAGS + list(INPUTS)} == set(commands)
    # each valid invocation succeeds, so a row fails only for its bad value
    for argv in commands.values():
        assert main(argv) == 0, capsys.readouterr().err
    capsys.readouterr()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", FLAGS, ids=[f"{c}:{f}" for c, f in FLAGS])
def test_cli_float_flags_exit_2(files, capsys, command, flag, bad):
    with pytest.raises(SystemExit) as exc:
        main([*_commands(files)[command], f"{flag}={bad}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument {flag}: must be finite" in captured.err


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("key", sorted(INPUTS), ids=":".join)
def test_cli_bad_files_and_vectors_exit_1(files, capsys, key, bad):
    argv, name = INPUTS[key]
    code = main(argv(files, bad))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {name} must "), captured.err


@pytest.mark.parametrize("command", ["active", "calibrate-gamma", "experiment"])
def test_cli_seeds_are_nonnegative(files, capsys, monkeypatch, command):
    argv = _commands(files)[command]
    code = main([*argv, "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: seed must be nonnegative"), captured.err
    monkeypatch.setenv("COVEST_SEED", "-2")
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: COVEST_SEED must be nonnegative"), captured.err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_jobs_must_be_positive(files, capsys, jobs):
    # --jobs 0 and -3 ran serially and exited 0
    code = main([*_commands(files)["experiment"], "--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert any(line.startswith("error: jobs must ") for line in captured.err.splitlines()), captured.err


def test_cli_budgets_name_their_flag(files, capsys):
    # a token that is no number exited 1 with float()'s message, which names no flag
    with pytest.raises(SystemExit) as exc:
        main([*_commands(files)["experiment"], "--budgets", "0.5,abc"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "argument --budgets: " in captured.err
