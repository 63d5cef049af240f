import io
import json
import subprocess
import sys

import numpy as np
import pytest

from covest import __version__
from covest.cli import _emit, main

from helpers import count_decompositions


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("COVEST_SEED", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["design"])
    assert exc.value.code == 2


def test_design_json_output(capsys, tmp_path):
    out = tmp_path / "p.csv"
    code, stdout, stderr = run_cli(
        capsys, "design", "--diag", "4,1", "--budget", "1", "--out", str(out)
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["p"] == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-9)
    assert payload["rho"] == pytest.approx(1.0 / 3.0)
    assert payload["converged"] is True
    assert payload["kkt_residual"] <= 1e-8
    assert np.atleast_1d(np.loadtxt(out, delimiter=",")) == pytest.approx(payload["p"])
    assert "wrote design" in stderr


def test_design_n784_profile(capsys, tmp_path):
    # a valid profile on which the inexact projection broke the descent check
    diag = tmp_path / "diag.csv"
    np.savetxt(diag, np.random.default_rng(0).uniform(0, 10, 784) ** 2, delimiter=",")
    code, stdout, stderr = run_cli(capsys, "design", "--diag", str(diag), "--budget", "705.6")
    assert code == 0, stderr
    payload = json.loads(stdout)
    assert payload["converged"] is True
    assert sum(payload["p"]) == pytest.approx(705.6, abs=1e-9)


def test_inline_vector_is_not_shadowed_by_a_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "4,1").write_text("1,1,1\n")
    code, stdout, stderr = run_cli(capsys, "design", "--diag", "4,1", "--budget", "1")
    assert code == 0, stderr
    assert json.loads(stdout)["p"] == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-9)


def test_vector_argument_must_be_numbers_or_a_file(capsys, tmp_path):
    for bad in (str(tmp_path / "missing.csv"), str(tmp_path)):
        code, stdout, stderr = run_cli(capsys, "design", "--diag", bad, "--budget", "1")
        assert code == 1 and stdout == ""
        assert f"{bad!r} is neither an existing file nor an inline vector" in stderr


def test_design_infeasible_budget(capsys):
    code, stdout, stderr = run_cli(capsys, "design", "--diag", "4,1", "--budget", "3")
    assert code == 1
    assert stdout == ""
    assert "error:" in stderr


def test_estimate_round_trip(capsys, tmp_path):
    obs = tmp_path / "obs.csv"
    masks = tmp_path / "masks.csv"
    obs.write_text("1,0\n")
    masks.write_text("1,0\n")
    code, stdout, _ = run_cli(
        capsys, "estimate", "--observations", str(obs), "--masks", str(masks), "--p", "0.5,0.5"
    )
    assert code == 0
    est = np.loadtxt(io.StringIO(stdout), delimiter=",")
    assert np.array_equal(est, np.array([[2.0, 0.0], [0.0, 0.0]]))

    out = tmp_path / "est.csv"
    code, stdout, _ = run_cli(
        capsys, "estimate", "--observations", str(obs), "--masks", str(masks),
        "--p", "0.5,0.5", "--out", str(out)
    )
    assert code == 0 and stdout == ""
    assert np.array_equal(np.loadtxt(out, delimiter=","), np.array([[2.0, 0.0], [0.0, 0.0]]))


def test_estimate_shape_mismatch(capsys, tmp_path):
    obs = tmp_path / "obs.csv"
    masks = tmp_path / "masks.csv"
    obs.write_text("1,0\n")
    masks.write_text("1,0,1\n")
    code, _, stderr = run_cli(
        capsys, "estimate", "--observations", str(obs), "--masks", str(masks), "--p", "0.5,0.5"
    )
    assert code == 1 and "error:" in stderr


def test_bound_report(capsys, tmp_path):
    sigma = tmp_path / "sigma.csv"
    sigma.write_text("4,0\n0,1\n")
    code, stdout, _ = run_cli(
        capsys, "bound", "--sigma", str(sigma), "--p", "0.5,0.5", "--samples", "100"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["scale_norm"] == pytest.approx(14.0)
    assert payload["erank"] == pytest.approx(1.25)
    assert payload["scale_matrix"] == [[8.0, 8.0], [8.0, 2.0]]

    code, stdout, _ = run_cli(
        capsys, "bound", "--sigma", str(sigma), "--budget-frac", "0.5",
        "--samples", "100", "--no-matrix"
    )
    assert code == 0
    assert "scale_matrix" not in json.loads(stdout)


@pytest.mark.parametrize("command, extra", [("bound", []), ("calibrate-gamma", ["--trials", "50"])])
def test_non_symmetric_sigma_file_is_rejected(capsys, tmp_path, command, extra):
    # both commands read one triangle of the file and printed a wrong result
    sigma = tmp_path / "sigma.csv"
    sigma.write_text("2,1\n0,2\n")
    code, stdout, stderr = run_cli(
        capsys, command, "--sigma", str(sigma), "--p", "0.5,0.5", "--samples", "50", *extra
    )
    assert code == 1 and stdout == ""
    assert stderr == "error: cov must be symmetric\n"


@pytest.mark.parametrize("command, flag", [
    ("bound", "--eta"), ("bound", "--gamma"), ("bound", "--q"), ("bound", "--sigma-ratio"),
    ("calibrate-gamma", "--eta"), ("calibrate-gamma", "--q"), ("calibrate-gamma", "--sigma-ratio"),
])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_float_flags_are_rejected(capsys, tmp_path, command, flag, bad):
    # "bound --eta nan" used to print "bound": NaN, which is not JSON, and exit 0
    sigma = tmp_path / "sigma.csv"
    sigma.write_text("4,0\n0,1\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--sigma", str(sigma), "--p", "0.5,0.5", "--samples", "10", f"{flag}={bad}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {flag}: must be finite" in captured.err


def test_json_output_refuses_nan(capsys):
    with pytest.raises(ValueError, match="JSON"):
        _emit({"bound": float("nan")})
    assert capsys.readouterr().out == ""


def test_bound_needs_probabilities(capsys, tmp_path):
    sigma = tmp_path / "sigma.csv"
    sigma.write_text("4,0\n0,1\n")
    code, _, stderr = run_cli(capsys, "bound", "--sigma", str(sigma), "--samples", "100")
    assert code == 1 and "give --p or --budget-frac" in stderr


def test_calibrate_gamma_deterministic(capsys):
    args = ("calibrate-gamma", "--dim", "3", "--budget-frac", "0.5", "--samples", "40",
            "--trials", "30", "--eta", "10", "--seed", "2")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["gamma"] > 0 and payload["seed"] == 2


def test_active_loop_output(capsys, tmp_path):
    trace_path = tmp_path / "trace.csv"
    code, stdout, _ = run_cli(
        capsys, "active", "--n", "6", "--budget-frac", "0.5", "--batch", "10",
        "--iters", "3", "--seed", "4", "--out", str(trace_path)
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["samples"] == [10, 20, 30]
    assert len(payload["rel_errors"]) == 3
    assert all(np.isfinite(payload["rel_errors"]))
    assert np.sum(payload["final_design"]) == pytest.approx(3.0, abs=1e-8)
    assert payload["seed"] == 4
    lines = trace_path.read_text().strip().splitlines()
    assert lines[0] == "iteration,samples,rel_error"
    assert len(lines) == 4


def test_active_reads_the_truths_erank_from_the_model(capsys, monkeypatch):
    calls = count_decompositions(monkeypatch)
    code, stdout, _ = run_cli(capsys, "active", "--n", "8", "--spikes", "2", "--theta", "0.25",
                              "--budget-frac", "0.5", "--batch", "10", "--iters", "2", "--seed", "4")
    assert code == 0
    assert calls == []  # the spiked model is diagonal
    # two spikes of 10 and six ones, shifted by 0.25 * 10
    assert json.loads(stdout)["truth_erank"] == pytest.approx((2 * 12.5 + 6 * 3.5) / 12.5, rel=1e-15)


def write_config(tmp_path, **overrides):
    config = {
        "source": {"kind": "synthetic", "n": 5, "spikes": 1, "spike": 9.0, "theta": 0.2},
        "arms": ["uniform", "designed"],
        "budget_fracs": [0.5],
        "batch_size": 5,
        "iterations": 2,
        "trials": 2,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_experiment_from_config(capsys, tmp_path):
    cfg = write_config(tmp_path, seed=3)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code, stdout, stderr = run_cli(
        capsys, "experiment", "--config", str(cfg), "--out", str(out_a), "--jobs", "1"
    )
    assert code == 0
    assert stdout.strip() == str(out_a)
    assert "running 2 trials" in stderr
    assert out_a.exists() and (tmp_path / "a.meta.json").exists()
    header = out_a.read_text().splitlines()[0]
    assert header == "arm,budget_frac,checkpoint_T,mean_rel_err,std_rel_err,trials,seed"

    code, _, _ = run_cli(
        capsys, "experiment", "--config", str(cfg), "--out", str(out_b), "--jobs", "2"
    )
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_experiment_output_from_config_key(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, seed=1, output="fromconfig.csv")
    code, stdout, _ = run_cli(
        capsys, "experiment", "--config", str(tmp_path / "config.json"), "--jobs", "1"
    )
    assert code == 0
    assert stdout.strip() == "fromconfig.csv"
    assert (tmp_path / "fromconfig.csv").exists()


def test_experiment_env_seed(capsys, tmp_path, monkeypatch):
    cfg = write_config(tmp_path)  # no seed in the config
    paths = {name: tmp_path / f"{name}.csv" for name in ("env11", "env12", "flag11")}

    monkeypatch.setenv("COVEST_SEED", "11")
    assert run_cli(capsys, "experiment", "--config", str(cfg), "--out",
                   str(paths["env11"]), "--jobs", "1")[0] == 0
    monkeypatch.setenv("COVEST_SEED", "12")
    assert run_cli(capsys, "experiment", "--config", str(cfg), "--out",
                   str(paths["env12"]), "--jobs", "1")[0] == 0
    assert run_cli(capsys, "experiment", "--config", str(cfg), "--seed", "11",
                   "--out", str(paths["flag11"]), "--jobs", "1")[0] == 0

    assert paths["env11"].read_bytes() != paths["env12"].read_bytes()
    assert paths["env11"].read_bytes() == paths["flag11"].read_bytes()


def test_invalid_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("COVEST_SEED", "abc")
    code, _, stderr = run_cli(
        capsys, "active", "--n", "4", "--budget-frac", "0.5", "--batch", "5", "--iters", "1"
    )
    assert code == 1 and "COVEST_SEED" in stderr


def test_experiment_missing_config(capsys, tmp_path):
    code, _, stderr = run_cli(
        capsys, "experiment", "--config", str(tmp_path / "nope.json")
    )
    assert code == 1 and "error:" in stderr


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "covest.cli", "--version"],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout
