"""Command-line front end.

Machine-readable results go to stdout or to files; progress and diagnostics
go to stderr. Exit status is 0 exactly when the requested computation
completed. Matrix and vector files are plain CSV, row-major, no header;
vector arguments also accept inline comma-separated values. Either-or inputs
(--p or --budget-frac, --sigma or --dim) take exactly one of their flags;
argparse exits 2 on a missing or conflicting pair, as on any bad flag. The
COVEST_SEED environment variable supplies the master seed when neither a
flag nor a config file does.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .active import ActiveConfig, run_active
from .bounds import _erank, bound_report, calibrate_gamma, error_scale_matrix
from .data import make_spiked_model
from .design import design_probabilities, kkt_residual
from .estimator import estimate_cov
from .experiment import ExperimentSpec, export_csv, run_experiment
from .linalg import _check_count
from .sampling import MaskDistribution, MaskedBatch, child_rng, derive_seed

__all__ = ["main"]


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _resolve_seed(flag_value: int | None) -> int:
    # the flag, else COVEST_SEED, else 0, as a nonnegative integer
    if flag_value is not None:
        return _check_count("seed", flag_value, ge=0)
    raw = os.environ.get("COVEST_SEED", "0")
    try:
        seed = int(raw)
    except ValueError as exc:
        raise ValueError(f"COVEST_SEED must be an integer, got {raw!r}") from exc
    return _check_count("COVEST_SEED", seed, ge=0)


def _read_vector(spec_str: str) -> np.ndarray:
    """A vector argument: inline comma-separated numbers, else a CSV file path.

    A string that parses as numbers is always inline, so a file named like
    the numbers cannot shadow them.
    """
    try:
        return np.array([float(tok) for tok in spec_str.split(",")])
    except ValueError:
        pass
    path = Path(spec_str)
    if not path.is_file():
        raise ValueError(f"{spec_str!r} is neither an existing file nor an inline vector")
    return np.atleast_1d(np.loadtxt(path, delimiter=",", dtype=float)).ravel()


def _read_matrix(path_str: str) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(Path(path_str), delimiter=",", dtype=float))


def _write_matrix(path_str: str, matrix: np.ndarray) -> None:
    np.savetxt(path_str, np.atleast_2d(matrix), delimiter=",", fmt="%.12g")


def _finite_float(raw: str) -> float:
    """argparse type for a float flag that must be finite; argparse names the flag."""
    value = float(raw)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {raw!r}")
    return value


def _finite_floats(raw: str) -> list:
    """argparse type for a comma-separated list of finite floats."""
    return [_finite_float(tok) for tok in raw.split(",")]


def _emit(payload: dict) -> None:
    # NaN and inf are not JSON: refuse them before anything reaches stdout
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _mask_distribution(args, n: int) -> MaskDistribution:
    # argparse lets exactly one of --p and --budget-frac through
    if args.p is not None:
        return MaskDistribution(_read_vector(args.p))
    return MaskDistribution.uniform(n, args.budget_frac * n)


def cmd_design(args) -> int:
    diag = _read_vector(args.diag)
    solution = design_probabilities(diag, args.budget, eps=args.eps)
    p = solution.p.p
    residual = kkt_residual(p, solution.rho * np.sqrt(diag), args.budget, args.eps, 1.0)
    _emit({
        "p": [float(x) for x in p],
        "rho": solution.rho,
        "objective": solution.objective,
        "kkt_residual": residual,
        "iterations": solution.iterations,
        "converged": solution.converged,
        "budget": args.budget,
        "eps": args.eps,
    })
    if args.out:
        np.savetxt(args.out, p[None, :], delimiter=",", fmt="%.12g")
        _log(f"wrote design to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    observed = _read_matrix(args.observations)
    masks = _read_matrix(args.masks)
    p = MaskDistribution(_read_vector(args.p))
    estimate = estimate_cov(MaskedBatch(masks=masks, observed=observed), p)
    _log(f"estimated {estimate.dim}x{estimate.dim} covariance from {estimate.sample_count} samples")
    if args.out:
        _write_matrix(args.out, estimate.matrix)
        _log(f"wrote estimate to {args.out}")
    else:
        np.savetxt(sys.stdout, estimate.matrix, delimiter=",", fmt="%.12g")
    return 0


def cmd_active(args) -> int:
    seed = _resolve_seed(args.seed)
    model = make_spiked_model(args.n, args.spikes, args.spike, theta=args.theta,
                              seed=derive_seed(seed, 0))
    stream = model.stream(child_rng(seed, 1))
    cfg = ActiveConfig(budget=args.budget_frac * args.n, batch_size=args.batch,
                       iterations=args.iters, eps=args.eps, seed=derive_seed(seed, 2))
    trace = run_active(stream, cfg, truth=model.sigma, record_matrices=False)
    _emit({
        "samples": [int(c) for c in trace.sample_counts()],
        "rel_errors": [float(e) for e in trace.errors()],
        "final_design": [float(x) for x in trace.final_design],
        "truth_erank": _erank(np.diagonal(model.sigma), model.top_eigenvalue),
        "seed": seed,
    })
    if args.out:
        rows = np.column_stack([np.arange(len(trace)), trace.sample_counts(), trace.errors()])
        np.savetxt(args.out, rows, delimiter=",", fmt="%.12g",
                   header="iteration,samples,rel_error", comments="")
        _log(f"wrote trace to {args.out}")
    return 0


def cmd_bound(args) -> int:
    sigma = _read_matrix(args.sigma)
    p = _mask_distribution(args, sigma.shape[0])
    report = bound_report(sigma, p, samples=args.samples, eta=args.eta,
                          gamma=args.gamma, q=args.q, sigma_ratio=args.sigma_ratio)
    payload = report.to_dict()
    if not args.no_matrix:
        payload["scale_matrix"] = error_scale_matrix(sigma, p, args.sigma_ratio).tolist()
    _emit(payload)
    return 0


def cmd_calibrate_gamma(args) -> int:
    if args.sigma is not None:
        sigma = _read_matrix(args.sigma)
    else:
        sigma = np.eye(_check_count("dim", args.dim, ge=1))
    p = _mask_distribution(args, sigma.shape[0])
    seed = _resolve_seed(args.seed)
    gamma = calibrate_gamma(sigma, p, samples=args.samples, eta=args.eta,
                            trials=args.trials, q=args.q,
                            sigma_ratio=args.sigma_ratio, seed=seed)
    _emit({"gamma": gamma, "eta": args.eta, "samples": args.samples,
           "trials": args.trials, "q": args.q, "seed": seed})
    return 0


def cmd_experiment(args) -> int:
    config = json.loads(Path(args.config).read_text())
    if not isinstance(config, dict):
        raise ValueError("experiment config must be a JSON object")
    out = args.out or config.pop("output", None) or "results.csv"
    config.pop("output", None)
    if args.trials is not None:
        config["trials"] = args.trials
    if args.arms is not None:
        config["arms"] = [a.strip() for a in args.arms.split(",") if a.strip()]
    if args.budgets is not None:
        config["budget_fracs"] = args.budgets
    if args.seed is not None or "seed" not in config:
        config["seed"] = _resolve_seed(args.seed)
    spec = ExperimentSpec.from_dict(config)
    # run_experiment starts at most one worker per trial
    jobs = min(_check_count("jobs", args.jobs, ge=1), spec.trials)
    _log(f"running {spec.trials} trials x {len(spec.arms)} arms "
         f"({spec.iterations} checkpoints of {spec.batch_size} samples), jobs={jobs}")
    result = run_experiment(spec, jobs=jobs)
    export_csv(result, out)
    _log(f"wrote {out} and {Path(out).with_suffix('.meta.json')}")
    print(str(out))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covest",
        description="Covariance estimation from Bernoulli-masked partial observations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="fit observation probabilities to a variance profile")
    d.add_argument("--diag", required=True, help="variance profile: CSV file or inline vector")
    d.add_argument("--budget", required=True, type=_finite_float, help="expected observed coordinates per sample")
    d.add_argument("--eps", type=_finite_float, default=1e-3, help="probability floor (default 1e-3)")
    d.add_argument("--out", help="also write the design vector to this CSV file")
    d.set_defaults(func=cmd_design)

    e = sub.add_parser("estimate", help="unbiased covariance estimate from masked samples")
    e.add_argument("--observations", required=True, help="CSV, one masked sample per row")
    e.add_argument("--masks", required=True, help="CSV of 0/1 masks, aligned with observations")
    e.add_argument("--p", required=True, help="observation probabilities: CSV file or inline vector")
    e.add_argument("--out", help="write the estimate here instead of stdout")
    e.set_defaults(func=cmd_estimate)

    a = sub.add_parser("active", help="adaptive estimation loop on a synthetic spiked source")
    a.add_argument("--n", required=True, type=int)
    a.add_argument("--spikes", type=int, default=1)
    a.add_argument("--spike", type=_finite_float, default=10.0)
    a.add_argument("--theta", type=_finite_float, default=0.0, help="isotropic noise level")
    a.add_argument("--budget-frac", required=True, type=_finite_float)
    a.add_argument("--batch", type=int, default=50)
    a.add_argument("--iters", type=int, default=20)
    a.add_argument("--eps", type=_finite_float, default=1e-3)
    a.add_argument("--seed", type=int, default=None)
    a.add_argument("--out", help="also write the error trace to this CSV file")
    a.set_defaults(func=cmd_active)

    # the inputs of the bound and of its calibration, shared by both subcommands
    bound_flags = argparse.ArgumentParser(add_help=False)
    probs = bound_flags.add_mutually_exclusive_group(required=True)
    probs.add_argument("--p", help="observation probabilities: CSV file or inline vector")
    probs.add_argument("--budget-frac", type=_finite_float, help="uniform probabilities at this fraction")
    bound_flags.add_argument("--samples", required=True, type=int)
    bound_flags.add_argument("--eta", type=_finite_float, default=100.0)
    bound_flags.add_argument("--q", type=_finite_float, default=2.0)
    bound_flags.add_argument("--sigma-ratio", type=_finite_float, default=1.0)

    b = sub.add_parser("bound", parents=[bound_flags], help="high-probability error-bound report")
    b.add_argument("--sigma", required=True, help="covariance matrix CSV file")
    b.add_argument("--gamma", type=_finite_float, default=1.0)
    b.add_argument("--no-matrix", action="store_true", help="omit the scale matrix from the report")
    b.set_defaults(func=cmd_bound)

    g = sub.add_parser("calibrate-gamma", parents=[bound_flags],
                       help="fit the bound constant to Gaussian simulations")
    cov = g.add_mutually_exclusive_group(required=True)
    cov.add_argument("--sigma", help="covariance matrix CSV file")
    cov.add_argument("--dim", type=int, help="use the identity covariance of this dimension")
    g.add_argument("--trials", type=int, default=1000)
    g.add_argument("--seed", type=int, default=None)
    g.set_defaults(func=cmd_calibrate_gamma)

    x = sub.add_parser("experiment", help="multi-trial strategy comparison from a JSON config")
    x.add_argument("--config", required=True, help="JSON config mirroring the experiment fields")
    x.add_argument("--trials", type=int, default=None, help="override trial count")
    x.add_argument("--arms", default=None, help="override arms, comma-separated")
    x.add_argument("--budgets", type=_finite_floats, default=None, help="override budget fractions, comma-separated")
    x.add_argument("--seed", type=int, default=None, help="override master seed")
    x.add_argument("--out", default=None, help="CSV output path (default from config, else results.csv)")
    x.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="trial parallelism (default: available cores)")
    x.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
