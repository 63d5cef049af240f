"""Checks on the source tree itself."""
import ast
import importlib
import inspect
from pathlib import Path

import covest

SOURCES = sorted(Path(covest.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so invariants must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def _perfbench_targets():
    # read TARGETS from perfbench/spans.py without importing the benchmark
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    for node in ast.parse(spans.read_text(), filename=str(spans)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/spans.py defines no TARGETS")


def test_benchmark_targets_resolve():
    # the benchmark wraps these names in place; a deleted one breaks its traced runs
    missing = []
    targets = _perfbench_targets()
    for namespace, attribute, _ in targets:
        obj = importlib.import_module(namespace.split(".")[0])
        for part in namespace.split(".")[1:]:
            obj = getattr(obj, part)
        if not hasattr(obj, attribute):
            missing.append(f"{namespace}.{attribute}")
    assert targets
    assert missing == []


def test_batch_loops_accept_record_matrices():
    # the benchmark's workloads pass record_matrices to both loops
    for fn in (covest.run_active, covest.run_fixed):
        assert "record_matrices" in inspect.signature(fn).parameters


_ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _bare_ordering(test) -> bool:
    # x < c, alone or inside and/or; a comparison under `not` is the NaN-safe form
    if isinstance(test, ast.Compare):
        return any(isinstance(op, _ORDERINGS) for op in test.ops)
    return isinstance(test, ast.BoolOp) and any(_bare_ordering(v) for v in test.values)


def _raises_value_error(body) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                return True
    return False


def test_range_checks_reject_nan():
    # "if x < c: raise ValueError" lets NaN through, since every comparison
    # with NaN is False; write "if not x >= c" or call linalg._check_finite
    found = [
        f"{path.name}:{node.lineno}: {ast.unparse(node.test)}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.If) and _raises_value_error(node.body) and _bare_ordering(node.test)
    ]
    assert found == []


def test_no_tol_parameters():
    # each tolerance is part of a contract stated once, not a per-call knob
    found = [
        f"{path.name}:{node.lineno}: {node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and "tol" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    ]
    assert found == []


def test_covariance_contract_is_stated_only_in_linalg():
    # symmetry and positive semidefiniteness are judged by linalg.check_symmetric
    # and linalg.check_psd_spectrum; a second copy drifts from them
    found = []
    for path in SOURCES:
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None and _raises_value_error([node]):
                text = " ".join(
                    c.value for c in ast.walk(node.exc)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
                if "symmetric" in text or "positive semidefinite" in text:
                    found.append(f"{path.name}:{node.lineno}: {text}")
    assert SOURCES
    assert found == []


_COUNTS = {"trials", "samples", "batch_size", "iterations", "total", "sample_count", "dim"}


def test_counts_are_checked_as_integers():
    # _check_finite lets 2.5 through as a count; linalg._check_count rejects it
    found = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "_check_finite"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value in _COUNTS
    ]
    assert found == []


_PRODUCTS = {"matmul", "dot", "vdot", "inner", "einsum", "tensordot"}


def test_batch_loop_leaves_the_gram_to_the_estimator():
    # the Gram product and its scoring live in estimator._fold_gram, which
    # estimate_cov calls too; a product in active.py would be a second path
    path = Path(covest.__file__).parent / "active.py"
    found = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
        or (isinstance(node, ast.Attribute) and node.attr in _PRODUCTS)
        or (isinstance(node, ast.Name) and node.id in _PRODUCTS)
    ]
    assert found == []


_LAYOUT = {"_panels", "_PANEL", "_fill_lower"}


def test_batch_loop_leaves_the_layout_to_the_estimator():
    # estimator.py alone knows how the running sum is split into panels and
    # mirrored; active.py folds into it and reads it through estimator helpers
    path = Path(covest.__file__).parent / "active.py"
    names = {
        getattr(node, field)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for field in ("id", "attr", "name")
        if isinstance(getattr(node, field, None), str)
    }
    assert names & _LAYOUT == set()


def test_only_the_data_layer_draws_normal_rows():
    # data.SyntheticModel roots sigma and its stream draws the rows, with the
    # diagonal shortcut; a sampler elsewhere would root sigma a second time
    found = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in SOURCES
        if path.name != "data.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "standard_normal"
    ]
    assert SOURCES
    assert found == []
