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
