"""The names the benchmark harness reaches in fnlslab still exist and still bind.

`perfbench/tracing.py`'s LAYERS table names each traced function by module
and attribute, and the tracer patches them with `getattr`; the workloads in
`perfbench/workloads.py` call fnlslab through its modules (``evolution.
integrate``), directly or through ``res.timed(fn, *args, **kwargs)``, and so
does the per-layer bench `tools/layer_bench.py`.  A renamed function or a
dropped keyword crashes a benchmark run, not a test, so these files are read
here (by `ast`, without importing the harness).
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _parse(path: str) -> ast.Module:
    return ast.parse((ROOT / path).read_text())


def _layers() -> list[tuple[str, str, str]]:
    for node in _parse("perfbench/tracing.py").body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py assigns no LAYERS")


def _module_calls(path: str) -> list[tuple[str, str, int, list[str]]]:
    """(module, attribute, positional count, keywords) of every call that the
    file at `path` makes to an fnlslab module's attribute, with
    ``res.timed(fn, ...)`` read as a call of fn without ``busy``, and a
    ``**mapping`` argument, whose keys are not known here, left out."""
    tree = _parse(path)
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "fnlslab" for a in node.names}

    def target(expr):
        ok = isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
        return (expr.value.id, expr.attr) if ok and expr.value.id in modules else None

    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        args, keywords = node.args, [k.arg for k in node.keywords if k.arg is not None]
        name = target(node.func)
        if name is None and getattr(node.func, "attr", None) == "timed" and args:
            name, args, keywords = target(args[0]), args[1:], [k for k in keywords if k != "busy"]
        if name is not None:
            calls.append((*name, len(args), keywords))
    return calls


@pytest.mark.parametrize("layer, module_name, path", _layers())
def test_every_traced_layer_resolves(layer, module_name, path):
    module = importlib.import_module(module_name)
    if "." in path:  # a method, patched on its class as the tracer does
        cls_name, attr = path.split(".")
        assert callable(vars(getattr(module, cls_name))[attr])
    else:
        assert callable(getattr(module, path))


def _bind(calls) -> None:
    for module_name, attr, positional, keywords in calls:
        fn = getattr(importlib.import_module(f"fnlslab.{module_name}"), attr)
        inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))


def test_every_workload_call_binds():
    calls = _module_calls("perfbench/workloads.py")
    assert ("nonlinearity", "check_wellposedness_condition", 1, ["seed"]) in calls
    _bind(calls)


def test_every_layer_bench_call_binds():
    calls = _module_calls("tools/layer_bench.py")
    assert ("estimates", "EnsembleSpec", 0, ["cutoffs", "samples_per_cutoff", "seed"]) in calls
    _bind(calls)
