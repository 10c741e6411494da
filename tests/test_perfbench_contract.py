"""The names the traced benchmark binds in kgtopos must resolve.

perfbench/spans.py wraps kgtopos functions and methods by name, and
perfbench/run.py reads its metrics from spans of those names; a name
that no longer resolves makes a metric read 0 with no error.  These
tests read the names from the benchmark's own modules, so a rename on
either side shows here.
"""

import ast
import functools
import importlib
import inspect
import sys
import textwrap
from collections import Counter
from pathlib import Path
from random import Random

import pytest

from kgtopos import cli, freecat, linegraph, matrices, parse_kg, randgen, sheaves, sites, verify

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import spans  # noqa: E402

DATA = Path(__file__).parent / "data"


def _opens_a_span(name: str) -> bool:
    """Whether Tracer.install wraps something under this span name: a
    public function defined in a traced module, or a method of one of
    its traced classes."""
    short, _, rest = name.partition(".")
    if short not in spans.MODULES:
        return False
    module = importlib.import_module(f"kgtopos.{short}")
    if "." in rest:
        cls_name, attr = rest.split(".")
        traced = cls_name in spans.TRACED_METHODS.get(short, ())
        return traced and attr in vars(getattr(module, cls_name))
    value = vars(module).get(rest)
    return (
        not rest.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    )


def _string_constants(fn) -> list[str]:
    """The plain string literals in fn's source, f-string parts left out."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    found, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.JoinedStr):
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _counter_names() -> set[str]:
    """Every counters["..."] key that spans.py writes."""
    tree = ast.parse(inspect.getsource(spans))
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "counters"
        and isinstance(node.slice, ast.Constant)
    }


def test_traced_modules_and_classes_exist():
    for short in spans.MODULES:
        importlib.import_module(f"kgtopos.{short}")
    for short, classes in spans.TRACED_METHODS.items():
        module = importlib.import_module(f"kgtopos.{short}")
        for cls_name in classes:
            assert inspect.isclass(getattr(module, cls_name, None)), f"{short}.{cls_name}"


@pytest.mark.parametrize("name", sorted(spans.COUNTER_HOOKS))
def test_counter_hooks_name_traced_callables(name):
    assert _opens_a_span(name), name


@functools.cache
def _real_calls() -> dict:
    """Per counter hook, the positional arguments and the result of one
    real call, on the fan graph, of the callable the hook counts."""
    kg = parse_kg((DATA / "fan.txt").read_text())
    cat = freecat.build_free_category(kg)
    head = matrices.head_incidence(kg)
    presheaf = sheaves.constant_presheaf(kg, ("x", "y"))

    def call(fn, *args):
        return args, fn(*args)

    return {
        "matrices.IntMatrix.__matmul__": call(matrices.IntMatrix.__matmul__, head, head.transpose()),
        "matrices.IntMatrix.__post_init__": ((head,), None),
        "linegraph.build_out_line": call(linegraph.build_out_line, kg),
        "linegraph.build_in_line": call(linegraph.build_in_line, kg),
        "freecat.build_free_category": call(freecat.build_free_category, kg),
        "sites.enumerate_sieves": call(sites.enumerate_sieves, cat, "B"),
        "sites.generate_topology": call(sites.generate_topology, cat, sites.path_coverage(cat)),
        "sheaves.enumerate_matching_families": call(
            sheaves.enumerate_matching_families, presheaf, sites.maximal_sieve(cat, "B")
        ),
        "randgen.random_small_category": call(randgen.random_small_category, Random(0)),
        "verify.run_verification": call(verify.run_verification, kg),
    }


def test_every_counter_hook_has_a_real_call():
    assert sorted(_real_calls()) == sorted(spans.COUNTER_HOOKS)


@pytest.mark.parametrize("name", sorted(spans.COUNTER_HOOKS))
def test_counter_hooks_read_real_results(name):
    # A change to the shape of what a hook reads fails here, in tier-1.
    args, result = _real_calls()[name]
    counters = Counter()
    spans.COUNTER_HOOKS[name](counters, args, result)
    assert counters and set(counters) <= _counter_names(), name


def test_layer_metrics_read_spans_that_exist():
    # Metric and counter names share the literals' shape; the rest are spans.
    others = set(run.PER_LAYER) | _counter_names()
    read = [
        s for s in _string_constants(run.layer_metrics)
        if s.partition(".")[0] in spans.MODULES and s not in others
    ]
    assert "matrices.spectrum_numeric" in read
    assert [name for name in read if not _opens_a_span(name)] == []


def test_check_spans_name_checks_that_verify_runs():
    report = verify.run_verification(
        parse_kg((DATA / "fan.txt").read_text()), random_mode=True, cases=1
    )
    names = {spans.check_key(check.name) for check in report.checks}
    assert set(run.CHECK_NAMES) <= names


def test_tracer_wraps_every_incidence_and_line_check():
    # A check held where the tracer does not patch opens no span of its own.
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, check in verify._INCIDENCE_LINE_CHECKS.items():
            assert hasattr(check, "__wrapped__"), name
    finally:
        tracer.uninstall()


def test_patched_holders_exist():
    # The objects perfbench/tests pin, and the check runner the tracer wraps.
    assert cli.MATRIX_BUILDERS["head"] is matrices.head_incidence
    assert inspect.isfunction(vars(matrices.IntMatrix)["get"])
    assert list(inspect.signature(verify._run).parameters) == ["name", "fn"]
