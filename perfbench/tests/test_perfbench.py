"""Tests of the benchmark itself: tracer arithmetic, patch hygiene,
metric naming, seed-independent workload shapes and the known answers.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import re
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import ModuleType

import pytest
from click.testing import CliRunner

import run
import spans
import workloads
from kgtopos import cli

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def module_attributes(package="kgtopos"):
    """Identity of every module-level value, class attribute and dict
    item of the package, for checking that nothing stays patched."""
    seen = {}
    for key, module in sys.modules.items():
        in_package = key == package or key.startswith(package + ".")
        if not in_package or not isinstance(module, ModuleType):
            continue
        for attr, value in vars(module).items():
            seen[(key, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == key:
                for name, member in vars(value).items():
                    seen[(key, f"{attr}.{name}")] = id(member)
            elif isinstance(value, dict) and not attr.startswith("__"):
                for item_key, item in value.items():
                    seen[(key, f"{attr}[{item_key!r}]")] = id(item)
    return seen


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_synthetic_nested_call():
    # outer [0, 10] holds inner [2, 5] and inner [6, 7], which holds leaf [6.5, 6.75]
    tracer = spans.Tracer(clock=FakeClock([0, 2, 5, 6, 6.5, 6.75, 7, 10]))

    def leaf():
        return "leaf"

    def inner(nested):
        return tracer.span("b.leaf", leaf) if nested else None

    def outer():
        tracer.span("b.inner", inner, False)
        tracer.span("b.inner", inner, True)

    tracer.span("a.outer", outer)
    outer_node = tracer.root.children["a.outer"]
    inner_node = outer_node.children["b.inner"]
    leaf_node = inner_node.children["b.leaf"]
    assert (outer_node.total, outer_node.self_time) == (10, 6)
    assert (inner_node.calls, inner_node.start, inner_node.end) == (2, 2, 7)
    assert (inner_node.total, inner_node.self_time) == (4, 3.75)
    assert leaf_node.self_time == 0.25
    assert tracer.busy() == {"a": 6, "b": 4}
    assert tracer.outermost("b.inner") == (2, 4)
    assert tracer.under("b.inner", "b.leaf") == 1


def test_untraced_run_leaves_module_attributes_untouched(tmp_path):
    before = module_attributes()
    workload = workloads.build("verify-random", 0)
    workload.ops[:] = workload.ops[1:3]
    workload.write(tmp_path)
    digests = run.load_digests("verify-random", 0)
    outcomes = run.run_pass(CliRunner(), cli.main, workload, tmp_path, digests)
    assert len(outcomes) == 2
    assert [o.problems for o in outcomes] == [[]] * len(outcomes)
    assert module_attributes() == before


def test_pace_scales_by_the_ticks_inside_a_sample_or_around_it():
    pace = run.Pace()
    assert pace.scaled(1.5, 0.0, 1.0) == 1.5  # no ticks: raw seconds
    loop = run.REFERENCE_PACE_S
    pace.ticks = [(0.0, loop, 0.1), (1.0, 2 * loop, 0.2), (2.0, loop, 0.1), (3.0, 2 * loop, 0.2)]
    # A tick inside: the host ran at half the reference pace.
    assert pace.scaled(1.0, 0.5, 1.5) == pytest.approx(0.5)
    # Ticks inside average 1/loop time, the work each tick period was worth.
    assert pace.scaled(2.0, 0.5, 3.5) == pytest.approx(2.0 * (0.5 + 1 + 0.5) / 3)
    # None inside: the nearest tick on each side.
    assert pace.scaled(0.1, 0.2, 0.3) == pytest.approx(0.1 * (1 + 0.5) / 2)
    assert pace.scaled(0.1, 3.2, 3.3) == pytest.approx(0.05)
    # Only the ticks that started inside a sample are left out of it.
    assert pace.spent(0.5, 2.0) == pytest.approx(0.3)
    assert pace.spent(0.5, 0.9) == 0


def test_pace_ticks_while_entered_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    pace = run.Pace()
    with pace:
        assert signal.getsignal(signal.SIGALRM) == pace.tick
        time.sleep(4 * run.PACE_PERIOD_S)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(pace.ticks) >= 4
    assert all(took >= loop for _, loop, took in pace.ticks)


def test_fill_repeats_ops_only_while_they_fit(tmp_path):
    workload = workloads.build("verify-random", 0)
    workload.ops[:] = workload.ops[1:3]
    workload.write(tmp_path)
    runner, digests, pace = CliRunner(), run.load_digests("verify-random", 0), run.Pace()
    outcomes = run.run_pass(runner, cli.main, workload, tmp_path, digests, pace=pace)
    run.fill(runner, cli.main, workload, tmp_path, digests, time.perf_counter(), outcomes, pace)
    assert len(outcomes) == 2
    deadline = time.perf_counter() + 0.5
    run.fill(runner, cli.main, workload, tmp_path, digests, deadline, outcomes, pace)
    assert len(outcomes) > 2
    assert all(o.start < deadline and o.problems == [] for o in outcomes)
    assert set(run.samples(outcomes)) == {op.name for op in workload.ops}


def test_once_ops_are_not_repeated(tmp_path):
    workload = workloads.build("verify-random", 0)
    workload.ops[:] = [replace(workload.ops[1], once=True), workload.ops[2]]
    workload.write(tmp_path)
    runner, digests, pace = CliRunner(), run.load_digests("verify-random", 0), run.Pace()
    outcomes = run.run_pass(runner, cli.main, workload, tmp_path, digests, pace=pace)
    run.fill(runner, cli.main, workload, tmp_path, digests, time.perf_counter() + 0.3,
             outcomes, pace)
    counts = run.samples(outcomes)
    assert counts[workload.ops[0].name] == 1
    assert counts[workload.ops[1].name] > 1


def test_wide_graph_seeds_relabel_one_graph():
    def structure(seed):
        triples = workloads.wide_graph_triples(workloads.Random(seed))
        degree = {}
        for h, _, t in triples:
            degree[h] = degree.get(h, 0) + 1
            degree[t] = degree.get(t, 0) + 1
        return sorted(degree.values())

    assert structure("a") == structure("b")
    assert workloads.wide_graph_triples(workloads.Random("a")) != \
        workloads.wide_graph_triples(workloads.Random("b"))


def test_install_patches_every_import_site_and_uninstall_restores():
    before = module_attributes()
    original = cli.build_free_category
    tracer = spans.Tracer()
    tracer.install()
    try:
        from kgtopos import freecat, matrices, verify

        assert cli.build_free_category is not original
        assert cli.build_free_category is freecat.build_free_category
        assert verify.build_free_category is freecat.build_free_category
        assert cli.MATRIX_BUILDERS["head"] is matrices.head_incidence
        assert matrices.head_incidence.__wrapped__ is not None
        assert matrices.IntMatrix.__dict__["get"].__name__ == "get"
    finally:
        tracer.uninstall()
    assert module_attributes() == before


def test_traced_pass_counts_layers(tmp_path):
    workload = workloads.build("verify-random", 0)
    workload.ops[:] = workload.ops[1:2]
    workload.write(tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        outcomes = run.run_pass(CliRunner(), cli.main, workload, tmp_path,
                                run.load_digests("verify-random", 0), tracer)
    finally:
        tracer.uninstall()
    assert outcomes[0].problems == []
    metrics = run.layer_metrics(tracer)
    assert metrics["freecat.categories_built"] == 1
    assert metrics["sites.topologies_built"] == 1
    assert metrics["sheaves.sheafify_s"] > 0
    assert metrics["cli.busy_s"] > 0
    assert set(metrics) | {"trace.wall_s", "trace.overhead_ratio"} == set(run.PER_LAYER)


def test_metric_names_and_units():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert len(declared) == len(bench["end_to_end"]) + len(bench["per_layer"])
    for name, unit in declared.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def op_list(workload):
    return [(op.name, op.kind, op.args, op.exit_code, op.once) for op in workload.ops]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seeds_change_inputs_not_shapes_or_ops(name):
    first, second = workloads.build(name, 1), workloads.build(name, 2)
    assert first.shape == second.shape
    assert op_list(first) == op_list(second)
    assert first.files.keys() == second.files.keys()
    assert first.files != second.files


def test_workload_shapes_match_their_definitions():
    wide = workloads.build("wide-graph", 5).shape
    assert wide == {"triples": 300, "entities": 100, "predicates": 4}
    deep = workloads.build("deep-site", 5).shape
    assert deep == {
        "triples": 12,
        "entities": 8,
        "layers": [2, 2, 2, 2],
        "morphisms_into_sink": 15,
        "sink_sections": 16,
        "covering_sieves": 68,
    }


def test_known_answers_on_the_fan_fixture():
    fan = list(workloads.FAN_TRIPLES)
    assert workloads.covering_sieve_counts(fan) == {"A": 1, "B": 2, "C": 2, "D": 1}
    assert workloads.sheafified_counts(fan, {"A": 2, "D": 1}) == {"A": 2, "B": 2, "C": 2, "D": 1}
    fixture = json.loads((ROOT / "tests" / "data" / "product_presheaf.json").read_text())
    built = workloads.product_sheaf(fan, {"A": ["a1", "a2"], "D": ["d1"]})
    assert built == fixture
    fixture = json.loads((ROOT / "tests" / "data" / "undersized_presheaf.json").read_text())
    cut = workloads.undersized(built, "B")
    assert {e: len(s) for e, s in cut["sections"].items()} == {
        e: len(s) for e, s in fixture["sections"].items()
    }
    assert cut["restrictions"]["A r1 B"] == {"(a1,d1)": "a1"}
    assert cut["restrictions"]["D r3 B"] == {"(a1,d1)": "d1"}


def test_known_answers_on_the_layered_dag():
    workload = workloads.build("deep-site", 0)
    triples = [tuple(line.split()) for line in workload.files["graph.txt"].splitlines()]
    counts = workloads.covering_sieve_counts(triples)
    assert sorted(counts.values()) == [1, 1, 2, 2, 5, 5, 26, 26]
    sections = workloads.sheafified_counts(triples, {e: 2 for e in workloads.entity_order(triples)})
    assert sorted(sections.values()) == [2, 2, 4, 4, 16, 16, 256, 256]


class FakeResult:
    def __init__(self, stdout: bytes, exit_code=0, exception=None):
        self.stdout_bytes = stdout
        self.stdout = stdout.decode()
        self.exit_code = exit_code
        self.exception = exception


def test_every_kind_of_failure_is_counted():
    op = workloads.build("deep-site", 0).ops[4]
    assert op.name == "check-product"
    good = FakeResult(b'{"is_sheaf": true}\n')
    assert run.problems(op, good, run.digest(op, good)) == []
    assert run.problems(op, good, "0" * 64) == ["stdout digest differs from the seed commit"]
    assert run.problems(op, good, None) == ["no stdout digest recorded for this op"]
    wrong = FakeResult(b'{"is_sheaf": false}\n', 1)
    assert run.problems(op, wrong, run.digest(op, wrong)) == [
        "exit code 1, expected 0", "is_sheaf: expected True, got False"]
    crashed = FakeResult(b"", 1, ValueError("boom"))
    assert run.problems(op, crashed, run.digest(op, crashed))[0] == "traceback: ValueError('boom')"


def test_every_seed_has_recorded_digests():
    for name in workloads.WORKLOADS:
        ops = {op.name for op in workloads.build(name, 0).ops}
        for variant in range(run.INPUT_VARIANTS):
            assert run.load_digests(name, variant).keys() == ops, (name, variant)
    assert run.load_digests("deep-site", run.INPUT_VARIANTS) == {}


def test_digest_masks_only_verify_timings():
    op = workloads.build("wide-graph", 0).ops[-1]
    assert op.digest_input(b"PASS kg.roundtrip (0.012s)\n") == b"PASS kg.roundtrip (s)\n"
    assert workloads.build("wide-graph", 0).ops[0].digest_input(b"(0.012s)") == b"(0.012s)"
