"""Acceptance criteria, one test per criterion.

Every criterion prints exactly one PASS or FAIL line and enforces its
stated tolerance and wall-clock budget.
"""

import functools
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from kgtopos import (
    MatchingFamily,
    build_site,
    glue,
    head_incidence,
    is_sheaf,
    load_presheaf,
    parse_kg,
    scc,
    sheafify,
    sieve_generated_by,
    spectrum_formula,
    tail_incidence,
)
from kgtopos.cli import main
from kgtopos.linegraph import build_out_line
from kgtopos.matrices import row_texts
from kgtopos.verify import (
    suite_adjunction,
    suite_categories,
    suite_incidence_line,
    suite_omega,
    suite_sheafification,
    suite_topologies,
)

from helpers import dense_rows

DATA = Path(__file__).parent / "data"
SEED = 42
TOL = 1e-9


def criterion(number: int, name: str, budget: float):
    """Print one PASS/FAIL line for the criterion and enforce its budget."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"ACCEPTANCE {number} ({name}): FAIL after {elapsed:.2f}s")
                raise
            elapsed = time.perf_counter() - start
            print(
                f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s "
                f"(budget {budget:.0f}s)"
            )
            assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"

        return run

    return wrap


def _run_suite(suite_results):
    assert len(suite_results) == 1
    result = suite_results[0]
    assert result.status == "pass", result.detail


@criterion(1, "golden matrices", 1.0)
def test_criterion_1_golden_matrices():
    kg = parse_kg((DATA / "fan.txt").read_text())
    assert head_incidence(kg).to_csv() == (DATA / "head_incidence.csv").read_text()
    assert tail_incidence(kg).to_csv() == (DATA / "tail_incidence.csv").read_text()
    adjacency = "".join(row + "\n" for row in row_texts(kg, "adjacency-out", ","))
    assert adjacency == (DATA / "adjacency_out.csv").read_text()


@criterion(2, "strongly connected components", 1.0)
def test_criterion_2_golden_components():
    kg = parse_kg((DATA / "fan.txt").read_text())
    assert scc(build_out_line(kg)) == ((0, 1), (2, 3))


@criterion(3, "spectrum formula vs eigensolver", 1.0)
def test_criterion_3_spectrum_cross_check():
    kg = parse_kg((DATA / "fan.txt").read_text())
    formula = spectrum_formula(kg)
    assert formula == [-1, -1, 1, 1]
    adjacency = np.array(dense_rows(kg, "adjacency-out"), dtype=float)
    numeric = sorted(np.linalg.eigvalsh(adjacency))
    assert max(abs(a - b) for a, b in zip(formula, numeric)) < TOL


@criterion(4, "incidence/line property suite", 30.0)
def test_criterion_4_incidence_line_suite():
    _run_suite(suite_incidence_line(SEED, cases=200, max_entities=20, max_triples=60))


@criterion(5, "free category property suite", 30.0)
def test_criterion_5_category_suite():
    _run_suite(suite_categories(SEED, cases=100))


@criterion(6, "topology axiom suite", 60.0)
def test_criterion_6_topology_suite():
    _run_suite(suite_topologies(SEED, cases=50))


@criterion(7, "sheaf condition and gluing goldens", 5.0)
def test_criterion_7_sheaf_golden():
    kg = parse_kg((DATA / "fan.txt").read_text())
    site = build_site(kg, "path")
    cat = site.category
    product = load_presheaf(kg, json.loads((DATA / "product_presheaf.json").read_text()))
    assert is_sheaf(product, site)
    sieve = sieve_generated_by(
        cat, "B", [cat.generator_path(0), cat.generator_path(2)]
    )
    family = MatchingFamily(
        sieve, {cat.generator_path(0): "a1", cat.generator_path(2): "d1"}
    )
    assert glue(product, family) == "(a1,d1)"
    undersized = load_presheaf(
        kg, json.loads((DATA / "undersized_presheaf.json").read_text())
    )
    result = sheafify(undersized, site)
    assert len(result.sheaf.sections["B"]) == len(undersized.sections["A"]) * len(
        undersized.sections["D"]
    )


@criterion(8, "sheafification property suite", 60.0)
def test_criterion_8_sheafification_suite():
    _run_suite(suite_sheafification(SEED, cases=30))


@criterion(9, "adjunction hom-set suite", 120.0)
def test_criterion_9_adjunction_suite():
    _run_suite(suite_adjunction(SEED, cases=20))


@criterion(10, "subobject classifier suite", 60.0)
def test_criterion_10_omega_suite():
    _run_suite(suite_omega(SEED, cases=10))


@criterion(11, "full CLI verification run", 300.0)
def test_criterion_11_cli_verify_end_to_end():
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "kgtopos",
            "verify",
            str(DATA / "fan.txt"),
            "--random",
            "--cases",
            "200",
            "--seed",
            str(SEED),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "all checks passed" in result.stdout


@criterion(12, "sheaf check and sheafify on the 2x6 DAG", 4.0)
def test_criterion_12_deep_dag_sheaf_commands():
    # Six layers of two entities, each pointing at both entities of the
    # next layer: 63 morphisms into each sink, and 458 330 covering
    # sieves on it, which no sheaf command may list.  One section
    # everywhere, so the answer is small.
    names = [[f"L{k}n{i}" for i in range(2)] for k in range(6)]
    triples = [f"{a} r {b}" for upper, lower in zip(names, names[1:]) for a in upper for b in lower]
    constant = {
        "sections": {e: ["*"] for layer in names for e in layer},
        "restrictions": {t: {"*": "*"} for t in triples},
    }
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("dag.txt").write_text("".join(f"{t}\n" for t in triples))
        Path("one.json").write_text(json.dumps(constant))
        for command in ("check", "sheafify"):
            start = time.perf_counter()
            result = runner.invoke(
                main, ["sheaf", command, "dag.txt", "one.json", "--sieve-cap", "100"]
            )
            elapsed = time.perf_counter() - start
            assert result.exit_code == 0, result.output
            assert elapsed < 2.0, f"sheaf {command} took {elapsed:.1f} s"
