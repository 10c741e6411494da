"""Planted faults that verify must catch.

Each mutant is applied by monkeypatch; the checks it names must FAIL,
the CLI must exit 1 and no traceback may escape.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from kgtopos import matrices as mx
from kgtopos import sheaves
from kgtopos.cli import main

FAN = str(Path(__file__).parent / "data" / "fan.txt")


def _rank_off_by_one(real):
    return lambda matrix: real(matrix) + 1


def _nonzero_rows(real):
    # Right on every incidence matrix, whose nonzero rows are independent.
    return lambda matrix: sum(
        any(matrix.entries[i * matrix.cols : (i + 1) * matrix.cols])
        for i in range(matrix.rows)
    )


def _drop_one_eigenvalue(real):
    return lambda kg, *, use_tails=False: real(kg, use_tails=use_tails)[1:]


def _keep_covering_sieves(real):
    return lambda cat, admit: real(cat, lambda sieve: True)


def _drop_empty_sieve_at_sources(real):
    # At an object with no incoming triple the empty sieve is the only
    # candidate, so this drops exactly that one.
    return lambda cat, admit: real(
        cat, lambda sieve: admit(sieve) and bool(cat.kg.tail_fibres[sieve.obj])
    )


def _statuses(output: str) -> dict[str, str]:
    """Check name (suite size stripped) -> status, from verify's text output."""
    statuses = {}
    for line in output.splitlines()[:-1]:
        status, name = line.split()[:2]
        statuses[name.split("[")[0]] = status
    return statuses


@pytest.mark.parametrize(
    "module, attribute, mutant, args, failing, passing",
    [
        (
            mx,
            "rank_exact",
            _rank_off_by_one,
            [FAN, "--random", "--cases", "20"],
            ["incidence.rank", "suite.incidence_line"],
            [],
        ),
        (
            mx,
            "rank_exact",
            _nonzero_rows,
            [FAN, "--random", "--cases", "20"],
            ["suite.incidence_line"],
            ["incidence.rank"],
        ),
        (
            mx,
            "spectrum_formula",
            _drop_one_eigenvalue,
            [FAN],
            ["incidence.spectrum"],
            [],
        ),
        # Four suite.omega cases: case 3 is the first with a triple.
        (
            sheaves,
            "_fold_over_triples",
            _keep_covering_sieves,
            [FAN, "--random", "--cases", "80"],
            ["sheaf.omega", "suite.omega"],
            [],
        ),
        (
            sheaves,
            "_fold_over_triples",
            _drop_empty_sieve_at_sources,
            [FAN, "--random", "--cases", "80"],
            ["sheaf.omega", "suite.omega"],
            [],
        ),
    ],
    ids=[
        "rank-off-by-one",
        "rank-counts-nonzero-rows",
        "spectrum-drops-an-eigenvalue",
        "omega-keeps-covering-sieves",
        "omega-drops-empty-sieve-at-sources",
    ],
)
def test_planted_fault_fails_its_checks(
    monkeypatch, module, attribute, mutant, args, failing, passing
):
    monkeypatch.setattr(module, attribute, mutant(getattr(module, attribute)))
    result = CliRunner().invoke(main, ["verify", *args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output and "error:" not in result.output
    statuses = _statuses(result.output)
    assert {name: statuses[name] for name in failing + passing} == {
        **{name: "FAIL" for name in failing},
        **{name: "PASS" for name in passing},
    }
