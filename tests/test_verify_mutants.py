"""Planted faults that verify must catch.

Each mutant is applied by monkeypatch; the checks it names must FAIL,
the CLI must exit 1 and no traceback may escape.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from kgtopos import matrices as mx
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


def _statuses(output: str) -> dict[str, str]:
    """Check name (suite size stripped) -> status, from verify's text output."""
    statuses = {}
    for line in output.splitlines()[:-1]:
        status, name = line.split()[:2]
        statuses[name.split("[")[0]] = status
    return statuses


@pytest.mark.parametrize(
    "attribute, mutant, args, failing, passing",
    [
        (
            "rank_exact",
            _rank_off_by_one,
            [FAN, "--random", "--cases", "20"],
            ["incidence.rank", "suite.incidence_line"],
            [],
        ),
        (
            "rank_exact",
            _nonzero_rows,
            [FAN, "--random", "--cases", "20"],
            ["suite.incidence_line"],
            ["incidence.rank"],
        ),
        (
            "spectrum_formula",
            _drop_one_eigenvalue,
            [FAN],
            ["incidence.spectrum"],
            [],
        ),
    ],
    ids=["rank-off-by-one", "rank-counts-nonzero-rows", "spectrum-drops-an-eigenvalue"],
)
def test_planted_fault_fails_its_checks(
    monkeypatch, attribute, mutant, args, failing, passing
):
    monkeypatch.setattr(mx, attribute, mutant(getattr(mx, attribute)))
    result = CliRunner().invoke(main, ["verify", *args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output and "error:" not in result.output
    statuses = _statuses(result.output)
    assert {name: statuses[name] for name in failing + passing} == {
        **{name: "FAIL" for name in failing},
        **{name: "PASS" for name in passing},
    }
