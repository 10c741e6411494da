"""Planted faults that verify must catch.

Each mutant is applied by monkeypatch; the checks it names must FAIL,
the CLI must exit 1 and no traceback may escape.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from kgtopos import linegraph as lg
from kgtopos import matrices as mx
from kgtopos import Presheaf, build_free_category, parse_kg
from kgtopos import freecat, sheaves, sites, verify
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


def _always_a_sheaf(real):
    return lambda presheaf, site: sheaves.SheafCheck(True)


def _injective_only(real):
    # The local sheaf condition without its size test: distinct
    # restriction tuples pass even when they miss part of the product.
    def planted(presheaf, obj):
        tables = [presheaf.restrictions[i] for i in presheaf.kg.tail_fibres[obj]]
        sections = presheaf.sections[obj]
        return len({tuple(t[x] for t in tables) for x in sections}) == len(sections)

    return planted


def _swap_two_images(real):
    # In the first restriction table of each product plus step whose
    # first two sections have different images, those images trade
    # places.  Both steps swap, so on the fan's random suites the unit
    # stays natural and the result a sheaf isomorphic to the right one:
    # only its labels are out of order.
    def planted(presheaf, factors):
        plus, unit = real(presheaf, factors)
        for table in plus.restrictions.values():
            pair = list(table)[:2]
            if len(pair) == 2 and table[pair[0]] != table[pair[1]]:
                first, second = pair
                table[first], table[second] = table[second], table[first]
                break
        return plus, unit

    return planted


def _misses_identity_generator(real):
    # A member of a maximal sieve factors through its last triple instead
    # of the identity, so that triple becomes a generator of its own.
    # The minimum covering sieve is maximal only at sources on the path
    # site, where it has no other member, so only the atomic site sees it.
    def planted(sieve):
        rows = real(sieve)
        by_arrows = {m.arrows: m for m, _, _ in rows}
        for k, (m, g, _) in enumerate(rows):
            if m.arrows and not g.arrows:
                last = by_arrows[m.arrows[-1:]]
                rows[k] = (m, last, freecat.Path(m.source, last.source, m.arrows[:-1]))
        return rows

    return planted


def _memo_keyed_by_endpoints(real):
    # The memo keyed by a path's source and target: parallel paths share
    # the table of whichever of them was restricted first.
    def planted(presheaf, p):
        key = (p.source, p.target)
        if key not in presheaf._tables:
            presheaf._tables[key] = real(presheaf, p)
        return presheaf._tables[key]

    return planted


def _merge_first_two_components(real):
    def merged(g):
        blocks = real(g)
        if len(blocks) < 2:
            return blocks
        return (tuple(sorted(blocks[0] + blocks[1])), *blocks[2:])

    return merged


def _empty_a_row_of_large_fibres(real):
    # The fan's fibres hold two triples each, so only the random graphs
    # of suite.incidence_line see this.
    def planted(fibres, m, diagonal):
        emptied = {fibre[-1] for fibre in fibres.values() if len(fibre) > 2}
        for i, row in enumerate(real(fibres, m, diagonal)):
            yield [0] * m if i in emptied else row

    return planted


def _stray_line_edge_across_fibres(real):
    # One symmetric pair of 1s in the line adjacency between triple 0 and
    # the first triple in another fibre: a line edge between triples
    # with different heads (or tails).
    def planted(fibres, m, diagonal):
        rows = list(real(fibres, m, diagonal))
        if diagonal == 0 and m:
            own = next(fibre for fibre in fibres.values() if 0 in fibre)
            j = next((j for j in range(m) if j not in own), None)
            if j is not None:
                rows[0][j] = rows[j][0] = 1
        yield from rows

    return planted


def _move_a_row_entry(real):
    # In the first line-adjacency row with a 1, that 1 moves to the first
    # 0 off the diagonal, a triple in another fibre, so the row's count
    # of 1s stays right.
    def planted(fibres, m, diagonal):
        rows = list(real(fibres, m, diagonal))
        for i, row in enumerate(rows if diagonal == 0 else ()):
            wrong = [j for j, x in enumerate(row) if x == 0 and j != i]
            if 1 in row and wrong:
                row[row.index(1)], row[wrong[0]] = 0, 1
                break
        yield from rows

    return planted


def _drop_a_member(real):
    # Drops the shortest member of every nonempty pullback (the identity
    # when the pullback is maximal), so the result need not be a sieve.
    def planted(cat, sieve, g):
        pulled = real(cat, sieve, g)
        if not pulled.mask:
            return pulled
        shortest = pulled.index.bits[pulled.sorted_members()[0].arrows]
        return sites.Sieve(pulled.obj, pulled.mask & ~(1 << shortest), pulled.index)

    return planted


def _pull_drops_its_highest_bit(real):
    # Every pull table loses its highest bit: pulled back along a triple
    # t: a -> b, a sieve never holds the last morphism into a in path_key
    # order, even when its composite with t is a member.
    def planted(cat):
        indexes = real(cat)
        for index in indexes.values():
            for i, table in index.pull.items():
                top = max(table)
                index.pull[i] = tuple(0 if bit == top else bit for bit in table)
        return indexes

    return planted


def _first_well_typed_image(real):
    # Each generator image becomes the first morphism between its
    # endpoints, so the extension is still a functor with the assigned
    # object map, but not the one the generator images fix.
    def planted(cat, object_assignment, generator_assignment, target):
        if target is not cat:
            generator_assignment = {
                i: target.hom(image.source, image.target)[0]
                for i, image in generator_assignment.items()
            }
        return real(cat, object_assignment, generator_assignment, target)

    return planted


def _skips_last_triple_into_each_object(real):
    # M(b) loses the paths whose last triple is the last one into b, so
    # that triple pulls M(b) back to the empty sieve, which covers nothing.
    def planted(cat, sieve_cap=sites.DEFAULT_SIEVE_CAP):
        minimum = dict(real(cat, sieve_cap).minimum)
        for obj, fibre in cat.kg.tail_fibres.items():
            if fibre:
                index, last = cat.key_index[obj], fibre[-1:]
                skipped = sum(
                    1 << k for k, p in enumerate(index.paths) if p.arrows[-1:] == last
                )
                minimum[obj] = sites.Sieve(obj, minimum[obj].mask & ~skipped, index)
        return sites.Site(cat, minimum)

    return planted


def _covering_list_drops_its_last_sieve(real):
    return property(lambda site: {
        obj: sieves[:-1] for obj, sieves in real.__get__(site).items()
    })


def _key_ignores_last_object(real):
    # Transformations that differ only at the last object share a key, so
    # distinct ones look equal to the hom-set bijection.
    return lambda transformation: real(transformation)[:-1]


def _raises_key_error(real):
    # A fault outside the library's own errors, as a lookup bug would raise.
    def planted(inner, outer):
        raise KeyError("planted")

    return planted


def _statuses(output: str) -> dict[str, str]:
    """Check name (suite size stripped) -> status, from verify's text output."""
    statuses = {}
    for line in output.splitlines()[:-1]:
        status, name = line.split()[:2]
        statuses[name.split("[")[0]] = status
    return statuses


RANDOM_20 = [FAN, "--random", "--cases", "20"]
RANDOM_200 = [FAN, "--random", "--cases", "200"]


@pytest.mark.parametrize(
    "targets, mutant, args, failing, passing",
    [
        (
            [(mx, "rank_exact")],
            _rank_off_by_one,
            RANDOM_20,
            ["incidence.rank", "suite.incidence_line"],
            [],
        ),
        (
            [(mx, "rank_exact")],
            _nonzero_rows,
            RANDOM_20,
            ["suite.incidence_line"],
            ["incidence.rank"],
        ),
        (
            [(mx, "spectrum_formula")],
            _drop_one_eigenvalue,
            [FAN],
            ["incidence.spectrum"],
            [],
        ),
        (
            [(sheaves, "_fold_over_triples")],
            _keep_covering_sieves,
            RANDOM_20,
            ["sheaf.omega", "suite.omega"],
            [],
        ),
        (
            [(sheaves, "_fold_over_triples")],
            _drop_empty_sieve_at_sources,
            RANDOM_20,
            ["sheaf.omega", "suite.omega"],
            [],
        ),
        # Omega is a sheaf, so among the omega checks only the subsheaves of
        # 1 against Hom(1, omega) catch this, and that scan of every subset
        # of objects runs in suite.omega alone.
        (
            [(sheaves, "is_sheaf"), (verify, "is_sheaf")],
            _always_a_sheaf,
            RANDOM_20,
            ["suite.omega", "suite.sheafification"],
            [],
        ),
        (
            [(sheaves, "_restrictions_biject")],
            _injective_only,
            RANDOM_20,
            ["suite.sheafification", "suite.omega"],
            [],
        ),
        (
            [(sheaves, "_plus")],
            _swap_two_images,
            RANDOM_20,
            ["suite.sheafification"],
            [],
        ),
        (
            [(sheaves, "_factorizations")],
            _misses_identity_generator,
            RANDOM_20,
            ["suite.sheafification"],
            [],
        ),
        (
            [(sheaves, "restrict"), (verify, "restrict")],
            _memo_keyed_by_endpoints,
            RANDOM_20,
            ["suite.sheafification"],
            [],
        ),
        (
            [(lg, "scc")],
            _merge_first_two_components,
            RANDOM_20,
            ["line.scc_theorem", "suite.incidence_line"],
            [],
        ),
        (
            [(mx, "_fibre_rows")],
            _empty_a_row_of_large_fibres,
            RANDOM_20,
            ["suite.incidence_line"],
            ["incidence.gram"],
        ),
        (
            [(mx, "_fibre_rows")],
            _stray_line_edge_across_fibres,
            RANDOM_20,
            ["incidence.spectrum", "incidence.line_operator_identity",
             "line.matrix_consistency", "suite.incidence_line"],
            ["incidence.gram"],
        ),
        (
            [(mx, "_fibre_rows")],
            _move_a_row_entry,
            RANDOM_20,
            ["incidence.line_operator_identity", "incidence.spectrum",
             "line.matrix_consistency", "suite.incidence_line"],
            ["incidence.gram"],
        ),
        (
            [(sites, "pullback_sieve"), (verify, "pullback_sieve")],
            _drop_a_member,
            RANDOM_20,
            ["sites.axioms", "sheaf.omega", "suite.topologies", "suite.omega"],
            [],
        ),
        (
            [(freecat, "_key_indexes")],
            _pull_drops_its_highest_bit,
            RANDOM_20,
            ["suite.topologies"],
            [],
        ),
        (
            [(sites, "path_topology"), (verify, "path_topology")],
            _skips_last_triple_into_each_object,
            RANDOM_20,
            ["sites.axioms", "suite.topologies"],
            [],
        ),
        (
            [(sites.Site, "covering")],
            _covering_list_drops_its_last_sieve,
            RANDOM_20,
            ["sites.axioms", "suite.topologies"],
            [],
        ),
        (
            [(sites, "check_inclusion"), (verify, "check_inclusion")],
            _raises_key_error,
            RANDOM_20,
            ["sites.inclusion", "suite.topologies"],
            [],
        ),
        (
            [(freecat, "extend_functor"), (verify, "extend_functor")],
            _first_well_typed_image,
            RANDOM_20,
            ["suite.categories"],
            [],
        ),
        # suite.adjunction runs a tenth of --cases; its first two cases
        # draw no pair of transformations that differ at the last object
        # alone, so it takes --cases 200 to fail.
        (
            [(sheaves.NatTransformation, "canonical_key")],
            _key_ignores_last_object,
            RANDOM_200,
            ["sheaf.adjunction", "suite.adjunction"],
            [],
        ),
    ],
    ids=[
        "rank-off-by-one",
        "rank-counts-nonzero-rows",
        "spectrum-drops-an-eigenvalue",
        "omega-keeps-covering-sieves",
        "omega-drops-empty-sieve-at-sources",
        "is-sheaf-always-passes",
        "local-condition-drops-size-test",
        "plus-swaps-two-images",
        "plus-misses-identity-generator",
        "restriction-memo-keys-by-endpoints",
        "scc-merges-two-components",
        "fibre-operator-empties-a-row",
        "stray-line-edge-across-fibres",
        "row-entry-moved",
        "pullback-sieve-drops-a-member",
        "pull-table-drops-its-highest-bit",
        "minimum-sieve-skips-a-triple",
        "covering-list-drops-its-last-sieve",
        "inclusion-raises-key-error",
        "extension-takes-first-well-typed-image",
        "adjunction-key-ignores-last-object",
    ],
)
def test_planted_fault_fails_its_checks(
    monkeypatch, targets, mutant, args, failing, passing
):
    for module, attribute in targets:
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


def test_fold_comparison_catches_an_endpoint_keyed_memo(monkeypatch):
    # In the planted run above, sheafify's own checks fail first; here
    # the comparison sees the fault alone.  r and s, and r.t and s.t,
    # share their endpoints but not their tables.
    cat = build_free_category(parse_kg("A r B\nA s B\nB t C\n"))
    presheaf = Presheaf(
        cat.kg,
        {"A": ("a0", "a1"), "B": ("b0",), "C": ("c0",)},
        {0: {"b0": "a0"}, 1: {"b0": "a1"}, 2: {"c0": "b0"}},
    )
    assert verify.check_restrict_against_fold(cat, presheaf) == []
    monkeypatch.setattr(verify, "restrict", _memo_keyed_by_endpoints(verify.restrict))
    fresh = Presheaf(cat.kg, presheaf.sections, presheaf.restrictions)
    assert verify.check_restrict_against_fold(cat, fresh) == [
        "restrict differs from the fold along 1",
        "restrict differs from the fold along 1.2",
    ]


def test_path_pullback_comparison_catches_a_short_pull_table(monkeypatch):
    # Pulled back along r or s, a sieve on B loses the identity at A, the
    # last (and only) morphism into A.
    text = "A r B\nA s B\nB t C\n"
    assert verify.check_pullbacks_against_paths(build_free_category(parse_kg(text)), 12) == []
    monkeypatch.setattr(
        freecat, "_key_indexes", _pull_drops_its_highest_bit(freecat._key_indexes)
    )
    failures = verify.check_pullbacks_against_paths(build_free_category(parse_kg(text)), 12)
    assert failures[:2] == [
        "pullback of {0} on B along 0 differs from the path pullback",
        "pullback of {1} on B along 1 differs from the path pullback",
    ]
