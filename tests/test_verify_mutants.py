"""Planted faults that verify must catch.

Each mutant is applied by monkeypatch; the checks it names must FAIL,
the CLI must exit 1 and no traceback may escape.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from kgtopos import linegraph as lg
from kgtopos import matrices as mx
from kgtopos import KnowledgeGraph, Presheaf, build_free_category, parse_kg, run_verification
from kgtopos import freecat, sheaves, sites, verify
from kgtopos.cli import main

FAN = str(Path(__file__).parent / "data" / "fan.txt")
# A r1 B, A r2 C, A r3 D, E r4 B: one head fibre of three triples.
THREE_TRIPLE_FIBRE = str(Path(__file__).parent / "data" / "three_triple_fibre.txt")


def _drops_the_last_triple(real):
    return lambda kg: real(KnowledgeGraph(kg.entities, kg.predicates, kg.triples[:-1]))


def _drops_the_longest_path(real):
    # The first longest morphism goes missing from its hom-set; on the fan
    # that is triple 0's path, so the sieve index meets a KeyError there.
    def planted(kg, max_length=None):
        cat = real(kg, max_length)
        longest = max(cat.morphisms(), key=len)
        hom_sets = {
            ends: kept
            for ends, paths in cat.hom_sets.items()
            if (kept := tuple(p for p in paths if p != longest))
        }
        return freecat.FreeCategory(kg, hom_sets, cat.max_length, cat.complete)

    return planted


def _fibre_drops_its_last_index(real):
    # The first fibre of two or more triples loses its last one, in the
    # head and the tail index alike.
    def planted(kg, ends):
        fibres = real(kg, ends)
        end = next((e for e, fibre in fibres.items() if len(fibre) > 1), None)
        if end is not None:
            fibres[end] = fibres[end][:-1]
        return fibres

    return planted


def _sieve_test_drops_size_test(real):
    # The witness walk's per-sieve bijection test without its size test:
    # a sieve whose sections restrict to distinct families passes, even
    # when they miss some.  is_sheaf's own test still finds the failure,
    # so the walk reports a later sieve, or none.
    def planted(presheaf, sieve):
        tables = [sheaves.restrict(presheaf, m) for m in sieve.sorted_members()]
        sections = presheaf.sections[sieve.obj]
        if len({tuple(t[s] for t in tables) for s in sections}) == len(sections):
            return sheaves.SheafCheck(True)
        return real(presheaf, sieve)

    return planted


def _generators_in_key_order(real):
    # The witness walk takes a sieve's generators by path key instead of
    # shortest first.  Only the first witness changes, and only where the
    # two orders differ and more than one family fails: verify's
    # generator-order case in suite.sheafification.
    class KeyOrdered(sites.Sieve):
        def sorted_members(self):
            return tuple(self.in_key_order())

    return lambda presheaf, sieve: real(
        presheaf, KeyOrdered(sieve.obj, sieve.mask, sieve.index)
    )


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


def _large_fibre_row_misses_its_first(real):
    # In a fibre of three or more triples, the row of its second triple
    # loses the 1 of its first, so the gram is no longer H^T H. The fan's
    # fibres hold two triples each.
    def planted(fibres, m, diagonal):
        middles = {fibre[1]: fibre[0] for fibre in fibres.values() if len(fibre) > 2}
        for i, row in enumerate(real(fibres, m, diagonal)):
            if i in middles:
                row[middles[i]] = 0
            yield row

    return planted


def _column_one_in_a_second_row(real):
    # Column 0's 1 is written into the next entity's row as well.
    def planted(fibres, m):
        matrix = real(fibres, m)
        if m == 0 or matrix.rows < 2:
            return matrix
        rows = matrix.to_rows()
        k = next(k for k, row in enumerate(rows) if row[0])
        rows[(k + 1) % len(rows)][0] = 1
        return mx.IntMatrix.from_rows(rows)

    return planted


def _last_one_moves_right(real):
    # In each row's text, the last 1 is written one entry to the right.
    def planted(kg, name, separator):
        stride = len(separator) + 1
        for text in real(kg, name, separator):
            k = text.rfind("1")
            if 0 <= k < len(text) - stride:
                text = text[:k] + "0" + text[k + 1 : k + stride] + "1" + text[k + stride + 1 :]
            yield text

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


MUTANT_ROWS = [
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
        [(mx, "_fibre_rows")],
        _large_fibre_row_misses_its_first,
        [THREE_TRIPLE_FIBRE],
        ["incidence.gram", "incidence.line_operator_identity",
         "line.matrix_consistency"],
        [],
    ),
    (
        [(mx, "_incidence")],
        _column_one_in_a_second_row,
        RANDOM_20,
        ["incidence.column_sums", "incidence.gram", "suite.incidence_line"],
        [],
    ),
    # The graph checks read matrix_rows, not the row texts, so only
    # the suite's row-text oracle sees this.
    (
        [(mx, "row_texts")],
        _last_one_moves_right,
        RANDOM_20,
        ["suite.incidence_line"],
        ["incidence.gram", "line.matrix_consistency"],
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
    (
        [(verify, "serialize_kg")],
        _drops_the_last_triple,
        [FAN],
        ["kg.roundtrip"],
        ["freecat.walk_count", "freecat.fibres"],
    ),
    # Building the sites meets the missing path, and every check that
    # reads them fails with the KeyError.
    (
        [(verify, "build_free_category")],
        _drops_the_longest_path,
        [FAN],
        ["freecat.walk_count", "sites.axioms", "sites.inclusion",
         "sheaf.omega", "sheaf.adjunction"],
        ["kg.roundtrip", "freecat.fibres"],
    ),
    (
        [(KnowledgeGraph, "_fibres")],
        _fibre_drops_its_last_index,
        [FAN],
        ["freecat.fibres"],
        ["kg.roundtrip"],
    ),
    (
        [(sheaves, "_sheaf_for_sieve")],
        _sieve_test_drops_size_test,
        RANDOM_20,
        ["suite.sheafification", "suite.omega"],
        [],
    ),
    (
        [(sheaves, "_sheaf_for_sieve")],
        _generators_in_key_order,
        RANDOM_20,
        ["suite.sheafification"],
        ["suite.omega"],
    ),
]
MUTANT_IDS = [
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
    "large-fibre-row-misses-its-first",
    "column-one-in-a-second-row",
    "row-text-last-one-moves-right",
    "pullback-sieve-drops-a-member",
    "pull-table-drops-its-highest-bit",
    "minimum-sieve-skips-a-triple",
    "covering-list-drops-its-last-sieve",
    "inclusion-raises-key-error",
    "extension-takes-first-well-typed-image",
    "adjunction-key-ignores-last-object",
    "roundtrip-drops-the-last-triple",
    "free-category-drops-the-longest-path",
    "fibre-drops-its-last-index",
    "witness-sieve-test-drops-size-test",
    "witness-generators-in-key-order",
]


@pytest.mark.parametrize(
    "targets, mutant, args, failing, passing", MUTANT_ROWS, ids=MUTANT_IDS
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


def test_every_check_has_a_mutant_row():
    # Every check verify lists, each suite's [n] dropped, must be one that
    # some planted fault makes FAIL, so that no check can land untested.
    report = run_verification(parse_kg(Path(FAN).read_text()), random_mode=True)
    names = {check.name.split("[")[0] for check in report.checks}
    failing = {name for _, _, _, row_failing, _ in MUTANT_ROWS for name in row_failing}
    assert sorted(names - failing) == []


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
