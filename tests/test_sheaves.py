import gc
import json
import time
from itertools import product
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from kgtopos import (
    GluingError,
    InfiniteCategoryError,
    KnowledgeGraph,
    MatchingFamily,
    NaturalityError,
    NatTransformation,
    Presheaf,
    SchemaError,
    Site,
    SizeCapError,
    Triple,
    UniquenessError,
    build_free_category,
    build_site,
    check_adjunction,
    constant_presheaf,
    enumerate_matching_families,
    enumerate_nat_transformations,
    global_sections,
    glue,
    inverse_image,
    is_path_sheaf,
    is_sheaf,
    load_family,
    load_presheaf,
    omega,
    parse_kg,
    product_presheaf,
    sheafify,
    sheafify_along_triples,
    sieve_generated_by,
    terminal_presheaf,
)
from kgtopos import sheaves
from kgtopos.cli import main
from kgtopos.freecat import compose, path_key
from kgtopos.randgen import random_presheaf, random_small_category
from kgtopos.sheaves import (
    SheafCheck,
    SheafificationResult,
    _first_failure,
    amalgamations,
    compose_components,
    count_subsheaves,
    enumerate_subpresheaves,
    restrict,
    sieve_label,
)
from kgtopos.sites import (
    atomic_topology,
    generate_topology,
    maximal_sieve,
    path_coverage,
    path_topology,
    pullback_sieve,
)
from kgtopos.verify import (
    _closed_sieves_by_scan,
    _generator_order_case,
    _is_sheaf_by_scan,
    _plus_by_search,
    _sheafification_parts,
    check_sheafification_product,
)

DATA = Path(__file__).parent / "data"


def unsaturated(cat, coverage, stable=True) -> dict:
    """Per object, the maximal sieve and the sieves generated by the
    coverage's families, with no saturation; when `stable`, each
    generated sieve is listed by its pullbacks along every morphism into
    its object, itself included."""
    covering = {obj: [maximal_sieve(cat, obj)] for obj in cat.objects}
    for obj, families in coverage.items():
        for family in families:
            sieve = sieve_generated_by(cat, obj, family)
            for g in cat.morphisms_into(obj) if stable else [cat.identity(obj)]:
                covering[g.source].append(pullback_sieve(cat, sieve, g))
    return covering


def sheaf_for(presheaf, covering) -> SheafCheck:
    """The sheaf condition for explicit lists of sieves, in order: the
    first matching family with other than one amalgamation fails it."""
    for sieves in covering.values():
        for sieve in sieves:
            for family in enumerate_matching_families(presheaf, sieve):
                glued = amalgamations(presheaf, family)
                if len(glued) != 1:
                    return SheafCheck.refuted(family, glued)
    return SheafCheck(True)


def listed(site) -> dict:
    return {obj: site.covering_sieves(obj) for obj in site.category.objects}


def random_coverage(rng, cat) -> dict:
    """Zero to two random families of nonidentity paths into each object
    that has any."""
    drawn = {}
    for obj in cat.objects:
        into = [p for p in cat.morphisms_into(obj) if p.arrows]
        if into:
            drawn[obj] = [
                rng.sample(into, rng.randint(1, len(into)))
                for _ in range(rng.randint(0, 2))
            ]
    return drawn


def layered_dag_site() -> Site:
    """Four layers of two entities, each pointing at both entities of
    the next layer: 15 morphisms into each sink."""
    kg = parse_kg((DATA / "layered_dag.txt").read_text())
    return build_site(kg, "path", sieve_cap=15)


def tiny_site(seed, **kwargs) -> Site:
    cat = random_small_category(
        Random(seed), max_entities=4, max_triples=4, max_morphisms=30, sieve_cap=8
    )
    return path_topology(cat)


def brute_force_global_sections(presheaf) -> int:
    """Oracle: try every assignment of one section per object."""
    kg = presheaf.kg
    objects = list(kg.entities)
    count = 0
    for values in product(*(presheaf.sections[o] for o in objects)):
        chosen = dict(zip(objects, values))
        if all(
            presheaf.restrictions[i][chosen[t.tail]] == chosen[t.head]
            for i, t in enumerate(kg.triples)
        ):
            count += 1
    return count


class TestPresheafValidation:
    def test_fan_arbitrary_restrictions_valid(self, fan_cat):
        # No composable generator pairs exist, so any functions pass.
        presheaf = Presheaf(
            fan_cat.kg,
            {"A": ("x", "y"), "B": ("u", "v"), "C": ("w",), "D": ("z",)},
            {
                0: {"u": "y", "v": "y"},
                1: {"w": "x"},
                2: {"u": "z", "v": "z"},
                3: {"w": "z"},
            },
        )
        assert restrict(presheaf, fan_cat.generator_path(0)) == {"u": "y", "v": "y"}

    def test_constant_presheaf_valid(self, fan_cat):
        presheaf = constant_presheaf(fan_cat.kg)
        assert all(v == ("*",) for v in presheaf.sections.values())

    def test_missing_object_section_rejected(self, fan_cat):
        with pytest.raises(SchemaError):
            Presheaf(fan_cat.kg, {"A": ("x",)}, {})

    def test_partial_restriction_rejected(self, fan_cat):
        sections = {"A": ("x",), "B": ("u", "v"), "C": ("w",), "D": ("z",)}
        with pytest.raises(SchemaError):
            Presheaf(
                fan_cat.kg,
                sections,
                {
                    0: {"u": "x"},  # not total on F(B)
                    1: {"w": "x"},
                    2: {"u": "z", "v": "z"},
                    3: {"w": "z"},
                },
            )

    def test_planted_composite_violation(self):
        # Chain A -r-> B -s-> C: restriction along the composite is the
        # composite of the generator restrictions.
        cat = build_free_category(parse_kg("A r B\nB s C\n"))
        sections = {"A": ("a0", "a1"), "B": ("b0", "b1"), "C": ("c0",)}
        restrictions = {0: {"b0": "a0", "b1": "a1"}, 1: {"c0": "b0"}}
        good = Presheaf(cat.kg, sections, restrictions)
        assert restrict(good, cat.hom("A", "C")[0]) == {"c0": "a0"}

    def test_restriction_identity_on_identity_path(self, fan_cat):
        presheaf = constant_presheaf(fan_cat.kg, ("s", "t"))
        assert restrict(presheaf, fan_cat.identity("A")) == {"s": "s", "t": "t"}

    def test_lives_on_a_cyclic_graph(self):
        # A r B, B s A: the data needs no free category.  Restriction
        # along the loop r.s at A swaps a0 and a1, so no global section
        # exists, and a bounded category serves restrict.
        kg = parse_kg("A r B\nB s A\n")
        presheaf = Presheaf(
            kg,
            {"A": ("a0", "a1"), "B": ("b0", "b1")},
            {0: {"b0": "a1", "b1": "a0"}, 1: {"a0": "b0", "a1": "b1"}},
        )
        assert global_sections(presheaf) == []
        cat = build_free_category(kg, max_length=4)
        assert not cat.complete
        for p in cat.morphisms():
            assert list(restrict(presheaf, p).items()) == list(fold(presheaf, p).items())
        loop = cat.hom("A", "A")[1]
        assert loop.arrows == (0, 1)
        assert restrict(presheaf, loop) == {"a0": "a1", "a1": "a0"}


def fold(presheaf, p) -> dict[str, str]:
    """Restriction along p as the composite of the generator tables,
    applied to the identity at p's target from the last triple back."""
    table = {s: s for s in presheaf.sections[p.target]}
    for arrow in reversed(p.arrows):
        table = {s: presheaf.restrictions[arrow][v] for s, v in table.items()}
    return table


class TestRestrict:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 1))
    def test_matches_the_fold_on_every_morphism(self, seed, min_sections):
        # Entries and their order, identities and parallel paths included
        # (about two in five of these categories have parallel paths),
        # with the memo filled in a random order and then read again.
        rng = Random(seed)
        cat = random_small_category(rng, max_entities=4, max_triples=5, max_morphisms=30)
        presheaf = random_presheaf(rng, cat.kg, max_sections=3, min_sections=min_sections)
        morphisms = list(cat.morphisms())
        rng.shuffle(morphisms)
        for p in morphisms + morphisms:
            assert list(restrict(presheaf, p).items()) == list(fold(presheaf, p).items())

    def test_parallel_paths_keep_their_own_tables(self):
        # r.t and s.t run from A to C and share the suffix t.
        cat = build_free_category(parse_kg("A r B\nA s B\nB t C\n"))
        presheaf = Presheaf(
            cat.kg,
            {"A": ("a0", "a1"), "B": ("b0",), "C": ("c0",)},
            {0: {"b0": "a0"}, 1: {"b0": "a1"}, 2: {"c0": "b0"}},
        )
        first, second = cat.hom("A", "C")
        assert restrict(presheaf, first) == {"c0": "a0"}
        assert restrict(presheaf, second) == {"c0": "a1"}

    def test_second_call_returns_the_same_table(self, fan_cat):
        presheaf = constant_presheaf(fan_cat.kg, ("s", "t"))
        for p in fan_cat.morphisms():
            assert restrict(presheaf, p) is restrict(presheaf, p)

    def test_memo_takes_no_part_in_equality(self, fan_cat):
        filled = constant_presheaf(fan_cat.kg, ("s", "t"))
        for p in fan_cat.morphisms():
            restrict(filled, p)
        assert filled == constant_presheaf(fan_cat.kg, ("s", "t"))
        assert repr(filled) == repr(constant_presheaf(fan_cat.kg, ("s", "t")))


class TestLoadPresheaf:
    def test_fan_product_loads(self, fan_product_presheaf):
        assert fan_product_presheaf.sections["B"] == ("(a1,d1)", "(a2,d1)")

    def test_missing_restriction_key(self, fan_cat):
        with pytest.raises(SchemaError):
            load_presheaf(fan_cat.kg, {"sections": {o: ["s"] for o in "ABCD"}, "restrictions": {}})

    def test_round_trip(self, fan_cat, fan_product_presheaf):
        again = load_presheaf(fan_cat.kg, fan_product_presheaf.to_dict())
        assert again == fan_product_presheaf

    @pytest.mark.parametrize(
        "doc",
        [
            ["sections", "restrictions"],
            {"sections": ["A"], "restrictions": {}},
            {"sections": {o: "s" for o in "ABCD"}, "restrictions": {}},
            {"sections": {o: ["s"] for o in "ABCD"}, "restrictions": None},
            {"sections": {o: ["s"] for o in "ABCD"}, "restrictions": {"A r1 B": ["s"]}},
        ],
        ids=["document-list", "sections-list", "section-set-string", "restrictions-null",
             "restriction-map-list"],
    )
    def test_malformed_documents_rejected(self, fan_cat, doc):
        with pytest.raises(SchemaError):
            load_presheaf(fan_cat.kg, doc)


def chain_presheaf() -> Presheaf:
    """A r B, B s C; restriction along r is a bijection."""
    return Presheaf(
        parse_kg("A r B\nB s C\n"),
        {"A": ("a0", "a1"), "B": ("b0", "b1"), "C": ("c0",)},
        {0: {"b0": "a0", "b1": "a1"}, 1: {"c0": "b0"}},
    )


class TestLoadFamily:
    def test_fan_pair(self, fan_cat, fan_product_presheaf):
        family = load_family(
            fan_cat, fan_product_presheaf, {"object": "B", "assignment": {"0": "a1", "2": "d1"}}
        )
        assert family.sieve == sieve_generated_by(
            fan_cat, "B", [fan_cat.generator_path(0), fan_cat.generator_path(2)]
        )
        assert glue(fan_product_presheaf, family) == "(a1,d1)"

    def test_closure_values_are_forced(self):
        presheaf = chain_presheaf()
        cat = build_free_category(presheaf.kg)
        family = load_family(cat, presheaf, {"object": "C", "assignment": {"1": "b1"}})
        assert family.assignment == {
            cat.generator_path(1): "b1",
            cat.hom("A", "C")[0]: "a1",
        }
        both = load_family(cat, presheaf, {"object": "C", "assignment": {"0.1": "a1", "1": "b1"}})
        assert both == family

    def test_incompatible_values_raise(self):
        with pytest.raises(GluingError):
            presheaf = chain_presheaf()
            load_family(
                build_free_category(presheaf.kg),
                presheaf,
                {"object": "C", "assignment": {"1": "b1", "0.1": "a0"}},
            )

    @pytest.mark.parametrize(
        "doc",
        [
            ["B"],
            {"assignment": {}},
            {"object": "B"},
            {"object": "B", "assignment": ["0"]},
            {"object": "Q", "assignment": {}},
            {"object": ["B"], "assignment": {}},
            {"object": "B", "assignment": {"9": "a1"}},
            {"object": "B", "assignment": {"0": "zz"}},
        ],
        ids=["document-list", "no-object", "no-assignment", "assignment-list",
             "unknown-object", "object-list", "unknown-path-key", "not-a-section"],
    )
    def test_malformed_documents_rejected(self, fan_cat, fan_product_presheaf, doc):
        with pytest.raises(SchemaError):
            load_family(fan_cat, fan_product_presheaf, doc)


class TestMatchingFamilies:
    def test_pairs_are_families_on_the_fan_cover(self, fan_cat, fan_product_presheaf):
        sieve = sieve_generated_by(
            fan_cat, "B", [fan_cat.generator_path(0), fan_cat.generator_path(2)]
        )
        families = enumerate_matching_families(fan_product_presheaf, sieve)
        # Compatibility is vacuous here: any (section at A, section at D)
        # pair is compatible, so 2 * 1 families.
        assert len(families) == 2

    def test_maximal_sieve_families_biject_with_sections(
        self, fan_cat, fan_path_site, fan_product_presheaf
    ):
        sieve = fan_path_site.covering_sieves("B")[-1]
        assert fan_cat.identity("B") in sieve.members
        families = enumerate_matching_families(fan_product_presheaf, sieve)
        assert len(families) == len(fan_product_presheaf.sections["B"])

    def test_chain_compatibility_constrains(self):
        cat = build_free_category(parse_kg("A r B\nB s C\n"))
        presheaf = Presheaf(
            cat.kg,
            {"A": ("a0", "a1"), "B": ("b0", "b1"), "C": ("c0",)},
            {0: {"b0": "a0", "b1": "a1"}, 1: {"c0": "b0"}},
        )
        sieve = sieve_generated_by(cat, "C", [cat.generator_path(1)])
        families = enumerate_matching_families(presheaf, sieve)
        # The value on r.s is forced from the value on s.
        assert len(families) == 2
        for family in families:
            s_path = cat.generator_path(1)
            rs_path = cat.hom("A", "C")[0]
            assert family.assignment[rs_path] == restrict(presheaf, cat.generator_path(0))[
                family.assignment[s_path]
            ]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9))
    def test_triples_decide_compatibility_with_every_precomposition(self, seed):
        # Every assignment on every covering sieve, in product order:
        # is_matching_family, which tests the triples into each member's
        # source, agrees with the test along every path into it, and
        # the search lists exactly the compatible ones in that order.
        rng = Random(seed)
        site = tiny_site(seed)
        cat = site.category
        presheaf = random_presheaf(rng, cat.kg, max_sections=2, min_sections=0)
        for obj in cat.objects:
            for sieve in site.covering_sieves(obj):
                members = sieve.sorted_members()
                compatible = []
                for values in product(*(presheaf.sections[p.source] for p in members)):
                    family = MatchingFamily(sieve, dict(zip(members, values)))
                    by_paths = all(
                        family.assignment[compose(h, f)]
                        == fold(presheaf, h)[family.assignment[f]]
                        for f in members
                        for h in cat.morphisms_into(f.source)
                    )
                    assert sheaves.is_matching_family(presheaf, family) == by_paths
                    if by_paths:
                        compatible.append(family)
                assert enumerate_matching_families(presheaf, sieve) == compatible

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9))
    def test_fixed_values_select_agreeing_families(self, seed):
        # load_family reads the family off the values given on some paths
        # into an object: it must be the one family, on the sieve those
        # paths generate, that the search finds taking the given values,
        # or GluingError when the search finds none.  Half the documents
        # take their values off one section, so that some families agree.
        rng = Random(seed)
        cat = tiny_site(seed).category
        presheaf = random_presheaf(rng, cat.kg, max_sections=3, min_sections=0)
        for obj in cat.objects:
            for _ in range(3):
                section = rng.choice([None, *presheaf.sections[obj]])
                given = {
                    p: restrict(presheaf, p)[section]
                    if section is not None
                    else rng.choice(presheaf.sections[p.source])
                    for p in cat.morphisms_into(obj)
                    if presheaf.sections[p.source] and rng.random() < 0.5
                }
                document = {
                    "object": obj,
                    "assignment": {path_key(p): v for p, v in given.items()},
                }
                agreeing = [
                    f
                    for f in enumerate_matching_families(
                        presheaf, sieve_generated_by(cat, obj, given)
                    )
                    if all(f.assignment[p] == v for p, v in given.items())
                ]
                if agreeing:
                    assert [load_family(cat, presheaf, document)] == agreeing
                else:
                    with pytest.raises(GluingError):
                        load_family(cat, presheaf, document)


class TestIsSheaf:
    def test_any_presheaf_is_atomic_sheaf(self, fan_atomic_site):
        rng = Random(11)
        presheaf = random_presheaf(rng, fan_atomic_site.category.kg)
        assert is_sheaf(presheaf, fan_atomic_site)

    def test_product_wiring_is_path_sheaf(self, fan_path_site, fan_product_presheaf):
        assert is_sheaf(fan_product_presheaf, fan_path_site)

    def test_undersized_fails_with_counterexample(
        self, fan_path_site, undersized_presheaf_data
    ):
        presheaf = load_presheaf(fan_path_site.category.kg, undersized_presheaf_data)
        result = is_sheaf(presheaf, fan_path_site)
        assert not result
        assert result.counterexample["object"] in {"B", "C"}

    def test_oversized_fails(self, fan_path_site, product_presheaf_data):
        # A strict superset of the product at B: amalgamation not unique.
        data = json.loads(json.dumps(product_presheaf_data))
        data["sections"]["B"].append("extra")
        data["restrictions"]["A r1 B"]["extra"] = "a1"
        data["restrictions"]["D r3 B"]["extra"] = "d1"
        presheaf = load_presheaf(fan_path_site.category.kg, data)
        result = is_sheaf(presheaf, fan_path_site)
        assert not result
        assert result.counterexample["object"] == "B"
        assert len(result.counterexample["amalgamations"]) == 2

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_presheaves_atomic_sheaves(self, seed):
        rng = Random(seed)
        cat = random_small_category(
            rng, max_entities=4, max_triples=4, max_morphisms=30, sieve_cap=8
        )
        site = atomic_topology(cat)
        assert is_sheaf(random_presheaf(rng, cat.kg), site)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 1))
    def test_trace_lookup_matches_amalgamation_scan(self, seed, min_sections):
        # Verdict and counterexample both, on sheaves and non-sheaves.
        rng = Random(seed)
        site = tiny_site(seed)
        presheaf = random_presheaf(
            rng, site.category.kg, max_sections=3, min_sections=min_sections
        )
        assert is_sheaf(presheaf, site) == _is_sheaf_by_scan(presheaf, site)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 1))
    def test_local_decision_matches_search(self, seed, min_sections):
        # is_sheaf decides by the bijection at each object; the search
        # over the covering list must return the same SheafCheck,
        # counterexample included, on the path and atomic sites and on a
        # random coverage's saturation, with empty section sets among the
        # draws.  A coverage listed with its pullbacks has the same
        # sheaves as its saturation.
        rng = Random(seed)
        cat = random_small_category(
            rng, max_entities=4, max_triples=4, max_morphisms=30, sieve_cap=8
        )
        presheaf = random_presheaf(
            rng, cat.kg, max_sections=3, min_sections=min_sections
        )
        drawn = random_coverage(rng, cat)
        saturated = generate_topology(cat, drawn, sieve_cap=8)
        for site in (path_topology(cat), atomic_topology(cat), saturated):
            check = is_sheaf(presheaf, site)
            assert check == _first_failure(presheaf, site, cat.objects)
            assert check == sheaf_for(presheaf, listed(site))
        for coverage, site in (
            (path_coverage(cat), path_topology(cat)),
            (drawn, saturated),
        ):
            assert bool(sheaf_for(presheaf, unsaturated(cat, coverage))) == bool(
                is_sheaf(presheaf, site)
            )

    def test_unstable_coverage_is_searched(self, fan_cat, fan_path_site):
        # On the fan, the sieve generated by A r1 B alone is no
        # topology's: its pullback along D r3 B, the empty sieve on D,
        # would have to cover too.  The two-section constant presheaf is
        # a sheaf for that one sieve, but not once its pullbacks are
        # listed, nor for its saturation, where the empty sieve covers D,
        # nor on the path site, where P(B) -> P(A) x P(D) is no bijection.
        presheaf = constant_presheaf(fan_cat.kg, ("x", "y"))
        coverage = {"B": [[fan_cat.generator_path(0)]]}
        assert sheaf_for(presheaf, unsaturated(fan_cat, coverage, stable=False))
        assert not sheaf_for(presheaf, unsaturated(fan_cat, coverage))
        saturated = generate_topology(fan_cat, coverage)
        assert not is_sheaf(presheaf, saturated)
        assert not is_sheaf(presheaf, fan_path_site)

    def test_omega_on_layered_dag_within_budget(self):
        # Four layers of two entities, each entity pointing at both of
        # the next layer's: 15 morphisms into each sink.  On a 2-vCPU
        # host the amalgamation scan took 16-20 s here, the trace lookup
        # about 1 s.
        layers = [[f"{name}{k}" for k in range(2)] for name in "abcd"]
        site = layered_dag_site()
        start = time.perf_counter()
        classifier = omega(site)
        check = is_sheaf(classifier, site)
        elapsed = time.perf_counter() - start
        assert check
        assert [
            {len(classifier.sections[e]) for e in layer} for layer in layers
        ] == [{2}, {4}, {16}, {256}]
        assert elapsed < 8.0, f"omega + is_sheaf took {elapsed:.1f} s"

    def test_no_search_on_a_sheaf(
        self, monkeypatch, fan_path_site, fan_product_presheaf, undersized_presheaf_data
    ):
        # On the layered DAG, where Omega has 256 sections at each sink,
        # the search visited thousands of matching families per sheaf;
        # the local bijections decide with none.  A non-sheaf's witness
        # and a glued family are read off the generators, so no library
        # route searches: the search is verify's oracle alone.
        site = layered_dag_site()
        product, undersized = (
            load_presheaf(site.category.kg, json.loads((DATA / name).read_text()))
            for name in ("layered_dag_product.json", "layered_dag_undersized.json")
        )
        fan_undersized = load_presheaf(fan_path_site.category.kg, undersized_presheaf_data)
        classifier = omega(site)
        searched = []
        real = sheaves.enumerate_matching_families
        monkeypatch.setattr(
            sheaves,
            "enumerate_matching_families",
            lambda *args: searched.append(args) or real(*args),
        )
        assert is_sheaf(classifier, site)
        assert is_sheaf(product, site)
        assert not is_sheaf(undersized, site)
        assert not is_sheaf(fan_undersized, fan_path_site)
        family = json.loads((DATA / "fan_family.json").read_text())
        assert glue(
            fan_product_presheaf,
            load_family(fan_path_site.category, fan_product_presheaf, family),
        )
        assert searched == []

    def test_layered_dag_counterexample_unchanged(self):
        # sheaf check's output on a non-sheaf, recorded before is_sheaf
        # decided locally: the search still reports the same first failure.
        result = CliRunner().invoke(
            main,
            [
                "sheaf", "check", str(DATA / "layered_dag.txt"),
                str(DATA / "layered_dag_undersized.json"), "--sieve-cap", "15",
            ],
        )
        assert result.exit_code == 1
        assert result.stdout == (DATA / "layered_dag_undersized_check.json").read_text()

    def test_witness_takes_generators_shortest_first(self):
        # M(B) = {0.1, 2}: shortest first its generators run (2, 0.1), by
        # key (0.1, 2).  b0 traces to (z0, x0), so (z0, x1) is the first
        # family with no amalgamation shortest first, and (x0, z1) by key.
        presheaf, site = _generator_order_case()
        check = is_sheaf(presheaf, site)
        assert check.counterexample == {
            "object": "B",
            "sieve": ["0.1", "2"],
            "family": {"2": "z0", "0.1": "x1"},
            "amalgamations": [],
        }
        assert list(check.counterexample["family"]) == ["2", "0.1"]
        assert check == _is_sheaf_by_scan(presheaf, site)


class TestNoReferenceCycles:
    @pytest.mark.parametrize(
        "call",
        [
            lambda site, p: enumerate_matching_families(
                p, site.minimum["B"]
            ),
            lambda site, p: is_sheaf(p, site),
            lambda site, p: global_sections(p),
            lambda site, p: enumerate_nat_transformations(
                terminal_presheaf(site.category.kg), p
            ),
        ],
        ids=["matching-families", "is-sheaf", "global-sections", "nat-transformations"],
    )
    def test_search_leaves_no_garbage(self, fan_path_site, fan_product_presheaf, call):
        # Reference counting alone must free every object a call made.
        gc.collect()
        gc.disable()
        try:
            call(fan_path_site, fan_product_presheaf)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGlue:
    def test_fan_pair_glues_to_pair_section(self, fan_cat, fan_product_presheaf):
        sieve = sieve_generated_by(
            fan_cat, "B", [fan_cat.generator_path(0), fan_cat.generator_path(2)]
        )
        family = MatchingFamily(
            sieve,
            {fan_cat.generator_path(0): "a1", fan_cat.generator_path(2): "d1"},
        )
        assert glue(fan_product_presheaf, family) == "(a1,d1)"

    def test_maximal_family_returns_inducing_section(
        self, fan_cat, fan_path_site, fan_product_presheaf
    ):
        sieve = fan_path_site.covering_sieves("B")[-1]
        section = "(a2,d1)"
        family = MatchingFamily(
            sieve,
            {
                p: restrict(fan_product_presheaf, p)[section]
                for p in sieve.members
            },
        )
        assert glue(fan_product_presheaf, family) == section

    def test_no_amalgamation_raises(self, fan_cat, undersized_presheaf_data):
        presheaf = load_presheaf(fan_cat.kg, undersized_presheaf_data)
        sieve = sieve_generated_by(
            fan_cat, "B", [fan_cat.generator_path(0), fan_cat.generator_path(2)]
        )
        family = MatchingFamily(
            sieve,
            {fan_cat.generator_path(0): "a2", fan_cat.generator_path(2): "d1"},
        )
        with pytest.raises(GluingError):
            glue(presheaf, family)

    def test_multiple_amalgamations_raise(self, fan_cat):
        # Both sections at B restrict to the same local data.
        collapsing = Presheaf(
            fan_cat.kg,
            {"A": ("x",), "B": ("u", "v"), "C": ("w",), "D": ("z",)},
            {
                0: {"u": "x", "v": "x"},
                1: {"w": "x"},
                2: {"u": "z", "v": "z"},
                3: {"w": "z"},
            },
        )
        sieve = sieve_generated_by(fan_cat, "B", [fan_cat.generator_path(0)])
        family = MatchingFamily(sieve, {fan_cat.generator_path(0): "x"})
        with pytest.raises(UniquenessError):
            glue(collapsing, family)

    def test_incompatible_family_rejected(self):
        cat = build_free_category(parse_kg("A r B\nB s C\n"))
        presheaf = Presheaf(
            cat.kg,
            {"A": ("a0", "a1"), "B": ("b0", "b1"), "C": ("c0",)},
            {0: {"b0": "a0", "b1": "a1"}, 1: {"c0": "b0"}},
        )
        sieve = sieve_generated_by(cat, "C", [cat.generator_path(1)])
        rs_path = cat.hom("A", "C")[0]
        family = MatchingFamily(
            sieve, {cat.generator_path(1): "b0", rs_path: "a1"}
        )
        with pytest.raises(GluingError):
            glue(presheaf, family)


class TestGlobalSections:
    def test_constant_singleton(self, fan_cat):
        assert len(global_sections(constant_presheaf(fan_cat.kg))) == 1

    def test_fan_product_counts_match_brute_force(self, fan_product_presheaf):
        sections = global_sections(fan_product_presheaf)
        assert len(sections) == brute_force_global_sections(fan_product_presheaf)
        assert len(sections) == 2

    def test_empty_section_set_blocks_everything(self, fan_cat):
        # An empty section set at a sink is consistent (the restriction
        # out of it is the empty map) and kills every global family.
        presheaf = Presheaf(
            fan_cat.kg,
            {"A": ("x",), "B": (), "C": ("w",), "D": ("z",)},
            {
                0: {},
                1: {"w": "x"},
                2: {},
                3: {"w": "z"},
            },
        )
        assert global_sections(presheaf) == []

    def test_terminal_object_determines_count(self):
        # In the path category of A -r-> B the object B is terminal, so
        # compatible families correspond to sections at B.
        cat = build_free_category(parse_kg("A r B\n"))
        presheaf = Presheaf(
            cat.kg,
            {"A": ("a0", "a1"), "B": ("b0", "b1")},
            {0: {"b0": "a0", "b1": "a1"}},
        )
        assert len(global_sections(presheaf)) == len(presheaf.sections["B"])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_brute_force(self, seed):
        rng = Random(seed)
        cat = random_small_category(
            rng, max_entities=4, max_triples=4, max_morphisms=30, sieve_cap=8
        )
        presheaf = random_presheaf(rng, cat.kg)
        assert len(global_sections(presheaf)) == brute_force_global_sections(presheaf)


class TestSheafify:
    def test_sheaf_input_gives_bijective_unit(self, fan_path_site, fan_product_presheaf):
        result = sheafify(fan_product_presheaf, fan_path_site)
        assert is_sheaf(result.sheaf, fan_path_site)
        for obj in fan_path_site.category.objects:
            component = result.unit.components[obj]
            assert len(set(component.values())) == len(component)
            assert len(component) == len(result.sheaf.sections[obj])

    def test_undersized_grows_to_product_size(self, fan_path_site, undersized_presheaf_data):
        presheaf = load_presheaf(fan_path_site.category.kg, undersized_presheaf_data)
        result = sheafify(presheaf, fan_path_site)
        assert len(result.sheaf.sections["B"]) == 2
        assert is_sheaf(result.sheaf, fan_path_site)

    def test_idempotent_on_section_counts(self, fan_path_site, undersized_presheaf_data):
        presheaf = load_presheaf(fan_path_site.category.kg, undersized_presheaf_data)
        once = sheafify(presheaf, fan_path_site).sheaf
        twice = sheafify(once, fan_path_site).sheaf
        assert {o: len(s) for o, s in once.sections.items()} == {
            o: len(s) for o, s in twice.sections.items()
        }

    def test_unit_is_natural_by_construction(self, fan_path_site, undersized_presheaf_data):
        presheaf = load_presheaf(fan_path_site.category.kg, undersized_presheaf_data)
        result = sheafify(presheaf, fan_path_site)
        assert isinstance(result.unit, NatTransformation)

    def test_unit_not_bijective_on_non_sheaf(self, fan_path_site, undersized_presheaf_data):
        presheaf = load_presheaf(fan_path_site.category.kg, undersized_presheaf_data)
        assert not is_sheaf(presheaf, fan_path_site)
        result = sheafify(presheaf, fan_path_site)
        component = result.unit.components["B"]
        assert len(component) < len(result.sheaf.sections["B"])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_presheaves(self, seed):
        rng = Random(seed)
        cat = random_small_category(
            rng, max_entities=4, max_triples=4, max_morphisms=30, sieve_cap=8
        )
        site = path_topology(cat)
        presheaf = random_presheaf(rng, cat.kg)
        result = sheafify(presheaf, site)
        assert is_sheaf(result.sheaf, site)
        again = sheafify(result.sheaf, site)
        assert {o: len(s) for o, s in result.sheaf.sections.items()} == {
            o: len(s) for o, s in again.sheaf.sections.items()
        }


    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 1))
    def test_equals_two_plus_steps_by_search(self, seed, min_sections):
        # The product over generators against the matching-family search,
        # sections, restriction tables and unit in order, on the path and
        # atomic sites and on saturated random coverages.
        rng = Random(seed)
        cat = random_small_category(
            rng, max_entities=4, max_triples=4, max_morphisms=30, sieve_cap=8
        )
        presheaf = random_presheaf(
            rng, cat.kg, max_sections=3, min_sections=min_sections
        )
        drawn = random_coverage(rng, cat)
        for site in (
            path_topology(cat),
            atomic_topology(cat),
            generate_topology(cat, drawn, sieve_cap=8),
        ):
            result = sheafify(presheaf, site)
            once, unit1 = _plus_by_search(presheaf, site)
            twice, unit2 = _plus_by_search(once, site)
            assert _sheafification_parts(
                result.sheaf, result.unit.components
            ) == _sheafification_parts(twice, compose_components(unit2, unit1))

    @pytest.mark.parametrize("topology", ["path", "atomic"])
    def test_no_search_on_layered_dag(self, monkeypatch, topology):
        site = build_site(
            parse_kg((DATA / "layered_dag.txt").read_text()), topology, sieve_cap=15
        )
        searched = []
        real = sheaves.enumerate_matching_families
        monkeypatch.setattr(
            sheaves,
            "enumerate_matching_families",
            lambda *args: searched.append(args) or real(*args),
        )
        for name in ("layered_dag_undersized.json", "layered_dag_product.json"):
            document = json.loads((DATA / name).read_text())
            sheafify(load_presheaf(site.category.kg, document), site)
        assert searched == []

    def test_sheafify_on_layered_dag_within_budget(self):
        # Three sections at each source and one elsewhere: 3^8 = 6561
        # sections at each sink, from the eight paths out of the sources.
        # On a 2-vCPU host the matching-family search took 2.35 s here,
        # the product about 0.2 s.
        site = layered_dag_site()
        cat = site.category
        sections = {
            obj: ("*",) if cat.kg.tail_fibres[obj] else tuple(f"{obj}v{k}" for k in range(3))
            for obj in cat.objects
        }
        restrictions = {
            i: {s: sections[t.head][0] for s in sections[t.tail]}
            for i, t in enumerate(cat.kg.triples)
        }
        start = time.perf_counter()
        result = sheafify(Presheaf(cat.kg, sections, restrictions), site)
        check = is_sheaf(result.sheaf, site)
        elapsed = time.perf_counter() - start
        assert check
        assert {obj: len(result.sheaf.sections[obj]) for obj in cat.objects} == {
            "a0": 3, "a1": 3, "b0": 9, "b1": 9, "c0": 81, "c1": 81,
            "d0": 6561, "d1": 6561,
        }
        assert elapsed < 1.0, f"sheafify + is_sheaf took {elapsed:.2f} s"

    @pytest.mark.parametrize("topology", ["path", "atomic"])
    @pytest.mark.parametrize(
        "graph, presheaf, golden, extra",
        [
            ("layered_dag.txt", "layered_dag_undersized.json",
             "layered_dag_undersized_sheafify", ["--sieve-cap", "15"]),
            ("fan.txt", "undersized_presheaf.json", "undersized_sheafify", []),
        ],
        ids=["layered-dag", "fan"],
    )
    def test_cli_output_unchanged(self, topology, graph, presheaf, golden, extra):
        # Recorded from the plus construction by search, before the product.
        result = CliRunner().invoke(
            main,
            ["sheaf", "sheafify", str(DATA / graph), str(DATA / presheaf),
             "--topology", topology, *extra],
        )
        assert result.exit_code == 0
        assert result.stdout == (DATA / f"{golden}_{topology}.json").read_text()


def relabelled(result, obj: str, swap: dict[str, str]) -> SheafificationResult:
    """The sheafification with the labels at obj renamed by swap, in
    every restriction table and in the unit: an isomorphic result."""
    sheaf = result.sheaf

    def rename(o: str, label: str) -> str:
        return swap.get(label, label) if o == obj else label

    restrictions = {
        i: {rename(t.tail, k): rename(t.head, v) for k, v in sheaf.restrictions[i].items()}
        for i, t in enumerate(sheaf.kg.triples)
    }
    components = {
        o: {x: rename(o, y) for x, y in c.items()} for o, c in result.unit.components.items()
    }
    renamed = Presheaf(sheaf.kg, sheaf.sections, restrictions)
    return SheafificationResult(
        renamed, NatTransformation(result.unit.source, renamed, components)
    )


class TestSheafificationProduct:
    """verify's oracle for sheafification on the path site: aP(b) is the
    product of P over the paths into b from sources, labelled in the
    plus construction's order."""

    @pytest.fixture
    def undersized(self, fan_path_site, undersized_presheaf_data):
        presheaf = load_presheaf(fan_path_site.category.kg, undersized_presheaf_data)
        return presheaf, sheafify(presheaf, fan_path_site)

    def test_sheafify_passes(self, fan_path_site, undersized):
        presheaf, result = undersized
        assert check_sheafification_product(presheaf, fan_path_site, result) == []

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 1))
    def test_random_presheaves_pass(self, seed, min_sections):
        rng = Random(seed)
        site = tiny_site(seed)
        presheaf = random_presheaf(
            rng, site.category.kg, max_sections=3, min_sections=min_sections
        )
        result = sheafify(presheaf, site)
        assert check_sheafification_product(presheaf, site, result) == []

    def test_relabelled_result_fails_only_on_order(self, fan_path_site, undersized):
        # Swapping m0 and m1 at B throughout is an isomorphism under P,
        # so only the labels give it away.
        presheaf, result = undersized
        swapped = relabelled(result, "B", {"m0": "m1", "m1": "m0"})
        assert check_sheafification_product(presheaf, fan_path_site, swapped) == [
            "sections at B are not labelled in plus order"
        ]

    def test_collapsed_restriction_fails_the_product(self, fan_path_site, undersized):
        # A r1 B sends both sections at B to m0: B's tuples collide.
        presheaf, result = undersized
        sheaf = result.sheaf
        restrictions = {**sheaf.restrictions, 0: {y: "m0" for y in sheaf.sections["B"]}}
        collapsed = Presheaf(sheaf.kg, sheaf.sections, restrictions)
        unit = SimpleNamespace(components=result.unit.components)
        failures = check_sheafification_product(
            presheaf, fan_path_site, SheafificationResult(collapsed, unit)
        )
        assert "sections at B are not the product over paths from sources" in failures

    def test_moved_unit_fails(self, fan_path_site, undersized):
        presheaf, result = undersized
        components = dict(result.unit.components)
        (x, y), = components["B"].items()
        components["B"] = {x: next(s for s in result.sheaf.sections["B"] if s != y)}
        moved = SheafificationResult(result.sheaf, SimpleNamespace(components=components))
        assert check_sheafification_product(presheaf, fan_path_site, moved) == [
            "unit at B differs from restriction to the sources"
        ]

    def test_unit_not_bijective_at_a_source(self, fan_path_site, undersized):
        presheaf, result = undersized
        components = {**result.unit.components, "A": {"a1": "m0", "a2": "m0"}}
        broken = SheafificationResult(result.sheaf, SimpleNamespace(components=components))
        assert check_sheafification_product(presheaf, fan_path_site, broken) == [
            "unit not bijective at the source A"
        ]


@st.composite
def acyclic_graphs(draw):
    """Up to 6 triples over 5 entities, each from a lower to a higher
    index, with the entities and the triples listed in a drawn order, so
    that an entity may come before the heads of its triples."""
    n = draw(st.integers(1, 5))
    edges = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from("rs"))
    triples = [
        Triple(f"e{i}", p, f"e{j}")
        for i, j, p in draw(st.lists(edges, max_size=6, unique=True))
        if i < j
    ]
    entities = draw(st.permutations([f"e{i}" for i in range(n)]))
    return KnowledgeGraph(tuple(entities), ("r", "s"), tuple(draw(st.permutations(triples))))


class TestSheafifyAlongTriples:
    """The path site's sheafification and sheaf condition read off the
    triples, against sheafify and is_sheaf on the site."""

    @settings(max_examples=80, deadline=None)
    @given(acyclic_graphs(), st.integers(0, 10**9), st.integers(0, 1))
    def test_matches_the_site_route(self, kg, seed, min_sections):
        presheaf = random_presheaf(
            Random(seed), kg, max_sections=3, min_sections=min_sections
        )
        site = path_topology(build_free_category(kg), sieve_cap=20)
        sheaf = sheafify_along_triples(presheaf)
        assert _sheafification_parts(sheaf, {}) == _sheafification_parts(
            sheafify(presheaf, site).sheaf, {}
        )
        for candidate in (presheaf, sheaf):
            assert is_path_sheaf(candidate) == bool(is_sheaf(candidate, site))
        assert is_path_sheaf(sheaf)

    def test_reads_only_the_counts_at_sources(self, fan_kg, undersized_presheaf_data):
        presheaf = load_presheaf(fan_kg, undersized_presheaf_data)
        relabelled = Presheaf(
            fan_kg,
            {"A": ("x", "y"), "D": ("z",), "B": ("b",), "C": ("c",)},
            {0: {"b": "y"}, 1: {"c": "x"}, 2: {"b": "z"}, 3: {"c": "z"}},
        )
        assert [len(presheaf.sections[s]) for s in "AD"] == [2, 1]
        assert sheafify_along_triples(relabelled) == sheafify_along_triples(presheaf)

    def test_cycle_raises_with_its_witness(self):
        kg = parse_kg("A r B\nB s A\nC t A\n")
        with pytest.raises(InfiniteCategoryError, match=r"\(witness: A -> B -> A\)$"):
            sheafify_along_triples(terminal_presheaf(kg))


class TestTransports:
    def test_direct_image_is_atomic_sheaf(self, fan_path_site, fan_atomic_site):
        rng = Random(5)
        presheaf = random_presheaf(rng, fan_path_site.category.kg)
        # i_* leaves the data as it is, so its image is P itself.
        assert is_sheaf(presheaf, fan_atomic_site)

    def test_inverse_image_of_terminal_is_terminal(self, fan_path_site):
        result = inverse_image(terminal_presheaf(fan_path_site.category.kg), fan_path_site)
        assert all(len(v) == 1 for v in result.sections.values())

    def test_inverse_image_of_undersized_matches_product(
        self, fan_path_site, undersized_presheaf_data, fan_product_presheaf
    ):
        presheaf = load_presheaf(fan_path_site.category.kg, undersized_presheaf_data)
        transported = inverse_image(presheaf, fan_path_site)
        assert {o: len(s) for o, s in transported.sections.items()} == {
            o: len(s) for o, s in fan_product_presheaf.sections.items()
        }

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**9))
    def test_inverse_image_preserves_binary_products(self, seed):
        rng = Random(seed)
        cat = random_small_category(
            rng, max_entities=3, max_triples=3, max_morphisms=20, sieve_cap=8
        )
        site = path_topology(cat)
        f = random_presheaf(rng, cat.kg, max_sections=2)
        g = random_presheaf(rng, cat.kg, max_sections=2)
        lhs = inverse_image(product_presheaf(f, g), site)
        rhs = product_presheaf(inverse_image(f, site), inverse_image(g, site))
        # Matching families for a product split componentwise, so the
        # canonical comparison is a sectionwise bijection.
        assert {o: len(s) for o, s in lhs.sections.items()} == {
            o: len(s) for o, s in rhs.sections.items()
        }
        assert is_sheaf(lhs, site) and is_sheaf(rhs, site)


class TestNatTransformations:
    def test_identity_present(self, fan_product_presheaf):
        homs = enumerate_nat_transformations(
            fan_product_presheaf, fan_product_presheaf
        )
        identity_key = tuple(
            (obj, tuple(sorted((s, s) for s in fan_product_presheaf.sections[obj])))
            for obj in fan_product_presheaf.kg.entities
        )
        assert identity_key in {t.canonical_key() for t in homs}

    def test_hom_from_terminal_counts_global_sections(self, fan_cat, fan_product_presheaf):
        homs = enumerate_nat_transformations(
            terminal_presheaf(fan_cat.kg), fan_product_presheaf
        )
        assert len(homs) == len(global_sections(fan_product_presheaf))

    def test_non_natural_family_rejected(self, fan_cat, fan_product_presheaf):
        components = {
            obj: {s: s for s in fan_product_presheaf.sections[obj]}
            for obj in fan_cat.objects
        }
        components["A"] = {"a1": "a2", "a2": "a1"}  # breaks naturality at r1
        with pytest.raises(NaturalityError):
            NatTransformation(fan_product_presheaf, fan_product_presheaf, components)

    def test_cap_enforced(self, fan_path_site):
        big = constant_presheaf(fan_path_site.category.kg, ("a", "b", "c", "d"))
        with pytest.raises(SizeCapError):
            check_adjunction(big, big, fan_path_site, section_cap=3)


class TestAdjunction:
    def test_terminal_both_sides(self, fan_path_site):
        cat = fan_path_site.category
        one = terminal_presheaf(cat.kg)
        report = check_adjunction(one, sheafify(one, fan_path_site).sheaf, fan_path_site)
        assert report.passed
        assert report.left_count == report.right_count == 1

    def test_fan_constant_vs_product_sheaf(self, fan_path_site, fan_product_presheaf):
        constant = constant_presheaf(fan_path_site.category.kg, ("x", "y"))
        report = check_adjunction(constant, fan_product_presheaf, fan_path_site)
        assert report.passed
        # Both hom-sets were enumerated exhaustively and match.
        assert report.left_count == report.right_count == 4
        assert report.bijective

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_tiny_instances(self, seed):
        rng = Random(seed)
        cat = random_small_category(
            rng, max_entities=4, max_triples=4, max_morphisms=25, sieve_cap=8
        )
        site = path_topology(cat)
        atomic_side = random_presheaf(rng, cat.kg, max_sections=2)
        candidate = sheafify(random_presheaf(rng, cat.kg, max_sections=2), site).sheaf
        if any(len(v) > 2 for v in candidate.sections.values()):
            candidate = sheafify(terminal_presheaf(cat.kg), site).sheaf
        report = check_adjunction(atomic_side, candidate, site, section_cap=2)
        assert report.passed, report


class TestOmega:
    def test_fan_path_counts(self, fan_path_site):
        classifier = omega(fan_path_site)
        assert {o: len(s) for o, s in classifier.sections.items()} == {
            "A": 2,
            "B": 4,
            "C": 4,
            "D": 2,
        }

    def test_fan_path_closed_sieves_by_brute_force(self, fan_path_site):
        # Oracle: a sieve is closed iff every morphism whose pullback
        # covers already belongs to it; check all sieves directly.
        from kgtopos.sites import enumerate_sieves, pullback_sieve

        cat = fan_path_site.category
        closed_count = 0
        for sieve in enumerate_sieves(cat, "B"):
            closed = all(
                g in sieve.members
                or not fan_path_site.covers(pullback_sieve(cat, sieve, g))
                for g in cat.morphisms_into("B")
            )
            closed_count += closed
        assert closed_count == 4

    def test_atomic_classifier_collects_all_sieves(self, fan_atomic_site):
        classifier = omega(fan_atomic_site)
        assert {o: len(s) for o, s in classifier.sections.items()} == {
            "A": 2,
            "B": 5,
            "C": 5,
            "D": 2,
        }

    def test_isolated_object_two_elements(self):
        kg = parse_kg("A r B\n")
        site = build_site(kg, "atomic")
        classifier = omega(site)
        assert len(classifier.sections["A"]) == 2

    def test_omega_is_sheaf(self, fan_path_site, fan_atomic_site):
        assert is_sheaf(omega(fan_path_site), fan_path_site)
        assert is_sheaf(omega(fan_atomic_site), fan_atomic_site)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_fold_matches_closed_sieve_scan(self, seed):
        # Sections in order and restriction tables, on both topologies.
        cat = random_small_category(
            Random(seed), max_entities=5, max_triples=6, max_morphisms=40, sieve_cap=8
        )
        for site in (path_topology(cat), atomic_topology(cat)):
            classifier, scanned = omega(site), _closed_sieves_by_scan(site)
            assert list(classifier.sections.items()) == [
                (obj, tuple(map(sieve_label, scanned[obj]))) for obj in cat.objects
            ]
            assert classifier.restrictions == {
                i: {
                    sieve_label(s): sieve_label(
                        pullback_sieve(cat, s, cat.generator_path(i))
                    )
                    for s in scanned[t.tail]
                }
                for i, t in enumerate(cat.kg.triples)
            }

    @pytest.mark.parametrize(
        "topology, counts",
        [("path", [2] * 25), ("atomic", list(range(2, 27)))],
        ids=["path", "atomic"],
    )
    def test_omega_on_long_chain_within_budget(self, tmp_path, topology, counts):
        # 25 morphisms into the chain's end.  On a 2-vCPU host the sieve
        # lattice scan took about 13 s per topology here.
        graph = tmp_path / "chain.txt"
        graph.write_text("".join(f"A{k} r{k} A{k + 1}\n" for k in range(24)))
        start = time.perf_counter()
        result = CliRunner().invoke(
            main,
            ["sheaf", "omega", str(graph), "--topology", topology, "--sieve-cap", "25"],
        )
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["is_sheaf"]
        assert list(report["section_counts"].values()) == counts
        assert elapsed < 2.0, f"sheaf omega ({topology}) took {elapsed:.1f} s"

    def test_classifies_subsheaves_of_terminal(self, fan_path_site, fan_atomic_site):
        for site in (fan_path_site, fan_atomic_site):
            one = terminal_presheaf(site.category.kg)
            classifier = omega(site)
            homs = enumerate_nat_transformations(one, classifier)
            assert count_subsheaves(one, site) == len(homs)

    def test_classifies_subsheaves_of_product_sheaf(
        self, fan_path_site, fan_product_presheaf
    ):
        classifier = omega(fan_path_site)
        homs = enumerate_nat_transformations(fan_product_presheaf, classifier)
        assert count_subsheaves(fan_product_presheaf, fan_path_site) == len(homs)


class TestSubpresheaves:
    def test_terminal_subpresheaf_count_on_fan(self, fan_cat):
        # Down-closed entity subsets: {}, {A}, {D}, {A,D}, {A,D,B},
        # {A,D,C}, {A,B,C,D} -- seven in all, by hand.
        one = terminal_presheaf(fan_cat.kg)
        assert len(enumerate_subpresheaves(one)) == 7

    def test_path_sheaf_filter(self, fan_path_site):
        one = terminal_presheaf(fan_path_site.category.kg)
        assert count_subsheaves(one, fan_path_site) == 4


class TestSaturationInvariance:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9))
    def test_sheaves_for_coverage_equal_sheaves_for_topology(self, seed):
        # Saturating a coverage into a topology must not change which
        # presheaves satisfy the sheaf condition.  Decided by the search
        # over each list of sieves: is_sheaf reads no list.
        rng = Random(seed)
        cat = random_small_category(
            rng, max_entities=5, max_triples=5, max_morphisms=30, sieve_cap=8
        )
        base = unsaturated(cat, path_coverage(cat))
        presheaf = random_presheaf(rng, cat.kg, max_sections=3)
        assert bool(sheaf_for(presheaf, base)) == bool(
            sheaf_for(presheaf, listed(path_topology(cat)))
        )
