import gc
import json
import time
from itertools import product
from random import Random

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from kgtopos import (
    GluingError,
    MatchingFamily,
    NaturalityError,
    NatTransformation,
    Presheaf,
    SchemaError,
    Site,
    SizeCapError,
    UniquenessError,
    build_free_category,
    build_site,
    check_adjunction,
    constant_presheaf,
    direct_image,
    enumerate_matching_families,
    enumerate_nat_transformations,
    global_sections,
    glue,
    inverse_image,
    is_sheaf,
    load_family,
    load_presheaf,
    omega,
    parse_kg,
    product_presheaf,
    sheafify,
    sieve_generated_by,
    terminal_presheaf,
)
from kgtopos.cli import main
from kgtopos.randgen import random_presheaf, random_small_category
from kgtopos.sheaves import (
    count_subsheaves,
    enumerate_subpresheaves,
    restrict,
    sieve_label,
)
from kgtopos.sites import (
    Topology,
    atomic_topology,
    maximal_sieve,
    path_topology,
    pullback_sieve,
)
from kgtopos.verify import _closed_sieves_by_scan, _is_sheaf_by_scan


def local_sheaf_condition(presheaf: Presheaf, site: Site) -> bool:
    """At every object b with a covering sieve other than the maximal one,
    x -> (P(t)(x)) over the triples t: a -> b is a bijection from P(b)
    to the product of the P(a); read off the triples alone, with no
    dispatch on the kind of site."""
    cat, kg = site.category, site.category.kg
    for obj in cat.objects:
        if set(site.topology.covering_sieves(obj)) <= {maximal_sieve(cat, obj)}:
            continue
        into = kg.tail_fibres[obj]
        images = [
            tuple(presheaf.restrictions[i][x] for i in into)
            for x in presheaf.sections[obj]
        ]
        targets = product(*(presheaf.sections[kg.triples[i].head] for i in into))
        if sorted(images) != sorted(targets):
            return False
    return True


def tiny_site(seed, **kwargs) -> Site:
    cat = random_small_category(
        Random(seed), max_entities=4, max_triples=4, max_morphisms=30, sieve_cap=8
    )
    return Site(cat, path_topology(cat))


def brute_force_global_sections(presheaf) -> int:
    """Oracle: try every assignment of one section per object."""
    cat = presheaf.cat
    objects = list(cat.objects)
    count = 0
    for values in product(*(presheaf.sections[o] for o in objects)):
        chosen = dict(zip(objects, values))
        if all(
            presheaf.restrictions[i][chosen[t.tail]] == chosen[t.head]
            for i, t in enumerate(cat.kg.triples)
        ):
            count += 1
    return count


class TestPresheafValidation:
    def test_fan_arbitrary_restrictions_valid(self, fan_cat):
        # No composable generator pairs exist, so any functions pass.
        presheaf = Presheaf(
            fan_cat,
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
        presheaf = constant_presheaf(fan_cat)
        assert all(v == ("*",) for v in presheaf.sections.values())

    def test_missing_object_section_rejected(self, fan_cat):
        with pytest.raises(SchemaError):
            Presheaf(fan_cat, {"A": ("x",)}, {})

    def test_partial_restriction_rejected(self, fan_cat):
        sections = {"A": ("x",), "B": ("u", "v"), "C": ("w",), "D": ("z",)}
        with pytest.raises(SchemaError):
            Presheaf(
                fan_cat,
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
        good = Presheaf(cat, sections, restrictions)
        assert restrict(good, cat.hom("A", "C")[0]) == {"c0": "a0"}

    def test_restriction_identity_on_identity_path(self, fan_cat):
        presheaf = constant_presheaf(fan_cat, ("s", "t"))
        assert restrict(presheaf, fan_cat.identity("A")) == {"s": "s", "t": "t"}


class TestLoadPresheaf:
    def test_fan_product_loads(self, fan_product_presheaf):
        assert fan_product_presheaf.sections["B"] == ("(a1,d1)", "(a2,d1)")

    def test_missing_restriction_key(self, fan_cat):
        with pytest.raises(SchemaError):
            load_presheaf(fan_cat, {"sections": {o: ["s"] for o in "ABCD"}, "restrictions": {}})

    def test_round_trip(self, fan_cat, fan_product_presheaf):
        again = load_presheaf(fan_cat, fan_product_presheaf.to_dict())
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
            load_presheaf(fan_cat, doc)


def chain_presheaf() -> Presheaf:
    """A r B, B s C; restriction along r is a bijection."""
    cat = build_free_category(parse_kg("A r B\nB s C\n"))
    return Presheaf(
        cat,
        {"A": ("a0", "a1"), "B": ("b0", "b1"), "C": ("c0",)},
        {0: {"b0": "a0", "b1": "a1"}, 1: {"c0": "b0"}},
    )


class TestLoadFamily:
    def test_fan_pair(self, fan_cat, fan_product_presheaf):
        family = load_family(
            fan_product_presheaf, {"object": "B", "assignment": {"0": "a1", "2": "d1"}}
        )
        assert family.sieve == sieve_generated_by(
            fan_cat, "B", [fan_cat.generator_path(0), fan_cat.generator_path(2)]
        )
        assert glue(fan_product_presheaf, family) == "(a1,d1)"

    def test_closure_values_are_forced(self):
        presheaf = chain_presheaf()
        cat = presheaf.cat
        family = load_family(presheaf, {"object": "C", "assignment": {"1": "b1"}})
        assert family.assignment == {
            cat.generator_path(1): "b1",
            cat.hom("A", "C")[0]: "a1",
        }
        both = load_family(presheaf, {"object": "C", "assignment": {"0.1": "a1", "1": "b1"}})
        assert both == family

    def test_incompatible_values_raise(self):
        with pytest.raises(GluingError):
            load_family(
                chain_presheaf(), {"object": "C", "assignment": {"1": "b1", "0.1": "a0"}}
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
    def test_malformed_documents_rejected(self, fan_product_presheaf, doc):
        with pytest.raises(SchemaError):
            load_family(fan_product_presheaf, doc)


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
        sieve = fan_path_site.topology.covering_sieves("B")[-1]
        assert fan_cat.identity("B") in sieve.members
        families = enumerate_matching_families(fan_product_presheaf, sieve)
        assert len(families) == len(fan_product_presheaf.sections["B"])

    def test_chain_compatibility_constrains(self):
        cat = build_free_category(parse_kg("A r B\nB s C\n"))
        presheaf = Presheaf(
            cat,
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
    def test_fixed_values_select_agreeing_families(self, seed):
        # Pinning sections on some members leaves exactly the families
        # that take those values there, in the same order.
        rng = Random(seed)
        site = tiny_site(seed)
        presheaf = random_presheaf(rng, site.category, max_sections=3, min_sections=0)
        for obj in site.category.objects:
            for sieve in site.topology.covering_sieves(obj):
                families = enumerate_matching_families(presheaf, sieve)
                fixed = {
                    p: rng.choice(presheaf.sections[p.source])
                    for p in sieve.sorted_members()
                    if presheaf.sections[p.source] and rng.random() < 0.5
                }
                expected = [
                    f for f in families
                    if all(f.assignment[p] == v for p, v in fixed.items())
                ]
                assert enumerate_matching_families(presheaf, sieve, fixed) == expected


class TestIsSheaf:
    def test_any_presheaf_is_atomic_sheaf(self, fan_atomic_site):
        rng = Random(11)
        presheaf = random_presheaf(rng, fan_atomic_site.category)
        assert is_sheaf(presheaf, fan_atomic_site)

    def test_product_wiring_is_path_sheaf(self, fan_path_site, fan_product_presheaf):
        assert is_sheaf(fan_product_presheaf, fan_path_site)

    def test_undersized_fails_with_counterexample(
        self, fan_path_site, undersized_presheaf_data
    ):
        presheaf = load_presheaf(fan_path_site.category, undersized_presheaf_data)
        result = is_sheaf(presheaf, fan_path_site)
        assert not result
        assert result.counterexample["object"] in {"B", "C"}

    def test_oversized_fails(self, fan_path_site, product_presheaf_data):
        # A strict superset of the product at B: amalgamation not unique.
        data = json.loads(json.dumps(product_presheaf_data))
        data["sections"]["B"].append("extra")
        data["restrictions"]["A r1 B"]["extra"] = "a1"
        data["restrictions"]["D r3 B"]["extra"] = "d1"
        presheaf = load_presheaf(fan_path_site.category, data)
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
        site = Site(cat, atomic_topology(cat))
        assert is_sheaf(random_presheaf(rng, cat), site)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 1))
    def test_trace_lookup_matches_amalgamation_scan(self, seed, min_sections):
        # Verdict and counterexample both, on sheaves and non-sheaves.
        rng = Random(seed)
        site = tiny_site(seed)
        presheaf = random_presheaf(
            rng, site.category, max_sections=3, min_sections=min_sections
        )
        assert is_sheaf(presheaf, site) == _is_sheaf_by_scan(presheaf, site)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 1))
    def test_local_sheaf_condition(self, seed, min_sections):
        # The condition a local is_sheaf would decide by, pinned against
        # today's is_sheaf on the path site, the atomic site and the
        # unsaturated coverage by the triples into each object.
        rng = Random(seed)
        cat = random_small_category(
            rng, max_entities=4, max_triples=4, max_morphisms=30, sieve_cap=8
        )
        presheaf = random_presheaf(
            rng, cat, max_sections=3, min_sections=min_sections
        )
        triples_into = {
            obj: [cat.generator_path(i) for i in cat.kg.tail_fibres[obj]]
            for obj in cat.objects
        }
        coverage = Topology({
            obj: frozenset(
                {maximal_sieve(cat, obj)}
                | ({sieve_generated_by(cat, obj, into)} if into else set())
            )
            for obj, into in triples_into.items()
        })
        for topology in (path_topology(cat), atomic_topology(cat), coverage):
            site = Site(cat, topology)
            assert bool(is_sheaf(presheaf, site)) == local_sheaf_condition(
                presheaf, site
            )

    def test_omega_on_layered_dag_within_budget(self):
        # Four layers of two entities, each entity pointing at both of
        # the next layer's: 15 morphisms into each sink.  On a 2-vCPU
        # host the amalgamation scan took 16-20 s here, the trace lookup
        # about 1 s.
        layers = [[f"{name}{k}" for k in range(2)] for name in "abcd"]
        edges = [
            (a, b) for upper, lower in zip(layers, layers[1:]) for a in upper for b in lower
        ]
        text = "".join(f"{a} r{n} {b}\n" for n, (a, b) in enumerate(edges))
        site = build_site(parse_kg(text), "path", sieve_cap=15)
        start = time.perf_counter()
        classifier = omega(site)
        check = is_sheaf(classifier, site)
        elapsed = time.perf_counter() - start
        assert check
        assert [
            {len(classifier.sections[e]) for e in layer} for layer in layers
        ] == [{2}, {4}, {16}, {256}]
        assert elapsed < 8.0, f"omega + is_sheaf took {elapsed:.1f} s"


class TestNoReferenceCycles:
    @pytest.mark.parametrize(
        "call",
        [
            lambda site, p: enumerate_matching_families(
                p, site.topology.min_covering_sieve("B")
            ),
            lambda site, p: is_sheaf(p, site),
            lambda site, p: global_sections(p),
            lambda site, p: enumerate_nat_transformations(
                terminal_presheaf(site.category), p, 4
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
        sieve = fan_path_site.topology.covering_sieves("B")[-1]
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
        presheaf = load_presheaf(fan_cat, undersized_presheaf_data)
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
            fan_cat,
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
            cat,
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
        assert len(global_sections(constant_presheaf(fan_cat))) == 1

    def test_fan_product_counts_match_brute_force(self, fan_product_presheaf):
        sections = global_sections(fan_product_presheaf)
        assert len(sections) == brute_force_global_sections(fan_product_presheaf)
        assert len(sections) == 2

    def test_empty_section_set_blocks_everything(self, fan_cat):
        # An empty section set at a sink is consistent (the restriction
        # out of it is the empty map) and kills every global family.
        presheaf = Presheaf(
            fan_cat,
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
            cat,
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
        presheaf = random_presheaf(rng, cat)
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
        presheaf = load_presheaf(fan_path_site.category, undersized_presheaf_data)
        result = sheafify(presheaf, fan_path_site)
        assert len(result.sheaf.sections["B"]) == 2
        assert is_sheaf(result.sheaf, fan_path_site)

    def test_idempotent_on_section_counts(self, fan_path_site, undersized_presheaf_data):
        presheaf = load_presheaf(fan_path_site.category, undersized_presheaf_data)
        once = sheafify(presheaf, fan_path_site).sheaf
        twice = sheafify(once, fan_path_site).sheaf
        assert {o: len(s) for o, s in once.sections.items()} == {
            o: len(s) for o, s in twice.sections.items()
        }

    def test_unit_is_natural_by_construction(self, fan_path_site, undersized_presheaf_data):
        presheaf = load_presheaf(fan_path_site.category, undersized_presheaf_data)
        result = sheafify(presheaf, fan_path_site)
        assert isinstance(result.unit, NatTransformation)

    def test_unit_not_bijective_on_non_sheaf(self, fan_path_site, undersized_presheaf_data):
        presheaf = load_presheaf(fan_path_site.category, undersized_presheaf_data)
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
        site = Site(cat, path_topology(cat))
        presheaf = random_presheaf(rng, cat)
        result = sheafify(presheaf, site)
        assert is_sheaf(result.sheaf, site)
        again = sheafify(result.sheaf, site)
        assert {o: len(s) for o, s in result.sheaf.sections.items()} == {
            o: len(s) for o, s in again.sheaf.sections.items()
        }


class TestTransports:
    def test_direct_image_is_atomic_sheaf(self, fan_path_site, fan_atomic_site):
        rng = Random(5)
        presheaf = random_presheaf(rng, fan_path_site.category)
        assert is_sheaf(direct_image(presheaf), fan_atomic_site)

    def test_inverse_image_of_terminal_is_terminal(self, fan_path_site):
        result = inverse_image(terminal_presheaf(fan_path_site.category), fan_path_site)
        assert all(len(v) == 1 for v in result.sections.values())

    def test_inverse_image_of_undersized_matches_product(
        self, fan_path_site, undersized_presheaf_data, fan_product_presheaf
    ):
        presheaf = load_presheaf(fan_path_site.category, undersized_presheaf_data)
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
        site = Site(cat, path_topology(cat))
        f = random_presheaf(rng, cat, max_sections=2)
        g = random_presheaf(rng, cat, max_sections=2)
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
            for obj in fan_product_presheaf.cat.objects
        )
        assert identity_key in {t.canonical_key() for t in homs}

    def test_hom_from_terminal_counts_global_sections(self, fan_cat, fan_product_presheaf):
        homs = enumerate_nat_transformations(
            terminal_presheaf(fan_cat), fan_product_presheaf
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

    def test_cap_enforced(self, fan_cat):
        big = constant_presheaf(fan_cat, ("a", "b", "c", "d"))
        with pytest.raises(SizeCapError):
            enumerate_nat_transformations(big, big, section_cap=3)


class TestAdjunction:
    def test_terminal_both_sides(self, fan_path_site):
        cat = fan_path_site.category
        one = terminal_presheaf(cat)
        report = check_adjunction(one, sheafify(one, fan_path_site).sheaf, fan_path_site)
        assert report.passed
        assert report.left_count == report.right_count == 1

    def test_fan_constant_vs_product_sheaf(self, fan_path_site, fan_product_presheaf):
        constant = constant_presheaf(fan_path_site.category, ("x", "y"))
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
        site = Site(cat, path_topology(cat))
        atomic_side = random_presheaf(rng, cat, max_sections=2)
        candidate = sheafify(random_presheaf(rng, cat, max_sections=2), site).sheaf
        if any(len(v) > 2 for v in candidate.sections.values()):
            candidate = sheafify(terminal_presheaf(cat), site).sheaf
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
                or not fan_path_site.topology.covers(pullback_sieve(cat, sieve, g))
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
        for topology in (path_topology(cat), atomic_topology(cat)):
            site = Site(cat, topology)
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
            one = terminal_presheaf(site.category)
            classifier = omega(site)
            cap = max(len(v) for v in classifier.sections.values())
            homs = enumerate_nat_transformations(one, classifier, cap)
            assert count_subsheaves(one, site) == len(homs)

    def test_classifies_subsheaves_of_product_sheaf(
        self, fan_path_site, fan_product_presheaf
    ):
        classifier = omega(fan_path_site)
        cap = max(
            len(v)
            for presheaf in (classifier, fan_product_presheaf)
            for v in presheaf.sections.values()
        )
        homs = enumerate_nat_transformations(fan_product_presheaf, classifier, cap)
        assert count_subsheaves(fan_product_presheaf, fan_path_site) == len(homs)


class TestSubpresheaves:
    def test_terminal_subpresheaf_count_on_fan(self, fan_cat):
        # Down-closed entity subsets: {}, {A}, {D}, {A,D}, {A,D,B},
        # {A,D,C}, {A,B,C,D} -- seven in all, by hand.
        one = terminal_presheaf(fan_cat)
        assert len(enumerate_subpresheaves(one)) == 7

    def test_path_sheaf_filter(self, fan_path_site):
        one = terminal_presheaf(fan_path_site.category)
        assert count_subsheaves(one, fan_path_site) == 4


class TestSaturationInvariance:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9))
    def test_sheaves_for_coverage_equal_sheaves_for_topology(self, seed):
        # Saturating a coverage into a topology must not change which
        # presheaves satisfy the sheaf condition.
        from kgtopos.sites import (
            Topology,
            maximal_sieve,
            path_coverage,
            sieve_generated_by,
        )

        rng = Random(seed)
        cat = random_small_category(
            rng, max_entities=5, max_triples=5, max_morphisms=30, sieve_cap=8
        )
        saturated = Site(cat, path_topology(cat))
        base_covering = {obj: {maximal_sieve(cat, obj)} for obj in cat.objects}
        for obj, families in path_coverage(cat).items():
            for family in families:
                base_covering[obj].add(sieve_generated_by(cat, obj, family))
        base = Site(
            cat, Topology({o: frozenset(s) for o, s in base_covering.items()})
        )
        presheaf = random_presheaf(rng, cat, max_sections=3)
        assert bool(is_sheaf(presheaf, base)) == bool(is_sheaf(presheaf, saturated))
