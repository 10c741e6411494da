from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgtopos import (
    CategoryNotClosedError,
    CompositionError,
    InfiniteCategoryError,
    Path,
    TypingError,
    build_free_category,
    compose,
    extend_functor,
    head_partition,
    induced_functor,
    parse_kg,
    tail_partition,
)
from kgtopos.freecat import compose_functors, identity_functor
from kgtopos.kg import compose_homs, find_entity_cycle
from kgtopos.randgen import random_acyclic_hom, random_kg, random_small_category
from kgtopos.verify import expected_morphism_count

from helpers import identity_hom, swap_hom


class TestBuild:
    def test_fan_shape(self, fan_cat):
        assert fan_cat.objects == ("A", "B", "C", "D")
        assert len(fan_cat.generators) == 4
        # No triple ends where another starts, so the only morphisms are
        # the four identities and the four generators.
        assert fan_cat.total_morphisms == 8
        assert all(
            len(p.arrows) <= 1 for p in fan_cat.morphisms()
        )

    def test_empty_graph(self):
        cat = build_free_category(parse_kg(""))
        assert cat.objects == () and cat.total_morphisms == 0

    def test_chain_two_path(self):
        cat = build_free_category(parse_kg("A r B\nB s C\n"))
        # Hand enumeration: ids, r, s, and the concatenation r.s.
        assert [p.arrows for p in cat.hom("A", "C")] == [(0, 1)]
        assert cat.total_morphisms == 6

    def test_cycle_without_bound_raises(self):
        with pytest.raises(InfiniteCategoryError) as exc:
            build_free_category(parse_kg("A r B\nB s A\n"))
        assert len(exc.value.cycle) >= 2

    def test_self_loop_witness(self):
        with pytest.raises(InfiniteCategoryError) as exc:
            build_free_category(parse_kg("X r X\n"))
        assert exc.value.cycle == ["X", "X"]

    def test_two_cycle_witness_is_pinned(self):
        # Both cycles pass through B.  The search follows B's triples in
        # file order, so it closes B -> D -> B before reaching C -> A.
        kg = parse_kg("A r B\nB s D\nB r C\nC r A\nD s B\n")
        assert find_entity_cycle(kg) == ["B", "D", "B"]
        with pytest.raises(InfiniteCategoryError) as exc:
            build_free_category(kg)
        assert exc.value.cycle == ["B", "D", "B"]

    def test_bounded_cycle_is_incomplete(self):
        cat = build_free_category(parse_kg("A r B\nB s A\n"), max_length=3)
        assert not cat.complete
        assert any(len(p.arrows) == 3 for p in cat.morphisms())

    def test_bound_larger_than_longest_path_is_complete(self):
        cat = build_free_category(parse_kg("A r B\nB s C\n"), max_length=5)
        assert cat.complete

    def test_hom_sets_sorted_lexicographically(self):
        kg = parse_kg("A r B\nA s B\n")
        cat = build_free_category(kg)
        assert [p.arrows for p in cat.hom("A", "B")] == [(0,), (1,)]

    def test_json_export_round_trip_shape(self, fan_cat):
        data = fan_cat.to_dict()
        assert data["objects"] == ["A", "B", "C", "D"]
        assert data["hom_sets"]["A->B"] == [[0]]
        assert data["complete"] is True

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9), st.booleans())
    def test_one_pass_orders_match_the_walk_over_all_pairs(self, seed, acyclic):
        # Cyclic graphs get a length bound, so their categories are
        # truncated.  Every order is the one a walk over all ordered
        # pairs of objects, one hom lookup each, would give.
        rng = Random(seed)
        kg = random_kg(rng, max_entities=6, max_triples=8, acyclic=acyclic)
        cat = build_free_category(kg, None if acyclic else rng.randint(0, 3))
        pairs = [(a, b) for a in cat.objects for b in cat.objects if cat.hom(a, b)]
        walk = [p for a, b in pairs for p in cat.hom(a, b)]
        assert list(cat.morphisms()) == walk
        for obj in cat.objects:
            assert list(cat.morphisms_into(obj)) == [p for p in walk if p.target == obj]
        assert cat.to_dict()["hom_sets"] == {
            f"{a}->{b}": [list(p.arrows) for p in cat.hom(a, b)] for a, b in pairs
        }


class TestCompose:
    def test_identity_neutral(self, fan_cat):
        generator = fan_cat.generator_path(0)
        assert compose(fan_cat.identity("A"), generator) == generator
        assert compose(generator, fan_cat.identity("B")) == generator

    def test_two_step(self):
        cat = build_free_category(parse_kg("A r B\nB s C\n"))
        combined = compose(cat.generator_path(0), cat.generator_path(1))
        assert combined == Path("A", "C", (0, 1))

    def test_non_composable_rejected(self, fan_cat):
        with pytest.raises(CompositionError):
            compose(fan_cat.generator_path(0), fan_cat.generator_path(1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_associative(self, seed):
        rng = Random(seed)
        cat = random_small_category(rng, max_entities=6, max_triples=8)
        triples = []
        for p in cat.morphisms():
            for q in cat.hom(p.target, rng.choice(cat.objects)):
                for r in cat.hom(q.target, rng.choice(cat.objects)):
                    triples.append((p, q, r))
        for p, q, r in triples[:50]:
            assert compose(compose(p, q), r) == compose(p, compose(q, r))


class TestFibres:
    def test_fan_fibres(self, fan_kg):
        assert fan_kg.head_fibres == {"A": (0, 1), "B": (), "C": (), "D": (2, 3)}
        assert fan_kg.tail_fibres == {"A": (), "B": (0, 2), "C": (1, 3), "D": ()}

    def test_single_triple(self):
        kg = parse_kg("A r B\n")
        assert kg.head_fibres == {"A": (0,), "B": ()}
        assert kg.tail_fibres == {"A": (), "B": (0,)}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_fibres_match_line_partitions(self, seed):
        from kgtopos.randgen import random_kg

        kg = random_kg(Random(seed), max_entities=10, max_triples=20)
        for ends, partition in ((kg.heads, head_partition), (kg.tails, tail_partition)):
            classes = {
                frozenset(j for j in range(len(ends)) if ends[j] == ends[i])
                for i in range(len(ends))
            }
            assert classes == set(map(frozenset, partition(kg)))


class TestDomCod:
    def test_generator_endpoints(self, fan_cat):
        for i, t in enumerate(fan_cat.kg.triples):
            p = fan_cat.generator_path(i)
            assert (p.source, p.target) == (t.head, t.tail)

    def test_identity_in_every_hom(self, fan_cat):
        for obj in fan_cat.objects:
            assert fan_cat.identity(obj) in fan_cat.hom(obj, obj)

    def test_acyclic_endo_homs_are_trivial(self, fan_cat):
        for obj in fan_cat.objects:
            assert fan_cat.hom(obj, obj) == (fan_cat.identity(obj),)


def _image_assignment(cat, rng):
    """Object and generator images in the free category of a random
    homomorphic image of cat: each triple goes to its image triple."""
    f = random_acyclic_hom(rng, cat.kg)
    target = build_free_category(f.target)
    generator_map = {
        i: target.generator_path(f.target.triple_index[f.apply_triple(t)])
        for i, t in enumerate(cat.kg.triples)
    }
    return target, f.entity_map, generator_map


class TestExtendFunctor:
    def test_identity_assignment_gives_identity_functor(self, fan_cat):
        functor = extend_functor(
            fan_cat,
            {obj: obj for obj in fan_cat.objects},
            {i: fan_cat.generator_path(i) for i in range(4)},
            fan_cat,
        )
        assert functor.morphism_map == identity_functor(fan_cat).morphism_map

    def test_collapse_onto_one_triple(self, fan_cat):
        # All four generators land on the one triple X r Y; checking the
        # four generator images by hand fixes the whole functor.
        target = build_free_category(parse_kg("X r Y\n"))
        functor = extend_functor(
            fan_cat,
            {"A": "X", "D": "X", "B": "Y", "C": "Y"},
            {i: target.generator_path(0) for i in range(4)},
            target,
        )
        for i in range(4):
            assert functor.morphism_map[fan_cat.generator_path(i)] == Path(
                "X", "Y", (0,)
            )
        assert functor.morphism_map[fan_cat.identity("C")] == target.identity("Y")

    def test_typing_error(self, fan_cat):
        target = build_free_category(parse_kg("X r Y\n"))
        images = {i: target.generator_path(0) for i in range(4)}
        images[0] = target.identity("X")  # ends at X, not at B's image Y
        with pytest.raises(TypingError):
            extend_functor(
                fan_cat, {"A": "X", "D": "X", "B": "Y", "C": "Y"}, images, target
            )

    def test_truncated_source_refused(self):
        cat = build_free_category(parse_kg("A r B\nB s A\n"), max_length=2)
        target = build_free_category(parse_kg("X r X\n"), max_length=1)
        with pytest.raises(CategoryNotClosedError):
            extend_functor(
                cat,
                {obj: "X" for obj in cat.objects},
                {i: target.generator_path(0) for i in range(2)},
                target,
            )

    def test_uniqueness_against_right_fold(self):
        rng = Random(7)
        cat = random_small_category(rng, max_entities=6, max_triples=8)
        target, object_map, generator_map = _image_assignment(cat, rng)
        functor = extend_functor(cat, object_map, generator_map, target)
        for p in cat.morphisms():
            image = target.identity(object_map[p.target])
            for arrow in reversed(p.arrows):
                image = compose(generator_map[arrow], image)
            assert functor.morphism_map[p] == image

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_consistent_assignments_validate(self, seed):
        rng = Random(seed)
        cat = random_small_category(rng, max_entities=5, max_triples=6)
        target, object_map, generator_map = _image_assignment(cat, rng)
        functor = extend_functor(cat, object_map, generator_map, target)
        assert functor.law_failures() == []


class TestInducedFunctor:
    def test_identity_hom(self, fan_kg, fan_cat):
        functor = induced_functor(identity_hom(fan_kg), fan_cat, fan_cat)
        assert functor.morphism_map == identity_functor(fan_cat).morphism_map

    def test_fan_swap(self, fan_kg, fan_cat):
        functor = induced_functor(swap_hom(fan_kg), fan_cat, fan_cat)
        assert functor.object_map == {"A": "D", "D": "A", "B": "B", "C": "C"}
        assert functor.morphism_map[fan_cat.generator_path(0)] == fan_cat.generator_path(2)
        assert functor.morphism_map[fan_cat.generator_path(1)] == fan_cat.generator_path(3)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9))
    def test_functoriality_over_composition(self, seed):
        rng = Random(seed)
        cat = random_small_category(rng, max_entities=6, max_triples=7)
        f = random_acyclic_hom(rng, cat.kg)
        g = random_acyclic_hom(rng, f.target)
        cat_m = build_free_category(f.target)
        cat_n = build_free_category(g.target)
        lhs = induced_functor(compose_homs(g, f), cat, cat_n)
        rhs = compose_functors(
            induced_functor(g, cat_m, cat_n), induced_functor(f, cat, cat_m)
        )
        assert lhs.object_map == rhs.object_map
        assert lhs.morphism_map == rhs.morphism_map


class TestWalkCountOracle:
    def test_fan(self, fan_kg, fan_cat):
        assert expected_morphism_count(fan_kg) == fan_cat.total_morphisms == 8

    def test_chain(self):
        kg = parse_kg("A r B\nB s C\n")
        assert expected_morphism_count(kg) == build_free_category(kg).total_morphisms

    def test_parallel_edges_counted_separately(self):
        kg = parse_kg("A r B\nA s B\nB t C\n")
        cat = build_free_category(kg)
        # Walks: 3 identities + r, s, t, r.t, s.t = 5 walks.
        assert cat.total_morphisms == expected_morphism_count(kg) == 8

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_acyclic(self, seed):
        cat = random_small_category(Random(seed), max_entities=7, max_triples=9)
        assert cat.total_morphisms == expected_morphism_count(cat.kg)
