from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgtopos import (
    CompositionError,
    DuplicateTripleError,
    HomDomainError,
    KgHomomorphism,
    KgParseError,
    KnowledgeGraph,
    Triple,
    check_hom,
    compose_homs,
    kg_from_json,
    parse_kg,
    serialize_kg,
)
from kgtopos.randgen import random_hom, random_kg

from helpers import identity_hom, swap_hom


class TestParse:
    def test_fan_orders(self, fan_kg):
        assert fan_kg.entities == ("A", "B", "C", "D")
        assert fan_kg.predicates == ("r1", "r2", "r3", "r4")
        assert fan_kg.triples == (
            Triple("A", "r1", "B"),
            Triple("A", "r2", "C"),
            Triple("D", "r3", "B"),
            Triple("D", "r4", "C"),
        )

    def test_empty_text(self):
        kg = parse_kg("")
        assert kg.entities == () and kg.predicates == () and kg.triples == ()

    def test_reflexive_triple(self):
        kg = parse_kg("X loves X")
        assert kg.entities == ("X",)
        assert kg.triples == (Triple("X", "loves", "X"),)

    def test_comments_and_blank_lines(self):
        kg = parse_kg("# header\n\nA r B\n  \n# trailing\n")
        assert kg.triple_count == 1

    def test_tabs_and_runs_of_spaces(self):
        kg = parse_kg("A\t r \t B\n")
        assert kg.triples == (Triple("A", "r", "B"),)

    def test_malformed_line_number(self):
        with pytest.raises(KgParseError) as exc:
            parse_kg("A r B\nbroken line here extra\n")
        assert exc.value.line_number == 2

    def test_wrong_field_count_short(self):
        with pytest.raises(KgParseError):
            parse_kg("A r\n")

    def test_duplicate_triple_rejected(self):
        with pytest.raises(DuplicateTripleError) as exc:
            parse_kg("A r B\nA r B\n")
        assert exc.value.line_number == 2

    def test_parallel_triples_allowed(self):
        kg = parse_kg("A r B\nA s B\n")
        assert kg.triple_count == 2

    def test_head_registered_before_tail(self):
        kg = parse_kg("Z r A\nA r Z\n")
        assert kg.entities == ("Z", "A")


class TestConstruction:
    def test_unused_predicates_allowed(self):
        kg = KnowledgeGraph(("A",), ("r", "unused"), (Triple("A", "r", "A"),))
        assert "unused" in kg.predicates

    def test_duplicate_entity_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeGraph(("A", "A"), (), ())

    def test_unknown_entity_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeGraph(("A",), ("r",), (Triple("A", "r", "B"),))

    def test_unknown_predicate_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeGraph(("A",), (), (Triple("A", "r", "A"),))


class TestRoundTrip:
    def test_fan(self, fan_kg):
        assert kg_from_json(serialize_kg(fan_kg)) == fan_kg

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_graphs(self, seed):
        kg = random_kg(Random(seed), max_entities=12, max_triples=25)
        assert kg_from_json(serialize_kg(kg)) == kg


class TestFibreIndex:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_direct_recomputation(self, seed):
        kg = random_kg(Random(seed), max_entities=10, max_triples=20)
        for index, ends in ((kg.head_fibres, kg.heads), (kg.tail_fibres, kg.tails)):
            assert index == {
                e: tuple(i for i, end in enumerate(ends) if end == e)
                for e in kg.entities
            }


class TestHomomorphisms:
    def test_identity_is_hom(self, fan_kg):
        assert check_hom(identity_hom(fan_kg)) == []

    def test_swap_is_hom(self, fan_kg):
        # By hand: (A,r1,B)->(D,r3,B), (A,r2,C)->(D,r4,C),
        # (D,r3,B)->(A,r1,B), (D,r4,C)->(A,r2,C); all are triples.
        assert check_hom(swap_hom(fan_kg)) == []

    def test_broken_map_reports_violation(self, fan_kg):
        f = KgHomomorphism(
            fan_kg,
            fan_kg,
            {"A": "B", "B": "B", "C": "C", "D": "D"},
            {p: p for p in fan_kg.predicates},
        )
        # (B, r1, B) and (B, r2, C) are not triples of the fan graph.
        assert check_hom(f) == [Triple("A", "r1", "B"), Triple("A", "r2", "C")]

    def test_partial_map_raises(self, fan_kg):
        f = KgHomomorphism(fan_kg, fan_kg, {"A": "A"}, {})
        with pytest.raises(HomDomainError):
            check_hom(f)

    def test_identity_neutral(self, fan_kg):
        f = swap_hom(fan_kg)
        assert compose_homs(f, identity_hom(fan_kg)).entity_map == f.entity_map
        assert compose_homs(identity_hom(fan_kg), f).entity_map == f.entity_map

    def test_swap_composed_with_itself_is_identity(self, fan_kg):
        f = swap_hom(fan_kg)
        ff = compose_homs(f, f)
        assert ff.entity_map == identity_hom(fan_kg).entity_map
        assert ff.predicate_map == identity_hom(fan_kg).predicate_map

    def test_mismatched_graphs_raise(self, fan_kg):
        other = parse_kg("X r Y\n")
        f = identity_hom(fan_kg)
        g = identity_hom(other)
        with pytest.raises(CompositionError):
            compose_homs(g, f)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_composites_are_homs(self, seed):
        rng = Random(seed)
        kg = random_kg(rng, max_entities=8, max_triples=12)
        f = random_hom(rng, kg)
        g = random_hom(rng, f.target)
        assert check_hom(f) == check_hom(g) == []
        assert check_hom(compose_homs(g, f)) == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_composition_associative(self, seed):
        rng = Random(seed)
        kg = random_kg(rng, max_entities=8, max_triples=12)
        f = random_hom(rng, kg)
        g = random_hom(rng, f.target)
        h = random_hom(rng, g.target)
        left = compose_homs(h, compose_homs(g, f))
        right = compose_homs(compose_homs(h, g), f)
        assert left.entity_map == right.entity_map
        assert left.predicate_map == right.predicate_map
        assert left.source == right.source and left.target == right.target
