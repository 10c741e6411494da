from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgtopos import (
    Site,
    SizeCapError,
    Topology,
    TopologyError,
    atomic_topology,
    build_free_category,
    build_site,
    check_inclusion,
    check_site_morphism,
    compose,
    enumerate_sieves,
    generate_topology,
    induced_functor,
    parse_kg,
    path_topology,
    pullback_sieve,
    sieve_generated_by,
    verify_topology_axioms,
)
from kgtopos.freecat import identity_functor
from kgtopos.randgen import random_small_category
from kgtopos.sites import maximal_sieve, topology_to_dict

from helpers import swap_hom


def brute_force_sieves(cat, obj):
    """Oracle: filter every subset of incoming morphisms by the closure
    definition written out directly."""
    incoming = list(cat.morphisms_into(obj))
    closed = []
    for size in range(len(incoming) + 1):
        for subset in combinations(incoming, size):
            members = set(subset)
            ok = True
            for p in members:
                for h in cat.morphisms_into(p.source):
                    if compose(h, p) not in members:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                closed.append(frozenset(members))
    return set(closed)


class TestSieves:
    def test_fan_sieves_on_b(self, fan_cat):
        sieves = enumerate_sieves(fan_cat, "B")
        got = {s.members for s in sieves}
        assert got == brute_force_sieves(fan_cat, "B")
        assert len(sieves) == 5
        t1 = fan_cat.generator_path(0)
        t3 = fan_cat.generator_path(2)
        id_b = fan_cat.identity("B")
        assert got == {
            frozenset(),
            frozenset({t1}),
            frozenset({t3}),
            frozenset({t1, t3}),
            frozenset({id_b, t1, t3}),
        }

    def test_isolated_object(self):
        cat = build_free_category(parse_kg("A r B\n"))
        # A has only its identity: the empty and the maximal sieve.
        sieves = enumerate_sieves(cat, "A")
        assert {s.members for s in sieves} == {
            frozenset(),
            frozenset({cat.identity("A")}),
        }

    def test_chain_sieves_on_b(self):
        cat = build_free_category(parse_kg("A r B\n"))
        sieves = enumerate_sieves(cat, "B")
        assert len(sieves) == 3
        assert {s.members for s in sieves} == brute_force_sieves(cat, "B")

    def test_cap_exceeded(self):
        lines = "\n".join(f"s{i} r T" for i in range(13))
        cat = build_free_category(parse_kg(lines + "\n"))
        with pytest.raises(SizeCapError):
            enumerate_sieves(cat, "T", cap=12)

    def test_generated_sieve_closure(self):
        cat = build_free_category(parse_kg("A r B\nB s C\n"))
        sieve = sieve_generated_by(cat, "C", [cat.generator_path(1)])
        # Closing {s} under precomposition pulls in r.s.
        assert sieve.members == {
            cat.generator_path(1),
            compose(cat.generator_path(0), cat.generator_path(1)),
        }

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9))
    def test_pullback_functorial(self, seed):
        rng = Random(seed)
        cat = random_small_category(rng, max_entities=5, max_triples=6, sieve_cap=10)
        for obj in cat.objects:
            for sieve in enumerate_sieves(cat, obj, cap=10):
                assert pullback_sieve(cat, sieve, cat.identity(obj)).members == sieve.members
                for g in cat.morphisms_into(obj):
                    pulled = pullback_sieve(cat, sieve, g)
                    for h in cat.morphisms_into(g.source):
                        two_step = pullback_sieve(cat, pulled, h)
                        direct = pullback_sieve(cat, sieve, compose(h, g))
                        assert two_step.members == direct.members


class TestGenerateTopology:
    def test_fan_path_covering_at_b(self, fan_cat, fan_path_site):
        t1 = fan_cat.generator_path(0)
        t3 = fan_cat.generator_path(2)
        covering = {s.members for s in fan_path_site.topology.covering_sieves("B")}
        assert frozenset({t1, t3}) in covering
        assert covering == {
            frozenset({t1, t3}),
            maximal_sieve(fan_cat, "B").members,
        }

    def test_fan_path_sources_only_maximal(self, fan_cat, fan_path_site):
        for obj in ("A", "D"):
            assert {
                s.members for s in fan_path_site.topology.covering_sieves(obj)
            } == {maximal_sieve(fan_cat, obj).members}

    def test_empty_coverage_minimal_topology(self, fan_cat):
        topology = generate_topology(fan_cat, {})
        for obj in fan_cat.objects:
            assert {s.members for s in topology.covering_sieves(obj)} == {
                maximal_sieve(fan_cat, obj).members
            }

    def test_empty_family_rejected(self, fan_cat):
        with pytest.raises(TopologyError):
            generate_topology(fan_cat, {"B": [[]]})

    def test_unknown_topology_name_rejected(self):
        # The name is checked before path enumeration, so a cyclic graph
        # gets the same error.
        with pytest.raises(TopologyError):
            build_site(parse_kg("A r B\nB s A\n"), "discrete")

    def test_atomic_only_maximal(self, fan_cat, fan_atomic_site):
        for obj in fan_cat.objects:
            assert {
                s.members for s in fan_atomic_site.topology.covering_sieves(obj)
            } == {maximal_sieve(fan_cat, obj).members}

    def test_single_object_no_arrows(self):
        from kgtopos import KnowledgeGraph

        cat = build_free_category(KnowledgeGraph(("X",), (), ()))
        for topology in (path_topology(cat), atomic_topology(cat)):
            assert {s.members for s in topology.covering_sieves("X")} == {
                maximal_sieve(cat, "X").members
            }

    def test_chain_saturation_adds_local_sieve(self):
        # On A -r-> B -s-> C transitivity makes {r.s} covering at C: its
        # pullback along s is the covering sieve {r} on B, and along r.s
        # the maximal sieve on A.
        cat = build_free_category(parse_kg("A r B\nB s C\n"))
        topology = path_topology(cat)
        rs = compose(cat.generator_path(0), cat.generator_path(1))
        assert frozenset({rs}) in {
            s.members for s in topology.covering_sieves("C")
        }

    def test_saturation_idempotent(self, fan_cat, fan_path_site):
        regenerated = generate_topology(
            fan_cat,
            {
                obj: [s.sorted_members() for s in fan_path_site.topology.covering_sieves(obj)]
                for obj in fan_cat.objects
            },
        )
        assert regenerated == fan_path_site.topology


class TestAxioms:
    def test_fan_path_passes(self, fan_path_site):
        assert verify_topology_axioms(fan_path_site).passed

    def test_fan_atomic_passes(self, fan_atomic_site):
        assert verify_topology_axioms(fan_atomic_site).passed

    def test_planted_missing_pullback_fails(self):
        # On A -r-> B -s-> C the sieve {r} on B is the pullback of the
        # covering sieve {r.s} on C along s; removing it breaks stability.
        cat = build_free_category(parse_kg("A r B\nB s C\n"))
        topology = path_topology(cat)
        r = cat.generator_path(0)
        broken = dict(topology.covering)
        broken["B"] = frozenset(
            s for s in broken["B"] if s.members != frozenset({r})
        )
        report = verify_topology_axioms(Site(cat, Topology(broken)))
        assert not report.passed
        assert any("stability" in v for v in report.violations)

    def test_planted_missing_maximal_fails(self, fan_cat, fan_path_site):
        broken = dict(fan_path_site.topology.covering)
        broken["A"] = frozenset()
        report = verify_topology_axioms(Site(fan_cat, Topology(broken)))
        assert not report.passed
        assert any("maximality" in v for v in report.violations)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_generated_topologies_pass(self, seed):
        cat = random_small_category(
            Random(seed), max_entities=5, max_triples=6, max_morphisms=40, sieve_cap=10
        )
        for topology in (path_topology(cat), atomic_topology(cat)):
            assert verify_topology_axioms(Site(cat, topology)).passed

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**9))
    def test_saturation_is_minimal(self, seed):
        # The saturation is a least fixpoint: dropping any covering sieve
        # that is not a generator closure or a maximal sieve must violate
        # one of the axioms.
        from kgtopos.sites import path_coverage, sieve_generated_by

        cat = random_small_category(
            Random(seed), max_entities=5, max_triples=5, max_morphisms=30, sieve_cap=8
        )
        topology = path_topology(cat)
        base = {
            obj: {
                sieve_generated_by(cat, obj, family).members
                for family in families
            }
            for obj, families in path_coverage(cat).items()
        }
        for obj in cat.objects:
            for sieve in topology.covering_sieves(obj):
                if sieve.members == maximal_sieve(cat, obj).members:
                    continue
                if sieve.members in base.get(obj, set()):
                    continue
                reduced = dict(topology.covering)
                reduced[obj] = frozenset(
                    s for s in reduced[obj] if s != sieve
                )
                report = verify_topology_axioms(Site(cat, Topology(reduced)))
                assert not report.passed, (
                    f"sieve {sieve.keys()} on {obj} was not forced by saturation"
                )


class TestInclusion:
    def test_atomic_inside_path(self, fan_path_site, fan_atomic_site):
        assert check_inclusion(fan_atomic_site.topology, fan_path_site.topology)

    def test_reflexive(self, fan_path_site):
        assert check_inclusion(fan_path_site.topology, fan_path_site.topology)

    def test_path_not_inside_atomic(self, fan_path_site, fan_atomic_site):
        assert not check_inclusion(fan_path_site.topology, fan_atomic_site.topology)

    def test_object_mismatch_rejected(self, fan_path_site):
        other = build_site(parse_kg("X r Y\n"), "path")
        with pytest.raises(TopologyError):
            check_inclusion(fan_path_site.topology, other.topology)


class TestSiteMorphism:
    def test_identity_from_atomic_to_path(self, fan_cat, fan_path_site, fan_atomic_site):
        report = check_site_morphism(
            identity_functor(fan_cat), fan_atomic_site, fan_path_site
        )
        assert report.passed

    def test_swap_preserves_path_covers(self, fan_kg, fan_cat, fan_path_site):
        functor = induced_functor(swap_hom(fan_kg), fan_cat, fan_cat)
        report = check_site_morphism(functor, fan_path_site, fan_path_site)
        assert report.passed

    def test_target_missing_the_cover_fails_with_witness(
        self, fan_cat, fan_path_site, fan_atomic_site
    ):
        # The image of the two-source covering sieve on B is not covering
        # for the atomic topology, so the identity functor is not a site
        # morphism in this direction.
        report = check_site_morphism(
            identity_functor(fan_cat), fan_path_site, fan_atomic_site
        )
        assert not report.passed
        assert any("B" in violation for violation in report.violations)


class TestExport:
    def test_topology_dump_deterministic(self, fan_path_site):
        first = topology_to_dict(fan_path_site, "path")
        second = topology_to_dict(fan_path_site, "path")
        assert first == second
        assert first["covering"]["B"] == [["0", "2"], ["0", "2", "id@B"]]
