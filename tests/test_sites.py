import json
import time
from itertools import combinations
from pathlib import Path
from random import Random

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from kgtopos import (
    CategoryNotClosedError,
    Site,
    SizeCapError,
    TopologyError,
    atomic_topology,
    build_free_category,
    build_site,
    check_inclusion,
    compose,
    enumerate_sieves,
    generate_topology,
    parse_kg,
    path_topology,
    pullback_sieve,
    sieve_generated_by,
    verify_topology_axioms,
)
from kgtopos import sites
from kgtopos.freecat import path_key
from kgtopos import verify as verify_module
from kgtopos.cli import main
from kgtopos.randgen import random_small_category
from kgtopos.sites import maximal_sieve, path_coverage, topology_to_dict

FAN = str(Path(__file__).parent / "data" / "fan.txt")


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


def random_category(seed):
    # About three in eight of these draws have parallel paths.
    return random_small_category(Random(seed), max_entities=5, max_triples=6, sieve_cap=10)


PARALLEL = "A r B\nA s B\nB t C\n"  # r.t and s.t run from A to C


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

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9))
    def test_pullback_matches_its_definition(self, seed):
        # g*S = {h into dom g : h.g in S}, composing every such h, along
        # every morphism: identities, composites and parallel paths.
        for cat in (random_category(seed), build_free_category(parse_kg(PARALLEL))):
            for obj in cat.objects:
                for sieve in enumerate_sieves(cat, obj, cap=10):
                    for g in cat.morphisms_into(obj):
                        definition = {
                            h
                            for h in cat.morphisms_into(g.source)
                            if compose(h, g) in sieve.members
                        }
                        pulled = pullback_sieve(cat, sieve, g)
                        assert pulled.obj == g.source
                        assert pulled.members == definition


class TestSieveMasks:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_ascending_bits_follow_path_key_order(self, seed):
        cat = random_category(seed)
        for obj in cat.objects:
            index = cat.key_index[obj]
            assert sorted(cat.morphisms_into(obj), key=path_key) == list(index.paths)
            assert list(index.keys) == sorted(map(path_key, index.paths))
            assert all(index.bits[p.arrows] == k for k, p in enumerate(index.paths))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_keys_are_the_sorted_member_keys(self, seed):
        for cat in (random_category(seed), build_free_category(parse_kg(PARALLEL))):
            for obj in cat.objects:
                for sieve in enumerate_sieves(cat, obj, cap=10):
                    assert sieve.keys() == sorted(map(path_key, sieve.members))
                    assert list(map(path_key, sieve.in_key_order())) == sieve.keys()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_enumeration_matches_brute_force(self, seed):
        cat = random_category(seed)
        for obj in cat.objects:
            sieves = enumerate_sieves(cat, obj, cap=10)
            assert len({s.members for s in sieves}) == len(sieves)
            assert {s.members for s in sieves} == brute_force_sieves(cat, obj)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**9))
    def test_equality_and_hash_read_obj_and_mask(self, seed):
        # Sieves from two builds of the same graph share only their object
        # and mask; the index and a cached members view take no part.
        cat = random_category(seed)
        twin = build_free_category(cat.kg)
        stranger = cat.key_index[cat.objects[0]]
        for obj in cat.objects:
            ours = enumerate_sieves(cat, obj, cap=10)
            for a, b in zip(ours, enumerate_sieves(twin, obj, cap=10), strict=True):
                _ = a.members
                assert a.index is not b.index
                assert a == b and hash(a) == hash(b)
                assert a == sites.Sieve(obj, a.mask, stranger)
                assert a != sites.Sieve(obj + "'", a.mask, a.index)
            assert all(a != b for a, b in combinations(ours, 2))


class TestGenerateTopology:
    def test_fan_path_covering_at_b(self, fan_cat, fan_path_site):
        t1 = fan_cat.generator_path(0)
        t3 = fan_cat.generator_path(2)
        covering = {s.members for s in fan_path_site.covering_sieves("B")}
        assert frozenset({t1, t3}) in covering
        assert covering == {
            frozenset({t1, t3}),
            maximal_sieve(fan_cat, "B").members,
        }

    def test_fan_path_sources_only_maximal(self, fan_cat, fan_path_site):
        for obj in ("A", "D"):
            assert {
                s.members for s in fan_path_site.covering_sieves(obj)
            } == {maximal_sieve(fan_cat, obj).members}

    def test_empty_coverage_minimal_topology(self, fan_cat):
        site = generate_topology(fan_cat, {})
        for obj in fan_cat.objects:
            assert {s.members for s in site.covering_sieves(obj)} == {
                maximal_sieve(fan_cat, obj).members
            }

    def test_empty_family_rejected(self, fan_cat):
        with pytest.raises(TopologyError):
            generate_topology(fan_cat, {"B": [[]]})

    def test_unknown_topology_name_rejected(self, fan_kg):
        # The name is checked before path enumeration, so a cyclic graph
        # gets the same error.
        for kg in (fan_kg, parse_kg("A r B\nB s A\n")):
            with pytest.raises(TopologyError, match="unknown topology 'bogus'"):
                build_site(kg, "bogus")

    def test_minimum_missing_an_object_rejected(self, fan_cat, fan_path_site):
        minimum = {obj: m for obj, m in fan_path_site.minimum.items() if obj != "B"}
        with pytest.raises(
            TopologyError, match="topology objects differ from category objects"
        ):
            Site(fan_cat, minimum)

    def test_atomic_only_maximal(self, fan_cat, fan_atomic_site):
        for obj in fan_cat.objects:
            assert {
                s.members for s in fan_atomic_site.covering_sieves(obj)
            } == {maximal_sieve(fan_cat, obj).members}

    def test_single_object_no_arrows(self):
        from kgtopos import KnowledgeGraph

        cat = build_free_category(KnowledgeGraph(("X",), (), ()))
        for site in (path_topology(cat), atomic_topology(cat)):
            assert {s.members for s in site.covering_sieves("X")} == {
                maximal_sieve(cat, "X").members
            }

    def test_chain_saturation_adds_local_sieve(self):
        # On A -r-> B -s-> C transitivity makes {r.s} covering at C: its
        # pullback along s is the covering sieve {r} on B, and along r.s
        # the maximal sieve on A.
        cat = build_free_category(parse_kg("A r B\nB s C\n"))
        site = path_topology(cat)
        rs = compose(cat.generator_path(0), cat.generator_path(1))
        assert frozenset({rs}) in {s.members for s in site.covering_sieves("C")}

    def test_saturation_idempotent(self, fan_cat, fan_path_site):
        regenerated = generate_topology(
            fan_cat,
            {
                obj: [s.sorted_members() for s in fan_path_site.covering_sieves(obj)]
                for obj in fan_cat.objects
            },
        )
        assert regenerated == fan_path_site


class TestAxioms:
    def test_fan_path_passes(self, fan_path_site):
        assert verify_topology_axioms(fan_path_site) == []

    def test_fan_atomic_passes(self, fan_atomic_site):
        assert verify_topology_axioms(fan_atomic_site) == []

    def test_planted_missing_pullback_fails(self):
        # On A -r-> B -s-> C the sieve {r} on B is the pullback of the
        # covering sieve {r.s} on C along s; with M(B) maximal, {r} no
        # longer covers, which breaks stability.
        cat = build_free_category(parse_kg("A r B\nB s C\n"))
        broken = dict(path_topology(cat).minimum)
        broken["B"] = maximal_sieve(cat, "B")
        violations = verify_topology_axioms(Site(cat, broken))
        assert any("stability" in v for v in violations)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_generated_topologies_pass(self, seed):
        cat = random_small_category(
            Random(seed), max_entities=5, max_triples=6, max_morphisms=40, sieve_cap=10
        )
        for site in (path_topology(cat), atomic_topology(cat)):
            assert verify_topology_axioms(site) == []

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**9))
    def test_saturation_is_minimal(self, seed):
        # The saturation is a least fixpoint: raising M(b) to any larger
        # covering sieve other than the maximal one drops M(b) but keeps
        # the sieve of the triples into b covering, so it must violate
        # one of the axioms.
        cat = random_small_category(
            Random(seed), max_entities=5, max_triples=5, max_morphisms=30, sieve_cap=8
        )
        site = path_topology(cat)
        for obj in cat.objects:
            for sieve in site.covering_sieves(obj):
                if sieve in (site.minimum[obj], maximal_sieve(cat, obj)):
                    continue
                higher = {**site.minimum, obj: sieve}
                assert verify_topology_axioms(Site(cat, higher)), (
                    f"M({obj}) = {site.minimum[obj].keys()} was not forced by saturation"
                )


class TestInclusion:
    def test_atomic_inside_path(self, fan_path_site, fan_atomic_site):
        assert check_inclusion(fan_atomic_site, fan_path_site)

    def test_reflexive(self, fan_path_site):
        assert check_inclusion(fan_path_site, fan_path_site)

    def test_path_not_inside_atomic(self, fan_path_site, fan_atomic_site):
        assert not check_inclusion(fan_path_site, fan_atomic_site)

    def test_object_mismatch_rejected(self, fan_path_site):
        other = build_site(parse_kg("X r Y\n"), "path")
        with pytest.raises(TopologyError):
            check_inclusion(fan_path_site, other)


def isomorphism_coverage(cat):
    return {
        obj: [[iso] for iso in verify_module._isomorphisms_into(cat, obj)]
        for obj in cat.objects
    }


def layered_dag_text(width, layers):
    """`layers` layers of `width` entities, each pointing at every entity
    of the next layer."""
    names = [[f"L{k}n{i}" for i in range(width)] for k in range(layers)]
    edges = [(a, b) for upper, lower in zip(names, names[1:]) for a in upper for b in lower]
    return "".join(f"{a} r{n} {b}\n" for n, (a, b) in enumerate(edges))


def raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


class TestClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_saturation(self, seed):
        cat = random_small_category(
            Random(seed), max_entities=6, max_triples=7, max_morphisms=60, sieve_cap=10
        )
        assert path_topology(cat, 10) == generate_topology(cat, path_coverage(cat), 10)
        assert atomic_topology(cat, 10) == generate_topology(
            cat, isomorphism_coverage(cat), 10
        )

    def test_sieve_cap_parity(self):
        # Thirteen morphisms into T and into U; the first object over the
        # cap in entity order is the one reported.
        text = "".join(f"s{i} r T\n" for i in range(12)) + "".join(
            f"u{i} r U\n" for i in range(12)
        )
        cat = build_free_category(parse_kg(text))
        expected = raised(lambda: generate_topology(cat, path_coverage(cat), 12))
        assert expected == (
            SizeCapError,
            "13 morphisms into T exceeds the sieve cap 12; "
            "use a smaller graph or raise the cap",
        )
        assert raised(lambda: path_topology(cat, 12)) == expected
        assert raised(lambda: atomic_topology(cat, 12)) == expected

    def test_truncated_category_parity(self):
        cat = build_free_category(parse_kg("A r B\nB s C\n"), max_length=1)
        expected = raised(lambda: generate_topology(cat, path_coverage(cat)))
        assert expected[0] is CategoryNotClosedError
        assert raised(lambda: path_topology(cat)) == expected
        assert raised(lambda: atomic_topology(cat)) == expected

    def test_layered_dag_covers_within_budget(self):
        # Five layers of two: 31 morphisms into each sink, whose sieve
        # lattice saturation would scan as 2^31 bitmasks.
        runner = CliRunner()
        with runner.isolated_filesystem():
            with open("dag.txt", "w") as handle:
                handle.write(layered_dag_text(2, 5))
            start = time.perf_counter()
            result = runner.invoke(
                main, ["covers", "dag.txt", "--topology", "path", "--sieve-cap", "31"]
            )
            elapsed = time.perf_counter() - start
        assert result.exit_code == 0
        covering = json.loads(result.output)["covering"]
        assert {obj: len(covering[obj]) for obj in ("L4n0", "L4n1")} == {
            "L4n0": 677,
            "L4n1": 677,
        }
        assert elapsed < 1.0

    def test_planted_missing_sieve_fails_verify(self, monkeypatch):
        # M(B) maximal drops the covering sieve {t1, t3} on B and keeps
        # the axioms intact on the fan, so only the saturation oracle can
        # see it.
        real = sites.path_topology

        def planted(cat, sieve_cap=sites.DEFAULT_SIEVE_CAP):
            minimum = dict(real(cat, sieve_cap).minimum)
            for obj in cat.objects:
                if minimum[obj] != maximal_sieve(cat, obj):
                    minimum[obj] = maximal_sieve(cat, obj)
                    break
            return Site(cat, minimum)

        monkeypatch.setattr(verify_module, "path_topology", planted)
        result = CliRunner().invoke(
            main,
            ["verify", FAN, "--random", "--cases", "8", "--seed", "3"],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        failed = [
            line.split()[1] for line in result.output.splitlines()
            if line.startswith("FAIL")
        ]
        assert "sites.axioms" in failed
        assert "suite.topologies[2]" in failed


class TestExport:
    def test_topology_dump_deterministic(self, fan_path_site):
        first = topology_to_dict(fan_path_site, "path")
        second = topology_to_dict(fan_path_site, "path")
        assert first == second
        assert first["covering"]["B"] == [["0", "2"], ["0", "2", "id@B"]]
