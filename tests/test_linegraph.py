import re
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgtopos import (
    Digraph,
    HomDomainError,
    KgHomomorphism,
    build_in_line,
    build_out_line,
    compose_homs,
    head_partition,
    induced_line_map,
    parse_kg,
    scc,
    tail_partition,
    verify_scc_theorem,
)
from kgtopos.linegraph import to_dot
from kgtopos.randgen import random_hom, random_kg
from kgtopos.verify import _line_map_keeps_edges

from helpers import dense, identity_hom


def brute_force_scc(g: Digraph) -> set[frozenset[int]]:
    """Oracle: mutual reachability by transitive closure."""
    n = g.vertex_count
    reach = [[False] * n for _ in range(n)]
    for v in range(n):
        reach[v][v] = True
        for w in g.adjacency[v]:
            reach[v][w] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    blocks: dict[frozenset[int], set[int]] = {}
    for v in range(n):
        key = frozenset(
            w for w in range(n) if reach[v][w] and reach[w][v]
        )
        blocks.setdefault(key, set()).add(v)
    return {frozenset(b) for b in blocks.values()}


def random_digraph(rng: Random, max_vertices: int = 8) -> Digraph:
    n = rng.randint(0, max_vertices)
    adjacency = []
    for v in range(n):
        neighbours = sorted(
            {w for w in range(n) if w != v and rng.random() < 0.3}
        )
        adjacency.append(tuple(neighbours))
    return Digraph(n, tuple(adjacency))


class TestLineConstruction:
    def test_fan_out_line_edges(self, fan_kg):
        digraph = build_out_line(fan_kg)
        assert digraph.adjacency == ((1,), (0,), (3,), (2,))

    def test_fan_in_line_edges(self, fan_kg):
        digraph = build_in_line(fan_kg)
        assert digraph.adjacency == ((2,), (3,), (0,), (1,))

    def test_single_triple_no_edges(self):
        kg = parse_kg("A r B\n")
        assert build_out_line(kg).adjacency == ((),)

    def test_shared_head_complete(self):
        kg = parse_kg("A r1 B\nA r2 C\nA r3 D\n")
        digraph = build_out_line(kg)
        assert digraph.adjacency == ((1, 2), (0, 2), (0, 1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_adjacency_matrix(self, seed):
        kg = random_kg(Random(seed), max_entities=10, max_triples=25)
        for build, matrix in (
            (build_out_line, dense(kg, "adjacency-out")),
            (build_in_line, dense(kg, "adjacency-in")),
        ):
            digraph = build(kg)
            for i in range(kg.triple_count):
                assert set(digraph.adjacency[i]) == {
                    j for j in range(kg.triple_count) if matrix.get(i, j) == 1
                }


class TestScc:
    def test_fan_components(self, fan_kg):
        assert scc(build_out_line(fan_kg)) == ((0, 1), (2, 3))

    def test_edgeless(self):
        g = Digraph(3, ((), (), ()))
        assert scc(g) == ((0,), (1,), (2,))

    def test_three_cycle(self):
        g = Digraph(3, ((1,), (2,), (0,)))
        assert scc(g) == ((0, 1, 2),)

    def test_two_cycles_bridged(self):
        # 0<->1 -> 2<->3; reachability by hand gives two blocks.
        g = Digraph(4, ((1,), (0, 2), (3,), (2,)))
        assert scc(g) == ((0, 1), (2, 3))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_against_reachability_oracle(self, seed):
        g = random_digraph(Random(seed))
        blocks = scc(g)
        assert set(map(frozenset, blocks)) == brute_force_scc(g)
        # Normal form: each block ascending, blocks by their least vertex.
        assert all(list(b) == sorted(b) for b in blocks)
        assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)


class TestPartitions:
    def test_fan_head_partition(self, fan_kg):
        assert head_partition(fan_kg) == ((0, 1), (2, 3))

    def test_all_distinct_heads(self):
        kg = parse_kg("A r B\nB r C\nC r D\n")
        assert head_partition(kg) == ((0,), (1,), (2,))

    def test_reflexive_head_equals_tail_partition(self):
        kg = parse_kg("X r X\n")
        assert head_partition(kg) == tail_partition(kg) == ((0,),)


class TestSccTheorem:
    def test_fan_passes(self, fan_kg):
        assert verify_scc_theorem(fan_kg) == []

    def test_empty_graph_vacuous(self):
        assert verify_scc_theorem(parse_kg("")) == []

    def test_many_random_graphs(self):
        # Partition refinement by head/tail is the independent oracle the
        # theorem check compares Tarjan against.
        for case in range(500):
            kg = random_kg(Random(f"scc:{case}"), max_entities=20, max_triples=60)
            assert verify_scc_theorem(kg) == []


class TestInducedLineMap:
    def test_identity(self, fan_kg):
        assert induced_line_map(identity_hom(fan_kg)) == (0, 1, 2, 3)

    def test_fan_swap_permutes(self, fan_kg):
        from helpers import swap_hom

        # Image triples computed by hand: t0<->t2 and t1<->t3.
        assert induced_line_map(swap_hom(fan_kg)) == (2, 3, 0, 1)

    def test_non_hom_rejected(self, fan_kg):
        broken = KgHomomorphism(
            fan_kg,
            fan_kg,
            {"A": "B", "B": "B", "C": "C", "D": "D"},
            {p: p for p in fan_kg.predicates},
        )
        with pytest.raises(HomDomainError):
            induced_line_map(broken)

    def test_edge_check_rejects_a_non_edge_image(self, fan_kg):
        # Swapping t1 and t2 sends the out-line edge t0 -> t1 (head A) to
        # t0 -> t2, whose heads A and D differ.
        identity = identity_hom(fan_kg)
        assert _line_map_keeps_edges(identity, (0, 1, 2, 3))
        assert not _line_map_keeps_edges(identity, (0, 2, 1, 3))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_functor_laws_on_chains(self, seed):
        rng = Random(seed)
        kg = random_kg(rng, max_entities=8, max_triples=12)
        f = random_hom(rng, kg)
        g = random_hom(rng, f.target)
        gf = compose_homs(g, f)
        map_f = induced_line_map(f)
        map_g = induced_line_map(g)
        map_gf = induced_line_map(gf)
        for h, vertex_map in ((f, map_f), (g, map_g), (gf, map_gf)):
            assert _line_map_keeps_edges(h, vertex_map)
        assert map_gf == tuple(map_g[v] for v in map_f)
        assert induced_line_map(identity_hom(kg)) == tuple(range(kg.triple_count))


class TestDotExport:
    def test_fan_out_line(self, fan_kg):
        dot = to_dot(build_out_line(fan_kg), fan_kg, name="out_line")
        assert dot.startswith("digraph out_line {")
        assert 't0 [label="A --r1--> B"];' in dot
        assert "t0 -> t1;" in dot and "t1 -> t0;" in dot
        assert dot.endswith("}\n")

    @settings(max_examples=100, deadline=None)
    @example([('a"b', "r", "c"), ("a", "r", "c\\")])
    @given(st.lists(
        st.tuples(*[st.text(alphabet='ab"\\', min_size=1, max_size=4)] * 3),
        min_size=1, max_size=4, unique=True,
    ))
    def test_labels_stay_one_quoted_string(self, triples):
        # Names may hold double quotes and backslashes, a trailing one
        # included; each label must unescape to its own triple.
        kg = parse_kg("".join(f"{h} {p} {t}\n" for h, p, t in triples))
        lines = to_dot(build_out_line(kg), kg).splitlines()
        quoted = re.compile(r'  t(\d+) \[label="((?:[^"\\]|\\.)*)"\];')
        for i, t in enumerate(kg.triples):
            match = quoted.fullmatch(lines[1 + i])
            assert match and int(match[1]) == i
            label = re.sub(r"\\(.)", r"\1", match[2])
            assert label == f"{t.head} --{t.predicate}--> {t.tail}"

    def test_deterministic(self, fan_kg):
        first = to_dot(build_out_line(fan_kg), fan_kg)
        second = to_dot(build_out_line(fan_kg), fan_kg)
        assert first == second
