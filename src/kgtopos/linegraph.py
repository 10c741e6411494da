"""Line digraphs on triples, strongly connected components, and the
structure checks tying components to head/tail fibres."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import HomDomainError
from .kg import KgHomomorphism, KnowledgeGraph, check_hom


@dataclass(frozen=True)
class Digraph:
    """Finite digraph; adjacency lists are sorted and duplicate-free."""

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.adjacency) != self.vertex_count:
            raise ValueError("adjacency length != vertex count")
        for neighbours in self.adjacency:
            if list(neighbours) != sorted(set(neighbours)):
                raise ValueError("neighbour lists must be sorted and duplicate-free")
            if any(w < 0 or w >= self.vertex_count for w in neighbours):
                raise ValueError("neighbour index out of range")

    def edges(self) -> Iterable[tuple[int, int]]:
        for v, neighbours in enumerate(self.adjacency):
            for w in neighbours:
                yield v, w


def _normal_form(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """A partition's blocks, each ascending, ordered by their least vertex."""
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def _grouped_line(m: int, fibres: dict[str, tuple[int, ...]]) -> Digraph:
    adjacency: list[tuple[int, ...]] = [()] * m
    for members in fibres.values():
        for i in members:
            adjacency[i] = tuple(j for j in members if j != i)
    return Digraph(m, tuple(adjacency))


def build_out_line(kg: KnowledgeGraph) -> Digraph:
    """Digraph on triples with an edge i -> j iff i != j and heads coincide."""
    return _grouped_line(kg.triple_count, kg.head_fibres)


def build_in_line(kg: KnowledgeGraph) -> Digraph:
    """Digraph on triples with an edge i -> j iff i != j and tails coincide."""
    return _grouped_line(kg.triple_count, kg.tail_fibres)


def scc(g: Digraph) -> tuple[tuple[int, ...], ...]:
    """Strongly connected components via iterative Tarjan, linear time,
    in normal form.  The line digraphs' components are their fibres, so
    this serves as verify_scc_theorem's independent route."""
    n = g.vertex_count
    index: list[int | None] = [None] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    components: list[list[int]] = []

    for root in range(n):
        if index[root] is not None:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pointer = work[-1]
            if pointer == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            neighbours = g.adjacency[v]
            for k in range(pointer, len(neighbours)):
                w = neighbours[k]
                if index[w] is None:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
    return _normal_form(components)


def head_partition(kg: KnowledgeGraph) -> tuple[tuple[int, ...], ...]:
    """Triples grouped by head entity (nonempty fibres only), in normal
    form: the components of the out-line digraph."""
    return _normal_form(f for f in kg.head_fibres.values() if f)


def tail_partition(kg: KnowledgeGraph) -> tuple[tuple[int, ...], ...]:
    """Triples grouped by tail entity: the in-line digraph's components."""
    return _normal_form(f for f in kg.tail_fibres.values() if f)


def verify_scc_theorem(kg: KnowledgeGraph) -> list[str]:
    """The violations of line-digraph components equalling head/tail
    fibres and of every vertex in a fibre of size k having in- and
    out-degree k-1."""
    failures: list[str] = []
    for label, build, fibres in (
        ("out", build_out_line, head_partition),
        ("in", build_in_line, tail_partition),
    ):
        digraph = build(kg)
        components = scc(digraph)
        expected = fibres(kg)
        if components != expected:
            failures.append(
                f"{label}-line components {sorted(map(sorted, components))} "
                f"!= fibre partition {sorted(map(sorted, expected))}"
            )
        in_degree = [0] * digraph.vertex_count
        for _, w in digraph.edges():
            in_degree[w] += 1
        for block in expected:
            want = len(block) - 1
            for v in block:
                out_deg = len(digraph.adjacency[v])
                if out_deg != want or in_degree[v] != want:
                    failures.append(
                        f"{label}-line vertex {v}: degree (out={out_deg}, "
                        f"in={in_degree[v]}) != {want}"
                    )
    return failures


def induced_line_map(f: KgHomomorphism) -> tuple[int, ...]:
    """Vertex map on triples induced by a homomorphism: each source triple
    goes to its image triple's canonical index in the target."""
    violations = check_hom(f)
    if violations:
        raise HomDomainError(
            f"not a homomorphism; {len(violations)} triples have no image"
        )
    target_index = f.target.triple_index
    return tuple(target_index[f.apply_triple(t)] for t in f.source.triples)


def to_dot(digraph: Digraph, kg: KnowledgeGraph, name: str = "line") -> str:
    """DOT rendering with triple labels on vertices, deterministic order;
    names are escaped so that each label stays one quoted string."""
    lines = [f"digraph {name} {{"]
    for i, t in enumerate(kg.triples):
        label = f"{t.head} --{t.predicate}--> {t.tail}"
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  t{i} [label="{label}"];')
    for v, w in digraph.edges():
        lines.append(f"  t{v} -> t{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"
