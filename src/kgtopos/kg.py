"""Knowledge graphs, their homomorphisms, parsing and serialization.

A knowledge graph is an ordered list of entities, an ordered list of
predicates and an ordered, duplicate-free list of triples (head,
predicate, tail).  The orders are canonical: every matrix and every
enumeration downstream indexes rows, columns and vertices by them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import (
    CompositionError,
    DuplicateTripleError,
    HomDomainError,
    KgParseError,
    SchemaError,
)


@dataclass(frozen=True)
class Triple:
    """A directed labelled edge head --predicate--> tail."""

    head: str
    predicate: str
    tail: str

    def __str__(self) -> str:
        return f"{self.head} {self.predicate} {self.tail}"


@dataclass(frozen=True, eq=True)
class KnowledgeGraph:
    """Immutable multigraph of labelled triples with canonical orderings.

    Parallel triples (same endpoints, different predicates) and reflexive
    triples are permitted; exact duplicates are not.  Predicates may be
    declared without being used by any triple.
    """

    entities: tuple[str, ...]
    predicates: tuple[str, ...]
    triples: tuple[Triple, ...]

    def __post_init__(self):
        if len(set(self.entities)) != len(self.entities):
            raise ValueError("duplicate entity ids")
        if len(set(self.predicates)) != len(self.predicates):
            raise ValueError("duplicate predicate ids")
        if len(set(self.triples)) != len(self.triples):
            raise ValueError("duplicate triples")
        ents, preds = set(self.entities), set(self.predicates)
        for t in self.triples:
            if t.head not in ents or t.tail not in ents:
                raise ValueError(f"triple {t} references unknown entity")
            if t.predicate not in preds:
                raise ValueError(f"triple {t} references unknown predicate")

    @property
    def entity_count(self) -> int:
        return len(self.entities)

    @property
    def triple_count(self) -> int:
        return len(self.triples)

    @cached_property
    def entity_index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.entities)}

    @cached_property
    def triple_index(self) -> dict[Triple, int]:
        return {t: i for i, t in enumerate(self.triples)}

    @cached_property
    def heads(self) -> tuple[str, ...]:
        """Head entity of each triple, in canonical triple order."""
        return tuple(t.head for t in self.triples)

    @cached_property
    def tails(self) -> tuple[str, ...]:
        return tuple(t.tail for t in self.triples)

    @cached_property
    def head_fibres(self) -> dict[str, tuple[int, ...]]:
        """Indices of the triples each entity heads, ascending.  Every
        entity has a key; one heading no triple maps to ()."""
        return self._fibres(self.heads)

    @cached_property
    def tail_fibres(self) -> dict[str, tuple[int, ...]]:
        """Indices of the triples ending at each entity, ascending."""
        return self._fibres(self.tails)

    def _fibres(self, ends: tuple[str, ...]) -> dict[str, tuple[int, ...]]:
        groups: dict[str, list[int]] = {e: [] for e in self.entities}
        for i, e in enumerate(ends):
            groups[e].append(i)
        return {e: tuple(members) for e, members in groups.items()}

    def to_dict(self) -> dict:
        return {
            "entities": list(self.entities),
            "predicates": list(self.predicates),
            "triples": [[t.head, t.predicate, t.tail] for t in self.triples],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "KnowledgeGraph":
        try:
            entities = tuple(str(e) for e in data["entities"])
            predicates = tuple(str(p) for p in data["predicates"])
            triples = tuple(Triple(*map(str, row)) for row in data["triples"])
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed knowledge graph document: {exc}") from exc
        try:
            return cls(entities, predicates, triples)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc


def parse_kg(text: str) -> KnowledgeGraph:
    """Parse triple-file contents into a KnowledgeGraph.

    One triple per line, three whitespace-separated fields.  Blank lines
    and lines starting with '#' are ignored.  Entities, predicates and
    triples are ordered by first appearance; within a line the head is
    registered before the tail.
    """
    entities: list[str] = []
    predicates: list[str] = []
    triples: list[Triple] = []
    seen_entities: set[str] = set()
    seen_predicates: set[str] = set()
    seen_triples: set[Triple] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise KgParseError(
                f"expected 3 whitespace-separated fields, got {len(fields)}", lineno
            )
        head, predicate, tail = fields
        triple = Triple(head, predicate, tail)
        if triple in seen_triples:
            raise DuplicateTripleError(f"duplicate triple '{triple}'", lineno)
        seen_triples.add(triple)
        for entity in (head, tail):
            if entity not in seen_entities:
                seen_entities.add(entity)
                entities.append(entity)
        if predicate not in seen_predicates:
            seen_predicates.add(predicate)
            predicates.append(predicate)
        triples.append(triple)
    return KnowledgeGraph(tuple(entities), tuple(predicates), tuple(triples))


def serialize_kg(kg: KnowledgeGraph) -> str:
    """JSON serialization preserving all canonical orders."""
    return json.dumps(kg.to_dict(), indent=2) + "\n"


def kg_from_json(text: str) -> KnowledgeGraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return KnowledgeGraph.from_dict(data)


@dataclass(frozen=True)
class KgHomomorphism:
    """Maps of entities and predicates sending triples to triples."""

    source: KnowledgeGraph
    target: KnowledgeGraph
    entity_map: dict[str, str]
    predicate_map: dict[str, str]

    def apply_triple(self, t: Triple) -> Triple:
        return Triple(
            self.entity_map[t.head],
            self.predicate_map[t.predicate],
            self.entity_map[t.tail],
        )


def check_hom(f: KgHomomorphism) -> list[Triple]:
    """The source triples whose image is not a target triple; empty iff
    f is a homomorphism.

    Raises HomDomainError when a map is not total on the source.
    """
    missing_e = [e for e in f.source.entities if e not in f.entity_map]
    missing_p = [p for p in f.source.predicates if p not in f.predicate_map]
    if missing_e or missing_p:
        raise HomDomainError(
            f"map not total: missing entities {missing_e}, predicates {missing_p}"
        )
    target_triples = set(f.target.triples)
    return [t for t in f.source.triples if f.apply_triple(t) not in target_triples]


def compose_homs(g: KgHomomorphism, f: KgHomomorphism) -> KgHomomorphism:
    """Componentwise composite g after f; requires target(f) == source(g)."""
    if f.target != g.source:
        raise CompositionError("target of first homomorphism != source of second")
    return KgHomomorphism(
        f.source,
        g.target,
        {e: g.entity_map[v] for e, v in f.entity_map.items()},
        {p: g.predicate_map[v] for p, v in f.predicate_map.items()},
    )


def entity_adjacency_counts(kg: KnowledgeGraph) -> list[list[int]]:
    """n x n matrix counting triples from entity i to entity j (multigraph)."""
    n = kg.entity_count
    idx = kg.entity_index
    counts = [[0] * n for _ in range(n)]
    for t in kg.triples:
        counts[idx[t.head]][idx[t.tail]] += 1
    return counts


def find_entity_cycle(kg: KnowledgeGraph) -> list[str] | None:
    """A directed entity cycle as a closed walk [e0, ..., e0], or None."""
    succ = {e: [kg.tails[j] for j in fibre] for e, fibre in kg.head_fibres.items()}
    WHITE, GREY, BLACK = 0, 1, 2
    color = {e: WHITE for e in kg.entities}
    parent: dict[str, str] = {}
    for start in kg.entities:
        if color[start] != WHITE:
            continue
        stack: list[tuple[str, Iterable[str]]] = [(start, iter(succ[start]))]
        color[start] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GREY:
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None
