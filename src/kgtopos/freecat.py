"""Free categories of knowledge graphs with explicit finite hom-sets.

Objects are entities, generating morphisms are triples, and general
morphisms are composable paths of triples composed diagrammatically
(left to right).  Hom-sets are enumerated exhaustively, which requires
the entity digraph to be acyclic or an explicit length bound.  A functor
between free categories is fixed by its images of objects and
generators: extend_functor extends them, and induced_functor reads them
off a graph homomorphism.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping

from .errors import (
    CategoryLawError,
    CategoryNotClosedError,
    CompositionError,
    InfiniteCategoryError,
    TypingError,
)
from .kg import KgHomomorphism, KnowledgeGraph, check_hom, find_entity_cycle


@dataclass(frozen=True)
class Path:
    """A composable sequence of triple indices from source to target.

    The empty sequence is the identity at an object.  Arrows are listed
    in diagrammatic order: arrows[k] ends where arrows[k+1] starts.
    """

    source: str
    target: str
    arrows: tuple[int, ...]

    def __post_init__(self):
        if not self.arrows and self.source != self.target:
            raise ValueError("empty path must start and end at the same object")

    @property
    def is_identity(self) -> bool:
        return not self.arrows

    def __len__(self) -> int:
        return len(self.arrows)


def path_key(path: Path) -> str:
    """Stable textual key: 'id@obj' for identities, dotted arrow indices else."""
    if path.is_identity:
        return f"id@{path.source}"
    return ".".join(map(str, path.arrows))


def compose(p: Path, q: Path) -> Path:
    """Concatenation p-then-q; requires target(p) == source(q)."""
    if p.target != q.source:
        raise CompositionError(
            f"cannot compose: first path ends at {p.target}, second starts at {q.source}"
        )
    return Path(p.source, q.target, p.arrows + q.arrows)


@dataclass(eq=False, slots=True)
class KeyIndex:
    """The morphisms into one object b, numbered in path_key order, so a
    set of them is an int whose bit k stands for paths[k]; its ascending
    bits give the members' keys already sorted.

    For each triple i: a -> b, push[i][k] is the one-bit mask, here, of
    h.i for the k-th morphism h into a, and pull[i][k] is the one-bit
    mask, at a, of the prefix of the k-th morphism here when that
    morphism ends with i, else 0.  gather moves a set along a table."""

    obj: str
    paths: tuple[Path, ...]
    keys: tuple[str, ...]
    bits: dict[tuple[int, ...], int]
    push: dict[int, tuple[int, ...]]
    pull: dict[int, tuple[int, ...]]

    @property
    def full(self) -> int:
        return (1 << len(self.paths)) - 1


def gather(table: tuple[int, ...], mask: int) -> int:
    """The union of table[k] over the set bits k of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


@dataclass(frozen=True)
class FreeCategory:
    """Explicitly enumerated path category of a knowledge graph.

    `complete` records whether the hom-sets are closed under composition;
    it is False exactly when a length bound truncated the enumeration.
    Operations that rely on closure refuse incomplete categories.
    `hom_sets` holds the nonempty hom-sets only, keyed in the order of
    (source, target) entity indexes, so one pass over it visits every
    morphism in the order of a walk over all pairs of objects.
    """

    kg: KnowledgeGraph
    hom_sets: dict[tuple[str, str], tuple[Path, ...]]
    max_length: int | None
    complete: bool

    @property
    def objects(self) -> tuple[str, ...]:
        return self.kg.entities

    @property
    def generators(self):
        return self.kg.triples

    def identity(self, obj: str) -> Path:
        return Path(obj, obj, ())

    def generator_path(self, index: int) -> Path:
        t = self.kg.triples[index]
        return Path(t.head, t.tail, (index,))

    def hom(self, a: str, b: str) -> tuple[Path, ...]:
        return self.hom_sets.get((a, b), ())

    def morphisms(self) -> Iterable[Path]:
        return chain.from_iterable(self.hom_sets.values())

    @cached_property
    def total_morphisms(self) -> int:
        return sum(len(paths) for paths in self.hom_sets.values())

    @cached_property
    def _into(self) -> dict[str, tuple[Path, ...]]:
        table: dict[str, list[Path]] = {obj: [] for obj in self.objects}
        for (_, b), paths in self.hom_sets.items():
            table[b].extend(paths)
        return {obj: tuple(ps) for obj, ps in table.items()}

    def morphisms_into(self, obj: str) -> tuple[Path, ...]:
        return self._into[obj]

    @cached_property
    def key_index(self) -> dict[str, KeyIndex]:
        """Per object, the morphisms into it numbered in path_key order,
        with the tables of the triples into it.  Built on first use, by
        the sieve code; build_free_category does not pay for it."""
        return _key_indexes(self)

    def require_complete(self, operation: str) -> None:
        if not self.complete:
            raise CategoryNotClosedError(
                f"{operation} needs composition-closed hom-sets; "
                f"the length bound {self.max_length} truncated enumeration"
            )

    def to_dict(self) -> dict:
        homs = {
            f"{a}->{b}": [list(p.arrows) for p in paths]
            for (a, b), paths in self.hom_sets.items()
        }
        return {
            "objects": list(self.objects),
            "generators": [[t.head, t.predicate, t.tail] for t in self.generators],
            "max_length": self.max_length,
            "complete": self.complete,
            "hom_sets": homs,
        }


def _key_indexes(cat: FreeCategory) -> dict[str, KeyIndex]:
    """FreeCategory.key_index, for every object at once."""
    cat.require_complete("the sieve index")
    order, bits = {}, {}
    for obj in cat.objects:
        # Keys are unique among the morphisms into one object, so the
        # pairs sort by key alone.
        order[obj] = sorted([(path_key(p), p) for p in cat.morphisms_into(obj)])
        bits[obj] = {p.arrows: k for k, (_, p) in enumerate(order[obj])}
    triples, indexes = cat.kg.triples, {}
    for obj, pairs in order.items():
        here, push, pull = bits[obj], {}, {}
        for i in cat.kg.tail_fibres[obj]:
            # bits[head] lists the arrows of the morphisms into head in key order.
            images = [here[arrows + (i,)] for arrows in bits[triples[i].head]]
            table = [0] * len(pairs)
            for k, image in enumerate(images):
                table[image] = 1 << k
            push[i], pull[i] = tuple([1 << image for image in images]), tuple(table)
        keys, paths = zip(*pairs)
        indexes[obj] = KeyIndex(obj, paths, keys, here, push, pull)
    return indexes


def build_free_category(
    kg: KnowledgeGraph, max_length: int | None = None
) -> FreeCategory:
    """Enumerate all composable paths, exhaustively or up to max_length.

    Raises InfiniteCategoryError (with a cycle witness) for a cyclic
    entity digraph when no bound is supplied.
    """
    if max_length is None:
        cycle = find_entity_cycle(kg)
        if cycle is not None:
            raise InfiniteCategoryError(cycle)
    elif max_length < 0:
        raise ValueError("max_length must be non-negative")

    successors = kg.head_fibres
    hom: dict[tuple[str, str], list[Path]] = {}
    complete = True

    def add(path: Path) -> None:
        hom.setdefault((path.source, path.target), []).append(path)

    queue: deque[Path] = deque()
    for e in kg.entities:
        identity = Path(e, e, ())
        add(identity)
        queue.append(identity)
    while queue:
        path = queue.popleft()
        extensions = successors[path.target]
        if max_length is not None and len(path) >= max_length:
            if extensions:
                complete = False
            continue
        for j in extensions:
            extended = Path(path.source, kg.triples[j].tail, path.arrows + (j,))
            add(extended)
            queue.append(extended)

    rank = kg.entity_index
    hom_sets = {
        (a, b): tuple(sorted(hom[a, b], key=lambda p: p.arrows))
        for a, b in sorted(hom, key=lambda ab: (rank[ab[0]], rank[ab[1]]))
    }
    return FreeCategory(kg, hom_sets, max_length, complete)


@dataclass(frozen=True)
class Functor:
    """Structure-preserving map between free categories.

    Validated exhaustively on construction: identities, endpoints and all
    enumerated compositions are preserved.
    """

    source: FreeCategory
    target: FreeCategory
    object_map: dict
    morphism_map: dict

    def __post_init__(self):
        self.source.require_complete("Functor validation")
        failures = self.law_failures()
        if failures:
            raise CategoryLawError("; ".join(failures[:3]))

    def law_failures(self) -> list[str]:
        failures: list[str] = []
        for obj in self.source.objects:
            image = self.morphism_map.get(self.source.identity(obj))
            if image != self.target.identity(self.object_map[obj]):
                failures.append(f"identity at {obj} not preserved")
        for p in self.source.morphisms():
            image = self.morphism_map.get(p)
            if image is None:
                failures.append(f"no image for path {path_key(p)}")
                continue
            if (image.source, image.target) != (
                self.object_map[p.source],
                self.object_map[p.target],
            ):
                failures.append(f"endpoints of {path_key(p)} not preserved")
        out_of: dict[str, list[Path]] = {b: [] for b in self.source.objects}
        for (b, _), paths in self.source.hom_sets.items():
            out_of[b].extend(paths)
        for (_, b), paths in self.source.hom_sets.items():
            for p in paths:
                for q in out_of[b]:
                    want = compose(self.morphism_map[p], self.morphism_map[q])
                    if self.morphism_map.get(compose(p, q)) != want:
                        failures.append(
                            f"composition {path_key(p)};{path_key(q)} not preserved"
                        )
        return failures


def extend_functor(
    cat: FreeCategory,
    object_assignment: Mapping[str, str],
    generator_assignment: Mapping[int, Path],
    target: FreeCategory,
) -> Functor:
    """The unique functor extending assignments on objects and generators
    (the universal property of the free category).

    Each enumerated path maps to the left-to-right composite of its
    generators' images in `target`.  Raises TypingError when a generator
    image has endpoints that disagree with the object assignment.
    """
    cat.require_complete("extend_functor")
    kg = cat.kg
    for obj in cat.objects:
        if obj not in object_assignment:
            raise TypingError(f"no object assignment for {obj}")
    for i, t in enumerate(kg.triples):
        if i not in generator_assignment:
            raise TypingError(f"no generator assignment for triple {i} ({t})")
        image = generator_assignment[i]
        if image.source != object_assignment[t.head]:
            raise TypingError(f"generator {i} image has wrong domain")
        if image.target != object_assignment[t.tail]:
            raise TypingError(f"generator {i} image has wrong codomain")
    morphism_map = {}
    for p in cat.morphisms():
        image = target.identity(object_assignment[p.source])
        for arrow in p.arrows:
            image = compose(image, generator_assignment[arrow])
        morphism_map[p] = image
    return Functor(cat, target, dict(object_assignment), morphism_map)


def identity_functor(cat: FreeCategory) -> Functor:
    return Functor(
        cat,
        cat,
        {obj: obj for obj in cat.objects},
        {p: p for p in cat.morphisms()},
    )


def induced_functor(
    f: KgHomomorphism,
    source_cat: FreeCategory | None = None,
    target_cat: FreeCategory | None = None,
) -> Functor:
    """Functor between free categories induced by a graph homomorphism:
    objects map by the entity map, paths arrowwise by the triple map."""
    violations = check_hom(f)
    if violations:
        raise TypingError(
            f"not a homomorphism; {len(violations)} source triples "
            "have no image triple"
        )
    if source_cat is None:
        source_cat = build_free_category(f.source)
    if target_cat is None:
        target_cat = build_free_category(f.target)
    source_cat.require_complete("induced_functor")
    triple_map = [
        f.target.triple_index[f.apply_triple(t)] for t in f.source.triples
    ]
    object_map = {e: f.entity_map[e] for e in f.source.entities}
    morphism_map = {
        p: Path(
            object_map[p.source],
            object_map[p.target],
            tuple(triple_map[a] for a in p.arrows),
        )
        for p in source_cat.morphisms()
    }
    return Functor(source_cat, target_cat, object_map, morphism_map)


def compose_functors(g: Functor, f: Functor) -> Functor:
    """Composite g after f."""
    if f.target is not g.source and f.target != g.source:
        raise CompositionError("functor targets and sources do not match")
    return Functor(
        f.source,
        g.target,
        {obj: g.object_map[v] for obj, v in f.object_map.items()},
        {p: g.morphism_map[image] for p, image in f.morphism_map.items()},
    )
