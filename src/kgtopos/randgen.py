"""Seeded random knowledge graphs, homomorphisms and presheaves.

Everything here is driven by an explicit random.Random instance so that
property suites and the CLI verifier are reproducible bit for bit.
"""

from __future__ import annotations

from itertools import chain
from random import Random
from typing import Iterable

from .errors import SizeCapError
from .freecat import FreeCategory, build_free_category
from .kg import KgHomomorphism, KnowledgeGraph, Triple, find_entity_cycle
from .sheaves import Presheaf
from .sites import DEFAULT_SIEVE_CAP

SAMPLE_ATTEMPTS = 200


def random_kg(
    rng: Random,
    max_entities: int = 20,
    max_triples: int = 60,
    acyclic: bool = False,
) -> KnowledgeGraph:
    """A random multigraph; with acyclic=True triples only point from
    lower to higher entity index, so the entity digraph is a DAG."""
    n = rng.randint(1, max_entities)
    entities = tuple(f"e{i}" for i in range(n))
    predicates = tuple(f"p{i}" for i in range(rng.randint(1, 4)))
    target_m = rng.randint(0, max_triples)
    triples: list[Triple] = []
    seen: set[Triple] = set()
    for _ in range(target_m * 3):
        if len(triples) >= target_m:
            break
        if acyclic:
            if n < 2:
                break
            i = rng.randrange(0, n - 1)
            j = rng.randrange(i + 1, n)
        else:
            i = rng.randrange(n)
            j = rng.randrange(n)
        t = Triple(entities[i], rng.choice(predicates), entities[j])
        if t not in seen:
            seen.add(t)
            triples.append(t)
    return KnowledgeGraph(entities, predicates, tuple(triples))


def random_acyclic_kg(
    rng: Random, max_entities: int = 10, max_triples: int = 12
) -> KnowledgeGraph:
    return random_kg(rng, max_entities, max_triples, acyclic=True)


def random_small_category(
    rng: Random,
    max_entities: int = 8,
    max_triples: int = 10,
    max_morphisms: int = 300,
    sieve_cap: int = DEFAULT_SIEVE_CAP,
) -> FreeCategory:
    """A random acyclic free category kept within enumeration caps: total
    morphism count bounded and at most sieve_cap morphisms into any object.
    Raises SizeCapError when SAMPLE_ATTEMPTS draws all miss the caps."""
    for _ in range(SAMPLE_ATTEMPTS):
        kg = random_acyclic_kg(rng, max_entities, max_triples)
        cat = build_free_category(kg)
        if cat.total_morphisms > max_morphisms:
            continue
        if all(
            len(cat.morphisms_into(obj)) <= sieve_cap for obj in cat.objects
        ):
            return cat
    raise SizeCapError(
        f"no category within {max_morphisms} morphisms and sieve cap {sieve_cap} "
        f"in {SAMPLE_ATTEMPTS} draws"
    )


def _image_graph(
    source: KnowledgeGraph,
    entity_map: dict[str, str],
    predicate_map: dict[str, str],
    extra: Iterable[Triple] = (),
) -> KnowledgeGraph:
    """The image of `source` under the maps, plus `extra` triples; names
    and triples keep their first-appearance order, duplicates dropped."""
    images = (
        Triple(entity_map[t.head], predicate_map[t.predicate], entity_map[t.tail])
        for t in source.triples
    )
    return KnowledgeGraph(
        tuple(dict.fromkeys(entity_map[e] for e in source.entities)),
        tuple(dict.fromkeys(predicate_map[p] for p in source.predicates)),
        tuple(dict.fromkeys(chain(images, extra))),
    )


def _random_predicate_map(rng: Random, source: KnowledgeGraph) -> dict[str, str]:
    p_buckets = rng.randint(1, max(1, len(source.predicates)))
    return {p: f"P{rng.randrange(p_buckets)}" for p in source.predicates}


def random_hom(rng: Random, source: KnowledgeGraph) -> KgHomomorphism:
    """A random homomorphism out of `source`, valid by construction: the
    target is the image of the source under random entity and predicate
    fusions, plus occasional extra triples."""
    n_buckets = rng.randint(1, max(1, source.entity_count))
    entity_map = {e: f"E{rng.randrange(n_buckets)}" for e in source.entities}
    predicate_map = _random_predicate_map(rng, source)
    image = _image_graph(source, entity_map, predicate_map)
    extra = [
        Triple(
            rng.choice(image.entities),
            rng.choice(image.predicates),
            rng.choice(image.entities),
        )
        for _ in range(rng.randint(0, 2))
        if image.entities
    ]
    target = _image_graph(source, entity_map, predicate_map, extra)
    return KgHomomorphism(source, target, entity_map, predicate_map)


def random_acyclic_hom(rng: Random, source: KnowledgeGraph) -> KgHomomorphism:
    """A homomorphism whose target stays acyclic: entity fusion is
    order-respecting (bucket index never decreases along a triple)."""
    n = source.entity_count
    # Monotone bucket assignment over the entity order preserves the DAG.
    buckets = sorted(rng.randrange(max(1, n)) for _ in range(n))
    entity_map = {e: f"E{buckets[i]}" for i, e in enumerate(source.entities)}
    predicate_map = _random_predicate_map(rng, source)
    target = _image_graph(source, entity_map, predicate_map)
    if find_entity_cycle(target) is not None:
        # Fusing both endpoints of a triple makes a loop, and a source
        # entity order that is not topological can close a longer cycle;
        # retry without entity fusion.
        return random_acyclic_hom_identity(rng, source)
    return KgHomomorphism(source, target, entity_map, predicate_map)


def random_acyclic_hom_identity(rng: Random, source: KnowledgeGraph) -> KgHomomorphism:
    """Fallback: rename predicates only, keep entities fixed."""
    entity_map = {e: e for e in source.entities}
    predicate_map = _random_predicate_map(rng, source)
    target = _image_graph(source, entity_map, predicate_map)
    return KgHomomorphism(source, target, entity_map, predicate_map)


def random_presheaf(
    rng: Random,
    kg: KnowledgeGraph,
    max_sections: int = 3,
    min_sections: int = 1,
) -> Presheaf:
    """A random presheaf on a graph; always valid, since any assignment
    of maps to triples extends functorially.

    With min_sections=0 an empty section set forces every object mapping
    into it (along some triple) to be empty too, since no function from a
    nonempty set into the empty set exists.
    """
    counts = {obj: rng.randint(min_sections, max_sections) for obj in kg.entities}
    changed = True
    while changed:
        changed = False
        for t in kg.triples:
            if counts[t.head] == 0 and counts[t.tail] > 0:
                counts[t.tail] = 0
                changed = True
    sections = {
        obj: tuple(f"{obj}s{k}" for k in range(counts[obj])) for obj in kg.entities
    }
    restrictions = {
        i: {s: rng.choice(sections[t.head]) for s in sections[t.tail]}
        for i, t in enumerate(kg.triples)
    }
    return Presheaf(kg, sections, restrictions)
