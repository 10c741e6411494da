"""Sieves, Grothendieck topologies on free categories, and site checks.

A free category has closed forms for both named topologies (Mac Lane and
Moerdijk III.2 and III.4; Johnstone, *Elephant* C2.1).  A sieve on b
other than the maximal one is a tuple of sieves, one on the head a of
each triple t: a -> b, and pulling back along t reads off component t.
So the path topology is J(b) = {max} + prod_{t: a -> b} J(a), with
J = {max} at sources, and the atomic topology is {max} at every object,
since an acyclic graph's free category has only identities as
isomorphisms.  A Site stores its topology as M(b), the intersection of
J(b): the paths from sources on the path site, the maximal sieve on the
atomic site.  Covering is one mask test against M(b); J(b) is folded
out of the product above only to be printed or searched, and
`sheaves.omega` builds the closed sieves by the same fold.

A sieve is an int over the morphisms into its object, numbered in
path_key order (freecat.KeyIndex).  Union, intersection and membership
are integer operations; the fold pushes a sieve along a triple, and
pullback_sieve pulls it back, by gathering the bits of the triple's
table; and ascending bits give the members' keys already sorted, so
labels and orders are read off the mask.

enumerate_sieves, the scan of the whole sieve lattice, serves only the
oracles: generate_topology, the saturation of a coverage that `verify`
compares both closed forms with, and verify_topology_axioms.

build_site refuses a cycle or a sieve cap from the graph's morphism
counts (require_site_inputs), before it enumerates a path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product
from operator import and_
from typing import Callable, Iterable, Mapping

from .errors import InfiniteCategoryError, SizeCapError, TopologyError
from .freecat import FreeCategory, KeyIndex, Path, build_free_category, gather, path_key
from .kg import KnowledgeGraph, find_entity_cycle

DEFAULT_SIEVE_CAP = 12


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class Sieve:
    """A set of morphisms into one object, closed under precomposition.

    `mask` has bit k set when the k-th morphism into obj in path_key
    order (see KeyIndex) is a member.  Equality and hash read obj and
    mask only; the Path views are derived, each once per sieve."""

    obj: str
    mask: int
    index: KeyIndex = field(compare=False, repr=False)

    @cached_property
    def members(self) -> frozenset[Path]:
        return frozenset(self.in_key_order())

    def in_key_order(self) -> list[Path]:
        """The members in path_key order: read off the set bits."""
        paths = self.index.paths
        return [paths[k] for k in _bits(self.mask)]

    @cached_property
    def _by_length(self) -> tuple[Path, ...]:
        return tuple(sorted(self.members, key=lambda p: (len(p.arrows), p.arrows)))

    def sorted_members(self) -> tuple[Path, ...]:
        """The members, shortest first, then by arrows."""
        return self._by_length

    def keys(self) -> list[str]:
        """The members' path keys, sorted: read off the set bits."""
        keys = self.index.keys
        return [keys[k] for k in _bits(self.mask)]


def _pushforward(cat: FreeCategory, mask: int, f: Path) -> int:
    """{h.f : h in mask}, for a set of morphisms into f's source, as a set
    of morphisms into f's target."""
    indexes, triples = cat.key_index, cat.kg.triples
    for i in f.arrows:
        mask = gather(indexes[triples[i].tail].push[i], mask)
    return mask


def sieve_generated_by(
    cat: FreeCategory, obj: str, family: Iterable[Path]
) -> Sieve:
    """Smallest sieve on obj containing the family (precomposition closure)."""
    indexes, mask = cat.key_index, 0
    for f in family:
        if f.target != obj:
            raise ValueError(f"family member {path_key(f)} does not end at {obj}")
        mask |= _pushforward(cat, indexes[f.source].full, f)
    return Sieve(obj, mask, indexes[obj])


def maximal_sieve(cat: FreeCategory, obj: str) -> Sieve:
    index = cat.key_index[obj]
    return Sieve(obj, index.full, index)


def pullback_sieve(cat: FreeCategory, sieve: Sieve, g: Path) -> Sieve:
    """g*S = {h : h.g in S}, a sieve on dom(g): S pulled back along g's
    triples, last first, by their pull tables."""
    if g.target != sieve.obj:
        raise ValueError("pullback morphism must end at the sieve's object")
    if g.is_identity:
        return sieve
    indexes, triples, mask = cat.key_index, cat.kg.triples, sieve.mask
    for i in reversed(g.arrows):
        mask = gather(indexes[triples[i].tail].pull[i], mask)
    return Sieve(g.source, mask, indexes[g.source])


def _require_sieve_cap(count: int, obj: str, cap: int) -> None:
    """Refuse `count` morphisms into obj when they exceed the cap."""
    if count > cap:
        raise SizeCapError(
            f"{count} morphisms into {obj} exceeds the sieve cap {cap}; "
            "use a smaller graph or raise the cap"
        )


def enumerate_sieves(
    cat: FreeCategory, obj: str, cap: int = DEFAULT_SIEVE_CAP
) -> list[Sieve]:
    """All sieves on obj, in ascending order of their masks.

    Every mask over the incoming morphisms is scanned and kept when
    closed under precomposition.  Raises SizeCapError when more than
    `cap` morphisms point into obj.
    """
    cat.require_complete("enumerate_sieves")
    _require_sieve_cap(len(cat.morphisms_into(obj)), obj, cap)
    index = cat.key_index[obj]
    # Bitmask of morphisms forced into any sieve containing morphism k.
    required = [
        _pushforward(cat, cat.key_index[p.source].full, p) for p in index.paths
    ]
    sieves = []
    for mask in range(index.full + 1):
        probe = mask
        while probe:
            low = probe & -probe
            if required[low.bit_length() - 1] & ~mask:
                break
            probe ^= low
        else:
            sieves.append(Sieve(obj, mask, index))
    return sieves


def sieve_order(sieve: Sieve) -> tuple[int, list[int]]:
    """By size, then by the list of keys, which ascending bits give."""
    return sieve.mask.bit_count(), _bits(sieve.mask)


@dataclass(frozen=True)
class Site:
    """A free category with a Grothendieck topology, stored as its minimum
    covering sieve M(b) per object b.  The covering sieves on b are closed
    under intersection and upward, so they are exactly the sieves that
    contain M(b) (Mac Lane and Moerdijk III.2).  A site built by hand
    must carry a Grothendieck topology; verify_topology_axioms checks one."""

    category: FreeCategory = field(compare=False, repr=False)
    minimum: dict[str, Sieve]

    def __post_init__(self):
        if set(self.minimum) != set(self.category.objects):
            raise TopologyError("topology objects differ from category objects")

    def covers(self, sieve: Sieve) -> bool:
        return not self.minimum[sieve.obj].mask & ~sieve.mask

    @cached_property
    def covering(self) -> dict[str, list[Sieve]]:
        """Every covering sieve per object, built by the fold: only the
        printed list, the witness search and the oracles read it."""
        return _fold_over_triples(self.category, self.covers)

    def covering_sieves(self, obj: str) -> list[Sieve]:
        return sorted(self.covering[obj], key=sieve_order)


def generate_topology(
    cat: FreeCategory,
    coverage: Mapping[str, Iterable[Iterable[Path]]],
    sieve_cap: int = DEFAULT_SIEVE_CAP,
) -> Site:
    """The site on cat of the smallest topology whose covering sieves
    include those generated by the coverage, computed by saturation over
    the finite sieve lattice.  The closed-form sites are checked against
    it in `verify`.  M(b) is the intersection of b's list, which must
    hold every sieve above it.

    Empty generating families are rejected; unknown objects in the
    coverage are an error.
    """
    cat.require_complete("generate_topology")
    for obj in coverage:
        if obj not in set(cat.objects):
            raise TopologyError(f"coverage mentions unknown object {obj}")
    lattice = {obj: enumerate_sieves(cat, obj, sieve_cap) for obj in cat.objects}
    covering: dict[str, set[Sieve]] = {
        obj: {maximal_sieve(cat, obj)} for obj in cat.objects
    }
    for obj, families in coverage.items():
        for family in families:
            members = list(family)
            if not members:
                raise TopologyError(
                    f"empty generating family on {obj} is not admitted"
                )
            covering[obj].add(sieve_generated_by(cat, obj, members))

    changed = True
    while changed:
        changed = False
        # Stability: pull every covering sieve back along every morphism.
        for obj in cat.objects:
            for sieve in list(covering[obj]):
                for g in cat.morphisms_into(obj):
                    pulled = pullback_sieve(cat, sieve, g)
                    if pulled not in covering[g.source]:
                        covering[g.source].add(pulled)
                        changed = True
        # Local character: a sieve whose pullbacks along some covering
        # sieve are all covering is itself covering.
        for obj in cat.objects:
            for candidate in lattice[obj]:
                if candidate not in covering[obj] and _locally_covering(cat, candidate, covering):
                    covering[obj].add(candidate)
                    changed = True
    site = Site(cat, {
        obj: Sieve(obj, reduce(and_, (s.mask for s in covering[obj])), cat.key_index[obj])
        for obj in cat.objects
    })
    for obj in cat.objects:
        if covering[obj] != set(filter(site.covers, lattice[obj])):
            raise TopologyError(f"saturation on {obj} is not the sieves above its intersection")
    return site


def _locally_covering(
    cat: FreeCategory, candidate: Sieve, covering: dict[str, set[Sieve]]
) -> bool:
    """Whether candidate's pullbacks along every member of some covering
    sieve cover: the morphisms g with g*candidate covering form a mask,
    and some covering sieve on candidate's object must lie inside it."""
    local = 0
    for k, g in enumerate(candidate.index.paths):
        pulled = pullback_sieve(cat, candidate, g)
        if pulled in covering[pulled.obj]:
            local |= 1 << k
    return any(not s.mask & ~local for s in covering[candidate.obj])


def _require_sieve_lattices(cat: FreeCategory, sieve_cap: int) -> None:
    """The guards generate_topology meets first, in its order and with its
    text, so a closed form refuses exactly the inputs saturation refuses."""
    cat.require_complete("generate_topology")
    for obj in cat.objects:
        _require_sieve_cap(len(cat.morphisms_into(obj)), obj, sieve_cap)


def atomic_topology(
    cat: FreeCategory, sieve_cap: int = DEFAULT_SIEVE_CAP
) -> Site:
    """The site of the topology generated by isomorphism-only covering
    families.

    On the free category of an acyclic graph the only isomorphisms are
    identities, so only the maximal sieve covers: M(b) is maximal.
    """
    _require_sieve_lattices(cat, sieve_cap)
    return Site(cat, {obj: maximal_sieve(cat, obj) for obj in cat.objects})


def path_coverage(cat: FreeCategory) -> dict[str, list[list[Path]]]:
    """One generating family per object: all generating triples into it."""
    return {
        obj: [[cat.generator_path(i) for i in fibre]]
        for obj, fibre in cat.kg.tail_fibres.items()
        if fibre
    }


def _fold_over_triples(
    cat: FreeCategory, admit: Callable[[Sieve], bool]
) -> dict[str, list[Sieve]]:
    """Per object b, the maximal sieve and then every admitted sieve
    {h.t : h in S_t} built from one sieve S_t kept at the head of each
    triple t into b; at a source the only candidate is the empty sieve.
    Objects are visited in order of their longest incoming path, so the
    sieves kept at every head are known when its tails are reached."""
    kept: dict[str, list[Sieve]] = {}
    triples = cat.kg.triples
    depth = {obj: max(map(len, cat.morphisms_into(obj))) for obj in cat.objects}
    for obj in sorted(cat.objects, key=depth.__getitem__):
        index = cat.key_index[obj]
        # components[k] lists the possible components along the k-th
        # triple, as masks.  Their members end with different triples, so
        # they are disjoint and a choice's union is its sum.
        components = [
            [gather(index.push[i], s.mask) for s in kept[triples[i].head]]
            for i in cat.kg.tail_fibres[obj]
        ]
        candidates = (Sieve(obj, sum(choice), index) for choice in product(*components))
        kept[obj] = [maximal_sieve(cat, obj), *filter(admit, candidates)]
    return kept


def path_topology(
    cat: FreeCategory, sieve_cap: int = DEFAULT_SIEVE_CAP
) -> Site:
    """The site of relational propagation along incoming paths: the
    smallest topology in which the triples into each object cover it.

    M(b) is the set of paths into b from sources (the maximal sieve at a
    source).  A sieve other than the maximal one covers b iff b has
    incoming triples and its pullback along each of them covers.
    """
    _require_sieve_lattices(cat, sieve_cap)
    fibres, minimum = cat.kg.tail_fibres, {}
    for obj, index in cat.key_index.items():
        bits = [k for k, p in enumerate(index.paths) if not fibres[p.source]]
        minimum[obj] = Sieve(obj, sum(1 << k for k in bits), index)
    return Site(cat, minimum)


TOPOLOGIES = ("path", "atomic")


def require_site_inputs(
    kg: KnowledgeGraph, topology: str = "path", sieve_cap: int = DEFAULT_SIEVE_CAP
) -> None:
    """build_site's refusals, read off the graph before anything is built:
    an unknown topology name, then a cycle with its witness, then the
    first entity, in entity order, with more than sieve_cap morphisms
    into it, counted by kg.morphism_counts."""
    if topology not in TOPOLOGIES:
        raise TopologyError(f"unknown topology {topology!r}; use 'path' or 'atomic'")
    counts = kg.morphism_counts
    if counts is None:
        raise InfiniteCategoryError(find_entity_cycle(kg))
    for obj in kg.entities:
        _require_sieve_cap(counts[obj], obj, sieve_cap)


def build_site(
    kg: KnowledgeGraph, topology: str = "path", sieve_cap: int = DEFAULT_SIEVE_CAP
) -> Site:
    """Convenience: the free category plus a named topology ('path' or
    'atomic'), once require_site_inputs passes.  A site needs
    composition-closed hom-sets, so the category is never bounded: a
    cyclic graph raises InfiniteCategoryError."""
    require_site_inputs(kg, topology, sieve_cap)
    builder = path_topology if topology == "path" else atomic_topology
    return builder(build_free_category(kg), sieve_cap)


def verify_topology_axioms(site: Site, sieve_cap: int = DEFAULT_SIEVE_CAP) -> list[str]:
    """The violations of pullback stability and transitivity, and of the
    covering list holding, in order, the sieves that cover, found over one
    scan of each object's sieve lattice.  Maximality and closure under
    intersection and upward hold by construction: a sieve covers iff it
    contains M(b), so transitivity need only pull back along M(b)."""
    cat = site.category
    violations: list[str] = []
    for obj in cat.objects:
        covering = []
        for sieve in enumerate_sieves(cat, obj, sieve_cap):
            if site.covers(sieve):
                covering.append(sieve)
                violations.extend(
                    f"stability fails: pullback of a covering sieve on {obj} "
                    f"along {path_key(g)} is not covering"
                    for g in cat.morphisms_into(obj)
                    if not site.covers(pullback_sieve(cat, sieve, g))
                )
            elif all(
                site.covers(pullback_sieve(cat, sieve, g))
                for g in site.minimum[obj].in_key_order()
            ):
                violations.append(
                    f"transitivity fails: sieve {sieve.keys()} on {obj} "
                    "is locally covering but not covering"
                )
        covering.sort(key=lambda s: (s.mask.bit_count(), s.keys()))
        if site.covering_sieves(obj) != covering:
            violations.append(f"the covering list on {obj} differs from the sieves that cover")
    return violations


def check_inclusion(inner: Site, outer: Site) -> bool:
    """True iff every covering sieve of `inner`'s topology also covers in
    `outer`'s; both must live on the same objects."""
    if set(inner.minimum) != set(outer.minimum):
        raise TopologyError("topologies live on different object sets")
    return all(outer.covers(sieve) for sieve in inner.minimum.values())


def topology_to_dict(site: Site, name: str) -> dict:
    return {
        "objects": list(site.category.objects),
        "covering": {
            obj: [sieve.keys() for sieve in site.covering_sieves(obj)]
            for obj in site.category.objects
        },
        "topology": name,
    }
