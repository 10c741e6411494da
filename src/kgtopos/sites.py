"""Sieves, Grothendieck topologies on free categories, and site checks.

A free category has closed forms for both named topologies (Mac Lane and
Moerdijk III.2 and III.4; Johnstone, *Elephant* C2.1).  A sieve on b
other than the maximal one is a tuple of sieves, one on the head a of
each triple t: a -> b, and pulling back along t reads off component t.
So the path topology is J(b) = {max} + prod_{t: a -> b} J(a), with
J = {max} at sources, and the atomic topology is {max} at every object,
since an acyclic graph's free category has only identities as
isomorphisms.  path_topology and atomic_topology build these directly;
`sheaves.omega` builds the closed sieves by the same fold.

enumerate_sieves, the scan of the whole sieve lattice, serves only the
oracles: generate_topology, the saturation of a coverage that `verify`
compares both closed forms with, and verify_topology_axioms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Mapping

from .errors import SizeCapError, TopologyError
from .freecat import FreeCategory, Path, compose, path_key

DEFAULT_SIEVE_CAP = 12


@dataclass(frozen=True)
class Sieve:
    """A set of morphisms into one object, closed under precomposition."""

    obj: str
    members: frozenset[Path]

    def __contains__(self, p: Path) -> bool:
        return p in self.members

    def sorted_members(self) -> list[Path]:
        return sorted(self.members, key=lambda p: (len(p.arrows), p.arrows))

    def keys(self) -> list[str]:
        return sorted(path_key(p) for p in self.members)


def sieve_generated_by(
    cat: FreeCategory, obj: str, family: Iterable[Path]
) -> Sieve:
    """Smallest sieve on obj containing the family (precomposition closure)."""
    members: set[Path] = set()
    for f in family:
        if f.target != obj:
            raise ValueError(f"family member {path_key(f)} does not end at {obj}")
        for h in cat.morphisms_into(f.source):
            members.add(compose(h, f))
    return Sieve(obj, frozenset(members))


def maximal_sieve(cat: FreeCategory, obj: str) -> Sieve:
    return Sieve(obj, frozenset(cat.morphisms_into(obj)))


def pullback_sieve(cat: FreeCategory, sieve: Sieve, g: Path) -> Sieve:
    """g*S = {h : h.g in S}, a sieve on dom(g).  Paths factor uniquely, so
    it is read off S: the members whose arrows end with g's arrows, with
    those arrows dropped."""
    if g.target != sieve.obj:
        raise ValueError("pullback morphism must end at the sieve's object")
    if g.is_identity:
        return sieve
    k = len(g.arrows)
    members = frozenset(
        Path(s.source, g.source, s.arrows[:-k])
        for s in sieve.members
        if s.arrows[-k:] == g.arrows
    )
    return Sieve(g.source, members)


def _require_sieve_cap(cat: FreeCategory, obj: str, cap: int) -> None:
    count = len(cat.morphisms_into(obj))
    if count > cap:
        raise SizeCapError(
            f"{count} morphisms into {obj} exceeds the sieve cap {cap}; "
            "use a smaller graph or raise the cap"
        )


def enumerate_sieves(
    cat: FreeCategory, obj: str, cap: int = DEFAULT_SIEVE_CAP
) -> list[Sieve]:
    """All sieves on obj, deterministically ordered.

    Subsets of the incoming morphisms are scanned with bitmasks and kept
    when closed under precomposition.  Raises SizeCapError when more than
    `cap` morphisms point into obj.
    """
    cat.require_complete("enumerate_sieves")
    _require_sieve_cap(cat, obj, cap)
    incoming = sorted(
        cat.morphisms_into(obj), key=lambda p: (len(p.arrows), p.arrows)
    )
    position = {p: i for i, p in enumerate(incoming)}
    # Bitmask of morphisms forced into any sieve containing morphism i.
    required = []
    for p in incoming:
        mask = 0
        for h in cat.morphisms_into(p.source):
            mask |= 1 << position[compose(h, p)]
        required.append(mask)
    sieves = []
    for mask in range(1 << len(incoming)):
        closed = True
        probe = mask
        while probe:
            low = probe & -probe
            if required[low.bit_length() - 1] & ~mask:
                closed = False
                break
            probe ^= low
        if closed:
            sieves.append(
                Sieve(
                    obj,
                    frozenset(
                        incoming[i] for i in range(len(incoming)) if mask >> i & 1
                    ),
                )
            )
    return sieves


@dataclass(frozen=True)
class Topology:
    """Per-object sets of covering sieves."""

    covering: dict[str, frozenset[Sieve]]

    def objects(self) -> tuple[str, ...]:
        return tuple(self.covering.keys())

    def covers(self, sieve: Sieve) -> bool:
        return sieve in self.covering.get(sieve.obj, frozenset())

    def covering_sieves(self, obj: str) -> list[Sieve]:
        return sorted(
            self.covering[obj], key=lambda s: (len(s.members), s.keys())
        )

    def min_covering_sieve(self, obj: str) -> Sieve:
        """Intersection of all covering sieves; in a saturated topology it
        is itself covering."""
        sieves = list(self.covering[obj])
        if not sieves:
            raise TopologyError(f"no covering sieves on {obj}")
        members = frozenset.intersection(*(s.members for s in sieves))
        minimum = Sieve(obj, members)
        if not self.covers(minimum):
            raise TopologyError(
                f"topology on {obj} is not closed under intersection; saturate first"
            )
        return minimum


@dataclass(frozen=True)
class Site:
    category: FreeCategory
    topology: Topology

    def __post_init__(self):
        if set(self.topology.covering.keys()) != set(self.category.objects):
            raise TopologyError("topology objects differ from category objects")


def generate_topology(
    cat: FreeCategory,
    coverage: Mapping[str, Iterable[Iterable[Path]]],
    sieve_cap: int = DEFAULT_SIEVE_CAP,
) -> Topology:
    """Smallest topology whose covering sieves include those generated by
    the coverage, computed by saturation over the finite sieve lattice.
    The closed-form topologies are checked against it in `verify`.

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
                if candidate in covering[obj]:
                    continue
                for sieve in covering[obj]:
                    if all(
                        pullback_sieve(cat, candidate, g) in covering[g.source]
                        for g in sieve.members
                    ):
                        covering[obj].add(candidate)
                        changed = True
                        break
    return Topology({obj: frozenset(covering[obj]) for obj in cat.objects})


def _require_sieve_lattices(cat: FreeCategory, sieve_cap: int) -> None:
    """The guards generate_topology meets first, in its order and with its
    text, so a closed form refuses exactly the inputs saturation refuses."""
    cat.require_complete("generate_topology")
    for obj in cat.objects:
        _require_sieve_cap(cat, obj, sieve_cap)


def atomic_topology(
    cat: FreeCategory, sieve_cap: int = DEFAULT_SIEVE_CAP
) -> Topology:
    """Topology generated by isomorphism-only covering families.

    On the free category of an acyclic graph the only isomorphisms are
    identities, so exactly the maximal sieves cover.
    """
    _require_sieve_lattices(cat, sieve_cap)
    return Topology(
        {obj: frozenset({maximal_sieve(cat, obj)}) for obj in cat.objects}
    )


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
    depth = {obj: max(map(len, cat.morphisms_into(obj))) for obj in cat.objects}
    for obj in sorted(cat.objects, key=depth.__getitem__):
        # components[k] lists the possible components along the k-th triple.
        components = [
            [frozenset(compose(h, t) for h in s.members) for s in kept[t.source]]
            for t in map(cat.generator_path, cat.kg.tail_fibres[obj])
        ]
        candidates = (
            Sieve(obj, frozenset().union(*choice)) for choice in product(*components)
        )
        kept[obj] = [maximal_sieve(cat, obj), *filter(admit, candidates)]
    return kept


def path_topology(
    cat: FreeCategory, sieve_cap: int = DEFAULT_SIEVE_CAP
) -> Topology:
    """Topology of relational propagation along incoming paths: the
    smallest topology in which the triples into each object cover it.

    J(b) is the maximal sieve plus, for each choice of a covering sieve
    S_t on the head of every triple t into b, the sieve of all h.t with
    h in S_t.
    """
    _require_sieve_lattices(cat, sieve_cap)
    # At a source only the maximal sieve covers, so its empty candidate is refused.
    covering = _fold_over_triples(cat, lambda s: bool(cat.kg.tail_fibres[s.obj]))
    return Topology({obj: frozenset(covering[obj]) for obj in cat.objects})


def build_site(
    kg,
    topology: str = "path",
    max_path_length: int | None = None,
    sieve_cap: int = DEFAULT_SIEVE_CAP,
) -> Site:
    """Convenience: free category plus a named topology ('path' or 'atomic')."""
    from .freecat import build_free_category

    builders = {"path": path_topology, "atomic": atomic_topology}
    if topology not in builders:
        raise TopologyError(f"unknown topology {topology!r}; use 'path' or 'atomic'")
    cat = build_free_category(kg, max_path_length)
    return Site(cat, builders[topology](cat, sieve_cap))


@dataclass(frozen=True)
class TopologyReport:
    passed: bool
    violations: tuple[str, ...] = field(default_factory=tuple)


def verify_topology_axioms(
    site: Site, sieve_cap: int = DEFAULT_SIEVE_CAP
) -> TopologyReport:
    """Exhaustively check maximality, pullback stability and transitivity
    over all objects, covering sieves and morphisms."""
    cat, topology = site.category, site.topology
    violations: list[str] = []
    for obj in cat.objects:
        if not topology.covers(maximal_sieve(cat, obj)):
            violations.append(f"maximality fails at {obj}")
    for obj in cat.objects:
        for sieve in topology.covering_sieves(obj):
            for g in cat.morphisms_into(obj):
                if not topology.covers(pullback_sieve(cat, sieve, g)):
                    violations.append(
                        f"stability fails: pullback of a covering sieve on {obj} "
                        f"along {path_key(g)} is not covering"
                    )
    for obj in cat.objects:
        for candidate in enumerate_sieves(cat, obj, sieve_cap):
            if topology.covers(candidate):
                continue
            for sieve in topology.covering_sieves(obj):
                if all(
                    topology.covers(pullback_sieve(cat, candidate, g))
                    for g in sieve.members
                ):
                    violations.append(
                        f"transitivity fails: sieve {candidate.keys()} on {obj} "
                        "is locally covering but not covering"
                    )
                    break
    return TopologyReport(not violations, tuple(violations))


def check_inclusion(inner: Topology, outer: Topology) -> bool:
    """True iff every covering sieve of `inner` also covers in `outer`;
    both must live on the same objects."""
    if set(inner.covering.keys()) != set(outer.covering.keys()):
        raise TopologyError("topologies live on different object sets")
    return all(
        inner.covering[obj] <= outer.covering[obj] for obj in inner.covering
    )


def topology_to_dict(site: Site, name: str | None = None) -> dict:
    data = {
        "objects": list(site.category.objects),
        "covering": {
            obj: [sieve.keys() for sieve in site.topology.covering_sieves(obj)]
            for obj in site.category.objects
        },
    }
    if name is not None:
        data["topology"] = name
    return data
