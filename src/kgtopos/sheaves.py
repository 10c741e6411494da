"""Finite presheaves on a site: the sheaf condition via matching
families, gluing, plus-construction sheafification, the subobject
classifier, and the adjunction between the path and atomic topoi.

A presheaf is data on the graph, a section set per entity and a map per
triple; the code that walks paths takes the free category, or the site,
beside it.

The sheaf condition is phrased with matching families on covering
sieves, which needs no pullbacks in the underlying category: a matching
family assigns a section to every member of a sieve compatibly with all
precompositions, and a sheaf admits exactly one amalgamation per family.
As paths factor uniquely, the families on a sieve are the tuples in
prod_g P(dom g) over its generators g, the members with no proper suffix
in it (Mac Lane and Moerdijk III.4-III.5).  The library reads families
off that product (a failure's witness, gluing, the plus construction);
the backtracking search is `verify`'s oracle.  On a free category the
sheaf condition is local, one bijection per object (see is_sheaf).

Sheafification applies the plus construction twice.  On a finite
saturated topology the covering sieves on an object are closed under
intersection, so P+(b), the colimit over them, is the set of families
on the minimum covering sieve M(b): the product over its generators,
id_b when M(b) is maximal, the paths from sources on the path site.

The subobject classifier's closed sieves come from the fold that builds
the path topology, as masks over the morphisms into each object (see
sites): they are labelled by their set bits, which give their keys in
order, and restricted along a triple by its pull table.  The
sieve-lattice scan is left to the oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import prod
from typing import Iterable, Mapping

from .errors import (
    GluingError,
    NaturalityError,
    SchemaError,
    SizeCapError,
    TopologyError,
    UniquenessError,
)
from .freecat import FreeCategory, Path, gather, path_key
from .kg import KnowledgeGraph
from .sites import (
    Sieve,
    Site,
    _fold_over_triples,
    sieve_generated_by,
    sieve_order,
)

DEFAULT_SECTION_CAP = 3


@dataclass(frozen=True)
class Presheaf:
    """Finite section sets per entity plus restriction maps per triple.

    `restrictions[i]` sends sections at the tail of triple i to sections
    at its head (restriction runs against the arrows).  By the free
    category's universal property that is a whole presheaf on it: the map
    along a path is the composite of its triples' maps.  `restrict`
    memoizes those composites in `_tables` for the presheaf's life, so a
    triple's table must not be edited once read.  The memo takes no part
    in equality.
    """

    kg: KnowledgeGraph
    sections: dict[str, tuple[str, ...]]
    restrictions: dict[int, dict[str, str]]
    _tables: dict[tuple[str, tuple[int, ...]], dict[str, str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for obj in self.kg.entities:
            if obj not in self.sections:
                raise SchemaError(f"no section set for object {obj}")
            labels = self.sections[obj]
            if len(set(labels)) != len(labels):
                raise SchemaError(f"duplicate section labels at {obj}")
        for i, t in enumerate(self.kg.triples):
            mapping = self.restrictions.get(i)
            if mapping is None:
                raise SchemaError(f"no restriction map for triple {i} ({t})")
            cod_labels = set(self.sections[t.tail])
            dom_labels = set(self.sections[t.head])
            if set(mapping.keys()) != cod_labels:
                raise SchemaError(
                    f"restriction for triple {i} ({t}) is not total on "
                    f"the sections at {t.tail}"
                )
            bad = [v for v in mapping.values() if v not in dom_labels]
            if bad:
                raise SchemaError(
                    f"restriction for triple {i} ({t}) maps outside the "
                    f"sections at {t.head}: {bad}"
                )

    def to_dict(self) -> dict:
        return {
            "sections": {obj: list(self.sections[obj]) for obj in self.kg.entities},
            "restrictions": {
                str(t): dict(self.restrictions[i]) for i, t in enumerate(self.kg.triples)
            },
        }


def restrict(presheaf: Presheaf, p: Path) -> dict[str, str]:
    """Restriction map along a path, from sections at its target to
    sections at its source: P(t.q) = P(t) o P(q), the first triple's
    generator table applied to the table of the rest of the path.  Tables
    are memoized on the presheaf by (target, arrows), so paths that end
    alike share their suffixes' tables and a second call returns the same
    dict, which callers must not edit."""
    memo, target, arrows = presheaf._tables, p.target, p.arrows
    table = memo.get((target, arrows))
    if table is None:
        if (target, ()) not in memo:
            memo[target, ()] = {s: s for s in presheaf.sections[target]}
        # The longest memoized suffix of p; at worst the identity.
        k = next(k for k in range(len(arrows) + 1) if (target, arrows[k:]) in memo)
        table = memo[target, arrows[k:]]
        for j in range(k - 1, -1, -1):
            gen = presheaf.restrictions[arrows[j]]
            table = memo[target, arrows[j:]] = {s: gen[v] for s, v in table.items()}
    return table


def _fields(data, document: str, *names: str) -> list:
    """The named fields of a JSON document, which must be an object
    holding all of them."""
    if not isinstance(data, Mapping):
        raise SchemaError(f"{document} is not a JSON object")
    for name in names:
        if name not in data:
            raise SchemaError(f"{document} lacks '{name}'")
    return [data[name] for name in names]


def _require_mapping(value, what: str) -> None:
    if not isinstance(value, Mapping):
        raise SchemaError(f"{what} is not a JSON object")


def load_presheaf(kg: KnowledgeGraph, data: Mapping) -> Presheaf:
    """Build a presheaf from its JSON document.

    Sections are keyed by object name; restriction maps are keyed by the
    triple rendered as 'head predicate tail'.  A key that names no entity
    or no triple of the graph is an error.
    """
    raw_sections, raw_restrictions = _fields(
        data, "presheaf document", "sections", "restrictions"
    )
    _require_mapping(raw_sections, "'sections'")
    _require_mapping(raw_restrictions, "'restrictions'")
    sections = {}
    for obj in kg.entities:
        if obj not in raw_sections:
            raise SchemaError(f"no section set for object {obj}")
        labels = raw_sections[obj]
        if not isinstance(labels, list):
            raise SchemaError(f"the section set for object {obj} is not a list")
        sections[obj] = tuple(str(s) for s in labels)
    restrictions = {}
    for i, t in enumerate(kg.triples):
        key = str(t)
        if key not in raw_restrictions:
            raise SchemaError(f"no restriction map for triple '{key}'")
        mapping = raw_restrictions[key]
        _require_mapping(mapping, f"the restriction map for triple '{key}'")
        restrictions[i] = {str(k): str(v) for k, v in mapping.items()}
    keys = {str(t) for t in kg.triples}
    stray = [f"section set for '{n}'" for n in raw_sections if n not in sections]
    stray += [f"restriction map for '{k}'" for k in raw_restrictions if k not in keys]
    if stray:
        raise SchemaError(f"{stray[0]}, which names nothing in the graph")
    return Presheaf(kg, sections, restrictions)


def load_family(cat: FreeCategory, presheaf: Presheaf, data: Mapping) -> MatchingFamily:
    """The matching family named by a gluing document, on the presheaf's
    free category `cat`.

    The document gives an object and sections on some paths into it,
    keyed by `path_key`.  Those paths generate the family's sieve; the
    values on its other members are the ones compatibility forces.
    Raises GluingError when the given values are not compatible.
    """
    obj, raw = _fields(data, "family document", "object", "assignment")
    _require_mapping(raw, "'assignment'")
    if obj not in cat.objects:
        raise SchemaError(f"unknown object {obj!r} in the family document")
    keyed = {path_key(p): p for p in cat.morphisms_into(obj)}
    given: dict[Path, str] = {}
    for key, value in raw.items():
        if key not in keyed:
            raise SchemaError(f"unknown path key '{key}' into {obj}")
        p, label = keyed[key], str(value)
        if label not in presheaf.sections[p.source]:
            raise SchemaError(f"'{label}' on path {key} is not a section at {p.source}")
        given[p] = label
    sieve = sieve_generated_by(cat, obj, given)
    forced = {m: restrict(presheaf, p)[given[g]] for m, g, p in _factorizations(sieve)}
    if any(forced[p] != label for p, label in given.items()):
        raise GluingError("assignment is not a matching family")
    return MatchingFamily(sieve, forced)


def constant_presheaf(kg: KnowledgeGraph, labels: Iterable[str] = ("*",)) -> Presheaf:
    """Same section set everywhere, identity restrictions."""
    labels = tuple(labels)
    return Presheaf(
        kg,
        {obj: labels for obj in kg.entities},
        {i: {s: s for s in labels} for i in range(kg.triple_count)},
    )


def terminal_presheaf(kg: KnowledgeGraph) -> Presheaf:
    return constant_presheaf(kg, ("*",))


def product_presheaf(f: Presheaf, g: Presheaf) -> Presheaf:
    """Objectwise cartesian product with componentwise restrictions."""
    if f.kg is not g.kg and f.kg != g.kg:
        raise ValueError("presheaves live on different graphs")
    kg = f.kg

    def pair(a: str, b: str) -> str:
        return f"({a},{b})"

    sections = {
        obj: tuple(
            pair(a, b) for a in f.sections[obj] for b in g.sections[obj]
        )
        for obj in kg.entities
    }
    restrictions = {
        i: {
            pair(a, b): pair(f.restrictions[i][a], g.restrictions[i][b])
            for a in f.sections[t.tail]
            for b in g.sections[t.tail]
        }
        for i, t in enumerate(kg.triples)
    }
    return Presheaf(kg, sections, restrictions)


@dataclass(frozen=True)
class MatchingFamily:
    """A compatible assignment of sections to every member of a sieve."""

    sieve: Sieve
    assignment: dict[Path, str]


def is_matching_family(presheaf: Presheaf, family: MatchingFamily) -> bool:
    """Compatibility: x(t.f) = P(t)(x(f)) for every member f and every
    triple t into its source.  That suffices for every precomposition:
    a sieve is closed under it, so h.f is a member too, and x(t.h.f) =
    P(t)(x(h.f)) = P(t.h)(x(f)) by induction on the length of h."""
    assignment = family.assignment
    if set(assignment.keys()) != set(family.sieve.members):
        return False
    kg = presheaf.kg
    for f, value in assignment.items():
        if value not in presheaf.sections[f.source]:
            return False
        for i in kg.tail_fibres[f.source]:
            extended = Path(kg.triples[i].head, f.target, (i, *f.arrows))
            if assignment[extended] != presheaf.restrictions[i][value]:
                return False
    return True


def enumerate_matching_families(presheaf: Presheaf, sieve: Sieve) -> list[MatchingFamily]:
    """All matching families on a sieve, in a deterministic order, by a
    backtracking search: verify's oracle for the generators' product.

    Members are assigned shortest-first.  A member t.rest, with t its
    first triple, whose rest is a member too has its value P(t)(x(rest))
    forced by compatibility; any shorter suffix in the sieve is a suffix
    of rest, which already agrees with it, so it forces the same value.
    The search only branches on members with no proper suffix in the
    sieve.
    """
    members = sieve.sorted_members()
    # Members all end at the sieve's object, so their arrows name them.
    by_arrows = {g.arrows: g for g in members}
    forcing = [
        (by_arrows[g.arrows[1:]], presheaf.restrictions[g.arrows[0]])
        if g.arrows and g.arrows[1:] in by_arrows
        else None
        for g in members
    ]

    results: list[MatchingFamily] = []
    assignment: dict[Path, str] = {}

    def search(i: int) -> None:
        if i == len(members):
            results.append(MatchingFamily(sieve, dict(assignment)))
            return
        g = members[i]
        if forcing[i] is not None:
            rest, table = forcing[i]
            candidates = [table[assignment[rest]]]
        else:
            candidates = presheaf.sections[g.source]
        for value in candidates:
            assignment[g] = value
            search(i + 1)
            del assignment[g]

    search(0)
    del search  # breaks the search -> closure -> search cycle
    return results


def amalgamations(
    presheaf: Presheaf, family: MatchingFamily
) -> list[str]:
    """Sections at the sieve's object restricting to the family."""
    obj = family.sieve.obj
    members = family.sieve.sorted_members()
    return [
        s
        for s in presheaf.sections[obj]
        if all(restrict(presheaf, f)[s] == family.assignment[f] for f in members)
    ]


@dataclass(frozen=True)
class SheafCheck:
    is_sheaf: bool
    counterexample: dict | None = None

    def __bool__(self) -> bool:
        return self.is_sheaf

    @classmethod
    def refuted(cls, family: MatchingFamily, glued: list[str]) -> SheafCheck:
        """The failure witnessed by a matching family on a covering sieve
        whose amalgamations `glued` are not exactly one."""
        return cls(
            False,
            {
                "object": family.sieve.obj,
                "sieve": family.sieve.keys(),
                "family": {path_key(p): v for p, v in family.assignment.items()},
                "amalgamations": glued,
            },
        )


def is_sheaf(presheaf: Presheaf, site: Site) -> SheafCheck:
    """Exactly one amalgamation for every matching family on every
    covering sieve; the first failure is reported with its witnesses.

    Decided locally.  Every nonidentity path into b ends with exactly one
    triple t: a -> b, so the matching families on the sieve of all those
    paths are the tuples in prod_t P(a), and P is a sheaf for that sieve
    iff x -> (P(t)(x))_t is a bijection P(b) -> prod_t P(a).  In a
    Grothendieck topology each covering sieve S on b other than the
    maximal one pulls back along every such t to a covering or maximal
    sieve, so, given that P is a sheaf for those pullbacks, P is a sheaf
    for S iff the bijection holds at b.  By induction along the paths, P
    is then a sheaf iff the bijection holds at every object with such an
    S, that is, where M(b) lacks the identity.
    """
    cat = site.category
    for obj in cat.objects:
        proper = not site.minimum[obj].mask >> cat.key_index[obj].bits[()] & 1
        if proper and not _restrictions_biject(presheaf, obj):
            return _first_failure(presheaf, site)
    return SheafCheck(True)


def _restrictions_biject(presheaf: Presheaf, obj: str) -> bool:
    """x -> (P(t)(x)) over the triples t into obj is a bijection from
    P(obj) onto the product of the sections at their heads."""
    kg = presheaf.kg
    into = kg.tail_fibres[obj]
    tables = [presheaf.restrictions[i] for i in into]
    sections = presheaf.sections[obj]
    traces = {tuple(table[x] for table in tables) for x in sections}
    size = prod(len(presheaf.sections[kg.triples[i].head]) for i in into)
    return len(traces) == len(sections) == size


def _first_failure(presheaf: Presheaf, site: Site) -> SheafCheck:
    """_sheaf_for_sieve on each covering sieve in order, to the first failure."""
    checks = (
        _sheaf_for_sieve(presheaf, sieve)
        for obj in site.category.objects
        for sieve in site.covering_sieves(obj)
    )
    return next((check for check in checks if not check), SheafCheck(True))


def _sheaf_for_sieve(presheaf: Presheaf, sieve: Sieve) -> SheafCheck:
    """The sheaf condition for one sieve, whose families are prod P(dom g)
    over its generators g (t.rest is a generator iff rest is not a member):
    x -> (P(g)(x))_g is a bijection onto them.  Else the witness is the
    first family in the search's order with other than one amalgamation."""
    arrows = {p.arrows for p in sieve.members}
    generators = [g for g in sieve.sorted_members() if not g.arrows or g.arrows[1:] not in arrows]
    sections = presheaf.sections[sieve.obj]
    tables = [restrict(presheaf, g) for g in generators]
    by_trace: dict[tuple[str, ...], list[str]] = {}
    for s in sections:
        by_trace.setdefault(tuple([t[s] for t in tables]), []).append(s)
    domains = [presheaf.sections[g.source] for g in generators]
    if len(by_trace) == len(sections) == prod(map(len, domains)):
        return SheafCheck(True)
    values = next(x for x in product(*domains) if len(by_trace.get(x, ())) != 1)
    given = dict(zip(generators, values))
    forced = {m: restrict(presheaf, p)[given[g]] for m, g, p in _factorizations(sieve)}
    family = MatchingFamily(sieve, {m: forced[m] for m in sieve.sorted_members()})
    return SheafCheck.refuted(family, by_trace.get(values, []))


def glue(presheaf: Presheaf, family: MatchingFamily) -> str:
    """The unique amalgamation of a matching family.

    Raises GluingError when none exists and UniquenessError when several
    do; either means the presheaf is not a sheaf for any topology in
    which the family's sieve covers.
    """
    if not is_matching_family(presheaf, family):
        raise GluingError("assignment is not a matching family")
    glued = amalgamations(presheaf, family)
    if not glued:
        raise GluingError(
            f"no amalgamation at {family.sieve.obj} for family "
            f"{{{', '.join(family.sieve.keys())}}}"
        )
    if len(glued) > 1:
        raise UniquenessError(
            f"{len(glued)} amalgamations at {family.sieve.obj}; sections {glued}"
        )
    return glued[0]


def global_sections(presheaf: Presheaf) -> list[dict[str, str]]:
    """All object-indexed families of sections commuting with every
    restriction, in deterministic order: the maps from the terminal
    presheaf, Hom(1, P), read at its one section."""
    cap = max([1, *(len(labels) for labels in presheaf.sections.values())])
    return [
        {obj: component["*"] for obj, component in point.components.items()}
        for point in enumerate_nat_transformations(
            terminal_presheaf(presheaf.kg), presheaf, cap
        )
    ]


@dataclass(frozen=True)
class NatTransformation:
    """Componentwise map between presheaves on the same graph."""

    source: Presheaf
    target: Presheaf
    components: dict[str, dict[str, str]]

    def __post_init__(self):
        kg = self.source.kg
        for obj in kg.entities:
            comp = self.components.get(obj)
            if comp is None or set(comp.keys()) != set(self.source.sections[obj]):
                raise NaturalityError(f"component at {obj} is missing or not total")
            if any(v not in self.target.sections[obj] for v in comp.values()):
                raise NaturalityError(f"component at {obj} maps outside the target")
        triples = range(kg.triple_count)
        failure = _naturality_failure(self.source, self.target, self.components, triples)
        if failure:
            i, s = failure
            raise NaturalityError(
                f"naturality fails at triple {i} ({kg.triples[i]}) on section {s!r}"
            )

    def canonical_key(self) -> tuple:
        return tuple(
            (obj, tuple(sorted(self.components[obj].items())))
            for obj in self.source.kg.entities
        )


def _naturality_failure(
    f: Presheaf, g: Presheaf, components: Mapping, triples: Iterable[int]
) -> tuple[int, str] | None:
    """The first of the triples, with the first section at its tail, on
    which the naturality square of `components` fails, or None."""
    for i in triples:
        t = f.kg.triples[i]
        f_res, g_res = f.restrictions[i], g.restrictions[i]
        head, tail = components[t.head], components[t.tail]
        for s in f.sections[t.tail]:
            if head[f_res[s]] != g_res[tail[s]]:
                return i, s
    return None


def compose_components(
    outer: Mapping[str, Mapping[str, str]], inner: Mapping[str, Mapping[str, str]]
) -> dict[str, dict[str, str]]:
    """Objectwise composition outer(inner(-))."""
    return {
        obj: {s: outer[obj][v] for s, v in inner[obj].items()} for obj in inner
    }


def enumerate_nat_transformations(
    f: Presheaf, g: Presheaf, section_cap: int = DEFAULT_SECTION_CAP
) -> list[NatTransformation]:
    """All natural families of maps f -> g, by backtracking over objects.

    Raises SizeCapError when a section set of either presheaf exceeds the
    cap; the enumeration is exponential in section counts.
    """
    kg = f.kg
    for obj in kg.entities:
        if len(f.sections[obj]) > section_cap or len(g.sections[obj]) > section_cap:
            raise SizeCapError(
                f"section set at {obj} exceeds the cap {section_cap}"
            )
    objects = list(kg.entities)
    rank = {obj: k for k, obj in enumerate(objects)}
    # Triple i's square is checked when the later of its ends, in search
    # order, gets its component: at closing[k] for that end's rank k.
    closing: list[list[int]] = [[] for _ in objects]
    for i, t in enumerate(kg.triples):
        closing[max(rank[t.head], rank[t.tail])].append(i)
    if not objects:
        return [NatTransformation(f, g, {})]

    def choices(k: int):
        return product(g.sections[objects[k]], repeat=len(f.sections[objects[k]]))

    results: list[NatTransformation] = []
    components: dict[str, dict[str, str]] = {}
    # Depth first with an explicit stack, so that a graph with thousands
    # of entities does not exhaust the recursion limit: pending[k] yields
    # the untried components at objects[k].
    pending = [choices(0)]
    while pending:
        k = len(pending) - 1
        obj = objects[k]
        values = next(pending[k], None)
        if values is None:
            pending.pop()
            components.pop(obj, None)
            continue
        components[obj] = dict(zip(f.sections[obj], values))
        if _naturality_failure(f, g, components, closing[k]):
            continue
        if k + 1 == len(objects):
            results.append(
                NatTransformation(f, g, {o: dict(c) for o, c in components.items()})
            )
        else:
            pending.append(choices(k + 1))
    return results


@dataclass(frozen=True)
class SheafificationResult:
    sheaf: Presheaf
    unit: NatTransformation


def _factorizations(sieve: Sieve) -> list[tuple[Path, Path, Path]]:
    """Each member m of the sieve, in path_key order, as (m, g, prefix)
    with m = prefix.g, where g is m's shortest suffix in the sieve.  That
    g is a generator of the sieve: a member with no proper suffix in it.
    Paths factor uniquely, so every member factors through exactly one
    generator, and a matching family is fixed by its generator values."""
    by_arrows = {p.arrows: p for p in sieve.members}
    rows = []
    for m in sieve.in_key_order():
        k = next(k for k in range(len(m.arrows), -1, -1) if m.arrows[k:] in by_arrows)
        g = by_arrows[m.arrows[k:]]
        rows.append((m, g, Path(m.source, g.source, m.arrows[:k])))
    return rows


def _plus(
    presheaf: Presheaf, factors: Mapping[str, list[tuple[Path, Path, Path]]]
) -> tuple[Presheaf, dict[str, dict[str, str]]]:
    """One plus-construction step, given the _factorizations of the
    minimum covering sieve M(b) at every object b.

    On a saturated topology the colimit is the set of matching families
    on M(b), that is the product of P(dom g) over M(b)'s generators g
    (Mac Lane and Moerdijk III.5).  Returns the new presheaf and the
    components of the canonical map from the input into it.  Section
    labels are m0, m1, ... per object, ordered by the families' values
    on the members of M(b) in path_key order.
    """
    kg = presheaf.kg
    generators: dict[str, list[Path]] = {}
    # Per object and member, where a family's generator tuple holds the
    # member's generator value, and the restriction along its prefix.
    readers: dict[str, dict[tuple[int, ...], tuple[int, dict[str, str]]]] = {}
    labels: dict[str, dict[tuple[str, ...], str]] = {}
    for obj in kg.entities:
        gens = list(dict.fromkeys(g for _, g, _ in factors[obj]))
        position = {g: j for j, g in enumerate(gens)}
        reader = {m.arrows: (position[g], restrict(presheaf, p)) for m, g, p in factors[obj]}
        members = list(reader.values())
        families = sorted(
            product(*(presheaf.sections[g.source] for g in gens)),
            key=lambda x: tuple([r[x[j]] for j, r in members]),
        )
        generators[obj], readers[obj] = gens, reader
        labels[obj] = {x: f"m{k}" for k, x in enumerate(families)}
    sections = {obj: tuple(labels[obj].values()) for obj in kg.entities}

    restrictions: dict[int, dict[str, str]] = {}
    for i, t in enumerate(kg.triples):
        # Stability puts the pullback of the minimum sieve at the tail
        # above the minimum sieve at the head.
        reader = readers[t.tail]
        if any(g.arrows + (i,) not in reader for g in generators[t.head]):
            raise TopologyError(f"M({t.tail}) pulled back along '{t}' misses M({t.head})")
        pulled = [reader[g.arrows + (i,)] for g in generators[t.head]]
        head = labels[t.head]
        restrictions[i] = {
            label: head[tuple([r[x[j]] for j, r in pulled])]
            for x, label in labels[t.tail].items()
        }
    plus_presheaf = Presheaf(kg, sections, restrictions)

    unit_components: dict[str, dict[str, str]] = {}
    for obj in kg.entities:
        own = [restrict(presheaf, g) for g in generators[obj]]
        unit_components[obj] = {
            s: labels[obj][tuple([r[s] for r in own])] for s in presheaf.sections[obj]
        }
    return plus_presheaf, unit_components


def sheafify(presheaf: Presheaf, site: Site) -> SheafificationResult:
    """Plus construction applied twice, with the canonical map into the
    result.  The output satisfies the sheaf condition for the site; when
    the input already does, the canonical map is objectwise bijective."""
    factors = {obj: _factorizations(m) for obj, m in site.minimum.items()}
    once, unit1 = _plus(presheaf, factors)
    twice, unit2 = _plus(once, factors)
    unit = NatTransformation(presheaf, twice, compose_components(unit2, unit1))
    return SheafificationResult(twice, unit)


def inverse_image(presheaf: Presheaf, path_site: Site) -> Presheaf:
    """Transport from the atomic site to the path site: sheafification of
    the same underlying data with respect to the path topology."""
    return sheafify(presheaf, path_site).sheaf


@dataclass(frozen=True)
class AdjunctionReport:
    passed: bool
    left_count: int
    right_count: int
    bijective: bool
    details: tuple[str, ...] = field(default_factory=tuple)


def check_adjunction(
    atomic_presheaf: Presheaf,
    path_sheaf: Presheaf,
    path_site: Site,
    section_cap: int = DEFAULT_SECTION_CAP,
) -> AdjunctionReport:
    """Hom-set comparison witnessing the adjunction between the transports.

    Counts Hom(inverse_image(F), G) against Hom(F, i_*G) and checks that
    precomposition with the canonical map F -> inverse_image(F) is a
    bijection between them.  The direct image i_* leaves the data as it
    is, so Hom(F, i_*G) = Hom(F, G).  G must satisfy the path-site sheaf
    condition for the counts to agree.
    """
    for presheaf in (atomic_presheaf, path_sheaf):
        for obj, labels in presheaf.sections.items():
            if len(labels) > section_cap:
                raise SizeCapError(
                    f"section set at {obj} exceeds the cap {section_cap}"
                )
    details: list[str] = []
    sheaf_check = is_sheaf(path_sheaf, path_site)
    if not sheaf_check:
        details.append("second argument is not a sheaf for the path site")
    result = sheafify(atomic_presheaf, path_site)
    # The sheafified side is derived data; widen the enumeration bound to fit it.
    cap = max(
        section_cap,
        max((len(v) for v in result.sheaf.sections.values()), default=0),
    )
    left = enumerate_nat_transformations(result.sheaf, path_sheaf, cap)
    right = enumerate_nat_transformations(atomic_presheaf, path_sheaf, cap)
    mapped_keys = []
    for phi in left:
        composed = compose_components(phi.components, result.unit.components)
        transformed = NatTransformation(atomic_presheaf, path_sheaf, composed)
        mapped_keys.append(transformed.canonical_key())
    injective = len(set(mapped_keys)) == len(mapped_keys)
    surjective = set(mapped_keys) == {t.canonical_key() for t in right}
    bijective = injective and surjective
    if not injective:
        details.append("unit precomposition is not injective")
    if not surjective:
        details.append("unit precomposition is not surjective")
    passed = bijective and len(left) == len(right) and not details
    return AdjunctionReport(passed, len(left), len(right), bijective, tuple(details))


def _braced(keys: Iterable[str]) -> str:
    return "{" + ";".join(keys) + "}"


def sieve_label(sieve: Sieve) -> str:
    return _braced(sieve.keys())


def omega(site: Site) -> Presheaf:
    """Subobject classifier: closed sieves with pullback as restriction.

    A sieve other than the maximal one is closed iff it does not cover
    and its pullback along every triple into its object is closed."""
    cat = site.category
    indexes = cat.key_index
    closed = _fold_over_triples(cat, lambda s: not site.covers(s))
    labels = {}
    for obj, sieves in closed.items():
        # The order and the label both read the sieve's one list of bits.
        keys = indexes[obj].keys
        ranked = sorted((sieve_order(s), s.mask) for s in sieves)
        labels[obj] = {
            mask: _braced([keys[k] for k in bits]) for (_, bits), mask in ranked
        }
    sections = {obj: tuple(labels[obj].values()) for obj in cat.objects}
    restrictions: dict[int, dict[str, str]] = {}
    for i, t in enumerate(cat.kg.triples):
        pull, head = indexes[t.tail].pull[i], labels[t.head]
        # A pullback that is not closed keeps its own label, which
        # Presheaf then rejects.
        restrictions[i] = {
            label: head.get(pulled) or sieve_label(Sieve(t.head, pulled, indexes[t.head]))
            for mask, label in labels[t.tail].items()
            for pulled in [gather(pull, mask)]
        }
    return Presheaf(cat.kg, sections, restrictions)


def enumerate_subpresheaves(presheaf: Presheaf) -> list[Presheaf]:
    """All subpresheaves: objectwise section subsets closed under every
    restriction map.  Exponential in section counts; intended for tiny
    instances."""
    kg = presheaf.kg
    objects = list(kg.entities)
    subsets_per_object = []
    for obj in objects:
        labels = presheaf.sections[obj]
        masks = []
        for mask in range(1 << len(labels)):
            masks.append(
                tuple(labels[i] for i in range(len(labels)) if mask >> i & 1)
            )
        subsets_per_object.append(masks)
    results = []
    for choice in product(*subsets_per_object):
        chosen = dict(zip(objects, choice))
        ok = True
        for i, t in enumerate(kg.triples):
            mapping = presheaf.restrictions[i]
            if any(mapping[s] not in set(chosen[t.head]) for s in chosen[t.tail]):
                ok = False
                break
        if not ok:
            continue
        restrictions = {
            i: {
                s: presheaf.restrictions[i][s]
                for s in chosen[kg.triples[i].tail]
            }
            for i in range(kg.triple_count)
        }
        results.append(Presheaf(kg, chosen, restrictions))
    return results


def count_subsheaves(presheaf: Presheaf, site: Site) -> int:
    """Brute-force count of subpresheaves satisfying the sheaf condition."""
    return sum(
        1 for sub in enumerate_subpresheaves(presheaf) if is_sheaf(sub, site)
    )
