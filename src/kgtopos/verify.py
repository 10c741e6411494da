"""Machine checks for every structural statement the library implements.

Each check compares an implementation against an independent route:
matrix identities against direct recomputation from triples, spliced
matrix row texts against their rows rendered entry by entry, component
partitions against fibre grouping, spectra against a blockwise eigensolver,
morphism counts against walk counting by matrix powers, closed-form
topologies against saturation over the sieve lattice, the subobject
classifier against a closedness scan of that lattice, sheafification
against the product over paths from sources and against the plus
construction by matching-family search, hom-set cardinalities
against brute-force enumeration, and so on.  Checks are seeded and
deterministic; size-gated checks report 'skipped' with a reason instead
of silently passing.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import chain, compress, groupby, zip_longest
from math import prod
from random import Random

from . import matrices as mx
from . import linegraph as lg
from .errors import InfiniteCategoryError, KgToposError, SizeCapError
from .freecat import (
    FreeCategory,
    Path,
    build_free_category,
    compose,
    compose_functors,
    extend_functor,
    identity_functor,
    induced_functor,
    path_key,
)
from .kg import (
    KgHomomorphism,
    KnowledgeGraph,
    compose_homs,
    entity_adjacency_counts,
    kg_from_json,
    parse_kg,
    serialize_kg,
)
from .randgen import (
    SAMPLE_ATTEMPTS,
    random_acyclic_hom,
    random_kg,
    random_presheaf,
    random_small_category,
)
from .sheaves import (
    DEFAULT_SECTION_CAP,
    MatchingFamily,
    Presheaf,
    SheafCheck,
    SheafificationResult,
    amalgamations,
    check_adjunction,
    compose_components,
    count_subsheaves,
    enumerate_matching_families,
    global_sections,
    is_sheaf,
    omega,
    restrict,
    sheafify,
    sieve_label,
    terminal_presheaf,
)
from .sites import (
    DEFAULT_SIEVE_CAP,
    Sieve,
    Site,
    atomic_topology,
    check_inclusion,
    enumerate_sieves,
    generate_topology,
    path_coverage,
    path_topology,
    pullback_sieve,
    verify_topology_axioms,
)

SPECTRUM_TOLERANCE = 1e-9
# Site and sheaf checks on one graph run only on categories this small.
SITE_CHECK_MORPHISM_LIMIT = 40


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | skipped
    detail: str
    seconds: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "seconds": round(self.seconds, 6),
        }


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _run(name: str, fn) -> CheckResult:
    """Run one check; fn returns a list of failure strings.  A size cap
    skips the check; any other error fails it (see _failure_text)."""
    start = time.perf_counter()
    try:
        failures = fn()
        status = "pass" if not failures else "fail"
        detail = "" if not failures else "; ".join(failures[:5])
    except SizeCapError as exc:
        status, detail = "skipped", f"size cap: {exc}"
    except Exception as exc:
        status, detail = "fail", _failure_text(exc)
    elapsed = time.perf_counter() - start
    return CheckResult(name, status, detail, elapsed)


def _failure_text(exc: Exception) -> str:
    """A library error's text; any other exception's type and text."""
    return str(exc) if isinstance(exc, KgToposError) else f"{type(exc).__name__}: {exc}"


def _case_rng(suite: str, seed: int, case: int) -> Random:
    return Random(f"{suite}:{seed}:{case}")


# --- single-graph structural checks -----------------------------------


def check_roundtrip(kg: KnowledgeGraph) -> list[str]:
    reparsed = kg_from_json(serialize_kg(kg))
    return [] if reparsed == kg else ["serialization round trip changed the graph"]


def _column_sums(matrix: mx.IntMatrix) -> list[int]:
    entries, cols = matrix.entries, matrix.cols
    return [sum(entries[j::cols]) for j in range(cols)]


def check_column_sums(kg: KnowledgeGraph) -> list[str]:
    """Every column of each incidence matrix sums to 1; one matrix is
    alive at a time."""
    return [
        f"{name} incidence column {j} sums to {total}"
        for name, incidence in (("head", mx.head_incidence), ("tail", mx.tail_incidence))
        for j, total in enumerate(_column_sums(incidence(kg)))
        if total != 1
    ]


def check_gram(kg: KnowledgeGraph) -> list[str]:
    """The grams' rows against the paper's identity H^T H, by the product
    computed row by row, plus their shape: symmetric, 0/1, unit diagonal."""
    failures = []
    for name, incidence in (("out", mx.head_incidence), ("in", mx.tail_incidence)):
        gram = f"gram-{name}"
        pairs = zip_longest(mx.matrix_rows(kg, gram), incidence(kg).gram_rows())
        if any(row != expected for row, expected in pairs):
            failures.append(f"gram_{name} differs from H^T H")
        supports = list(mx.row_supports(mx.matrix_rows(kg, gram)))
        if not mx.is_symmetric_support(supports):
            failures.append(f"gram_{name} is not symmetric")
        if not set(chain.from_iterable(map(dict.values, supports))) <= {1}:
            failures.append(f"gram_{name} has entries outside 0/1")
        if any(support.get(i) != 1 for i, support in enumerate(supports)):
            failures.append(f"gram_{name} diagonal is not all ones")
    return failures


def _line_row_oracle(key: tuple[str, ...]):
    """A test of row i of a line adjacency against its definition from the
    triples' heads (or tails) `key`: the indicator of {j != i : key[j] ==
    key[i]}. The row's nonzeros must all be 1, avoid i and share key[i],
    and there must be as many of them as that set has members."""
    m, counts, columns = len(key), Counter(key), tuple(range(len(key)))

    def is_line_row(i: int, row: list[int]) -> bool:
        if i >= m or len(row) != m:
            return False
        nonzero = list(compress(columns, row))
        own = key[i]
        return (
            len(nonzero) == counts[own] - 1
            and i not in nonzero
            and set(map(row.__getitem__, nonzero)) <= {1}
            and set(map(key.__getitem__, nonzero)) <= {own}
        )

    return is_line_row


def check_line_operator_identity(kg: KnowledgeGraph) -> list[str]:
    """Each line-adjacency row against its definition from the triples,
    and against its gram row with the diagonal entry decremented."""
    failures = []
    for name, key in (("out", kg.heads), ("in", kg.tails)):
        rows = zip_longest(
            mx.matrix_rows(kg, f"adjacency-{name}"),
            mx.matrix_rows(kg, f"gram-{name}"),
            fillvalue=(),
        )
        is_line_row = _line_row_oracle(key)
        direct = identity = True
        for i, (row, gram_row) in enumerate(rows):
            direct = direct and is_line_row(i, row)
            if identity:
                shifted = list(gram_row)
                if i < len(shifted):
                    shifted[i] -= 1
                identity = shifted == row
        if not direct:
            failures.append(f"line adjacency ({name}) differs from direct recomputation")
        if not identity:
            failures.append(f"line adjacency ({name}) != gram - identity")
    return failures


def check_rank(kg: KnowledgeGraph) -> list[str]:
    failures = []
    for name, incidence, ends in (
        ("head", mx.head_incidence, kg.heads),
        ("tail", mx.tail_incidence, kg.tails),
    ):
        got, want = mx.rank_exact(incidence(kg)), len(set(ends))
        if got != want:
            failures.append(f"rank of {name} incidence {got} != distinct {name}s {want}")
    return failures


def _rank_bareiss(matrix: mx.IntMatrix) -> int:
    """Oracle for rank_exact: dense fraction-free (Bareiss) elimination,
    O(rows² · cols), rewriting every row below each pivot."""
    rows = matrix.to_rows()
    n_rows, n_cols = matrix.rows, matrix.cols
    rank = 0
    prev_pivot = 1
    for col in range(n_cols):
        pivot_row = next(
            (i for i in range(rank, n_rows) if rows[i][col] != 0), None
        )
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for i in range(rank + 1, n_rows):
            factor = rows[i][col]
            for j in range(col, n_cols):
                # Bareiss update: division by the previous pivot is exact.
                rows[i][j] = (pivot * rows[i][j] - factor * rows[rank][j]) // prev_pivot
        prev_pivot = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank


def check_rank_against_bareiss(rng: Random) -> list[str]:
    """rank_exact against Bareiss on one dense integer matrix of at most
    6 x 8 with entries in -3..3; incidence matrices alone cannot tell a
    rank from a count of nonzero rows."""
    rows, cols = rng.randint(1, 6), rng.randint(1, 8)
    matrix = mx.IntMatrix(
        rows, cols, tuple(rng.randint(-3, 3) for _ in range(rows * cols))
    )
    got, expected = mx.rank_exact(matrix), _rank_bareiss(matrix)
    if got != expected:
        return [
            f"rank_exact {got} != Bareiss rank {expected} on a {rows}x{cols} matrix"
        ]
    return []


def check_spectrum(kg: KnowledgeGraph) -> list[str]:
    failures = []
    for use_tails in (False, True):
        report = mx.spectrum_report(kg, use_tails=use_tails)
        if report.max_deviation >= SPECTRUM_TOLERANCE:
            side = "in" if use_tails else "out"
            failures.append(
                f"spectrum ({side}) deviation {report.max_deviation:.3e} "
                f">= {SPECTRUM_TOLERANCE}"
            )
    return failures


def check_line_digraph_consistency(kg: KnowledgeGraph) -> list[str]:
    failures = []
    columns = tuple(range(kg.triple_count))
    for name, build in (("out", lg.build_out_line), ("in", lg.build_in_line)):
        rows = zip_longest(
            build(kg).adjacency, mx.matrix_rows(kg, f"adjacency-{name}"), fillvalue=()
        )
        for i, (neighbours, row) in enumerate(rows):
            ones = tuple(j for j in compress(columns, row) if row[j] == 1)
            if neighbours != ones:
                failures.append(f"{name}-line digraph row {i} differs from matrix")
    return failures


# Row separators for the row-text oracle: CSV's, and the one `matrices
# --format json` passes at the depth of a matrix's entries.
_ROW_SEPARATORS = (",", ",\n      ")
# Entry -> its digit, byte for byte; entries past 255 or below 0 make
# bytes() raise, which fails the check.
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def check_row_texts(kg: KnowledgeGraph, name: str, separator: str) -> list[str]:
    """The spliced row texts of one matrix against its rows from
    `matrix_rows`, each row's entries rendered as digits and joined."""
    texts = zip_longest(
        mx.row_texts(kg, name, separator),
        (
            separator.join(bytes(row).translate(_DIGITS).decode("ascii"))
            for row in mx.matrix_rows(kg, name)
        ),
    )
    for i, (text, expected) in enumerate(texts):
        if text != expected:
            return [f"row_texts of {name} differs from its rows at row {i}"]
    return []


# The incidence and line checks, run on the given graph and on every
# incidence/line suite case.  A dict, so that perfbench's tracer, which
# patches functions held in module-level dicts, wraps each check.
_INCIDENCE_LINE_CHECKS = {
    "incidence.column_sums": check_column_sums,
    "incidence.gram": check_gram,
    "incidence.line_operator_identity": check_line_operator_identity,
    "incidence.rank": check_rank,
    "incidence.spectrum": check_spectrum,
    "line.scc_theorem": lg.verify_scc_theorem,
    "line.matrix_consistency": check_line_digraph_consistency,
}


def expected_morphism_count(kg: KnowledgeGraph) -> int:
    """Identity count plus walk counts from powers of the multigraph
    adjacency; independent of the path enumeration."""
    n = kg.entity_count
    if n == 0:
        return 0
    adjacency = mx.IntMatrix.from_rows(entity_adjacency_counts(kg))
    total = n
    power = adjacency
    while any(power.entries):
        total += sum(power.entries)
        power = power @ adjacency
    return total


def check_walk_count(cat: FreeCategory) -> list[str]:
    expected = expected_morphism_count(cat.kg)
    if cat.total_morphisms != expected:
        return [
            f"enumerated {cat.total_morphisms} morphisms, walk oracle says {expected}"
        ]
    return []


def check_fibres_match_partitions(kg: KnowledgeGraph) -> list[str]:
    """The cached fibre index against fibres recomputed by one stable sort
    of the triple indices by head (or tail), grouped by that end."""
    failures = []
    for name, index, ends in (
        ("head", kg.head_fibres, kg.heads),
        ("tail", kg.tail_fibres, kg.tails),
    ):
        by_end = sorted(range(len(ends)), key=ends.__getitem__)
        direct = dict.fromkeys(kg.entities, ())
        direct.update(
            (end, tuple(fibre)) for end, fibre in groupby(by_end, key=ends.__getitem__)
        )
        if index != direct:
            failures.append(f"{name} fibre index differs from direct recomputation")
    return failures


def _right_fold(object_map, generator_map, p: Path) -> Path:
    image = Path(object_map[p.target], object_map[p.target], ())
    for arrow in reversed(p.arrows):
        image = compose(generator_map[arrow], image)
    return image


def check_extend_functor(cat: FreeCategory, rng: Random) -> list[str]:
    """Functor extension into the free category of a random homomorphic
    image: each generator goes to the generator of its image triple.
    Construction validates the laws, and every image is compared with an
    independent right fold, so a well-typed but wrong image fails.  The
    generator paths extend to the identity functor."""
    failures = []
    f = random_acyclic_hom(rng, cat.kg)
    target = build_free_category(f.target)
    object_map = f.entity_map
    generator_map = {
        i: target.generator_path(f.target.triple_index[f.apply_triple(t)])
        for i, t in enumerate(cat.kg.triples)
    }
    functor = extend_functor(cat, object_map, generator_map, target)
    if any(
        functor.morphism_map[p] != _right_fold(object_map, generator_map, p)
        for p in cat.morphisms()
    ):
        failures.append("left and right folds disagree; extension not unique")
    identity = extend_functor(
        cat,
        {obj: obj for obj in cat.objects},
        {i: cat.generator_path(i) for i in range(cat.kg.triple_count)},
        cat,
    )
    if identity.morphism_map != identity_functor(cat).morphism_map:
        failures.append("identity assignments did not extend to the identity functor")
    return failures


def _line_map_keeps_edges(f: KgHomomorphism, vertex_map: tuple[int, ...]) -> bool:
    """Whether every out- and in-line edge whose ends stay apart under
    vertex_map maps to an edge; ends that merge collapse the edge."""
    for build in (lg.build_out_line, lg.build_in_line):
        target = build(f.target).adjacency
        for v, w in build(f.source).edges():
            iv, iw = vertex_map[v], vertex_map[w]
            if iv != iw and iw not in target[iv]:
                return False
    return True


def check_functoriality_of_homs(kg: KnowledgeGraph, rng: Random) -> list[str]:
    """C(g o f) = C(g) o C(f) and the same for the line-digraph maps."""
    failures = []
    f = random_acyclic_hom(rng, kg)
    g = random_acyclic_hom(rng, f.target)
    gf = compose_homs(g, f)
    cat_k = build_free_category(kg)
    cat_m = build_free_category(f.target)
    cat_n = build_free_category(g.target)
    functor_f = induced_functor(f, cat_k, cat_m)
    functor_g = induced_functor(g, cat_m, cat_n)
    direct = induced_functor(gf, cat_k, cat_n)
    composite = compose_functors(functor_g, functor_f)
    if direct.object_map != composite.object_map:
        failures.append("induced functor object maps disagree with composition")
    if direct.morphism_map != composite.morphism_map:
        failures.append("induced functor morphism maps disagree with composition")
    homs = (f, g, gf)
    line_maps = [lg.induced_line_map(h) for h in homs]
    if not all(map(_line_map_keeps_edges, homs, line_maps)):
        failures.append("an induced line map failed its edge check")
    map_f, map_g, map_gf = line_maps
    if tuple(map_g[v] for v in map_f) != map_gf:
        failures.append("line maps do not compose functorially")
    return failures


def _isomorphisms_into(cat: FreeCategory, obj: str) -> list[Path]:
    """Morphisms into obj admitting a two-sided inverse."""
    isos = []
    for p in cat.morphisms_into(obj):
        for q in cat.hom(p.target, p.source):
            if (
                compose(p, q) == cat.identity(p.source)
                and compose(q, p) == cat.identity(p.target)
            ):
                isos.append(p)
                break
    return isos


def _pullback_by_paths(sieve: Sieve, g: Path) -> frozenset[Path]:
    """Oracle for pullback_sieve: g*S read off the member paths.  Paths
    factor uniquely, so g*S is the members whose arrows end with g's
    arrows, with those arrows dropped."""
    if g.is_identity:
        return sieve.members
    k = len(g.arrows)
    return frozenset(
        Path(s.source, g.source, s.arrows[:-k])
        for s in sieve.members
        if s.arrows[-k:] == g.arrows
    )


def check_pullbacks_against_paths(cat: FreeCategory, sieve_cap: int) -> list[str]:
    """The table pullback of every sieve of the lattice along every
    morphism into its object, identities and composites included,
    against the pullback read off the member paths."""
    return [
        f"pullback of {sieve_label(sieve)} on {obj} along {path_key(g)} "
        "differs from the path pullback"
        for obj in cat.objects
        for sieve in enumerate_sieves(cat, obj, sieve_cap)
        for g in cat.morphisms_into(obj)
        for pulled in [pullback_sieve(cat, sieve, g)]
        if (pulled.obj, pulled.members) != (g.source, _pullback_by_paths(sieve, g))
    ]


def _closed_sieves_by_scan(
    site: Site, sieve_cap: int = DEFAULT_SIEVE_CAP
) -> dict[str, list[Sieve]]:
    """Oracle for omega: every sieve of the lattice scan that is J-closed
    (no morphism outside it pulls it back to a covering sieve), in
    omega's section order."""
    cat = site.category

    def closed(s: Sieve) -> bool:
        return not any(
            g not in s.members and site.covers(pullback_sieve(cat, s, g))
            for g in cat.morphisms_into(s.obj)
        )

    return {
        obj: sorted(
            filter(closed, enumerate_sieves(cat, obj, sieve_cap)),
            key=lambda s: (len(s.members), s.keys()),
        )
        for obj in cat.objects
    }


def _is_sheaf_by_scan(presheaf: Presheaf, site: Site) -> SheafCheck:
    """Oracle for is_sheaf: every matching family's amalgamations found
    by scanning every section against every sieve member."""
    for obj in site.category.objects:
        for sieve in site.covering_sieves(obj):
            for family in enumerate_matching_families(presheaf, sieve):
                glued = amalgamations(presheaf, family)
                if len(glued) != 1:
                    return SheafCheck.refuted(family, glued)
    return SheafCheck(True)


def _is_sheaf_against_scan(
    presheaf: Presheaf, site: Site, failures: list[str], what: str
) -> SheafCheck:
    """is_sheaf, appending a failure when the scan oracle's SheafCheck,
    counterexample included, differs."""
    check = is_sheaf(presheaf, site)
    if check != _is_sheaf_by_scan(presheaf, site):
        failures.append(f"is_sheaf disagrees with the amalgamation scan on {what}")
    return check


# --- site, omega and adjunction bodies ----------------------------------
# Each runs once per graph in graph_checks and once per case in a suite;
# the brute-force oracles run only in the suites.


def _sites(cat: FreeCategory, sieve_cap: int = DEFAULT_SIEVE_CAP) -> tuple[Site, Site]:
    """The path and the atomic site on cat, for a check to build where _run sees a fault."""
    return path_topology(cat, sieve_cap), atomic_topology(cat, sieve_cap)


def _per_site(sites: tuple[Site, Site], check, *args) -> list[str]:
    """check(site, *args) on the path and the atomic site, each failure
    named after its topology."""
    return [
        f"{name}: {failure}"
        for name, site in zip(("path", "atomic"), sites)
        for failure in check(site, *args)
    ]


def check_topologies(path: Site, atomic: Site, sieve_cap: int) -> list[str]:
    """Each closed-form topology against saturation of the coverage that
    defines it (all triples into each object; isomorphisms) and against
    the topology axioms, whose lattice scan also checks the covering list."""
    cat = path.category
    isomorphism_coverage = {
        obj: [[iso] for iso in _isomorphisms_into(cat, obj)] for obj in cat.objects
    }
    failures = []
    for name, site, coverage in (
        ("path", path, path_coverage(cat)),
        ("atomic", atomic, isomorphism_coverage),
    ):
        if site != generate_topology(cat, coverage, sieve_cap):
            failures.append(f"{name} topology differs from saturation of its coverage")
        failures.extend(f"{name}: {v}" for v in verify_topology_axioms(site, sieve_cap))
    return failures


def check_site_inclusion(path: Site, atomic: Site) -> list[str]:
    if check_inclusion(atomic, path):
        return []
    return ["atomic covering sieves are not all path-covering"]


def check_omega(site: Site, sieve_cap: int = DEFAULT_SIEVE_CAP) -> list[str]:
    """omega's sections against the closed-sieve scan, and the sheaf
    condition on omega."""
    classifier = omega(site)
    scanned = _closed_sieves_by_scan(site, sieve_cap)
    failures = [
        f"omega sections at {obj} differ from the closed-sieve scan"
        for obj in site.category.objects
        if classifier.sections[obj] != tuple(map(sieve_label, scanned[obj]))
    ]
    if not is_sheaf(classifier, site):
        failures.append("omega fails the sheaf condition")
    return failures


def check_omega_with_brute_force(site: Site) -> list[str]:
    """check_omega, then is_sheaf on omega against the amalgamation scan
    and the subsheaves of the terminal presheaf 1 against Hom(1, omega).
    These scans visit about |omega(b)|^2 pairs of a matching family and a
    section at b, and the 2^n subsets of the n objects, so only the
    suites run them, on their tiny categories."""
    failures = check_omega(site)
    classifier = omega(site)
    _is_sheaf_against_scan(classifier, site, failures, "omega")
    subsheaves = count_subsheaves(terminal_presheaf(site.category.kg), site)
    homs = global_sections(classifier)
    if subsheaves != len(homs):
        failures.append(
            f"{subsheaves} subsheaves of the terminal presheaf "
            f"but {len(homs)} maps into omega"
        )
    return failures


def _small_path_sheaf(rng: Random, site: Site, section_cap: int = 2):
    """A sheaf for the path site whose section sets respect the cap,
    obtained by sheafifying random presheaves until one fits.  No sheaf
    with a section everywhere fits a cap of 0, so then the terminal
    fallback is returned and check_adjunction reports the cap."""
    for _ in range(40):
        candidate = sheafify(
            random_presheaf(rng, site.category.kg, max_sections=max(1, section_cap)),
            site,
        ).sheaf
        if all(len(v) <= section_cap for v in candidate.sections.values()):
            return candidate
    return sheafify(terminal_presheaf(site.category.kg), site).sheaf


def check_sheaf_adjunction(rng: Random, path_site: Site, section_cap: int) -> list[str]:
    """The hom-set bijection of the adjunction between the transports,
    for a random presheaf and a small path sheaf drawn from rng."""
    atomic_side = random_presheaf(rng, path_site.category.kg, max_sections=2)
    path_side = _small_path_sheaf(rng, path_site, section_cap)
    report = check_adjunction(atomic_side, path_side, path_site, section_cap)
    if report.passed:
        return []
    return [
        f"hom counts {report.left_count} vs {report.right_count}, "
        f"bijective={report.bijective}: " + "; ".join(report.details)
    ]


# --- random property suites -------------------------------------------


def _suite(name: str, cases: int, run_case) -> list[CheckResult]:
    """One CheckResult for `cases` seeded cases; run_case(case, failures)
    appends its failure strings, each reported as `case k: <failure>`.
    Any error other than a size cap ends only its own case and becomes
    that case's last failure, after those it had collected."""

    def body() -> list[str]:
        failures: list[str] = []
        for case in range(cases):
            found: list[str] = []
            try:
                run_case(case, found)
            except SizeCapError:
                raise
            except Exception as exc:
                found.append(_failure_text(exc))
            failures.extend(f"case {case}: {failure}" for failure in found)
        return failures

    return [_run(f"{name}[{cases}]", body)]


def suite_incidence_line(
    seed: int, cases: int = 200, max_entities: int = 20, max_triples: int = 60
) -> list[CheckResult]:
    def run_case(case: int, failures: list[str]) -> None:
        failures.extend(check_rank_against_bareiss(_case_rng("rank", seed, case)))
        kg = random_kg(_case_rng("incidence", seed, case), max_entities, max_triples)
        for check in _INCIDENCE_LINE_CHECKS.values():
            failures.extend(check(kg))
        # One matrix's row texts per case, rotating through the matrices
        # and then the separators.
        names = tuple(mx.MATRICES)
        separator = _ROW_SEPARATORS[case // len(names) % len(_ROW_SEPARATORS)]
        failures.extend(check_row_texts(kg, names[case % len(names)], separator))

    return _suite("suite.incidence_line", cases, run_case)


def suite_categories(seed: int, cases: int = 100) -> list[CheckResult]:
    def run_case(case: int, failures: list[str]) -> None:
        rng = _case_rng("categories", seed, case)
        cat = random_small_category(
            rng, max_entities=8, max_triples=10, max_morphisms=250
        )
        failures.extend(check_walk_count(cat))
        failures.extend(check_fibres_match_partitions(cat.kg))
        failures.extend(check_extend_functor(cat, rng))
        failures.extend(check_functoriality_of_homs(cat.kg, rng))

    return _suite("suite.categories", cases, run_case)


def suite_topologies(
    seed: int, cases: int = 50, sieve_cap: int = DEFAULT_SIEVE_CAP
) -> list[CheckResult]:
    def run_case(case: int, failures: list[str]) -> None:
        cat = random_small_category(
            _case_rng("topologies", seed, case),
            max_entities=6,
            max_triples=7,
            max_morphisms=60,
            sieve_cap=min(10, sieve_cap),
        )
        sites = _sites(cat, sieve_cap)
        failures.extend(check_topologies(*sites, sieve_cap))
        failures.extend(check_site_inclusion(*sites))
        failures.extend(check_pullbacks_against_paths(cat, sieve_cap))
        # A second saturation, so the graph's sites.axioms leaves it out.
        path = sites[0]
        own = {
            obj: [s.sorted_members() for s in path.covering_sieves(obj)]
            for obj in cat.objects
        }
        if generate_topology(cat, own, sieve_cap) != path:
            failures.append("saturation is not idempotent")

    return _suite("suite.topologies", cases, run_case)


def _tiny_site(rng: Random) -> Site:
    cat = random_small_category(
        rng, max_entities=4, max_triples=4, max_morphisms=30, sieve_cap=8
    )
    return path_topology(cat)


def check_sheafification_product(
    presheaf: Presheaf, site: Site, result: SheafificationResult
) -> list[str]:
    """Sheafification for the path site read off the sources.  The paths
    p: s -> b from sources form the smallest covering sieve on b, so a
    section y of aP(b), restricted along each p and read back into P(s)
    through the unit (bijective at sources), gives a tuple, and y ->
    tuple must be a bijection onto the product of the P(s).  The unit
    must send x in P(b) to the section whose tuple is (P(p)(x))_p.  The
    labels m0, m1, ... must follow the plus construction's order: by the
    sorted pairs of a path key and the first step's label of the tuple's
    entry there, P(s) labelled in sorted order."""
    cat, sheaf, unit = site.category, result.sheaf, result.unit.components
    back, first_step = {}, {}
    for obj in cat.objects:
        if cat.kg.tail_fibres[obj]:
            continue
        back[obj] = {y: x for x, y in unit[obj].items()}
        if len(back[obj]) != len(unit[obj]) or set(back[obj]) != set(
            sheaf.sections[obj]
        ):
            return [f"unit not bijective at the source {obj}"]
        first_step[obj] = {
            x: f"m{k}" for k, x in enumerate(sorted(presheaf.sections[obj]))
        }
    failures = []
    for obj in cat.objects:
        paths = [p for p in cat.morphisms_into(obj) if p.source in back]
        tables = [restrict(sheaf, p) for p in paths]
        read = {
            y: tuple(back[p.source][t[y]] for p, t in zip(paths, tables))
            for y in sheaf.sections[obj]
        }
        size = prod(len(presheaf.sections[p.source]) for p in paths)
        if len(set(read.values())) != len(read) or len(read) != size:
            failures.append(
                f"sections at {obj} are not the product over paths from sources"
            )

        def plus_key(y: str) -> list[tuple[str, str]]:
            return sorted(
                (path_key(p), first_step[p.source][x]) for p, x in zip(paths, read[y])
            )

        if sorted(sheaf.sections[obj], key=plus_key) != [
            f"m{k}" for k in range(len(read))
        ]:
            failures.append(f"sections at {obj} are not labelled in plus order")
        own = [restrict(presheaf, p) for p in paths]
        if any(
            read[unit[obj][x]] != tuple(t[x] for t in own)
            for x in presheaf.sections[obj]
        ):
            failures.append(f"unit at {obj} differs from restriction to the sources")
    return failures


def _restrict_by_fold(presheaf: Presheaf, p: Path) -> dict[str, str]:
    """Oracle for restrict: the generator tables folded onto the identity
    at the path's target, last triple first, with nothing memoized."""
    table = {s: s for s in presheaf.sections[p.target]}
    for arrow in reversed(p.arrows):
        gen = presheaf.restrictions[arrow]
        table = {s: gen[v] for s, v in table.items()}
    return table


def check_restrict_against_fold(cat: FreeCategory, presheaf: Presheaf) -> list[str]:
    """restrict's table on every morphism of cat, entries in order,
    against the fold; identities and parallel paths included."""
    return [
        f"restrict differs from the fold along {path_key(p)}"
        for p in cat.morphisms()
        if list(restrict(presheaf, p).items()) != list(_restrict_by_fold(presheaf, p).items())
    ]


def _family_key(family: MatchingFamily) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((path_key(p), v) for p, v in family.assignment.items()))


def _plus_by_search(
    presheaf: Presheaf, site: Site
) -> tuple[Presheaf, dict[str, dict[str, str]]]:
    """Oracle for sheaves._plus: one plus step as the matching families
    on each minimum covering sieve found by search, labelled m0, m1, ...
    in the order of their sorted (path key, value) pairs, with the
    restriction tables and the unit read off the families."""
    cat, minimum = site.category, site.minimum
    families: dict[str, list[MatchingFamily]] = {}
    labels: dict[str, dict[tuple, str]] = {}
    sections: dict[str, tuple[str, ...]] = {}
    for obj in cat.objects:
        fams = sorted(enumerate_matching_families(presheaf, minimum[obj]), key=_family_key)
        families[obj] = fams
        labels[obj] = {_family_key(fam): f"m{k}" for k, fam in enumerate(fams)}
        sections[obj] = tuple(f"m{k}" for k in range(len(fams)))

    restrictions: dict[int, dict[str, str]] = {}
    for i, t in enumerate(cat.kg.triples):
        gen = cat.generator_path(i)
        table: dict[str, str] = {}
        for k, fam in enumerate(families[t.tail]):
            pulled = {
                h: fam.assignment[compose(h, gen)]
                for h in minimum[t.head].sorted_members()
            }
            key = _family_key(MatchingFamily(minimum[t.head], pulled))
            table[f"m{k}"] = labels[t.head][key]
        restrictions[i] = table

    unit_components: dict[str, dict[str, str]] = {}
    for obj in cat.objects:
        tables = {f: restrict(presheaf, f) for f in minimum[obj].members}
        unit_components[obj] = {
            s: labels[obj][
                _family_key(
                    MatchingFamily(minimum[obj], {f: t[s] for f, t in tables.items()})
                )
            ]
            for s in presheaf.sections[obj]
        }
    return Presheaf(cat.kg, sections, restrictions), unit_components


def _sheafification_parts(sheaf: Presheaf, unit: dict[str, dict[str, str]]) -> tuple:
    """Sections, restriction tables and unit components, each table and
    component as its list of items, so that their order counts too."""
    return (
        sheaf.sections,
        {i: list(table.items()) for i, table in sheaf.restrictions.items()},
        {obj: list(component.items()) for obj, component in unit.items()},
    )


def check_sheafify_against_search(site: Site, presheaf: Presheaf) -> list[str]:
    """sheafify's whole result against two plus steps by search."""
    result = sheafify(presheaf, site)
    once, unit1 = _plus_by_search(presheaf, site)
    twice, unit2 = _plus_by_search(once, site)
    if _sheafification_parts(
        result.sheaf, result.unit.components
    ) != _sheafification_parts(twice, compose_components(unit2, unit1)):
        return ["sheafify differs from two plus steps by search"]
    return []


def _generator_order_case() -> tuple[Presheaf, Site]:
    """A non-sheaf on the path site whose witness shows the order in which
    a sieve's generators are taken: on its first failing covering sieve,
    M(B) = {0.1, 2}, more than one family fails, and the generators run
    (2, 0.1) shortest first but (0.1, 2) by key."""
    kg = parse_kg("X r0 Y\nY r1 B\nZ r2 B\n")
    sections = {"X": ("x0", "x1"), "Y": ("y0", "y1"), "Z": ("z0", "z1"), "B": ("b0",)}
    restrictions = {0: {"y0": "x0", "y1": "x1"}, 1: {"b0": "y0"}, 2: {"b0": "z0"}}
    return Presheaf(kg, sections, restrictions), path_topology(build_free_category(kg))


def suite_sheafification(seed: int, cases: int = 30) -> list[CheckResult]:
    def run_case(case: int, failures: list[str]) -> None:
        if case == 0:  # once per suite; it draws nothing from the case RNGs
            _is_sheaf_against_scan(
                *_generator_order_case(), failures, "the generator-order presheaf"
            )
        rng = _case_rng("sheafification", seed, case)
        site = _tiny_site(rng)
        presheaf = random_presheaf(rng, site.category.kg, max_sections=3)
        result = sheafify(presheaf, site)
        failures.extend(check_sheafification_product(presheaf, site, result))
        atomic = atomic_topology(site.category)
        failures.extend(
            _per_site((site, atomic), check_sheafify_against_search, presheaf)
        )
        if not _is_sheaf_against_scan(
            result.sheaf, site, failures, "the sheafified presheaf"
        ):
            failures.append("sheafified presheaf fails the sheaf condition")
        again = sheafify(result.sheaf, site)
        counts = {o: len(s) for o, s in result.sheaf.sections.items()}
        counts_again = {o: len(s) for o, s in again.sheaf.sections.items()}
        if counts != counts_again:
            failures.append("sheafification not idempotent on counts")
        # After both sheafify calls have filled the two memos.
        failures.extend(check_restrict_against_fold(site.category, presheaf))
        failures.extend(check_restrict_against_fold(site.category, result.sheaf))
        if _is_sheaf_against_scan(presheaf, site, failures, "the presheaf"):
            for obj in site.category.objects:
                component = result.unit.components[obj]
                if len(set(component.values())) != len(
                    presheaf.sections[obj]
                ) or len(component) != len(result.sheaf.sections[obj]):
                    failures.append(f"unit not bijective at {obj} on a sheaf")

    return _suite("suite.sheafification", cases, run_case)


def suite_adjunction(seed: int, cases: int = 20) -> list[CheckResult]:
    def run_case(case: int, failures: list[str]) -> None:
        rng = _case_rng("adjunction", seed, case)
        failures.extend(check_sheaf_adjunction(rng, _tiny_site(rng), section_cap=2))

    return _suite("suite.adjunction", cases, run_case)


def _category_with_a_triple(rng: Random) -> FreeCategory:
    """A small category redrawn from rng until it has a triple: without
    one, omega is {max, empty} at every object whatever builds it."""
    for _ in range(SAMPLE_ATTEMPTS):
        cat = random_small_category(
            rng, max_entities=4, max_triples=3, max_morphisms=20, sieve_cap=6
        )
        if cat.kg.triple_count:
            return cat
    raise SizeCapError(f"no category with a triple in {SAMPLE_ATTEMPTS} draws")


def suite_omega(seed: int, cases: int = 10) -> list[CheckResult]:
    def run_case(case: int, failures: list[str]) -> None:
        cat = _category_with_a_triple(_case_rng("omega", seed, case))
        failures.extend(_per_site(_sites(cat), check_omega_with_brute_force))

    return _suite("suite.omega", cases, run_case)


# --- whole-graph verification -----------------------------------------


def _gated(reason: str | None, checks) -> list[CheckResult]:
    """Each (name, body) of checks run, or all SKIPPED with the gate's
    reason when it has one."""
    if reason:
        return [CheckResult(name, "skipped", reason, 0.0) for name, _ in checks]
    return [_run(name, body) for name, body in checks]


def graph_checks(
    kg: KnowledgeGraph,
    max_path_length: int | None = None,
    sieve_cap: int = DEFAULT_SIEVE_CAP,
    section_cap: int = DEFAULT_SECTION_CAP,
) -> list[CheckResult]:
    """Every applicable structural check on one graph, size-gated."""
    results = [_run("kg.roundtrip", partial(check_roundtrip, kg))]
    results += [
        _run(name, partial(check, kg)) for name, check in _INCIDENCE_LINE_CHECKS.items()
    ]
    try:
        cat = build_free_category(kg, max_path_length)
        reason = None if cat.complete else "hom-sets truncated by the length bound"
    except InfiniteCategoryError as exc:
        cat, reason = None, f"free category unavailable: {exc}"
    results += _gated(reason, [("freecat.walk_count", partial(check_walk_count, cat))])
    # The fibre index needs no category, so cyclic graphs get it too.
    results.append(_run("freecat.fibres", partial(check_fibres_match_partitions, kg)))
    if reason:
        reason = "free category unavailable or truncated"
    elif cat.total_morphisms > SITE_CHECK_MORPHISM_LIMIT or any(
        len(cat.morphisms_into(obj)) > sieve_cap for obj in cat.objects
    ):
        reason = (
            f"category has {cat.total_morphisms} morphisms; site and sheaf "
            f"checks are gated at {SITE_CHECK_MORPHISM_LIMIT} and sieve cap {sieve_cap}"
        )
    sites = cache(partial(_sites, cat, sieve_cap))
    rng = Random(f"graph-adjunction:{kg.triple_count}")
    return results + _gated(reason, [
        ("sites.axioms", lambda: check_topologies(*sites(), sieve_cap)),
        ("sites.inclusion", lambda: check_site_inclusion(*sites())),
        ("sheaf.omega", lambda: _per_site(sites(), check_omega, sieve_cap)),
        ("sheaf.adjunction", lambda: check_sheaf_adjunction(rng, sites()[0], section_cap)),
    ])


def run_verification(
    kg: KnowledgeGraph | None = None,
    random_mode: bool = False,
    cases: int = 200,
    seed: int = 0,
    max_size: int = 60,
    max_path_length: int | None = None,
    sieve_cap: int = DEFAULT_SIEVE_CAP,
    section_cap: int = DEFAULT_SECTION_CAP,
) -> VerifyReport:
    """Graph checks for `kg` and/or the seeded random suites.

    `max_size` bounds the triple count of the random graphs in the
    incidence/line suite; the later suites use smaller built-in bounds so
    that saturation and brute-force enumeration stay tractable.
    """
    checks: list[CheckResult] = []
    if kg is not None:
        checks.extend(
            graph_checks(kg, max_path_length, sieve_cap, section_cap)
        )
    if random_mode:
        checks.extend(
            suite_incidence_line(
                seed,
                cases,
                max_entities=max(1, min(20, max_size // 3)),
                max_triples=max(1, max_size),
            )
        )
        checks.extend(suite_categories(seed, max(1, cases // 2)))
        checks.extend(suite_topologies(seed, max(1, cases // 4), sieve_cap))
        checks.extend(suite_sheafification(seed, max(1, (3 * cases) // 20)))
        checks.extend(suite_adjunction(seed, max(1, cases // 10)))
        checks.extend(suite_omega(seed, max(1, cases // 20)))
    return VerifyReport(seed, tuple(checks))
