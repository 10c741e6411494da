"""Seeded inputs, op lists and known answers for the three workloads.

The seed drives only the generated files (entity and predicate names,
triple order, random restriction maps); every workload keeps the same
shape for every seed, so runs with different seeds measure the same
amount of work.  Every op carries a known answer computed here from the
triples and presheaf documents, independently of the code under test.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import product
from math import prod
from pathlib import Path
from random import Random
from typing import Callable

WORKLOADS = ("wide-graph", "deep-site", "verify-random")

VERDICT, CONSTRUCT = "verdict", "construct"

# wide-graph: a cyclic random multigraph at the size where graph_checks
# takes seconds (dense pure-Python matmul, m^2 CSV/JSON rows).
WIDE_ENTITIES, WIDE_TRIPLES, WIDE_PREDICATES = 100, 300, 4
# deep-site: layered DAG, complete between adjacent layers; 15 morphisms
# point into each sink, so the site needs --sieve-cap 15.
DAG_WIDTH, DAG_LAYERS, DAG_SIEVE_CAP = 2, 4, 15
DAG_SOURCE_SECTIONS = (2, 1)
# verify-random: the fan fixture plus many tiny sheafify calls, where
# per-call overhead rather than asymptotics sets the time.
FAN_TRIPLES = (("A", "r1", "B"), ("A", "r2", "C"), ("D", "r3", "B"), ("D", "r4", "C"))
RANDOM_CASES = 200
# The ROADMAP's named run.  The suites' work moves by about 20% with the
# verify seed, so it stays fixed; the workload seed drives the presheaves.
VERIFY_SEED = 42
FAN_SHEAFIFY_OPS = 48
# Sections at the two sources and at each other entity, cycled over the
# sheafify ops so that every seed does the same amount of work.
FAN_SECTION_SIZES = ((1, 2, 1), (2, 2, 2), (2, 3, 3), (3, 3, 2))

Triple = tuple[str, str, str]

_SECONDS = re.compile(rb"\(\d+\.\d+s\)")


@dataclass(frozen=True)
class Op:
    """One CLI invocation with its known answer.

    `args` name input files relative to the work directory.  `check`
    returns a list of mismatches between stdout and the known answer.
    `mask_seconds` blanks the per-check timings `verify` prints, so that
    the digest covers every other byte of its output.  An untraced run
    repeats every op that is not `once` until its time is up, and takes
    the median of each op's samples.
    """

    name: str
    kind: str
    args: tuple[str, ...]
    exit_code: int
    check: Callable[[str], list[str]]
    mask_seconds: bool = False
    once: bool = False

    def argv(self, workdir: Path, files) -> list[str]:
        return [str(workdir / a) if a in files else a for a in self.args]

    def digest_input(self, stdout: bytes) -> bytes:
        return _SECONDS.sub(b"(s)", stdout) if self.mask_seconds else stdout


@dataclass
class Workload:
    files: dict[str, str]
    ops: list[Op]
    shape: dict

    def write(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (workdir / name).write_text(text, encoding="utf-8")


# --- generic helpers ----------------------------------------------------


def triples_text(triples: list[Triple]) -> str:
    return "".join(f"{h} {p} {t}\n" for h, p, t in triples)


def entity_order(triples: list[Triple]) -> list[str]:
    """Entities by first appearance, head before tail (the file contract)."""
    seen: dict[str, None] = {}
    for h, _, t in triples:
        seen.setdefault(h)
        seen.setdefault(t)
    return list(seen)


def _csv(rows: list[list[int]]) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def _expect_exact(expected: str, what: str) -> Callable[[str], list[str]]:
    def check(stdout: str) -> list[str]:
        return [] if stdout == expected else [f"{what} differs from the recomputation"]

    return check


def _expect_verify_passed(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if not lines or not lines[-1].endswith("all checks passed"):
        return ["verify did not print 'all checks passed'"]
    if any(line.startswith("FAIL") for line in lines):
        return ["verify reported a failing check"]
    return []


def _json_field(stdout: str, key: str):
    try:
        return json.loads(stdout)[key]
    except (json.JSONDecodeError, KeyError, TypeError):
        return None


def _expect_json(expected: dict) -> Callable[[str], list[str]]:
    def check(stdout: str) -> list[str]:
        mismatches = []
        for key, value in expected.items():
            got = _json_field(stdout, key)
            if got != value:
                mismatches.append(f"{key}: expected {value!r}, got {got!r}")
        return mismatches

    return check


# --- wide-graph ---------------------------------------------------------


def wide_graph_triples(rng: Random) -> list[Triple]:
    """One fixed multigraph, relabelled and reordered by `rng`.

    Its structure is drawn once, from a fixed seed: a directed Hamiltonian
    cycle over all entities (so every entity occurs and the graph is
    cyclic), then random distinct triples.  `rng` draws only the entity
    and predicate names and the triple order, so every seed gets an
    isomorphic graph and the same amount of work, as on deep-site.
    """
    shape = Random("wide-graph")
    edges: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()

    def add(edge: tuple[int, int, int]) -> None:
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)

    for i in range(WIDE_ENTITIES):
        add((i, shape.randrange(WIDE_PREDICATES), (i + 1) % WIDE_ENTITIES))
    while len(edges) < WIDE_TRIPLES:
        add((shape.randrange(WIDE_ENTITIES), shape.randrange(WIDE_PREDICATES),
             shape.randrange(WIDE_ENTITIES)))
    names = [f"e{k}" for k in rng.sample(range(10_000), WIDE_ENTITIES)]
    predicates = [f"p{k}" for k in rng.sample(range(100), WIDE_PREDICATES)]
    triples = [(names[h], predicates[p], names[t]) for h, p, t in edges]
    rng.shuffle(triples)
    return triples


def incidence_rows(triples: list[Triple], use_tails: bool) -> list[list[int]]:
    entities = entity_order(triples)
    end = 2 if use_tails else 0
    return [[1 if t[end] == e else 0 for t in triples] for e in entities]


def shared_end_rows(triples: list[Triple], use_tails: bool, diagonal: bool) -> list[list[int]]:
    """Rows of the shared-head (or shared-tail) indicator, from grouping
    triples by that end."""
    end = 2 if use_tails else 0
    groups: dict[str, list[int]] = {}
    for j, t in enumerate(triples):
        groups.setdefault(t[end], []).append(j)
    m = len(triples)
    rows = []
    for i, t in enumerate(triples):
        row = [0] * m
        for j in groups[t[end]]:
            if diagonal or j != i:
                row[j] = 1
        rows.append(row)
    return rows


def expected_matrices(triples: list[Triple]) -> dict[str, list[list[int]]]:
    return {
        "head": incidence_rows(triples, False),
        "tail": incidence_rows(triples, True),
        "gram-out": shared_end_rows(triples, False, True),
        "gram-in": shared_end_rows(triples, True, True),
        "adjacency-out": shared_end_rows(triples, False, False),
        "adjacency-in": shared_end_rows(triples, True, False),
    }


def expected_matrices_csv(matrices: dict[str, list[list[int]]]) -> str:
    return "\n".join(f"# {name}\n" + _csv(rows) for name, rows in matrices.items())


def _expect_matrices_json(matrices: dict[str, list[list[int]]]) -> Callable[[str], list[str]]:
    expected = {name.replace("-", "_"): rows for name, rows in matrices.items()}

    def check(stdout: str) -> list[str]:
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            return ["matrices JSON does not parse"]
        return [] if got == expected else ["matrices JSON differs from the recomputation"]

    return check


def _expect_line_dot(triples: list[Triple], rows: list[list[int]]) -> Callable[[str], list[str]]:
    edge = re.compile(r"^  t(\d+) -> t(\d+);$")
    expected = {(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x}
    labels = [f'  t{i} [label="{h} --{p}--> {t}"];' for i, (h, p, t) in enumerate(triples)]

    def check(stdout: str) -> list[str]:
        lines = stdout.splitlines()
        got = set()
        for line in lines:
            match = edge.match(line)
            if match:
                got.add((int(match[1]), int(match[2])))
        mismatches = []
        if got != expected:
            mismatches.append(f"out-line DOT has {len(got)} edges, expected {len(expected)}")
        if lines[1 : 1 + len(labels)] != labels:
            mismatches.append("out-line DOT vertex labels differ from the triples")
        return mismatches

    return check


def wide_graph(seed: int) -> Workload:
    triples = wide_graph_triples(Random(f"wide-graph:{seed}"))
    matrices = expected_matrices(triples)
    ops = [
        Op("matrices-csv", CONSTRUCT, ("matrices", "graph.txt"), 0,
           _expect_exact(expected_matrices_csv(matrices), "matrices CSV")),
        Op("matrices-json", CONSTRUCT, ("matrices", "graph.txt", "--format", "json"), 0,
           _expect_matrices_json(matrices)),
        Op("line-out-dot", CONSTRUCT,
           ("line", "graph.txt", "--direction", "out", "--format", "dot"), 0,
           _expect_line_dot(triples, matrices["adjacency-out"])),
        Op("line-in-csv", CONSTRUCT,
           ("line", "graph.txt", "--direction", "in", "--format", "csv"), 0,
           _expect_exact(_csv(matrices["adjacency-in"]), "in-line adjacency CSV")),
        Op("verify-graph", VERDICT, ("verify", "graph.txt", "--max-path-length", "2"), 0,
           _expect_verify_passed, mask_seconds=True),
    ]
    shape = {
        "triples": len(triples),
        "entities": len(entity_order(triples)),
        "predicates": len({p for _, p, _ in triples}),
    }
    return Workload({"graph.txt": triples_text(triples)}, ops, shape)


# --- presheaves determined by their values on sources ------------------


def source_paths(triples: list[Triple]) -> dict[str, list[tuple[str, tuple[int, ...]]]]:
    """For an acyclic graph, every path into each entity that starts at
    a source entity, as (source, triple indices), in a fixed order."""
    entities = entity_order(triples)
    incoming: dict[str, list[int]] = {e: [] for e in entities}
    for i, (_, _, t) in enumerate(triples):
        incoming[t].append(i)
    memo: dict[str, list[tuple[str, tuple[int, ...]]]] = {}

    def paths(e: str) -> list[tuple[str, tuple[int, ...]]]:
        if e not in memo:
            if not incoming[e]:
                memo[e] = [(e, ())]
            else:
                memo[e] = [
                    (src, arrows + (i,))
                    for i in incoming[e]
                    for src, arrows in paths(triples[i][0])
                ]
        return memo[e]

    return {e: paths(e) for e in entities}


def sheafified_counts(triples: list[Triple], source_sections: dict[str, int]) -> dict[str, int]:
    """|aP(b)| = product of |P(s)| over the paths s -> b from a source s."""
    return {
        e: prod(source_sections[src] for src, _ in paths)
        for e, paths in source_paths(triples).items()
    }


def morphisms_into(triples: list[Triple]) -> dict[str, int]:
    """Paths into each entity of an acyclic graph, identity included."""
    memo: dict[str, int] = {}

    def count(e: str) -> int:
        if e not in memo:
            memo[e] = 1 + sum(count(h) for h, _, t in triples if t == e)
        return memo[e]

    return {e: count(e) for e in entity_order(triples)}


def covering_sieve_counts(triples: list[Triple]) -> dict[str, int]:
    """|J(b)| = 1 + product over triples a -> b of |J(a)|; 1 at sources."""
    memo: dict[str, int] = {}

    def count(e: str) -> int:
        if e not in memo:
            incoming = [h for h, _, t in triples if t == e]
            memo[e] = 1 + prod(count(h) for h in incoming) if incoming else 1
        return memo[e]

    return {e: count(e) for e in entity_order(triples)}


def product_sheaf(triples: list[Triple], source_labels: dict[str, list[str]]) -> dict:
    """The sheaf whose sections at b are the tuples of source sections,
    one per path into b from a source; restriction along t: a -> b reads
    off the entries of the paths that end with t.  Shaped like
    tests/data/product_presheaf.json."""
    paths = source_paths(triples)

    def label(values: tuple[str, ...], e: str) -> str:
        return values[0] if paths[e] == [(e, ())] else "(" + ",".join(values) + ")"

    sections = {}
    values_at: dict[str, list[tuple[str, ...]]] = {}
    for e in entity_order(triples):
        values_at[e] = list(product(*(source_labels[src] for src, _ in paths[e])))
        sections[e] = [label(v, e) for v in values_at[e]]
    restrictions = {}
    for i, (h, p, t) in enumerate(triples):
        position = {path: k for k, path in enumerate(paths[t])}
        picks = [position[(src, arrows + (i,))] for src, arrows in paths[h]]
        restrictions[f"{h} {p} {t}"] = {
            label(v, t): label(tuple(v[k] for k in picks), h) for v in values_at[t]
        }
    return {"sections": sections, "restrictions": restrictions}


def undersized(sheaf: dict, obj: str) -> dict:
    """Keep one section at obj: too few to glue every matching family
    on its covering sieves.  Shaped like tests/data/undersized_presheaf.json."""
    keep = sheaf["sections"][obj][0]
    restrictions = {
        key: ({keep: table[keep]} if key.split()[2] == obj else dict(table))
        for key, table in sheaf["restrictions"].items()
    }
    sections = {e: list(s) if e != obj else [keep] for e, s in sheaf["sections"].items()}
    return {"sections": sections, "restrictions": restrictions}


def presheaf_with_sources(triples: list[Triple], source_labels: dict[str, list[str]],
                          inner: int = 1, rng: Random | None = None) -> dict:
    """Given sections at sources and `inner` sections at every other
    entity, with restriction maps chosen by rng (or the first section)."""
    sections = {
        e: list(source_labels[e]) if e in source_labels else [f"{e}s{j}" for j in range(inner)]
        for e in entity_order(triples)
    }
    restrictions = {
        f"{h} {p} {t}": {s: rng.choice(sections[h]) if rng else sections[h][0] for s in sections[t]}
        for h, p, t in triples
    }
    return {"sections": sections, "restrictions": restrictions}


def _expect_counts(expected: dict[str, int], is_sheaf: bool | None = None):
    def check(stdout: str) -> list[str]:
        mismatches = []
        counts = _json_field(stdout, "section_counts")
        if counts != expected:
            mismatches.append(f"section counts {counts} != formula {expected}")
        if is_sheaf is not None and _json_field(stdout, "is_sheaf") is not is_sheaf:
            mismatches.append(f"is_sheaf is not {is_sheaf}")
        return mismatches

    return check


def _expect_covering_counts(expected: dict[str, int]):
    def check(stdout: str) -> list[str]:
        covering = _json_field(stdout, "covering")
        got = {obj: len(s) for obj, s in covering.items()} if isinstance(covering, dict) else None
        return [] if got == expected else [f"covering sieve counts {got} != {expected}"]

    return check


# --- deep-site ----------------------------------------------------------


def layered_dag(rng: Random) -> tuple[list[Triple], list[list[str]]]:
    """DAG_LAYERS layers of DAG_WIDTH entities, every entity of a layer
    pointing to every entity of the next; names and file order seeded."""
    count = DAG_WIDTH * DAG_LAYERS
    names = [f"n{k}" for k in rng.sample(range(1000), count)]
    layers = [names[i * DAG_WIDTH : (i + 1) * DAG_WIDTH] for i in range(DAG_LAYERS)]
    edges = [(a, b) for upper, lower in zip(layers, layers[1:]) for a in upper for b in lower]
    predicates = [f"r{k}" for k in rng.sample(range(1000), len(edges))]
    triples = [(a, p, b) for (a, b), p in zip(edges, predicates)]
    # Triples out of upper layers come first, so the canonical entity
    # order runs layer by layer; within a layer the order is seeded.
    layer_of = {name: k for k, layer in enumerate(layers) for name in layer}
    order = sorted(range(len(triples)), key=lambda i: (layer_of[triples[i][0]], rng.random()))
    return [triples[i] for i in order], layers


def deep_site(seed: int) -> Workload:
    rng = Random(f"deep-site:{seed}")
    triples, layers = layered_dag(rng)
    sources = layers[0]
    source_labels = {
        src: [f"{src}v{j}" for j in range(k)] for src, k in zip(sources, DAG_SOURCE_SECTIONS)
    }
    source_sizes = {src: len(v) for src, v in source_labels.items()}
    sheaf = product_sheaf(triples, source_labels)
    # The last object in canonical order: is_sheaf reaches it only after
    # checking every other object, whatever order the seed gives.
    sink = entity_order(triples)[-1]
    presheaf = presheaf_with_sources(triples, source_labels)
    site = ("--sieve-cap", str(DAG_SIEVE_CAP))
    path_counts = covering_sieve_counts(triples)
    global_count = prod(source_sizes.values())
    ops = [
        # The long construct ops run once, so the rest of the run goes to
        # samples of the sub-second verdict ops next to a 20 s omega.
        Op("covers-path", CONSTRUCT, ("covers", "graph.txt", "--topology", "path") + site, 0,
           _expect_covering_counts(path_counts), once=True),
        Op("covers-atomic", CONSTRUCT, ("covers", "graph.txt", "--topology", "atomic") + site, 0,
           _expect_covering_counts({e: 1 for e in path_counts})),
        Op("check-undersized", VERDICT, ("sheaf", "check", "graph.txt", "undersized.json") + site,
           1, _expect_json({"is_sheaf": False})),
        Op("sheafify", CONSTRUCT, ("sheaf", "sheafify", "graph.txt", "presheaf.json") + site, 0,
           _expect_counts(sheafified_counts(triples, source_sizes), is_sheaf=True), once=True),
        Op("check-product", VERDICT, ("sheaf", "check", "graph.txt", "product.json") + site, 0,
           _expect_json({"is_sheaf": True})),
        Op("omega", CONSTRUCT, ("sheaf", "omega", "graph.txt") + site, 0,
           _expect_json({"is_sheaf": True}), once=True),
        Op("global", CONSTRUCT, ("sheaf", "global", "graph.txt", "product.json") + site, 0,
           _expect_json({"count": global_count}), once=True),
        Op("verify-graph", VERDICT, ("verify", "graph.txt") + site, 0,
           _expect_verify_passed, mask_seconds=True),
    ]
    files = {
        "graph.txt": triples_text(triples),
        "product.json": json.dumps(sheaf, indent=2) + "\n",
        "undersized.json": json.dumps(undersized(sheaf, sink), indent=2) + "\n",
        "presheaf.json": json.dumps(presheaf, indent=2) + "\n",
    }
    shape = {
        "triples": len(triples),
        "entities": len(entity_order(triples)),
        "layers": [len(layer) for layer in layers],
        "morphisms_into_sink": morphisms_into(triples)[sink],
        "sink_sections": len(sheaf["sections"][sink]),
        "covering_sieves": sum(path_counts.values()),
    }
    return Workload(files, ops, shape)


# --- verify-random ------------------------------------------------------


def verify_random(seed: int) -> Workload:
    rng = Random(f"verify-random:{seed}")
    fan = list(FAN_TRIPLES)
    sources = [e for e in entity_order(fan) if all(t != e for _, _, t in fan)]
    files = {"fan.txt": triples_text(fan)}
    ops = [
        Op("verify-random", VERDICT,
           ("verify", "fan.txt", "--random", "--cases", str(RANDOM_CASES),
            "--seed", str(VERIFY_SEED)),
           0, _expect_verify_passed, mask_seconds=True),
    ]
    for k in range(FAN_SHEAFIFY_OPS):
        *source_sizes, inner = FAN_SECTION_SIZES[k % len(FAN_SECTION_SIZES)]
        labels = {src: [f"{src}{j}" for j in range(n)] for src, n in zip(sources, source_sizes)}
        name = f"fan_presheaf_{k}.json"
        files[name] = json.dumps(presheaf_with_sources(fan, labels, inner, rng)) + "\n"
        expected = sheafified_counts(fan, dict(zip(sources, source_sizes)))
        ops.append(Op(f"sheafify-fan-{k}", CONSTRUCT, ("sheaf", "sheafify", "fan.txt", name), 0,
                      _expect_counts(expected, is_sheaf=True)))
    shape = {
        "triples": len(fan),
        "cases": RANDOM_CASES,
        "sheafify_ops": FAN_SHEAFIFY_OPS,
        "fan_section_sizes": [list(FAN_SECTION_SIZES[k % len(FAN_SECTION_SIZES)])
                              for k in range(FAN_SHEAFIFY_OPS)],
    }
    return Workload(files, ops, shape)


BUILDERS = {"wide-graph": wide_graph, "deep-site": deep_site, "verify-random": verify_random}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
