"""The CLI's exit-code contract under generated hostile input.

Every run must exit 0, 1, 2 or 3 with no Python traceback; documents the
library rejects must exit 2, and a star graph past the sieve cap must
exit 3 quickly instead of scanning sieves.  Generated chains, stars,
two-layer DAGs and cycles go through every `sheaf` command.  Example
counts are small and every cap stays at most 12, so the module runs in
a few seconds.
"""

import copy
import json
import time
from pathlib import Path

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgtopos import KgToposError, load_presheaf, parse_kg
from kgtopos.cli import main
from kgtopos.kg import find_entity_cycle

DATA = Path(__file__).parent / "data"
FAN = str(DATA / "fan.txt")
PRODUCT = str(DATA / "product_presheaf.json")
PRODUCT_DOC = json.loads((DATA / "product_presheaf.json").read_text())
FAMILY_DOC = {"object": "B", "assignment": {"0": "a1", "2": "d1"}}
FAN_KG = parse_kg((DATA / "fan.txt").read_text())

SETTINGS = settings(max_examples=40, deadline=None)

# Strings the fan's documents use, so that generated documents get past
# the first lookups often, plus arbitrary short text.
WORDS = st.sampled_from(
    ["A", "B", "C", "D", "0", "2", "id@B", "a1", "d1", "(a1,d1)", "sections",
     "restrictions", "object", "assignment", "A r1 B"]
) | st.text(max_size=4)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | WORDS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(WORDS, children, max_size=4),
    max_leaves=10,
)


def _subtree_paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _subtree_paths(value, prefix + (key,))


@st.composite
def mutated(draw, base):
    """`base` with one subtree replaced by arbitrary JSON or deleted."""
    path = draw(st.sampled_from(list(_subtree_paths(base))))
    if not path:
        return draw(JSON)
    doc = copy.deepcopy(base)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        parent[path[-1]] = draw(JSON)
    else:
        del parent[path[-1]]
    return doc


def _run(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        repr(result.exception)
    )
    assert "Traceback" not in result.output
    if result.exit_code in (2, 3):
        # Errors are raised before the first byte: no partial stdout.
        assert result.stdout == "", result.stdout
    return result


def _rejects_presheaf(doc) -> bool:
    try:
        load_presheaf(FAN_KG, doc)
    except KgToposError:
        return True
    return False


@SETTINGS
@given(
    command=st.sampled_from(["check", "sheafify", "global"]),
    doc=JSON | mutated(PRODUCT_DOC),
)
@example(command="check", doc={"sections": ["A"], "restrictions": {}})
@example(command="global", doc={**PRODUCT_DOC, "restrictions": None})
def test_presheaf_documents(tmp_path_factory, command, doc):
    path = tmp_path_factory.mktemp("presheaf") / "presheaf.json"
    path.write_text(json.dumps(doc))
    result = _run(["sheaf", command, FAN, str(path)])
    if not isinstance(doc, dict) or _rejects_presheaf(doc):
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
    else:
        assert result.exit_code in (0, 1)


@SETTINGS
@given(doc=JSON | mutated(FAMILY_DOC))
@example(doc={"object": "B", "assignment": {"0": "zz", "2": "d1"}})
def test_family_documents(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("family") / "family.json"
    path.write_text(json.dumps(doc))
    result = _run(["sheaf", "glue", FAN, PRODUCT, "--family", str(path)])
    # Gluing either succeeds or rejects the family as input.
    assert result.exit_code in ((0, 2) if isinstance(doc, dict) else (2,))


TRIPLE_LINES = st.lists(
    st.lists(st.sampled_from(["A", "B", "C", "r", "s", "#", "\t"]), max_size=4).map(" ".join),
    max_size=6,
).map("\n".join).map(str.encode)
COMMANDS = st.sampled_from(
    [
        ["matrices"],
        ["matrices", "--format", "json"],
        ["line", "--format", "csv"],
        ["line", "--format", "json"],
        ["freecat", "--max-path-length", "2"],
        ["covers", "--sieve-cap", "6"],
        ["sheaf", "omega", "--sieve-cap", "6"],
        ["verify", "--sieve-cap", "6"],
        ["verify", "--max-path-length", "3"],
    ]
)


@SETTINGS
@given(content=TRIPLE_LINES | st.binary(max_size=40), command=COMMANDS)
@example(content=b"A r B\n\xe9 r C\n", command=["matrices"])
def test_triple_files(tmp_path_factory, content, command):
    path = tmp_path_factory.mktemp("graph") / "graph.txt"
    path.write_bytes(content)
    result = _run(command + [str(path)])
    try:
        parse_kg(content.decode("utf-8"))
    except (UnicodeDecodeError, KgToposError):
        assert result.exit_code == 2


CAP = st.integers(-3, 12)


@SETTINGS
@given(
    command=st.sampled_from(["covers", "omega", "adjoint", "verify-graph", "verify-random"]),
    sieve_cap=CAP,
    section_cap=CAP,
    max_path_length=st.integers(-3, 3),
    cases=st.integers(-1, 4),
    max_size=st.integers(-3, 12),
)
@example(command="verify-random", sieve_cap=0, section_cap=3, max_path_length=3, cases=4,
         max_size=60)
@example(command="verify-random", sieve_cap=12, section_cap=3, max_path_length=3, cases=1,
         max_size=-5)
def test_option_values(command, sieve_cap, section_cap, max_path_length, cases, max_size):
    caps = ["--sieve-cap", str(sieve_cap)]
    bound = ["--max-path-length", str(max_path_length)]
    args, negative = {
        "covers": (["covers", FAN, *caps], sieve_cap < 0),
        "omega": (["sheaf", "omega", FAN, *caps], sieve_cap < 0),
        "adjoint": (
            ["sheaf", "adjoint", FAN, PRODUCT, "--other", PRODUCT, *caps,
             "--section-cap", str(section_cap)],
            min(sieve_cap, section_cap) < 0,
        ),
        "verify-graph": (
            ["verify", FAN, *caps, "--section-cap", str(section_cap), *bound],
            min(sieve_cap, section_cap, max_path_length) < 0,
        ),
        "verify-random": (
            ["verify", "--random", "--cases", str(cases), "--max-size", str(max_size), *caps],
            sieve_cap < 0 or cases < 1 or max_size < 1,
        ),
    }[command]
    result = _run(args)
    if negative:
        assert result.exit_code == 2


@SETTINGS
@given(
    command=st.sampled_from([["covers"], ["sheaf", "omega"]]),
    sieve_cap=st.integers(0, 12),
    extra=st.integers(0, 40),
)
def test_star_past_the_sieve_cap_exits_3(tmp_path_factory, command, sieve_cap, extra):
    # At least sieve_cap sources point at T, so with its identity T has
    # more incoming morphisms than the cap allows.
    path = tmp_path_factory.mktemp("star") / "star.txt"
    path.write_text("".join(f"s{i} r T\n" for i in range(max(1, sieve_cap + extra))))
    start = time.perf_counter()
    result = _run([*command, str(path), "--sieve-cap", str(sieve_cap)])
    assert result.exit_code == 3
    assert time.perf_counter() - start < 2.0


@st.composite
def generated_graphs(draw):
    """A chain, a star, a two-layer DAG or one cycle, with at most 8
    triples, as triple-file text."""
    shape = draw(st.sampled_from(["chain", "star", "layers", "cycle"]))
    n = draw(st.integers(1, 8))
    if shape == "chain":
        pairs = [(f"e{i}", f"e{i + 1}") for i in range(n)]
    elif shape == "star":
        pairs = [(f"s{i}", "T") for i in range(n)]
    elif shape == "layers":
        edges = [(f"a{i}", f"b{j}") for i in range(3) for j in range(3)]
        pairs = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=8, unique=True))
    else:
        pairs = [(f"c{i}", f"c{(i + 1) % n}") for i in range(n)]
    return "".join(f"{head} r {tail}\n" for head, tail in pairs)


@settings(max_examples=30, deadline=None)
@given(text=generated_graphs())
def test_generated_graphs_through_every_sheaf_command(tmp_path_factory, text):
    # The constant presheaf is terminal, so on an acyclic graph every
    # command succeeds; on a cycle every one refuses the infinite
    # hom-sets with exit 2.
    kg = parse_kg(text)
    obj = kg.triples[-1].tail
    folder = tmp_path_factory.mktemp("generated")
    graph, presheaf, family = (folder / name for name in ("g.txt", "p.json", "f.json"))
    graph.write_text(text)
    presheaf.write_text(json.dumps({
        "sections": {e: ["*"] for e in kg.entities},
        "restrictions": {str(t): {"*": "*"} for t in kg.triples},
    }))
    family.write_text(json.dumps(
        {"object": obj, "assignment": {str(i): "*" for i in kg.tail_fibres[obj]}}
    ))
    g, p = str(graph), str(presheaf)
    expected = 0 if find_entity_cycle(kg) is None else 2
    for args in (
        ["check", g, p],
        ["glue", g, p, "--family", str(family)],
        ["sheafify", g, p],
        ["global", g, p],
        ["omega", g],
        ["adjoint", g, p, "--other", p],
    ):
        assert _run(["sheaf", *args]).exit_code == expected, args
