"""The streamed JSON writer against json.dumps(doc, indent=2), and CLI
output against the stdlib rendering of the materialised document."""

import io
import json
from pathlib import Path
from random import Random

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgtopos import matrices as mx
from kgtopos import (
    build_free_category,
    build_in_line,
    build_out_line,
    build_site,
    is_sheaf,
    omega,
    parse_kg,
    scc,
)
from kgtopos.cli import main
from kgtopos.jsonout import JoinedRows, write_json
from kgtopos.randgen import random_kg
from kgtopos.sites import topology_to_dict
from test_matrices import seeded_multigraph

from helpers import dense, dense_rows

FAN = Path(__file__).parent / "data" / "fan.txt"


def stdlib(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def written(doc) -> str:
    out = io.StringIO()
    write_json(doc, out.write)
    return out.getvalue()


def streamed(doc):
    """doc with every list and tuple replaced by an iterator over it."""
    if isinstance(doc, (list, tuple)):
        return iter([streamed(item) for item in doc])
    if isinstance(doc, dict):
        return {key: streamed(value) for key, value in doc.items()}
    return doc


# Non-ASCII, quotes, backslashes and control characters among the strings.
strings = st.text(alphabet=st.characters(), max_size=8) | st.sampled_from(
    ["", '"', "\\", "\n\t\x00\x1f", "é", " ", "\U0001f600"]
)
scalars = strings | st.integers() | st.booleans() | st.none() | st.floats()
homogeneous = (
    st.lists(strings, max_size=6)
    | st.lists(st.integers(-300, 300), max_size=6)
    | st.lists(st.integers(), max_size=6).map(tuple)
    | st.dictionaries(strings, strings | st.integers(), max_size=4)
)
keys = strings | st.integers() | st.booleans() | st.none() | st.floats()
documents = st.recursive(
    scalars | homogeneous,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(keys, children, max_size=4),
    max_leaves=30,
)


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(documents)
    @example([[0, 1], [1, 0]])
    @example({"a": [], "b": {}, "c": (), "d": [True, 1], "e": [1.5, 2]})
    @example({"k": 1, "v": "s", 2: None, True: [None]})
    @example({"nan": float("nan"), "inf": [float("inf"), -float("inf")], 1.5: 0.1})
    def test_matches_json_dumps(self, doc):
        assert written(doc) == stdlib(doc)

    @settings(max_examples=200, deadline=None)
    @given(documents)
    @example([[], [[]], ()])
    def test_iterators_match_their_lists(self, doc):
        assert written(streamed(doc)) == stdlib(doc)

    def test_generator_rows(self):
        rows = [[i, 0, -1, 10**20] for i in range(3)]
        assert written({"rows": (list(row) for row in rows)}) == stdlib({"rows": rows})

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 1), max_size=5), max_size=4), st.integers(0, 2))
    @example([[], [0, 1], []], 1)
    def test_joined_rows_match_their_lists(self, rows, depth):
        # At depth 0, 1 or 2: the array itself, in an object, in a list.
        doc = JoinedRows(lambda separator: (separator.join(map(str, r)) for r in rows))
        expected = rows
        for wrap in (lambda value: {"rows": value}, lambda value: [value])[:depth]:
            doc, expected = wrap(doc), wrap(expected)
        assert written(doc) == stdlib(expected)

    def test_rejects_what_json_rejects(self):
        with pytest.raises(TypeError):
            written({(1, 2): 3})
        with pytest.raises(TypeError):
            written([object()])


def _triples_text(kg) -> str:
    return "".join(f"{t.head} {t.predicate} {t.tail}\n" for t in kg.triples)


# Graphs at the edges of the row splicing: no triple at all, one triple,
# an entity heading nothing between two that head triples (an all-zero
# incidence row), one head fibre of three triples (identical gram rows),
# and a 300-triple multigraph, whose rows are long.
EDGE_GRAPHS = {
    "empty": "",
    "one-triple": "A r B\n",
    "zero-row": "A r B\nB s C\nD t C\n",
    "three-fibre": (Path(__file__).parent / "data" / "three_triple_fibre.txt").read_text(),
    "m300": _triples_text(seeded_multigraph(300, 40)),
}
GRAPHS = ["fan", "random6", "random7", "random11", *EDGE_GRAPHS]


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory) -> dict[str, Path]:
    texts = {"fan": FAN.read_text()}
    # Seeds whose graphs have 5 to 7 triples and at most 10 morphisms
    # into any object, within the default sieve cap.
    for seed in (6, 7, 11):
        kg = random_kg(Random(seed), max_entities=7, max_triples=12, acyclic=True)
        texts[f"random{seed}"] = _triples_text(kg)
    texts.update(EDGE_GRAPHS)
    root = tmp_path_factory.mktemp("graphs")
    files = {}
    for name, text in texts.items():
        files[name] = root / f"{name}.txt"
        files[name].write_text(text)
    return files


def _line_json(kg, direction: str) -> str:
    digraph = build_out_line(kg) if direction == "out" else build_in_line(kg)
    return stdlib(
        {
            "direction": direction,
            "vertices": [str(t) for t in kg.triples],
            "adjacency": [list(row) for row in digraph.adjacency],
            "components": [list(b) for b in scc(digraph)],
        }
    )


def _omega_json(kg, topology: str) -> str:
    site = build_site(kg, topology)
    classifier = omega(site)
    return stdlib(
        {
            "section_counts": {
                obj: len(classifier.sections[obj]) for obj in site.category.objects
            },
            "is_sheaf": bool(is_sheaf(classifier, site)),
            "omega": classifier.to_dict(),
        }
    )


def expected_output(kg, command: list[str]) -> str:
    """What the command printed when every document was built in full
    and rendered by json.dumps or IntMatrix.to_csv."""
    name, options = command[0], command[1:]
    if name == "matrices":
        if options == ["--format", "json"]:
            return stdlib({n.replace("-", "_"): dense_rows(kg, n) for n in mx.MATRICES})
        return "\n".join(f"# {n}\n" + dense(kg, n).to_csv() for n in mx.MATRICES)
    if name == "line":
        direction = options[options.index("--direction") + 1]
        if options[-1] == "csv":
            return dense(kg, f"adjacency-{direction}").to_csv()
        return _line_json(kg, direction)
    if name == "freecat":
        return stdlib(build_free_category(kg).to_dict())
    if name == "covers":
        topology = options[options.index("--topology") + 1]
        return stdlib(topology_to_dict(build_site(kg, topology), topology))
    return _omega_json(kg, options[options.index("--topology") + 1])


COMMANDS = [
    ["matrices"],
    ["matrices", "--format", "json"],
    ["line", "--direction", "out", "--format", "csv"],
    ["line", "--direction", "in", "--format", "csv"],
    ["line", "--direction", "out", "--format", "json"],
    ["line", "--direction", "in", "--format", "json"],
    ["freecat"],
    ["covers", "--topology", "path"],
    ["covers", "--topology", "atomic"],
    ["sheaf omega", "--topology", "path"],
    ["sheaf omega", "--topology", "atomic"],
]


# The m300 graph is cyclic and too large for a site, so it runs only the
# commands that print matrices and line digraphs.
@pytest.mark.parametrize(
    "command, graph",
    [
        (command, graph)
        for command in COMMANDS
        for graph in GRAPHS
        if graph != "m300" or command[0] in ("matrices", "line")
    ],
    ids=lambda value: value if isinstance(value, str) else " ".join(value),
)
def test_cli_output_matches_materialised_document(graph_files, command, graph):
    path = graph_files[graph]
    argv = [*command[0].split(), str(path), *command[1:]]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert result.output == expected_output(parse_kg(path.read_text()), command)


@pytest.mark.parametrize("name", list(mx.MATRICES))
def test_single_matrix_json_matches_rows(graph_files, name):
    for path in graph_files.values():
        argv = ["matrices", str(path), f"--{name}", "--format", "json"]
        rows = dense_rows(parse_kg(path.read_text()), name)
        assert CliRunner().invoke(main, argv).output == stdlib({name.replace("-", "_"): rows})


@pytest.mark.parametrize("name", list(mx.MATRICES))
def test_single_matrix_csv_matches_rows(graph_files, name):
    for path in graph_files.values():
        argv = ["matrices", str(path), f"--{name}"]
        expected = dense(parse_kg(path.read_text()), name).to_csv()
        assert CliRunner().invoke(main, argv).output == expected
