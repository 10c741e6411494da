import os
import time
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgtopos import matrices as mx
from kgtopos import verify
from kgtopos import (
    IntMatrix,
    KnowledgeGraph,
    SymmetryError,
    Triple,
    head_incidence,
    parse_kg,
    rank_exact,
    spectrum_formula,
    spectrum_numeric,
    spectrum_report,
    tail_incidence,
)
from kgtopos.cli import main
from kgtopos.randgen import random_kg

from helpers import dense

TOL = 1e-9


def rank_over_q(rows):
    """Independent oracle: plain Gaussian elimination with Fractions."""
    matrix = [[Fraction(x) for x in row] for row in rows]
    if not matrix:
        return 0
    n_rows, n_cols = len(matrix), len(matrix[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if matrix[i][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [x * inv for x in matrix[rank]]
        for i in range(n_rows):
            if i != rank and matrix[i][col]:
                factor = matrix[i][col]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[rank])]
        rank += 1
    return rank


class TestGoldenMatrices:
    def test_head_incidence(self, fan_kg):
        assert head_incidence(fan_kg).to_rows() == [
            [1, 1, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 1, 1],
        ]

    def test_tail_incidence(self, fan_kg):
        assert tail_incidence(fan_kg).to_rows() == [
            [0, 0, 0, 0],
            [1, 0, 1, 0],
            [0, 1, 0, 1],
            [0, 0, 0, 0],
        ]

    def test_gram_out_is_blockwise_product(self, fan_kg):
        # Direct multiply of the head incidence with itself, by hand.
        assert dense(fan_kg, "gram-out").to_rows() == [
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 1, 1],
        ]

    def test_line_adjacency_out(self, fan_kg):
        assert dense(fan_kg, "adjacency-out").to_rows() == [
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ]

    def test_csv_layout(self, fan_kg):
        assert head_incidence(fan_kg).to_csv() == "1,1,0,0\n0,0,0,0\n0,0,0,0\n0,0,1,1\n"


class TestSmallCases:
    def test_empty_graph(self):
        kg = parse_kg("")
        assert head_incidence(kg).to_rows() == []
        assert spectrum_formula(kg) == []
        assert head_incidence(kg).to_csv() == ""

    def test_single_triple(self):
        kg = parse_kg("A r B\n")
        assert head_incidence(kg).to_rows() == [[1], [0]]
        assert tail_incidence(kg).to_rows() == [[0], [1]]
        assert dense(kg, "gram-out").to_rows() == [[1]]
        assert dense(kg, "adjacency-out").to_rows() == [[0]]

    def test_reflexive_triple(self):
        kg = parse_kg("X r X\n")
        assert head_incidence(kg).to_rows() == [[1]]
        assert tail_incidence(kg).to_rows() == [[1]]

    def test_three_triples_sharing_a_head(self):
        kg = parse_kg("A r1 B\nA r2 C\nA r3 D\n")
        expected = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]  # J_3 - I_3
        assert dense(kg, "adjacency-out").to_rows() == expected
        assert spectrum_formula(kg) == [-1, -1, 2]


@st.composite
def product_operands(draw):
    """Two signed matrices with a shared inner dimension; any of the
    three dimensions may be 0."""
    n, k, p = (draw(st.integers(0, 5)) for _ in range(3))
    entry = st.integers(-4, 4)
    left = draw(st.lists(entry, min_size=n * k, max_size=n * k))
    right = draw(st.lists(entry, min_size=k * p, max_size=k * p))
    return IntMatrix(n, k, tuple(left)), IntMatrix(k, p, tuple(right))


def naive_product(a, b):
    """Independent oracle: the textbook triple loop."""
    return [
        [sum(a.get(i, t) * b.get(t, j) for t in range(a.cols)) for j in range(b.cols)]
        for i in range(a.rows)
    ]


@st.composite
def signed_matrices(draw):
    """A signed matrix with either dimension 0..5; square draws are
    mirrored across the diagonal half of the time, so symmetric and
    non-symmetric squares both come up."""
    n, k = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = draw(st.lists(st.integers(-3, 3), min_size=n * k, max_size=n * k))
    if n == k and draw(st.booleans()):
        entries = [entries[min(i, j) * n + max(i, j)] for i in range(n) for j in range(n)]
    return IntMatrix(n, k, tuple(entries))


@st.composite
def symmetric_matrices(draw):
    """A symmetric signed matrix of order 0..7, sparse enough to fall
    into several blocks, with diagonal entries and zero rows."""
    n = draw(st.integers(0, 7))
    entry = st.sampled_from([0] * 6 + [-2, -1, 1, 3])
    upper = draw(st.lists(entry, min_size=n * n, max_size=n * n))
    entries = (upper[min(i, j) * n + max(i, j)] for i in range(n) for j in range(n))
    return IntMatrix(n, n, tuple(entries))


def with_isolated_entities(kg, count):
    """kg plus `count` entities that head and tail no triple."""
    extra = tuple(f"isolated{i}" for i in range(count))
    return KnowledgeGraph(kg.entities + extra, kg.predicates, kg.triples)


class TestMatmul:
    @settings(max_examples=150, deadline=None)
    @given(product_operands())
    @example((IntMatrix(3, 0, ()), IntMatrix(0, 2, ())))
    @example((IntMatrix(0, 2, ()), IntMatrix(2, 3, (1, -2, 0, 3, 0, -1))))
    @example((IntMatrix(2, 3, (0, -1, 2, 4, 0, 0)), IntMatrix(3, 0, ())))
    def test_against_triple_loop(self, operands):
        a, b = operands
        product = a @ b
        assert (product.rows, product.cols) == (a.rows, b.cols)
        assert product.to_rows() == naive_product(a, b)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.zeros(2, 3) @ IntMatrix.zeros(2, 3)

    @settings(max_examples=150, deadline=None)
    @given(signed_matrices())
    @example(IntMatrix(0, 3, ()))
    @example(IntMatrix(4, 0, ()))
    def test_gram_rows_against_triple_loop(self, a):
        assert list(a.gram_rows()) == naive_product(a.transpose(), a)


class TestTranspose:
    @settings(max_examples=150, deadline=None)
    @given(signed_matrices())
    @example(IntMatrix(0, 0, ()))
    @example(IntMatrix(0, 3, ()))
    @example(IntMatrix(4, 0, ()))
    def test_against_entry_definition(self, a):
        t = a.transpose()
        assert (t.rows, t.cols) == (a.cols, a.rows)
        assert all(
            t.get(j, i) == a.get(i, j) for i in range(a.rows) for j in range(a.cols)
        )


class TestRowSupports:
    @settings(max_examples=150, deadline=None)
    @given(signed_matrices())
    def test_against_entry_definition(self, a):
        supports = list(mx.row_supports(a.to_rows()))
        assert supports == [
            {j: a.get(i, j) for j in range(a.cols) if a.get(i, j)}
            for i in range(a.rows)
        ]
        if a.rows == a.cols:
            assert mx.is_symmetric_support(supports) == (a == a.transpose())


def seeded_multigraph(m: int = 2000, n: int = 700) -> KnowledgeGraph:
    """m distinct triples over n entities and 3 predicates, seed m."""
    rng = Random(m)
    entities = tuple(f"e{i}" for i in range(n))
    predicates = ("p0", "p1", "p2")
    triples: dict[Triple, None] = {}
    while len(triples) < m:
        triples[
            Triple(rng.choice(entities), rng.choice(predicates), rng.choice(entities))
        ] = None
    return KnowledgeGraph(entities, predicates, tuple(triples))


@st.composite
def integer_matrices(draw, max_dim=12):
    """Sparse or dense integer matrices up to max_dim x max_dim, with
    planted zero rows, zero columns and dependent rows."""
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    values = draw(
        st.sampled_from([st.integers(-4, 4), st.sampled_from([0] * 8 + [-2, -1, 1, 3])])
    )
    entries = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
    matrix = [entries[i * cols : (i + 1) * cols] for i in range(rows)]
    if rows >= 3 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        matrix[-1] = [a * x + b * y for x, y in zip(matrix[0], matrix[1])]
    for i in draw(st.sets(st.integers(0, max_dim - 1), max_size=3)):
        if i < rows:
            matrix[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, max_dim - 1), max_size=3)):
        if j < cols:
            for row in matrix:
                row[j] = 0
    return IntMatrix(rows, cols, tuple(x for row in matrix for x in row))


class TestFibreOperators:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 3))
    def test_match_dense_product(self, seed, isolated):
        kg = with_isolated_entities(
            random_kg(Random(seed), max_entities=10, max_triples=25), isolated
        )
        for gram, adjacency, incidence in (
            (dense(kg, "gram-out"), dense(kg, "adjacency-out"), head_incidence(kg)),
            (dense(kg, "gram-in"), dense(kg, "adjacency-in"), tail_incidence(kg)),
        ):
            product = incidence.transpose() @ incidence
            assert gram == product
            assert adjacency.to_rows() == [
                [x - (i == j) for j, x in enumerate(row)]
                for i, row in enumerate(product.to_rows())
            ]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**9), st.integers(0, 3), st.sampled_from([",", ", ", ",\n      "])
    )
    def test_row_texts_join_the_rows(self, seed, isolated, separator):
        kg = with_isolated_entities(
            random_kg(Random(seed), max_entities=10, max_triples=25), isolated
        )
        for name in mx.MATRICES:
            assert list(mx.row_texts(kg, name, separator)) == [
                separator.join(map(str, row)) for row in mx.matrix_rows(kg, name)
            ]
            assert verify.check_row_texts(kg, name, separator) == []

    def test_planted_gram_mismatch_fails_check(self, fan_kg, monkeypatch):
        real = mx.matrix_rows

        def planted(kg, name):
            # Flip entry (0, 2) of the out-gram and its mirror: the gram
            # stays symmetric, 0/1 and unit-diagonal, so only the H^T H
            # oracle can see it.
            rows = list(real(kg, name))
            if name == "gram-out":
                for i, j in ((0, 2), (2, 0)):
                    rows[i][j] ^= 1
            return iter(rows)

        monkeypatch.setattr(mx, "matrix_rows", planted)
        assert verify.check_gram(fan_kg) == ["gram_out differs from H^T H"]
        # The adjacency still matches the triples; only gram - I differs.
        assert verify.check_line_operator_identity(fan_kg) == [
            "line adjacency (out) != gram - identity"
        ]

    def test_planted_gram_shape_faults_fail_check(self, fan_kg, monkeypatch):
        real = mx.matrix_rows

        def planted(kg, name):
            # Row 0 of the out-gram, [1, 1, 0, 0], becomes [2, 0, 0, 0].
            rows = list(real(kg, name))
            if name == "gram-out":
                rows[0][:2] = [2, 0]
            return iter(rows)

        monkeypatch.setattr(mx, "matrix_rows", planted)
        assert verify.check_gram(fan_kg) == [
            "gram_out differs from H^T H",
            "gram_out is not symmetric",
            "gram_out has entries outside 0/1",
            "gram_out diagonal is not all ones",
        ]

    @pytest.mark.parametrize(
        "row, expected",
        [
            ([0, 1, 1, 0, 0], True),
            ([0, 1, 0, 0, 0], False),  # a member of the fibre is missing
            ([1, 1, 0, 0, 0], False),  # right count, but on the diagonal
            ([0, 1, 2, 0, 0], False),  # an entry is not 1
            ([0, 1, 0, 1, 0], False),  # right count, but across fibres
            ([0, 1, 1, 0, 0, 0], False),  # one column too many
        ],
        ids=["right", "short", "diagonal", "not-one", "across", "too-wide"],
    )
    def test_line_row_oracle(self, row, expected):
        # Row 0 of the out-line adjacency when triples 0, 1 and 2 share
        # a head and 3 and 4 share another.
        is_line_row = verify._line_row_oracle(("A", "A", "A", "B", "B"))
        assert is_line_row(0, row) is expected

    def test_two_thousand_triples_within_budget(self):
        kg = seeded_multigraph()
        start = time.perf_counter()
        sums = [
            sum(map(sum, mx.matrix_rows(kg, name)))
            for name in ("gram-out", "gram-in", "adjacency-out", "adjacency-in")
        ]
        elapsed = time.perf_counter() - start
        assert elapsed < 3.0
        shared_heads = sum(len(f) ** 2 for f in kg.head_fibres.values())
        shared_tails = sum(len(f) ** 2 for f in kg.tail_fibres.values())
        assert sums == [
            shared_heads, shared_tails, shared_heads - 2000, shared_tails - 2000
        ]


def write_multigraph(path, m: int = 2000, n: int = 700):
    triples = seeded_multigraph(m, n).triples
    path.write_text("".join(f"{t.head} {t.predicate} {t.tail}\n" for t in triples))
    return path


@pytest.fixture()
def multigraph_file(tmp_path):
    return write_multigraph(tmp_path / "graph.txt")


def run_cli(command, graph, *options):
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        assert main([command, str(graph), *options], standalone_mode=False) is None


class TestStreamedOutput:
    """`matrices` at m = 2000, stdout sent to os.devnull: rows are written
    one at a time, so neither time nor memory goes to m^2 tuples."""

    def test_two_thousand_triples_json_within_budget(self, multigraph_file):
        start = time.perf_counter()
        run_cli("matrices", multigraph_file, "--format", "json")
        assert time.perf_counter() - start < 6.0

    def test_gram_json_peak_memory_below_m_squared(self, multigraph_file):
        # The dense gram alone is a 4 M-entry tuple, at least 32 MB.
        tracemalloc.start()
        try:
            run_cli("matrices", multigraph_file, "--gram-out", "--format", "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


@pytest.mark.parametrize(
    "command, options",
    [
        ("matrices", []),
        ("matrices", ["--format", "json"]),
        ("line", ["--direction", "in", "--format", "csv"]),
    ],
    ids=["matrices", "matrices-json", "line-csv"],
)
def test_five_thousand_triples_under_five_seconds(tmp_path, command, options):
    # m = 5000, n = 1700: CSV output of about 234 MB, JSON of about 1 GB.
    # Each row is one spliced copy of a zero-row text, so the time goes to
    # copying text, not to one call per entry.
    graph = write_multigraph(tmp_path / "graph.txt", 5000, 1700)
    start = time.perf_counter()
    run_cli(command, graph, *options)
    assert time.perf_counter() - start < 5.0


class TestVerifyBudget:
    """`verify`'s graph checks at m = 2000. The incidence and line oracles
    read the matrices row by row, so no check holds an m x m structure."""

    def test_two_thousand_triples_under_five_seconds(self):
        kg = seeded_multigraph()
        start = time.perf_counter()
        results = verify.graph_checks(kg, 1)
        assert time.perf_counter() - start < 5.0
        assert {r.status for r in results} == {"pass", "skipped"}

    def test_two_thousand_triples_peak_memory(self):
        # One dense 2000 x 2000 matrix is a 4 M-slot tuple, 32 MB. The
        # largest structure left is one 700 x 2000 incidence matrix; the
        # peak measured 14.3 MB (Python 3.11).
        kg = seeded_multigraph()
        tracemalloc.start()
        try:
            verify.graph_checks(kg, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000


class TestRank:
    def test_fan_head_rank(self, fan_kg):
        # Elimination by hand leaves two independent rows (A and D).
        assert rank_exact(head_incidence(fan_kg)) == 2

    def test_full_rank_when_every_entity_heads(self):
        lines = [f"e{i} r e{(i + 1) % 5}" for i in range(5)]
        kg = parse_kg("\n".join(lines) + "\n")
        assert kg.entity_count == 5
        assert rank_exact(head_incidence(kg)) == 5

    def test_zero_matrix(self):
        assert rank_exact(IntMatrix.zeros(3, 4)) == 0

    def test_signed_entries(self):
        m = IntMatrix.from_rows([[2, -1, 3], [-4, 2, -6], [1, 1, 1]])
        assert rank_exact(m) == rank_over_q(m.to_rows()) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_against_fraction_elimination(self, seed):
        rng = Random(seed)
        rows = [
            [rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]
        ]
        width = len(rows[0])
        for _ in range(rng.randint(0, 5)):
            rows.append([rng.randint(-3, 3) for _ in range(width)])
        m = IntMatrix.from_rows(rows)
        assert rank_exact(m) == rank_over_q(rows)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_incidence_rank_counts_heads(self, seed):
        kg = random_kg(Random(seed), max_entities=10, max_triples=25)
        assert rank_exact(head_incidence(kg)) == len(set(kg.heads))
        assert rank_exact(tail_incidence(kg)) == len(set(kg.tails))

    @settings(max_examples=200, deadline=None)
    @given(integer_matrices())
    @example(IntMatrix.zeros(0, 5))
    @example(IntMatrix.zeros(5, 0))
    @example(IntMatrix.zeros(0, 0))
    def test_sparse_elimination_against_bareiss_and_fractions(self, matrix):
        expected = rank_over_q(matrix.to_rows())
        assert rank_exact(matrix) == verify._rank_bareiss(matrix) == expected

    def test_two_thousand_triples_rank_within_budget(self):
        # One nonzero per column: elimination never reduces a row, O(nnz).
        kg = seeded_multigraph()
        start = time.perf_counter()
        assert verify.check_rank(kg) == []
        assert time.perf_counter() - start < 3.0

    def test_dense_sign_matrix_within_budget(self):
        # Guards against coefficient growth: each reduced row is divided by
        # the gcd of its entries, so they stay the size of the minors.
        rng = Random(100)
        matrix = IntMatrix(100, 100, tuple(rng.choice((-1, 1)) for _ in range(10_000)))
        start = time.perf_counter()
        rank = rank_exact(matrix)
        assert time.perf_counter() - start < 2.0
        assert rank == verify._rank_bareiss(matrix)


class TestSpectrum:
    def test_fan_formula_vs_eigensolver(self, fan_kg):
        # Oracle: dense symmetric eigensolver on the out-line adjacency.
        adjacency = np.array(list(mx.matrix_rows(fan_kg, "adjacency-out")), dtype=float)
        oracle = sorted(np.linalg.eigvalsh(adjacency))
        assert spectrum_formula(fan_kg) == [-1, -1, 1, 1]
        assert max(abs(a - b) for a, b in zip([-1, -1, 1, 1], oracle)) < TOL

    @settings(max_examples=150, deadline=None)
    @given(symmetric_matrices())
    def test_blocks_against_dense_eigensolver(self, a):
        # Oracle: one eigvalsh call on the whole matrix.
        dense = np.array(a.to_rows(), dtype=float).reshape(a.rows, a.cols)
        oracle = sorted(np.linalg.eigvalsh(dense))
        numeric = spectrum_numeric(a.to_rows(), a.cols, [0] * a.rows).numeric_eigenvalues
        assert len(numeric) == len(oracle)
        assert all(abs(x - y) < TOL for x, y in zip(numeric, oracle))

    def test_report_on_fan(self, fan_kg):
        report = spectrum_report(fan_kg)
        assert report.exact_eigenvalues == (-1, -1, 1, 1)
        assert report.max_deviation < TOL

    def test_shared_head_triangle(self):
        kg = parse_kg("A r1 B\nA r2 C\nA r3 D\n")
        report = spectrum_report(kg)
        assert report.exact_eigenvalues == (-1, -1, 2)
        assert report.max_deviation < TOL

    def test_single_vertex_zero_matrix(self):
        report = spectrum_numeric([[0]], 1, [0])
        assert report.numeric_eigenvalues == (0.0,)
        assert report.max_deviation == 0.0

    def test_non_symmetric_rejected(self):
        with pytest.raises(SymmetryError):
            spectrum_numeric([[0, 1], [0, 0]], 2, [0, 0])

    def test_tail_side_analog(self, fan_kg):
        report = spectrum_report(fan_kg, use_tails=True)
        assert report.exact_eigenvalues == (-1, -1, 1, 1)
        assert report.max_deviation < TOL

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_graphs_match(self, seed):
        kg = random_kg(Random(seed), max_entities=12, max_triples=30)
        assert spectrum_report(kg).max_deviation < TOL
        assert spectrum_report(kg, use_tails=True).max_deviation < TOL

    def test_two_hundred_square_under_a_second(self):
        rng = Random(0)
        rows = [[0] * 200 for _ in range(200)]
        for i in range(200):
            for j in range(i, 200):
                rows[i][j] = rows[j][i] = rng.randint(-2, 2)
        dense = np.array(rows, dtype=float)
        exact = [int(round(x)) for x in sorted(np.linalg.eigvalsh(dense))]
        start = time.perf_counter()
        spectrum_numeric(rows, 200, exact)
        assert time.perf_counter() - start < 1.0


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_column_sums_are_one(self, seed):
        kg = random_kg(Random(seed), max_entities=10, max_triples=25)
        for matrix in (head_incidence(kg), tail_incidence(kg)):
            for j in range(matrix.cols):
                assert sum(matrix.get(i, j) for i in range(matrix.rows)) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_gram_symmetric_zero_one(self, seed):
        kg = random_kg(Random(seed), max_entities=10, max_triples=25)
        for gram in (dense(kg, "gram-out"), dense(kg, "gram-in")):
            assert gram == gram.transpose()
            assert set(gram.entries) <= {0, 1}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_line_adjacency_identity(self, seed):
        kg = random_kg(Random(seed), max_entities=10, max_triples=25)
        for adjacency, gram in (
            (dense(kg, "adjacency-out"), dense(kg, "gram-out")),
            (dense(kg, "adjacency-in"), dense(kg, "gram-in")),
        ):
            assert adjacency.to_rows() == [
                [x - (i == j) for j, x in enumerate(row)]
                for i, row in enumerate(gram.to_rows())
            ]
