"""Exact integer incidence and line-operator algebra.

All structural identities are computed over the integers; floating point
only enters through the numeric eigensolver used as a cross-check.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, compress
from math import gcd
from operator import add
from typing import Iterable, Iterator, Sequence

from .errors import SpectrumSizeError, SymmetryError
from .kg import KnowledgeGraph


@dataclass(frozen=True)
class IntMatrix:
    """Dense exact-integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        n = len(rows)
        m = len(rows[0]) if n else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, tuple(int(x) for row in rows for x in row))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def get(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]

    def transpose(self) -> "IntMatrix":
        """Row j of the transpose is column j of self, one stride slice."""
        columns = (self.entries[j :: self.cols] for j in range(self.cols))
        return IntMatrix(self.cols, self.rows, tuple(chain.from_iterable(columns)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Exact product, accumulated row by row: row i is the sum of
        a times row k of other over the nonzero entries a = self[i][k],
        which `compress` picks out, and each addition is one `map(add, ...)`
        over a whole row. The cost is O(nnz(self) * other.cols), with the
        inner loops in C."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        n, k = self.cols, other.cols
        other_rows = [other.entries[j * k : (j + 1) * k] for j in range(other.rows)]
        entries: list[int] = []
        for i in range(self.rows):
            row = self.entries[i * n : (i + 1) * n]
            entries.extend(_combination(compress(zip(row, other_rows), row), k))
        return IntMatrix(self.rows, k, tuple(entries))

    def gram_rows(self) -> Iterator[list[int]]:
        """The rows of self^T self, one at a time: row i is the sum of
        self[e][i] times row e of self. Column i is a stride slice of the
        entries, so the transpose is never built."""
        n, e = self.cols, self.entries
        row_indices = tuple(range(self.rows))
        for i in range(n):
            column = e[i::n]
            terms = compress(row_indices, column)
            yield _combination(((column[r], e[r * n : (r + 1) * n]) for r in terms), n)

    def to_csv(self) -> str:
        """One row per line, comma-separated integers, trailing newline."""
        return "".join(",".join(map(repr, row)) + "\n" for row in self.to_rows())


def _combination(terms: Iterable[tuple[int, Sequence[int]]], width: int) -> list[int]:
    """The sum of a * row over the (a, row) terms, as a list of `width`."""
    acc = None
    for a, row in terms:
        scaled = row if a == 1 else map(a.__mul__, row)
        acc = list(scaled) if acc is None else list(map(add, acc, scaled))
    return [0] * width if acc is None else acc


def row_supports(rows: Iterable[Sequence[int]]) -> Iterator[dict[int, int]]:
    """{column: entry} for the nonzero entries of each row, one row at a
    time. `compress` picks the columns out of one shared tuple of column
    indices, so no int is allocated per entry."""
    columns: tuple[int, ...] = ()
    for row in rows:
        if len(row) > len(columns):
            columns = tuple(range(len(row)))
        nonzero = list(compress(columns, row))
        yield dict(zip(nonzero, map(row.__getitem__, nonzero)))


def is_symmetric_support(rows: Sequence[dict[int, int]]) -> bool:
    """Whether the square matrix with these row supports equals its
    transpose: each nonzero (i, j) is matched by an equal (j, i)."""
    n = len(rows)
    return all(
        j < n and rows[j].get(i) == x
        for i, row in enumerate(rows)
        for j, x in row.items()
    )


Fibres = dict[str, tuple[int, ...]]


def _indicator(fibre: tuple[int, ...], m: int) -> list[int]:
    row = [0] * m
    for j in fibre:
        row[j] = 1
    return row


def _incidence_rows(fibres: Fibres, m: int) -> Iterator[list[int]]:
    """Rows of an incidence matrix: row i is the indicator of the fibre
    of entity i."""
    for fibre in fibres.values():
        yield _indicator(fibre, m)


def _holders(fibres: Fibres, m: int) -> list[tuple[int, ...]]:
    """The fibre holding each triple, by triple index."""
    holder: list[tuple[int, ...]] = [()] * m
    for fibre in fibres.values():
        for i in fibre:
            holder[i] = fibre
    return holder


def _fibre_rows(fibres: Fibres, m: int, diagonal: int) -> Iterator[list[int]]:
    """Rows of an m x m fibre operator: row i is the indicator of the
    fibre holding triple i, with entry i set to `diagonal`.

    Each row costs O(m) for the row plus the size of its fibre, and only
    one row is alive at a time.
    """
    for i, fibre in enumerate(_holders(fibres, m)):
        row = _indicator(fibre, m)
        row[i] = diagonal
        yield row


def _incidence(fibres: Fibres, m: int) -> IntMatrix:
    """n x m matrix with entry (i, j) = 1 iff triple j is in entity i's fibre."""
    rows = _incidence_rows(fibres, m)
    return IntMatrix(len(fibres), m, tuple(chain.from_iterable(rows)))


# Matrix name -> (use tail fibres, diagonal); incidence matrices have none.
MATRICES = {
    "head": (False, None),
    "tail": (True, None),
    "gram-out": (False, 1),
    "gram-in": (True, 1),
    "adjacency-out": (False, 0),
    "adjacency-in": (True, 0),
}


def matrix_rows(kg: KnowledgeGraph, name: str) -> Iterator[list[int]]:
    """The rows of the named matrix ("head", "tail", "gram-out",
    "gram-in", "adjacency-out" or "adjacency-in"), one at a time.  This
    is the one source of the gram and line-adjacency rows."""
    use_tails, diagonal = MATRICES[name]
    fibres = kg.tail_fibres if use_tails else kg.head_fibres
    if diagonal is None:
        return _incidence_rows(fibres, kg.triple_count)
    return _fibre_rows(fibres, kg.triple_count, diagonal)


_ONE = ord("1")


def _ones(zeros: bytes, columns: Iterable[int], stride: int) -> bytearray:
    """A copy of the all-zeros row text with a 1 at each of `columns`."""
    row = bytearray(zeros)
    for j in columns:
        row[j * stride] = _ONE
    return row


def row_texts(kg: KnowledgeGraph, name: str, separator: str) -> Iterator[str]:
    """The rows of the named matrix as text, one string per row: the
    entries of each row of `matrix_rows(kg, name)` joined by the ASCII
    `separator`.

    Every entry is one character, 0 or 1, so entry j sits at
    j * (len(separator) + 1) in a row's text, and a row is the all-zeros
    text with a 1 spliced in at each column of its fibre (and its
    diagonal entry set, in a fibre operator). That is O(fibre) Python
    steps and one O(m) copy per row, where joining the entries makes m
    calls. Successive rows of one fibre share its spliced text.
    """
    use_tails, diagonal = MATRICES[name]
    fibres = kg.tail_fibres if use_tails else kg.head_fibres
    m, stride = kg.triple_count, len(separator) + 1
    zeros = separator.join("0" * m).encode("ascii")
    if diagonal is None:
        for fibre in fibres.values():
            yield _ones(zeros, fibre, stride).decode("ascii")
        return
    mark = ord(str(diagonal))
    row, held = bytearray(), None
    for i, fibre in enumerate(_holders(fibres, m)):
        if fibre is not held:
            row, held = _ones(zeros, fibre, stride), fibre
        position = i * stride
        row[position] = mark
        yield row.decode("ascii")
        row[position] = _ONE  # i is in its own fibre


def head_incidence(kg: KnowledgeGraph) -> IntMatrix:
    """n x m matrix with entry (i, j) = 1 iff entity i heads triple j."""
    return _incidence(kg.head_fibres, kg.triple_count)


def tail_incidence(kg: KnowledgeGraph) -> IntMatrix:
    """n x m matrix with entry (i, j) = 1 iff entity i is the tail of triple j."""
    return _incidence(kg.tail_fibres, kg.triple_count)


def _eliminate(
    row: dict[int, int], pivot_row: dict[int, int], col: int
) -> dict[int, int]:
    """p·row − a·pivot_row with p, a the two entries in column `col`
    (first divided by their gcd), then divided by the gcd of its entries.

    The result is zero in `col` and is the primitive integer multiple of
    the rational reduced row, so entries stay bounded by minors of the
    input instead of growing with every step.
    """
    p, a = pivot_row[col], row[col]
    g = gcd(p, a)
    p, a = p // g, a // g
    out = {j: p * x for j, x in row.items()}
    for j, y in pivot_row.items():
        x = out.get(j, 0) - a * y
        if x:
            out[j] = x
        else:
            del out[j]
    g = gcd(*out.values())
    if g > 1:
        out = {j: x // g for j, x in out.items()}
    return out


def rank_exact(matrix: IntMatrix) -> int:
    """Rank over the rationals by fraction-free elimination on sparse rows.

    Rows are {column: value} maps of their nonzero entries. Each row is
    reduced only against the pivot row of its leading column, as long as
    that column has one; a row left nonzero becomes the pivot row of its
    leading column. Pivot rows lead in distinct columns, so their number
    is the rank. A row never touches a pivot whose column it is zero in,
    so an incidence matrix (one nonzero per column) costs O(nnz).
    """
    cols, entries = matrix.cols, matrix.entries
    rows = (entries[i * cols : (i + 1) * cols] for i in range(matrix.rows))
    pivots: dict[int, dict[int, int]] = {}
    for row in row_supports(rows):
        while row:
            lead = min(row)
            pivot_row = pivots.get(lead)
            if pivot_row is None:
                pivots[lead] = row
                break
            row = _eliminate(row, pivot_row, lead)
    return len(pivots)


def spectrum_formula(kg: KnowledgeGraph, *, use_tails: bool = False) -> list[int]:
    """Exact eigenvalue multiset of the line adjacency matrix, sorted.

    The out-line digraph is a disjoint union of complete digraphs, one per
    head fibre of size k, contributing k-1 once and -1 with multiplicity
    k-1.  Total multiplicity is the triple count.  With use_tails=True the
    same computation runs on tail fibres for the in-line digraph.
    """
    fibres = kg.tail_fibres if use_tails else kg.head_fibres
    values = [len(fibre) - 1 for fibre in fibres.values() if fibre]
    values.extend([-1] * (kg.triple_count - len(values)))
    return sorted(values)


@dataclass(frozen=True)
class SpectrumReport:
    """Exact formula eigenvalues vs numerically computed ones."""

    exact_eigenvalues: tuple[int, ...]
    numeric_eigenvalues: tuple[float, ...]
    max_deviation: float


def _components(rows: Sequence[dict[int, int]]) -> list[list[int]]:
    """Connected components of the graph of a symmetric matrix's nonzero
    off-diagonal entries, each in order of discovery."""
    seen = [False] * len(rows)
    blocks = []
    for start, done in enumerate(seen):
        if done:
            continue
        seen[start] = True
        block = [start]
        for v in block:  # the block grows as it is walked
            for w in rows[v]:
                if not seen[w]:
                    seen[w] = True
                    block.append(w)
        blocks.append(block)
    return blocks


def spectrum_numeric(
    rows: Iterable[Sequence[int]], n: int, exact: Iterable[int]
) -> SpectrumReport:
    """Eigenvalues of a symmetric n x n matrix given by its rows, block
    by block, matched against `exact`.

    A symmetric matrix is a direct sum of its diagonal blocks on the
    connected components of its nonzero entries, so the eigenvalues of
    the blocks, taken together, are exactly its spectrum. Blocks of one
    size go to the eigensolver as one stack. The deviation is the
    elementwise distance between the two sorted multisets. Raises
    SymmetryError first, then SpectrumSizeError when the multisets
    differ in size.
    """
    import numpy as np  # the eigensolver oracle alone needs numpy

    supports = list(row_supports(rows))
    if len(supports) != n or not is_symmetric_support(supports):
        raise SymmetryError("spectrum_numeric requires a symmetric matrix")
    by_size: defaultdict[int, list[list[list[int]]]] = defaultdict(list)
    for block in _components(supports):
        by_size[len(block)].append(
            [[supports[v].get(w, 0) for w in block] for v in block]
        )
    numeric = sorted(
        float(x)
        for stack in by_size.values()
        for x in np.linalg.eigvalsh(np.array(stack, dtype=float)).ravel()
    )
    exact_sorted = sorted(int(x) for x in exact)
    if len(exact_sorted) != len(numeric):
        raise SpectrumSizeError(
            f"multiset sizes differ: {len(exact_sorted)} exact vs {len(numeric)} numeric"
        )
    deviation = max(
        (abs(a - b) for a, b in zip(exact_sorted, numeric)), default=0.0
    )
    return SpectrumReport(tuple(exact_sorted), tuple(numeric), deviation)


def spectrum_report(kg: KnowledgeGraph, *, use_tails: bool = False) -> SpectrumReport:
    """Formula-vs-eigensolver report for the out-line (or in-line)
    adjacency, read row by row from `matrix_rows`."""
    name = "adjacency-in" if use_tails else "adjacency-out"
    return spectrum_numeric(
        matrix_rows(kg, name),
        kg.triple_count,
        spectrum_formula(kg, use_tails=use_tails),
    )
