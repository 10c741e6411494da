"""Shared helpers for the test suite."""

from kgtopos import IntMatrix, KgHomomorphism
from kgtopos.matrices import matrix_rows


def identity_hom(kg):
    """The identity homomorphism of kg."""
    return KgHomomorphism(
        kg, kg, {e: e for e in kg.entities}, {p: p for p in kg.predicates}
    )


def swap_hom(kg):
    """The symmetry of the fan graph: A<->D with r1<->r3, r2<->r4."""
    return KgHomomorphism(
        kg,
        kg,
        {"A": "D", "D": "A", "B": "B", "C": "C"},
        {"r1": "r3", "r3": "r1", "r2": "r4", "r4": "r2"},
    )


def dense_rows(kg, name):
    """The rows of kg's named matrix ("head", "gram-out", "adjacency-in",
    ...) as dense lists of ints, zeros filled in around the row supports
    that `matrix_rows` yields."""
    rows = []
    for support in matrix_rows(kg, name):
        row = [0] * kg.triple_count
        for j, x in support.items():
            row[j] = x
        rows.append(row)
    return rows


def dense(kg, name):
    """The named matrix of kg as an IntMatrix, its rows from `dense_rows`."""
    return IntMatrix.from_rows(dense_rows(kg, name))
