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


def dense(kg, name):
    """The named matrix of kg ("head", "gram-out", "adjacency-in", ...) as
    an IntMatrix, its rows read from `matrix_rows`."""
    return IntMatrix.from_rows(list(matrix_rows(kg, name)))
