"""Shared helpers for the test suite."""

from kgtopos import KgHomomorphism


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
