"""Exception hierarchy shared by all kgtopos modules."""


class KgToposError(Exception):
    """Base class for all library errors."""


class KgParseError(KgToposError):
    """A triple file could not be parsed. Carries the 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class DuplicateTripleError(KgParseError):
    """The same (head, predicate, tail) triple occurred twice."""


class SchemaError(KgToposError):
    """A JSON document does not match the expected schema."""


class HomDomainError(KgToposError):
    """A homomorphism's entity or predicate map is not total on its source."""


class CompositionError(KgToposError):
    """Two morphisms or homomorphisms do not compose."""


class InfiniteCategoryError(KgToposError):
    """Path enumeration would not terminate. Carries a cycle witness; `hint`
    ends the message where the caller can pass a length bound."""

    def __init__(self, cycle: list[str], hint: str = ""):
        self.cycle = list(cycle)
        super().__init__(
            "entity digraph contains a cycle, hom-sets are infinite "
            f"(witness: {' -> '.join(self.cycle)}){hint}"
        )


class CategoryNotClosedError(KgToposError):
    """An operation that needs composition-closed hom-sets was given a
    length-truncated category."""


class CategoryLawError(KgToposError):
    """A composition table violates the category laws."""


class TypingError(KgToposError):
    """A functor assignment has mismatched domain or codomain."""


class SizeCapError(KgToposError):
    """An enumeration exceeded its configured cap. Use a smaller graph or
    raise the cap explicitly."""


class SymmetryError(KgToposError):
    """A matrix expected to be symmetric is not."""


class SpectrumSizeError(KgToposError):
    """An exact and a numeric eigenvalue multiset differ in size."""


class NaturalityError(KgToposError):
    """A family of component maps fails a naturality square."""


class GluingError(KgToposError):
    """A matching family admits no amalgamation."""


class UniquenessError(KgToposError):
    """A matching family admits more than one amalgamation."""


class TopologyError(KgToposError):
    """A topology is malformed or lacks required structure."""
