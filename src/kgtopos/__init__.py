"""kgtopos: exact incidence algebra, line digraphs, free categories,
Grothendieck sites and sheaf topoi on finite knowledge graphs."""

from .errors import (
    CategoryLawError,
    CategoryNotClosedError,
    CompositionError,
    DuplicateTripleError,
    GluingError,
    HomDomainError,
    InfiniteCategoryError,
    KgParseError,
    KgToposError,
    NaturalityError,
    SchemaError,
    SizeCapError,
    SpectrumSizeError,
    SymmetryError,
    TopologyError,
    TypingError,
    UniquenessError,
)
from .kg import (
    KgHomomorphism,
    KnowledgeGraph,
    Triple,
    check_hom,
    compose_homs,
    kg_from_json,
    parse_kg,
    serialize_kg,
)
from .matrices import (
    IntMatrix,
    SpectrumReport,
    head_incidence,
    rank_exact,
    spectrum_formula,
    spectrum_numeric,
    tail_incidence,
)
from .linegraph import (
    Digraph,
    build_in_line,
    build_out_line,
    head_partition,
    induced_line_map,
    scc,
    tail_partition,
    verify_scc_theorem,
)
from .freecat import (
    FreeCategory,
    Functor,
    Path,
    build_free_category,
    compose,
    extend_functor,
    induced_functor,
    path_key,
)
from .sites import (
    Sieve,
    Site,
    atomic_topology,
    build_site,
    check_inclusion,
    enumerate_sieves,
    generate_topology,
    path_topology,
    pullback_sieve,
    sieve_generated_by,
    verify_topology_axioms,
)
from .sheaves import (
    MatchingFamily,
    NatTransformation,
    Presheaf,
    check_adjunction,
    constant_presheaf,
    enumerate_matching_families,
    enumerate_nat_transformations,
    global_sections,
    glue,
    inverse_image,
    is_sheaf,
    load_family,
    load_presheaf,
    omega,
    product_presheaf,
    sheafify,
    terminal_presheaf,
)
from .verify import VerifyReport, run_verification

__version__ = "0.1.0"
