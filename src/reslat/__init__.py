"""Analysis toolkit for finite residuated lattices.

Computes filter lattices, prime spectra with (dual) hull-kernel
topologies, coannihilators, pure filters, and decides the mp property
through every equivalent characterization, asserting their agreement.
An exhaustive enumerator generates all residuated lattices of a given
order up to isomorphism for census and cross-validation.
"""

from .core import (
    ResiduatedLattice,
    StructureError,
    ContractError,
    InternalCheckError,
    ResiduumError,
    ValidationFailed,
    ValidationReport,
    Violation,
    bits,
    boolean_center,
    derive_residuum,
    from_order,
    from_tables,
    mask_of,
    negation,
    validate_axioms,
)
from .mp import MpReport, mp_check
from .enumerator import census, enumerate_residuated
from .latfile import load_bundled, parse_lattice, serialize_lattice

__all__ = [
    "ResiduatedLattice",
    "StructureError",
    "ContractError",
    "InternalCheckError",
    "ResiduumError",
    "ValidationFailed",
    "ValidationReport",
    "Violation",
    "MpReport",
    "bits",
    "boolean_center",
    "census",
    "derive_residuum",
    "enumerate_residuated",
    "from_order",
    "from_tables",
    "load_bundled",
    "mask_of",
    "mp_check",
    "negation",
    "parse_lattice",
    "serialize_lattice",
    "validate_axioms",
]
