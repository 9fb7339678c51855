"""Finite quasigroup toolkit: parastrophes, derivatives, unit surveys."""

from .qcore import (
    BadEntryError,
    NotLatinError,
    Quasigroup,
    QuasigroupError,
    TranslationKind,
    check_identities,
    from_table,
)
from .parastrophe import ParastropheSym, apply_parastrophe, compose, verify_translation_transfer
from .units import UnitKind, UnitProfile, left_unit, middle_unit, right_unit, unit_profile
from .derivative import (
    CONVENTION_A,
    Convention,
    DerivativeSpec,
    IsotopyTriple,
    all_conventions,
    apply_derivative,
    enumerate_specs,
    left_derivative,
    middle_derivative,
    middle_inverse_derivative,
    right_derivative,
)
from .corpus import (
    CorpusDescriptor,
    OrderTooLargeError,
    count_all,
    enumerate_all,
    enumerate_reduced,
    random_square,
)

__version__ = "0.1.0"

__all__ = [
    "BadEntryError",
    "CONVENTION_A",
    "Convention",
    "CorpusDescriptor",
    "DerivativeSpec",
    "IsotopyTriple",
    "NotLatinError",
    "OrderTooLargeError",
    "ParastropheSym",
    "Quasigroup",
    "QuasigroupError",
    "TranslationKind",
    "UnitKind",
    "UnitProfile",
    "all_conventions",
    "apply_derivative",
    "apply_parastrophe",
    "check_identities",
    "compose",
    "count_all",
    "enumerate_all",
    "enumerate_reduced",
    "enumerate_specs",
    "from_table",
    "left_derivative",
    "left_unit",
    "middle_derivative",
    "middle_inverse_derivative",
    "middle_unit",
    "random_square",
    "right_derivative",
    "right_unit",
    "unit_profile",
    "verify_translation_transfer",
]
