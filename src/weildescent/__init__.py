"""weildescent: exact Weil representations of finite symplectic groups,
their Galois descent to the predicted number fields, character fields,
endomorphism algebras, Schur indices and theta lifts."""

from .fields import (
    CoeffField,
    CycloNum,
    GaloisAut,
    MODULAR,
    RATIONAL,
    SubfieldTag,
    apply_aut,
    field_make,
    gauss_sum,
    subfield_membership,
    subfield_of_values,
)
from .finite import (
    AdditiveCharacter,
    FqField,
    HeisElem,
    SpElement,
    SymplecticSpace,
    char_galois,
    char_twist,
    fq_field,
    legendre,
    psi_standard,
    sp_enumerate,
    sp_factor,
)
from .weil import (
    MarkedRep,
    cocycle_certificate,
    even_odd_split,
    heisenberg_rep,
    weil_op,
    weil_rep,
    weil_twist_check,
)

COMPILED = False  # the kernel is pure Python; weilbench/run.py still records this flag

__version__ = "0.1.0"
