"""Exact calculator and conjecture engine for C-finite sequences."""

from .core import (
    CFiniteSeq,
    Polynomial,
    eval_at,
    eval_terms,
    format_seq,
    minimize,
    parse_seq,
    scale,
    shift,
)
from .gf import RationalGF, c_to_r, r_to_c, taylor
from .guess import (
    GuessConfig,
    InvariantViolation,
    PolyRelation,
    ProofCertificate,
    add,
    binomial_transform,
    guess_nlr,
    guess_rec,
    mul,
    partial_sums,
    prove_equal,
    subsequence,
    verify_parametric_identity,
)
from .roots import RepetitionProfile, is_prod, is_prod_g, prod_indicator
from .factor import FactorPair, factorize_integer, factorize_roots
from .dimers import (
    dimer_product_report,
    dimer_seq,
    dimer_terms,
    kasteleyn_count,
)
from .corpus import lookup

__all__ = [
    "CFiniteSeq",
    "Polynomial",
    "RationalGF",
    "GuessConfig",
    "InvariantViolation",
    "PolyRelation",
    "ProofCertificate",
    "RepetitionProfile",
    "FactorPair",
    "add",
    "binomial_transform",
    "c_to_r",
    "dimer_product_report",
    "dimer_seq",
    "dimer_terms",
    "eval_at",
    "eval_terms",
    "factorize_integer",
    "factorize_roots",
    "format_seq",
    "guess_nlr",
    "guess_rec",
    "is_prod",
    "is_prod_g",
    "kasteleyn_count",
    "lookup",
    "minimize",
    "mul",
    "parse_seq",
    "partial_sums",
    "prod_indicator",
    "prove_equal",
    "r_to_c",
    "scale",
    "shift",
    "subsequence",
    "taylor",
    "verify_parametric_identity",
]

__version__ = "0.1.0"
