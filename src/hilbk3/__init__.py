"""Exact invariants of Hilbert schemes of points on K3 surfaces.

Betti numbers via diagonal strata of the symmetric power, the
Beauville-Bogomolov lattice with its rotation action and obstruction
certificates against trianalytic subvarieties, the model Frobenius algebra
generated by degree-2 classes, and the invariant-ideal classification
behind punctual rigidity.  All arithmetic is exact (integers and
fractions); nothing here floats.

The names below are the ones the six command line reports and the
certification pipeline call, plus the types they return; everything else
is reached through the submodules.  Importing the package loads none of
them: each name resolves on first use, importing only its submodule and
what that submodule needs (PEP 562).
"""

import importlib

_EXPORTS = {
    # the reports
    "SurfaceBetti": "cohomology",
    "hilbert_stratum_ledger": "cohomology",
    "hilbert_strata": "cohomology",
    "diagonal_poincare": "cohomology",
    "diagrams_of": "partitions",
    "codim_diagonal": "partitions",
    "fiber_dimension": "partitions",
    "verify_semismall": "partitions",
    "is_triangular": "partitions",
    "certify_no_trianalytic": "bb_lattice",
    "classify_invariant_ideals": "invariant_ideals",
    "punctual_fixed_points": "invariant_ideals",
    "algebra_dimension_pattern": "frobenius",
    "build_algebra": "frobenius",
    # the certification pipeline
    "trianalytic_candidates": "partitions",
    "obstruction_coefficient": "bb_lattice",
    "default_k3_gram": "bb_lattice",
    "k3_lattice": "bb_lattice",
    "random_period_triple": "bb_lattice",
    "h4_obstruction": "bb_lattice",
    "is_su2_invariant": "bb_lattice",
    "bb_pair": "bb_lattice",
    # result types
    "PoincarePolynomial": "cohomology",
    "StratumLedger": "cohomology",
    "H2Lattice": "bb_lattice",
    "PeriodTriple": "bb_lattice",
    "CandidateCertificate": "bb_lattice",
    "CertificationReport": "bb_lattice",
    "FrobeniusAlgebra": "frobenius",
    "InvariantIdeal": "invariant_ideals",
    "MonomialIdeal": "invariant_ideals",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
