"""Exact invariants of Hilbert schemes of points on K3 surfaces.

Betti numbers via diagonal strata of the symmetric power, the
Beauville-Bogomolov lattice with its rotation action and obstruction
certificates against trianalytic subvarieties, the model Frobenius algebra
generated by degree-2 classes, and the invariant-ideal classification
behind punctual rigidity.  All arithmetic is exact (integers and
fractions); nothing here floats.

The names below are the ones the six command line reports and the
certification pipeline call, plus the types they return; everything else
is reached through the submodules.
"""

from .bb_lattice import (
    CandidateCertificate,
    CertificationReport,
    H2Lattice,
    PeriodTriple,
    bb_pair,
    certify_no_trianalytic,
    default_k3_gram,
    h4_obstruction,
    is_su2_invariant,
    k3_lattice,
    obstruction_coefficient,
    random_period_triple,
    restriction_functional,
)
from .cohomology import (
    PoincarePolynomial,
    StratumLedger,
    SurfaceBetti,
    diagonal_poincare,
    hilbert_poincare,
    hilbert_stratum_ledger,
)
from .frobenius import FrobeniusAlgebra, algebra_dimension_pattern, build_algebra
from .invariant_ideals import (
    InvariantIdeal,
    MonomialIdeal,
    classify_invariant_ideals,
    punctual_fixed_points,
)
from .partitions import (
    YoungDiagram,
    codim_diagonal,
    diagrams_of,
    fiber_dimension,
    is_triangular,
    trianalytic_candidates,
    verify_semismall,
)

__all__ = [
    # the reports
    "SurfaceBetti", "hilbert_stratum_ledger", "hilbert_poincare", "diagonal_poincare",
    "diagrams_of", "codim_diagonal", "fiber_dimension", "verify_semismall", "is_triangular",
    "certify_no_trianalytic", "classify_invariant_ideals", "punctual_fixed_points",
    "algebra_dimension_pattern", "build_algebra",
    # the certification pipeline
    "trianalytic_candidates", "obstruction_coefficient", "default_k3_gram", "k3_lattice",
    "random_period_triple", "h4_obstruction", "restriction_functional", "is_su2_invariant",
    "bb_pair",
    # result types
    "YoungDiagram", "PoincarePolynomial", "StratumLedger",
    "H2Lattice", "PeriodTriple", "CandidateCertificate", "CertificationReport",
    "FrobeniusAlgebra", "InvariantIdeal", "MonomialIdeal",
]

__version__ = "0.1.0"
