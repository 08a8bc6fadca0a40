"""Exact invariants of Hilbert schemes of points on K3 surfaces.

Betti numbers via diagonal strata of the symmetric power, the
Beauville-Bogomolov lattice with its rotation action and obstruction
certificates against trianalytic subvarieties, the model Frobenius algebra
generated by degree-2 classes, and the invariant-ideal classification
behind punctual rigidity.  All arithmetic is exact (integers and
fractions); nothing here floats.
"""

from .bb_lattice import (
    CertificationReport,
    H2Class,
    H2Lattice,
    PeriodTriple,
    Sym2Tensor,
    bb_pair,
    certify_no_trianalytic,
    default_k3_gram,
    h4_obstruction,
    is_su2_invariant,
    k3_lattice,
    obstruction_coefficient,
    obstruction_coefficient_from_tensors,
    orbit_dimension_d2,
    pullback,
    random_period_triple,
    restriction_functional,
    su2_generators,
)
from .cohomology import (
    PoincarePolynomial,
    SurfaceBetti,
    diagonal_poincare,
    hilbert_poincare,
    hilbert_stratum_ledger,
    symmetric_power_poincare,
)
from .frobenius import (
    FrobeniusAlgebra,
    algebra_dimension_pattern,
    build_algebra,
    harmonic_basis,
)
from .invariant_ideals import (
    InvariantIdeal,
    MonomialIdeal,
    TruncatedRing,
    classify_invariant_ideals,
    irreducibility_certificate,
    punctual_fixed_points,
)
from .partitions import (
    CandidateAudit,
    NaturalShape,
    SpecialShape,
    YoungDiagram,
    codim_diagonal,
    deformation_dimension,
    enumerate_universal_reldim0,
    fiber_dimension,
    is_triangular,
    natural_shapes,
    special_dimension,
    trianalytic_candidates,
    verify_semismall,
)

__version__ = "0.1.0"
