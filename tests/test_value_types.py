"""The value types: immutable, equal and hashed by value, printed field by
field in their definition order, and checked when they are built."""

from fractions import Fraction

import pytest

from hilbk3.bb_lattice import (
    CandidateCertificate,
    CertificationReport,
    H2Lattice,
    PeriodTriple,
    k3_lattice,
)
from hilbk3.cohomology import (
    PoincarePolynomial,
    StratumContribution,
    StratumLedger,
    SurfaceBetti,
)
from hilbk3.invariant_ideals import InvariantIdeal, MonomialIdeal
from hilbk3.partitions import YoungDiagram, diagrams_of

# diag(1, 1, 1, -1) on the surface part; n = 2 adds delta with q = -2
GRAM = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
LATTICE = H2Lattice(2, GRAM)
TRIPLE = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))
CERTIFICATE = (YoungDiagram((3, 3)), "simple", "obstructed", "pullback-coefficient",
               Fraction(-1, 10), "detail")

# each type, its fields in definition order, and two sets of arguments that
# build different values
VALUES = {
    YoungDiagram: (("parts",), ((3, 1),), ((2, 2),)),
    PoincarePolynomial: (("betti",), ((1, 0, 2),), ((1, 0, 3),)),
    SurfaceBetti: (("b0", "b2", "b4"), (1, 22, 1), (1, 7, 1)),
    StratumContribution: (("diagram", "codim", "poincare"),
                          (YoungDiagram((2,)), 2, PoincarePolynomial((1, 0, 1))),
                          (YoungDiagram((1, 1)), 0, PoincarePolynomial((1, 0, 1)))),
    StratumLedger: (("n", "surface"), (3, SurfaceBetti(1, 22, 1)), (4, SurfaceBetti(1, 22, 1))),
    H2Lattice: (("n", "gram"), (2, GRAM), (3, GRAM)),
    PeriodTriple: (("lattice", "w"), (LATTICE, TRIPLE), (LATTICE, TRIPLE[::-1])),
    CandidateCertificate: (("diagram", "kind", "status", "method", "coefficient", "detail"),
                           CERTIFICATE, CERTIFICATE[:-1] + ("other",)),
    CertificationReport: (("n", "seed", "verdict", "certificates"),
                          (6, 0, "certified", (CandidateCertificate(*CERTIFICATE),)),
                          (6, 1, "certified", ())),
    InvariantIdeal: (("truncation", "degrees"), (4, (2, 3)), (4, (1, 2, 3))),
    MonomialIdeal: (("staircase", "truncation"), (YoungDiagram((2, 1)), 4),
                    (YoungDiagram((2, 1)), 5)),
}


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_value_types_are_immutable_values(cls):
    fields, args, other = VALUES[cls]
    value = cls(*args)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    if cls is not H2Lattice:  # it caches its grams per instance
        with pytest.raises(AttributeError):
            value.extra = None
    twin = cls(*args)
    assert value == twin and hash(value) == hash(twin)
    assert cls(*other) != value
    assert cls(**dict(zip(fields, args))) == value
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{cls.__name__}({shown})"


def test_values_are_normalised_when_built():
    assert PoincarePolynomial([1, 0, 2, 0, 0]).betti == (1, 0, 2)
    assert PoincarePolynomial((0, 0)).betti == ()
    assert LATTICE.gram == tuple(tuple(Fraction(x) for x in row) for row in GRAM)
    assert LATTICE == H2Lattice(2, [list(row) for row in GRAM])


def test_diagrams_sort_by_their_parts():
    diagrams = [d for n in range(1, 9) for d in diagrams_of(n)][::-1]
    for reverse in (False, True):
        assert (sorted(diagrams, reverse=reverse)
                == sorted(diagrams, key=lambda d: d.parts, reverse=reverse))


INVALID = [
    (lambda: YoungDiagram((1, 3)), "parts must be weakly decreasing"),
    (lambda: YoungDiagram((2, 0)), "parts must be positive integers"),
    (lambda: PoincarePolynomial((1, -1)), "Betti numbers must be nonnegative integers"),
    (lambda: SurfaceBetti(b0=2, b2=22, b4=1), "b0 must be 1 (connected surface)"),
    (lambda: SurfaceBetti(1, -1, 1), "Betti numbers must be nonnegative"),
    (lambda: H2Lattice(2, ((1, 0),)), "gram must be square"),
    (lambda: H2Lattice(2, ((0, 1), (2, 0))), "gram must be symmetric"),
    (lambda: H2Lattice(2, ((1, 1), (1, 1))), "gram must be nondegenerate"),
    (lambda: k3_lattice(1), "n must be an integer >= 2"),
    (lambda: PeriodTriple(LATTICE, TRIPLE[:2]), "need exactly three classes"),
    (lambda: PeriodTriple(LATTICE, (TRIPLE[0], TRIPLE[0], TRIPLE[2])),
     "degenerate period triple: not orthogonal"),
    (lambda: PeriodTriple(LATTICE, ((0, 0, 0, 1, 0),) + TRIPLE[1:]),
     "degenerate period triple: nonpositive norm"),
    (lambda: PeriodTriple(LATTICE, ((1, 1, 0, 0),) + TRIPLE[1:]),
     "classes must have 5 coordinates"),
]


@pytest.mark.parametrize("build, message", INVALID, ids=[message for _, message in INVALID])
def test_invalid_values_are_refused(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message
