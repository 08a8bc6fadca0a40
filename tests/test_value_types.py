"""The value types: immutable, equal and hashed by value, printed field by
field in their definition order, and checked when they are built."""

import hashlib
from fractions import Fraction

import pytest

from hilbk3.bb_lattice import (
    CandidateCertificate,
    CertificationReport,
    H2Lattice,
    PeriodTriple,
    bb_pair,
    certify_no_trianalytic,
    default_k3_gram,
    k3_lattice,
)
from hilbk3.cli import main
from hilbk3.cohomology import (
    PoincarePolynomial,
    StratumContribution,
    StratumLedger,
    SurfaceBetti,
    hilbert_stratum_ledger,
)
from hilbk3.invariant_ideals import InvariantIdeal, MonomialIdeal, punctual_fixed_points
from hilbk3.partitions import diagrams_of, trianalytic_candidates

# diag(1, 1, 1, -1) on the surface part; n = 2 adds delta with q = -2
GRAM = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
LATTICE = H2Lattice(2, GRAM)
TRIPLE = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))
CERTIFICATE = ((3, 3), "simple", "obstructed", "pullback-coefficient",
               Fraction(-1, 10), "detail")

# each type, its fields in definition order, and two sets of arguments that
# build different values
VALUES = {
    PoincarePolynomial: (("betti",), ((1, 0, 2),), ((1, 0, 3),)),
    SurfaceBetti: (("b0", "b2", "b4"), (1, 22, 1), (1, 7, 1)),
    StratumContribution: (("diagram", "codim", "poincare"),
                          ((2,), 2, PoincarePolynomial((1, 0, 1))),
                          ((1, 1), 0, PoincarePolynomial((1, 0, 1)))),
    StratumLedger: (("n", "surface"), (3, SurfaceBetti(1, 22, 1)), (4, SurfaceBetti(1, 22, 1))),
    H2Lattice: (("n", "gram"), (2, GRAM), (3, GRAM)),
    PeriodTriple: (("lattice", "w"), (LATTICE, TRIPLE), (LATTICE, TRIPLE[::-1])),
    CandidateCertificate: (("diagram", "kind", "status", "method", "coefficient", "detail"),
                           CERTIFICATE, CERTIFICATE[:-1] + ("other",)),
    CertificationReport: (("n", "seed", "verdict", "certificates"),
                          (6, 0, "certified", (CandidateCertificate(*CERTIFICATE),)),
                          (6, 1, "certified", ())),
    InvariantIdeal: (("truncation", "degrees"), (4, (2, 3)), (4, (1, 2, 3))),
    MonomialIdeal: (("staircase",), ((2, 1),), ((3, 2, 1),)),
}


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_value_types_are_immutable_values(cls):
    fields, args, other = VALUES[cls]
    value = cls(*args)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = None
    twin = cls(*args)
    assert value == twin and hash(value) == hash(twin)
    assert cls(*other) != value
    assert cls(**dict(zip(fields, args))) == value
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{cls.__name__}({shown})"


def test_equal_lattices_pair_equally():
    # with an instance dict, an assigned integral view would let two equal
    # lattices give delta different norms
    a, b = H2Lattice(3, GRAM), H2Lattice(3, GRAM)
    with pytest.raises(AttributeError):
        a.integral = (1, ((),) * 5)
    delta = (0, 0, 0, 0, 1)
    assert a == b and bb_pair(a, delta, delta) == bb_pair(b, delta, delta) == -4


def test_a_checked_gram_is_read_only(capsys):
    # a write to the cached K3 gram would reach every lattice built on it
    # later in the process: the integral below makes bb_pair read 0, and
    # the diagonal makes certify fail
    gram = default_k3_gram()
    columns = [gram.column(c) for c in range(22)]
    kept = (gram.diagonal, gram.integral, gram._eliminated, gram._moves)
    poison = {"integral": (1, ((),) * 22), "diagonal": (1,) * 22,
              "_eliminated": ((0,) * 22,) * 22, "_moves": (("swap", 0, 1),), "extra": None}
    for name, value in poison.items():
        with pytest.raises(AttributeError):
            setattr(gram, name, value)
        with pytest.raises(AttributeError):
            delattr(gram, name)
    assert (gram.diagonal, gram.integral, gram._eliminated, gram._moves) == kept
    assert all(type(x) is tuple for x in (*kept, *gram._eliminated))  # nothing kept can change
    e0 = (1,) + (0,) * 22
    assert bb_pair(k3_lattice(6), e0, e0) == -2
    assert [gram.column(c) for c in range(22)] == columns
    assert main(["certify", "--n", "3", "--seed", "1", "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "f10f0b7576df928f958c8d20822764b22ee8d13652334ea1ad7a434a7348978f")


def test_values_are_normalised_when_built():
    assert PoincarePolynomial([1, 0, 2, 0, 0]).betti == (1, 0, 2)
    assert PoincarePolynomial((0, 0)).betti == ()
    assert LATTICE.gram == tuple(tuple(Fraction(x) for x in row) for row in GRAM)
    assert LATTICE == H2Lattice(2, [list(row) for row in GRAM])


def test_diagrams_sort_by_their_parts():
    # the walk lists the diagrams of n in descending order, the order that
    # `entries_in_degree` restores by sorting
    for n in range(1, 9):
        diagrams = diagrams_of(n)
        assert sorted(diagrams[::-1], reverse=True) == list(diagrams)


def test_a_diagram_is_the_walks_tuple():
    # every diagram the package hands out is a plain tuple of int parts
    ledger = hilbert_stratum_ledger(SurfaceBetti(1, 22, 1), 6)
    sources = [
        [d for n in range(1, 31) for d in diagrams_of(n)],
        [d for n in range(1, 31) for d in trianalytic_candidates(n)],
        [d for d, _ in ledger.entries_in_degree(2)],
        [c.diagram for c in ledger.contributions],
        [c.diagram for c in certify_no_trianalytic(28).certificates],
        [p.staircase for p in punctual_fixed_points(28)],
    ]
    for diagrams in sources:
        assert diagrams
        assert all(type(d) is tuple and all(type(p) is int for p in d) for d in diagrams)


INVALID = [
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
