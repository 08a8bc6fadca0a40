"""Invariant ideals of a truncated polynomial ring in two variables.

The ring is C[x, y] / m^N with monomial basis {x^a y^b : a + b < N}.  The
relevant symmetry acts through the operators

    e = x d/dy,   f = y d/dx,   h = [e, f] = x d/dx - y d/dy,

which preserve total degree, so each graded slice A_l (degree-l monomials)
is a module, the same in every ring that contains it; A_l is irreducible
(certified by counting highest-weight vectors in C[x, y] / m^(l+1)), the
slices are pairwise non-isomorphic, hence every invariant
subspace is a sum of full slices, and the ideal condition forces an upward
closed set of degrees.  The classification is therefore {m^j : 1 <= j < N}:
classify_invariant_ideals lists these suffixes of degrees after certifying
the slices and rechecks each one monomial by monomial.

The same operators in the window a + b < i + 1 detect which monomial ideals
of colength i are invariant: exactly the staircase m^l when i = l(l+1)/2 is
triangular, and none otherwise (punctual_fixed_points).  Stability is a rule
between neighbouring staircase rows p_b (p_k = 0 after the last row): e needs
p_{b+1} >= p_b - 1 and f needs p_b >= p_{b+1} + 1, so a staircase is stable
iff each row is exactly one shorter than the row above it and the last row
is 1.  The first row l is fixed by i = l(l+1)/2, so the search walks one
partition at most, and only when i is triangular.

`InvariantIdeal` and `MonomialIdeal` are named tuples: immutable and
hashable, and, being tuples, they also iterate, have a length and equal the
plain tuple of their fields.
"""

from __future__ import annotations

from collections import namedtuple

from .partitions import YoungDiagram, is_triangular, partitions_of

# the slice certificates and the ideal rechecks grow polynomially in N:
# classify_invariant_ideals(60) takes 0.15 s, (100) 0.8 s
MAX_TRUNCATION = 60
# the staircase walk is O(l) rows deep for i = l(l+1)/2, so l stays far below
# the recursion limit: punctual_fixed_points(99681), l = 446, takes 0.09 s
MAX_COLENGTH = 100_000


class TruncatedRing:
    """Monomial model of C[x, y]/m^N with the degree-preserving operators e and f."""

    def __init__(self, truncation: int):
        if not isinstance(truncation, int) or truncation < 1:
            raise ValueError("truncation must be a positive integer")
        self.truncation = truncation
        self.monomials = tuple(
            (a, l - a) for l in range(truncation) for a in range(l, -1, -1)
        )

    def degree_indices(self, l: int) -> tuple[int, ...]:
        return tuple(k for k, (a, b) in enumerate(self.monomials) if a + b == l)

    # single-monomial actions; None means the image is zero
    def act_e(self, mono):
        a, b = mono
        return (b, (a + 1, b - 1)) if b >= 1 else None

    def act_f(self, mono):
        a, b = mono
        return (a, (a - 1, b + 1)) if a >= 1 else None

    def matrix_e_on_degree(self, l: int) -> list[list[int]]:
        idx = self.degree_indices(l)
        monos = [self.monomials[k] for k in idx]
        pos = {m: r for r, m in enumerate(monos)}
        out = [[0] * len(monos) for _ in range(len(monos))]
        for c, mono in enumerate(monos):
            image = self.act_e(mono)
            if image is not None and image[0] != 0:
                out[pos[image[1]]][c] = image[0]
        return out


def irreducibility_certificate(l: int) -> bool:
    """The degree-l slice has a single highest-weight line, so is irreducible:
    e kills a one-dimensional subspace of its l + 1 monomials."""
    from . import linalg

    if l < 0:
        raise ValueError("degree must be nonnegative")
    ring = TruncatedRing(l + 1)
    return len(linalg.nullspace(ring.matrix_e_on_degree(l), l + 1)) == 1


class InvariantIdeal(namedtuple("InvariantIdeal", "truncation degrees")):
    """An invariant ideal of the truncated ring, recorded by its degree support."""

    __slots__ = ()

    def maximal_ideal_power(self) -> int | None:
        """j if the ideal is m^j (support {j, ..., N-1}), else None."""
        if self.degrees and self.degrees == tuple(range(self.degrees[0], self.truncation)):
            return self.degrees[0]
        return None


def _recheck_ideal(ring: TruncatedRing, degrees: tuple[int, ...]) -> bool:
    """Independent monomial-by-monomial closure check under x, y, e, f."""
    support = set(degrees)
    members = {m for m in ring.monomials if sum(m) in support}
    for (a, b) in members:
        for shifted in ((a + 1, b), (a, b + 1)):
            if sum(shifted) < ring.truncation and shifted not in members:
                return False
        image = ring.act_e((a, b))
        if image is not None and image[0] != 0 and image[1] not in members:
            return False
        image = ring.act_f((a, b))
        if image is not None and image[0] != 0 and image[1] not in members:
            return False
    return True


def classify_invariant_ideals(truncation: int) -> tuple[InvariantIdeal, ...]:
    """All proper nonzero invariant ideals of C[x,y]/m^N, as m^1, ..., m^(N-1).

    Certifies the graded slices irreducible first, so invariant subspaces
    are sums of full slices; x and y map a full slice onto the next one, so
    an ideal's degree support is upward closed, and a proper nonzero one is
    a suffix {j, ..., N-1} with 1 <= j < N.  Lists those suffixes and
    independently rechecks every answer.
    """
    n = truncation
    if n > MAX_TRUNCATION:
        raise ValueError(f"classification capped at truncation {MAX_TRUNCATION}")
    ring = TruncatedRing(n)
    for l in range(n):
        if not irreducibility_certificate(l):
            raise RuntimeError(f"degree {l} slice failed its irreducibility certificate")
    found = tuple(InvariantIdeal(n, tuple(range(j, n))) for j in range(1, n))
    for ideal in found:
        if not _recheck_ideal(ring, ideal.degrees):
            raise RuntimeError(f"recheck failed for support {ideal.degrees}")
    return found


class MonomialIdeal(namedtuple("MonomialIdeal", "staircase truncation")):
    """A monomial ideal of colength |staircase| with the staircase quotient.

    The quotient basis is {x^a y^b : a < staircase.parts[b]}, parts indexed
    by the y-exponent.
    """

    __slots__ = ()

    def quotient_monomials(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (a, b) for b, part in enumerate(self.staircase.parts) for a in range(part)
        )

    def generators(self) -> tuple[tuple[int, int], ...]:
        """Minimal monomial generators (the staircase corners)."""
        parts = self.staircase.parts
        gens = [(parts[0], 0)]
        for b in range(1, len(parts)):
            if parts[b] < parts[b - 1]:
                gens.append((parts[b], b))
        gens.append((0, len(parts)))
        return tuple(gens)


def _staircase_is_stable(quotient: frozenset[tuple[int, int]]) -> bool:
    # e = x d/dy sends the ideal monomial (a-1, b+1) onto the quotient cell
    # (a, b), and f = y d/dx sends (a+1, b-1) there; stability can only fail
    # at such a preimage, so scanning the quotient cells' antidiagonal
    # neighbours is the full operator check
    for (a, b) in quotient:
        if a >= 1 and (a - 1, b + 1) not in quotient:
            return False
        if b >= 1 and (a + 1, b - 1) not in quotient:
            return False
    return True


def _staircase_rows(previous: int | None, remaining: int):
    # a staircase with first row l covers l(l+1)/2 cells; each later row is
    # one shorter than the row above it
    if previous is None:
        triangular, l = is_triangular(remaining)
        return (l,) if triangular else ()
    return (previous - 1,) if previous > 1 else ()


def punctual_fixed_points(i: int) -> tuple[MonomialIdeal, ...]:
    """Colength-i monomial ideals stable under e and f, inside the window N = i+1.

    The operators preserve total degree, so the window suffices.  Under e a
    quotient cell (a, b) with a >= 1 needs (a-1, b+1), so p_{b+1} >= p_b - 1;
    under f a cell (a, b) with b >= 1 needs (a+1, b-1), so p_b >= p_{b+1} + 1
    (p_k = 0 after the last row): a staircase is stable iff every row is one
    shorter than the row above it, ending at 1, so its first row l has
    l(l+1)/2 = i.  The walk places only that first row and one-shorter rows
    below it, so it misses no stable staircase: the result is
    (l, l-1, ..., 1) when i = l(l+1)/2 and empty otherwise.  Each yielded
    staircase is still checked against the operators and for colength; a
    failure raises RuntimeError.
    """
    if i < 1:
        raise ValueError("colength must be >= 1")
    if i > MAX_COLENGTH:
        raise ValueError(f"staircase search capped at colength {MAX_COLENGTH}")
    truncation = i + 1
    fixed = []
    for parts in partitions_of(i, rows=_staircase_rows):
        ideal = MonomialIdeal(YoungDiagram(parts), truncation)
        quotient = ideal.quotient_monomials()
        if not _staircase_is_stable(quotient):
            raise RuntimeError(f"row rule admitted the unstable staircase {parts}")
        if len(quotient) != i or any(a + b >= truncation for a, b in quotient):
            raise RuntimeError("colength recheck failed")
        fixed.append(ideal)
    return tuple(fixed)
