"""Graded Frobenius algebra generated by degree-2 classes.

For a rational quadratic space (V, q) and n >= 1 the model algebra is
Sym(V) modulo the ideal generated by the harmonic part of degree n + 1,
where harmonic means killed by the Laplacian of q (the contraction pairing
two symmetric slots with the form).  The graded pieces sit in cohomological
degrees 0, 2, ..., 4n with

    dim A_{2i} = dim Sym^{min(i, 2n-i)} V,

a pattern the construction validates degree by degree, aborting on any
mismatch.  Powers of isotropic classes of V vanish exactly above degree 2n,
the pairing (a, b) -> counit(a*b) is nondegenerate, and special orthogonal
substitutions act by algebra automorphisms; all of this is exercised by the
test suite with exact arithmetic.

Full multiplication tables are capped at dim V <= 6 and n <= 4.  For larger
spaces (e.g. the 23-dimensional H^2 of a Hilbert scheme) only the closed
form dimension pattern is exposed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from . import linalg

MAX_DIM_V = 6
MAX_N = 4


class ConstructionError(RuntimeError):
    """Raised when the computed ideal violates the expected dimension pattern."""


@lru_cache(maxsize=None)
def monomial_basis(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of total degree `degree` in `dim` variables, lex order."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if degree < 0:
        return ()
    if dim == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        for rest in monomial_basis(dim - 1, degree - first):
            out.append((first,) + rest)
    return tuple(out)


def laplacian_matrix(gram, dim: int, degree: int) -> list[list[Fraction]]:
    """Contraction Sym^degree -> Sym^(degree-2) pairing two slots with the form."""
    src = monomial_basis(dim, degree)
    dst = monomial_basis(dim, degree - 2)
    index = {m: k for k, m in enumerate(dst)}
    out = [[Fraction(0)] * len(src) for _ in range(len(dst))]
    for s, e in enumerate(src):
        for i in range(dim):
            if e[i] >= 2 and gram[i][i] != 0:
                f = list(e)
                f[i] -= 2
                out[index[tuple(f)]][s] += Fraction(e[i] * (e[i] - 1), 2) * gram[i][i]
            for j in range(i + 1, dim):
                if e[i] >= 1 and e[j] >= 1 and gram[i][j] != 0:
                    f = list(e)
                    f[i] -= 1
                    f[j] -= 1
                    out[index[tuple(f)]][s] += Fraction(e[i] * e[j]) * gram[i][j]
    return out


def harmonic_basis(gram, dim: int, degree: int) -> list[list[Fraction]]:
    """Kernel of the contraction in the given degree."""
    if degree < 2:
        n = len(monomial_basis(dim, degree))
        return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    return linalg.nullspace(laplacian_matrix(gram, dim, degree), len(monomial_basis(dim, degree)))


def algebra_dimension_pattern(dim_v: int, n: int) -> tuple[int, ...]:
    """Closed-form dims of A_0, A_2, ..., A_4n (no construction needed)."""
    if dim_v < 1 or n < 1:
        raise ValueError("need dim_v >= 1 and n >= 1")
    return tuple(comb(dim_v + min(i, 2 * n - i) - 1, min(i, 2 * n - i)) for i in range(2 * n + 1))


class FrobeniusAlgebra:
    """Multiplication, counit and pairings of the model algebra.

    Elements of the component A_{2i} are coordinate vectors over the stored
    quotient basis (non-pivot monomials of Sym^i modulo the ideal).
    """

    def __init__(self, gram, n: int):
        gram = [list(map(Fraction, row)) for row in gram]
        dim = len(gram)
        if any(len(r) != dim for r in gram):
            raise ValueError("gram must be square")
        for i in range(dim):
            for j in range(dim):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("gram must be symmetric")
        if linalg.det(gram) == 0:
            raise ValueError("gram must be nondegenerate")
        if not isinstance(n, int) or n < 1:
            raise ValueError("n must be a positive integer")
        if dim > MAX_DIM_V or n > MAX_N:
            raise ValueError(f"full tables capped at dim V <= {MAX_DIM_V}, n <= {MAX_N}; "
                             f"use algebra_dimension_pattern for larger spaces")
        self.gram = gram
        self.dim_v = dim
        self.n = n
        self._ideal: dict[int, linalg.Echelon] = {}
        self._mono_cache: dict[int, dict[tuple[int, ...], list[Fraction]]] = {}
        self._build()

    def _build(self):
        n, dim = self.n, self.dim_v
        ech = linalg.Echelon(len(monomial_basis(dim, n + 1)))
        for h in harmonic_basis(self.gram, dim, n + 1):
            ech.add(h)
        self._ideal[n + 1] = ech
        for d in range(n + 2, 2 * n + 1):
            basis = monomial_basis(dim, d)
            index = {m: k for k, m in enumerate(basis)}
            prev_basis = monomial_basis(dim, d - 1)
            grown = linalg.Echelon(len(basis))
            for _, row in self._ideal[d - 1].rows:
                for v in range(dim):
                    image = [Fraction(0)] * len(basis)
                    for k, coeff in enumerate(row):
                        if coeff != 0:
                            e = list(prev_basis[k])
                            e[v] += 1
                            image[index[tuple(e)]] += coeff
                    grown.add(image)
            self._ideal[d] = grown
        expected = algebra_dimension_pattern(dim, n)
        self._quotient_monomials: dict[int, tuple[tuple[int, ...], ...]] = {}
        for i in range(2 * n + 1):
            basis = monomial_basis(dim, i)
            pivots = set(self._ideal[i].pivots) if i in self._ideal else set()
            quotient = tuple(m for k, m in enumerate(basis) if k not in pivots)
            if len(quotient) != expected[i]:
                raise ConstructionError(
                    f"degree {2 * i}: got dimension {len(quotient)}, expected {expected[i]}")
            self._quotient_monomials[i] = quotient

    def dim(self, i: int) -> int:
        """Dimension of A_{2i} (zero outside 0..2n)."""
        if 0 <= i <= 2 * self.n:
            return len(self._quotient_monomials[i])
        return 0

    def reduce(self, i: int, sym_coeffs) -> list[Fraction]:
        """Coordinates in the quotient basis of A_{2i} of a Sym^i vector."""
        if i > 2 * self.n:
            return []
        basis = monomial_basis(self.dim_v, i)
        vec = [Fraction(x) for x in sym_coeffs]
        if len(vec) != len(basis):
            raise ValueError("coefficient length mismatch")
        if i in self._ideal:
            vec = self._ideal[i].reduce(vec)
        index = {m: k for k, m in enumerate(basis)}
        return [vec[index[m]] for m in self._quotient_monomials[i]]

    def _reduced_monomial(self, d: int, mono: tuple[int, ...]) -> list[Fraction]:
        # reduction of a single monomial, cached: products of basis elements
        # hit the same monomials over and over
        cache = self._mono_cache.setdefault(d, {})
        hit = cache.get(mono)
        if hit is None:
            basis = monomial_basis(self.dim_v, d)
            vec = [Fraction(0)] * len(basis)
            vec[basis.index(mono)] = Fraction(1)
            hit = cache[mono] = self.reduce(d, vec)
        return hit

    def multiply(self, i: int, a, j: int, b) -> list[Fraction]:
        """Product A_{2i} x A_{2j} -> A_{2(i+j)} in quotient coordinates."""
        if i + j > 2 * self.n:
            return []
        out = [Fraction(0)] * self.dim(i + j)
        for ca, ma in zip(a, self._quotient_monomials[i]):
            if ca == 0:
                continue
            for cb, mb in zip(b, self._quotient_monomials[j]):
                if cb == 0:
                    continue
                c = Fraction(ca) * Fraction(cb)
                red = self._reduced_monomial(i + j, tuple(x + y for x, y in zip(ma, mb)))
                for t in range(len(out)):
                    if red[t] != 0:
                        out[t] += c * red[t]
        return out

    def counit(self, coords) -> Fraction:
        """Coefficient on the one-dimensional top component A_{4n}."""
        if len(coords) != 1:
            raise ValueError("counit takes coordinates in the top component")
        return Fraction(coords[0])

    def pairing_matrix(self, i: int) -> list[list[Fraction]]:
        """counit(a_r * b_s) over bases of A_{2i} and A_{2(2n-i)}."""
        j = 2 * self.n - i
        rows = []
        da, db = self.dim(i), self.dim(j)
        for r in range(da):
            a = [Fraction(1) if t == r else Fraction(0) for t in range(da)]
            row = []
            for s in range(db):
                b = [Fraction(1) if t == s else Fraction(0) for t in range(db)]
                row.append(self.counit(self.multiply(i, a, j, b)))
            rows.append(row)
        return rows

    def power_of_linear(self, alpha, p: int) -> list[Fraction]:
        """Coordinates of alpha^p in A_{2p} for a vector alpha of V."""
        if p < 0:
            raise ValueError("power must be nonnegative")
        if p > 2 * self.n:
            return []
        alpha = [Fraction(x) for x in alpha]
        if len(alpha) != self.dim_v:
            raise ValueError("alpha must be a vector of V")
        # expand (sum alpha_i v_i)^p degree by degree
        current = {(0,) * self.dim_v: Fraction(1)}
        for _ in range(p):
            grown: dict[tuple[int, ...], Fraction] = {}
            for mono, coeff in current.items():
                for i, ai in enumerate(alpha):
                    if ai == 0:
                        continue
                    e = list(mono)
                    e[i] += 1
                    key = tuple(e)
                    grown[key] = grown.get(key, Fraction(0)) + coeff * ai
            current = grown
        basis = monomial_basis(self.dim_v, p)
        vec = [current.get(m, Fraction(0)) for m in basis]
        return self.reduce(p, vec)

    def check_pairing_nondegenerate(self) -> bool:
        for i in range(2 * self.n + 1):
            m = self.pairing_matrix(i)
            if self.dim(i) != self.dim(2 * self.n - i):
                return False
            if m and linalg.det(m) == 0:
                return False
        return True

    def _unit_vectors(self, i: int) -> list[list[Fraction]]:
        d = self.dim(i)
        return [[Fraction(1) if t == r else Fraction(0) for t in range(d)] for r in range(d)]

    def check_associative(self) -> bool:
        """(ab)c = a(bc) over all basis triples in range; exact."""
        n = self.n
        for i in range(2 * n + 1):
            for j in range(2 * n + 1 - i):
                for k in range(2 * n + 1 - i - j):
                    es_i = self._unit_vectors(i)
                    es_j = self._unit_vectors(j)
                    es_k = self._unit_vectors(k)
                    bc_table = [[self.multiply(j, b, k, c) for c in es_k] for b in es_j]
                    for a in es_i:
                        for s, b in enumerate(es_j):
                            ab = self.multiply(i, a, j, b)
                            for u, c in enumerate(es_k):
                                left = self.multiply(i + j, ab, k, c)
                                right = self.multiply(i, a, j + k, bc_table[s][u])
                                if left != right:
                                    return False
        return True


def build_algebra(gram, n: int) -> FrobeniusAlgebra:
    return FrobeniusAlgebra(gram, n)

