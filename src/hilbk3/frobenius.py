"""Graded Frobenius algebra generated by degree-2 classes.

For a rational quadratic space (V, q) and n >= 1 the model algebra is
Sym(V) modulo the ideal generated by the harmonic part of degree n + 1,
where harmonic means killed by the Laplacian Delta of q (the contraction
pairing two symmetric slots with the form).  In each degree n < d <= 2n
that ideal is the kernel of Delta^(d-n), which is how it is built:
Delta^(d-n) of h * p, h harmonic of degree n + 1, contracts two slots of h
in every term, and both spaces have codimension dim Sym^(2n-d), since
Sym^d = H_d + q Sym^(d-2) makes Delta^(d-n) onto.  Delta reads the form
as the `integral` rows that the gram's one `linalg.Gram` check keeps, the
form scaled to ints by the package's one common-denominator rule, so its
powers are int matrices with the kernels of the rational ones; each goes
to `linalg.nullspace` as the sparse rows read off its images, in the one
row form of every elimination, and no dense matrix is built.  The graded
pieces sit in cohomological degrees 0, 2, ..., 4n with

    dim A_{2i} = dim Sym^{min(i, 2n-i)} V,

a pattern the construction validates degree by degree, aborting on any
mismatch.  Associativity is proved, not sampled: the table of normal forms
fixes the quotient basis and its kernel is closed under multiplication by
V, so the kernel is an ideal and the table is the quotient map by it.  The
closure is checked on monomials of degrees n + 1..2n - 1 only, since below
that every monomial is its own normal form.  The pairing, (a, b) -> the
coordinate of a*b in the one-dimensional top degree, is read off the
table's top degree and checked nondegenerate on degrees 0..n only, since
monomial products commute and the matrix of degree 2n - i is the
transpose of that of degree i.  Powers of isotropic classes of V vanish
exactly above degree 2n, and special orthogonal substitutions act by
algebra automorphisms; all of this is exercised by the test suite with
exact arithmetic, in ints wherever a value is integral.

Full multiplication tables are capped at dim V <= 6 and n <= 4.  For larger
spaces (e.g. the 23-dimensional H^2 of a Hilbert scheme) only the closed
form dimension pattern is exposed, up to dim V <= 32 and n <= 10,000.
"""

import operator
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import linalg

# full-table cap, read only by `full_table`: at (6, 4) the exact pairing
# determinants take 13.4-13.8 s of a 13.9-14.7 s report on a 6 x 6 gram of
# p/q entries near cli.MAX_GRAM_ENTRY, and 1.8 s of 3.0-4.1 s on the p/q
# gram of the tests (2-core VM, Python 3.11)
MAX_DIM_V = 6
MAX_N = 4
# dimensions-only budget: at dim V 32, n 10,000 the report prints about
# 1.7 MB of JSON in 0.17-0.18 s, 0.013 s of it the pattern and 0.029 s the
# check's recount of it (fresh process, 2-core VM, Python 3.11.7); gram
# files have their own bound, cli.MAX_GRAM_DIM
MAX_PATTERN_DIM_V = 32
MAX_PATTERN_N = 10_000


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


def laplacian_matrix(gram, degree: int, power: int) -> list[dict]:
    """Delta^power: Sym^degree -> Sym^(degree - 2 power) as sparse int rows,
    one {column: value} row per monomial of Sym^(degree - 2 power) over the
    monomials of Sym^degree, in the row form `linalg.nullspace` takes.  The
    Laplacian Delta contracts two slots with the form, read as the
    `integral` rows of the `linalg.Gram` check of the gram: the form scaled
    by gden to ints, so the matrix is gden^power times Delta^power, with the
    same kernel.  A `Gram` passes that check unchanged.  Delta^k of a
    monomial is Delta^(k-1) of the terms of its Delta, each kept for the
    one call, and the rows are read straight off those images."""
    dim = len(gram)
    _, rows = linalg.Gram(gram).integral
    form = [(i, j, g) for i, row in enumerate(rows) for j, g in row if j >= i]
    images: dict[tuple[int, ...], dict] = {}  # the degree of e fixes k

    def image(e, k):
        if k and e not in images:
            out = images[e] = {}
            for i, j, g in form:
                if e[i] > (i == j) and e[j]:
                    f = list(e)
                    f[i] -= 1
                    f[j] -= 1
                    c = (e[i] * (e[i] - 1) // 2 if i == j else e[i] * e[j]) * g
                    for h, x in image(tuple(f), k - 1).items():
                        out[h] = out.get(h, 0) + c * x
        return images[e] if k else {e: 1}

    rows = {m: {} for m in monomial_basis(dim, degree - 2 * power)}
    for c, e in enumerate(monomial_basis(dim, degree)):
        for m, x in image(e, power).items():
            if x:
                rows[m][c] = x
    return list(rows.values())


def harmonic_basis(gram, degree: int, power: int) -> list[dict]:
    """The kernel of Delta^power in the given degree (all of Sym^degree below
    2 power), as the sparse reduced echelon basis of `linalg.nullspace`."""
    return linalg.nullspace(laplacian_matrix(gram, degree, power),
                            len(monomial_basis(len(gram), degree)))


def algebra_dimension_pattern(dim_v: int, n: int) -> tuple[int, ...]:
    """Closed-form dims of A_0, A_2, ..., A_4n (no construction needed)."""
    if dim_v < 1 or n < 1:
        raise ValueError("need dim_v >= 1 and n >= 1")
    if dim_v > MAX_PATTERN_DIM_V or n > MAX_PATTERN_N:
        raise ValueError(f"dimension patterns capped at dim V <= {MAX_PATTERN_DIM_V}, "
                         f"n <= {MAX_PATTERN_N}")
    # dim A_2i = dim Sym^min(i, 2n - i) V: n + 1 binomials, mirrored
    half = [comb(dim_v + i - 1, i) for i in range(n + 1)]
    return tuple(half + half[-2::-1])


def full_table(dim_v: int, n: int) -> bool:
    """Whether the full table is built at (dim V, n), not the pattern only."""
    return dim_v <= MAX_DIM_V and n <= MAX_N


def _times(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two monomials as exponent tuples."""
    return tuple(map(operator.add, a, b))


class FrobeniusAlgebra:
    """The model algebra as its table of monomial normal forms.

    For every degree d <= 2n the table maps each monomial of Sym^d V to its
    normal form, sparse coordinates ((t, coeff), ...) over the basis of
    A_{2d} in increasing t.  In degree d > n the table is read straight off
    the kernel of Delta^(d-n) as `harmonic_basis` returns it, each vector 1
    at its least column (a pivot monomial) and 0 at every other vector's, a
    contract the build checks: a pivot's normal form is minus its vector
    without the pivot, and every other monomial, like every monomial below
    degree n + 1, is a basis monomial and its own normal form.  Elements of
    A_{2d} are coordinates over the basis, and reduction, products,
    pairings and the closure proof read the one table.

    The argument checks run cheapest first: n and the caps before the
    `linalg.Gram` check of the gram, which a `Gram` has passed already.
    """

    def __init__(self, gram, n: int):
        if not isinstance(n, int) or n < 1:
            raise ValueError("n must be a positive integer")
        if not full_table(len(gram), n):
            raise ValueError(f"full tables capped at dim V <= {MAX_DIM_V}, n <= {MAX_N}; "
                             f"use algebra_dimension_pattern for larger spaces")
        self.gram = linalg.Gram(gram)
        self.dim_v = len(gram)
        self.n = n
        self._build()

    def _build(self):
        n, dim = self.n, self.dim_v
        expected = algebra_dimension_pattern(dim, n)
        self._quotient_monomials: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._forms: dict[int, dict[tuple[int, ...], tuple[tuple[int, Fraction], ...]]] = {}
        for d in range(2 * n + 1):
            basis = monomial_basis(dim, d)
            # the kernel's reduced echelon basis, keyed by pivot
            rows = {min(v): v for v in harmonic_basis(self.gram, d, d - n)} if d > n else {}
            quotient = [k for k in range(len(basis)) if k not in rows]
            if len(quotient) != expected[d]:
                raise ConstructionError(
                    f"degree {2 * d}: got dimension {len(quotient)}, expected {expected[d]}")
            if any(v[k] != 1 or any(j in rows for j in v if j != k) for k, v in rows.items()):
                raise ConstructionError(f"degree {2 * d}: kernel basis is not reduced echelon")
            column = {k: t for t, k in enumerate(quotient)}
            self._quotient_monomials[d] = tuple(basis[k] for k in quotient)
            self._forms[d] = {
                m: tuple((column[j], -x) for j, x in sorted(rows[k].items()) if j != k)
                if k in rows else ((column[k], 1),) for k, m in enumerate(basis)}

    def dim(self, i: int) -> int:
        """Dimension of A_{2i} (zero outside 0..2n)."""
        if 0 <= i <= 2 * self.n:
            return len(self._quotient_monomials[i])
        return 0

    def _normal_form(self, d: int, terms) -> list[Fraction]:
        """Coordinates in A_{2d} of the sum of coeff * mono over (mono, coeff) terms."""
        # one shared zero (a small int): untouched entries of two results
        # compare by identity
        out = [0] * self.dim(d)
        forms = self._forms[d]
        for mono, coeff in terms:
            for t, x in forms[mono]:
                out[t] += coeff * x
        return out

    def reduce(self, i: int, sym_coeffs) -> list[Fraction]:
        """Coordinates in the quotient basis of A_{2i} of a Sym^i vector."""
        if i > 2 * self.n:
            return []
        basis = monomial_basis(self.dim_v, i)
        vec = [Fraction(x) for x in sym_coeffs]
        if len(vec) != len(basis):
            raise ValueError("coefficient length mismatch")
        return self._normal_form(i, zip(basis, vec))

    def multiply(self, i: int, a, j: int, b) -> list[Fraction]:
        """Product A_{2i} x A_{2j} -> A_{2(i+j)} in quotient coordinates."""
        if i + j > 2 * self.n:
            return []
        # only nonzero coefficients: check_associative multiplies a unit
        # vector by a sparse normal form
        bs = [(mb, cb) for mb, cb in zip(self._quotient_monomials[j], b) if cb]
        return self._normal_form(i + j, (
            (_times(ma, mb), ca * cb)
            for ma, ca in zip(self._quotient_monomials[i], a) if ca for mb, cb in bs))

    def pairing_matrix(self, i: int) -> list[list[Fraction]]:
        """The coordinate of a_r * b_s in the one-dimensional A_{4n}, over
        the basis monomials a_r of A_{2i} and b_s of A_{2(2n-i)}: read off
        the table's normal form of the monomial a_r * b_s, an int where it
        is integral.
        """
        top = self._forms[2 * self.n]
        return [[form[0][1] if (form := top[_times(a, b)]) else 0
                 for b in self._quotient_monomials[2 * self.n - i]]
                for a in self._quotient_monomials[i]]

    def power_of_linear(self, alpha, p: int) -> list[Fraction]:
        """Coordinates of alpha^p in A_{2p} for a vector alpha of V: alpha
        multiplied into 1 p times, so empty past degree 2n."""
        if p < 0:
            raise ValueError("power must be nonnegative")
        alpha = [Fraction(x) for x in alpha]
        if len(alpha) != self.dim_v:
            raise ValueError("alpha must be a vector of V")
        power = [1]
        for k in range(p):
            power = self.multiply(1, alpha, k, power)
        return power

    def check_pairing_nondegenerate(self) -> bool:
        """Whether the top coordinate of a * b pairs A_{2i} with A_{2(2n-i)}
        perfectly; exact.

        The dimensions are compared first, then the determinants of degrees
        0..n: monomial products commute, so pairing_matrix(2n - i) is the
        transpose of pairing_matrix(i) and has the same determinant.
        """
        n = self.n
        if any(self.dim(i) != self.dim(2 * n - i) for i in range(n)):
            return False
        for i in range(n + 1):
            m = self.pairing_matrix(i)
            if m and linalg.det(m) == 0:
                return False
        return True

    def check_associative(self) -> bool:
        """Whether the table is the quotient map by an ideal; exact.

        Two conditions: every quotient basis monomial is its own normal
        form, and NF(x * NF(m)) = NF(x * m) for every monomial m of degree
        below 2n and every variable x.  The first makes m - NF(m) lie in the
        kernel of NF, the second closes that kernel under multiplication by
        V, so it is an ideal and NF(NF(ab) c) = NF(abc) = NF(a NF(bc)) for
        all a, b, c.  The left side is the algebra's product of x with
        NF(m), one per monomial and variable, not one per basis triple.  The
        second condition is checked only for the m of degree below 2n
        outside the quotient basis, all of degree n + 1 or more: for a basis
        monomial the first condition makes NF(m) = m, so both sides are
        NF(x * m).
        """
        basis, forms = self._quotient_monomials, self._forms
        for d in range(2 * self.n + 1):
            if any(forms[d][m] != ((t, 1),) for t, m in enumerate(basis[d])):
                return False
        units = linalg.identity(len(basis[1]))
        for d in range(self.n + 1, 2 * self.n):
            quotient = set(basis[d])
            for m in forms[d]:
                if m in quotient:
                    continue
                coords = self._normal_form(d, ((m, 1),))
                for x, e_x in zip(basis[1], units):
                    if (self.multiply(1, e_x, d, coords)
                            != self._normal_form(d + 1, ((_times(m, x), 1),))):
                        return False
        return True


def build_algebra(gram, n: int) -> FrobeniusAlgebra:
    return FrobeniusAlgebra(gram, n)

