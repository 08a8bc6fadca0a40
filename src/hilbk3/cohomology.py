"""Betti numbers of Hilbert schemes of points via diagonal strata.

The cycle map from the Hilbert scheme of n points to the n-th symmetric
power is semismall, so rationally the cohomology decomposes as a direct sum
over diagonal strata, each contributing its own cohomology shifted up by the
complex codimension of the stratum.  Each stratum is a product of symmetric
powers of the surface, whose Poincare polynomials are exact binomial sums.
All arithmetic is integer arithmetic.

The strata are the p(n) partitions of n, but the total never lists them:
it is the coefficient of q^n in Goettsche's product, which the graded Euler
recurrence for the coefficients of a product builds from its logarithmic
derivative in O(n^2 log n) steps.  Only the `strata` table lists every
stratum, and it forms each stratum polynomial once per multiplicity
signature; degree-i entries list the strata of codimension <= i.

The value types are named tuples, checked when they are built: immutable
and hashable (surfaces key the polynomial caches), and, being tuples, they
also iterate, have a length and equal the plain tuple of their fields.
"""

from collections import namedtuple
from functools import lru_cache
from math import comb

from .partitions import codim_diagonal, diagrams_of, partitions_of


def _multichoose(m: int, k: int) -> int:
    # multisets of size k from m symbols; comb(m+k-1, k) breaks at m = k = 0
    if k == 0:
        return 1
    return comb(m + k - 1, k)


class PoincarePolynomial(namedtuple("PoincarePolynomial", "betti")):
    """Integer coefficient list, betti[i] = b_i; trailing zeros trimmed."""

    __slots__ = ()

    def __new__(cls, betti: tuple[int, ...]):
        b = list(betti)
        if any(not isinstance(x, int) or x < 0 for x in b):
            raise ValueError("Betti numbers must be nonnegative integers")
        while b and b[-1] == 0:
            b.pop()
        return super().__new__(cls, tuple(b))

    @property
    def top_degree(self) -> int:
        return len(self.betti) - 1

    def coefficient(self, i: int) -> int:
        return self.betti[i] if 0 <= i < len(self.betti) else 0

    @property
    def euler_characteristic(self) -> int:
        return sum(b if i % 2 == 0 else -b for i, b in enumerate(self.betti))

    @property
    def is_palindromic(self) -> bool:
        return self.betti == self.betti[::-1]

    @property
    def has_only_even_degrees(self) -> bool:
        return all(b == 0 for b in self.betti[1::2])

    def __mul__(self, other: "PoincarePolynomial") -> "PoincarePolynomial":
        a, b = self.betti, other.betti
        if not a or not b:
            return PoincarePolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        # zeros are skipped on both sides: every odd degree of a surface is one
        terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in terms:
                    out[i + j] += x * y
        # nonnegative ints with a positive leading term: valid and trimmed
        return PoincarePolynomial._make((tuple(out),))


class SurfaceBetti(namedtuple("SurfaceBetti", "b0 b2 b4")):
    """Betti numbers of a compact surface with no odd cohomology."""

    __slots__ = ()

    def __new__(cls, b0: int, b2: int, b4: int):
        if b0 != 1:
            raise ValueError("b0 must be 1 (connected surface)")
        if b2 < 0 or b4 < 0:
            raise ValueError("Betti numbers must be nonnegative")
        return super().__new__(cls, b0, b2, b4)

    @classmethod
    def k3(cls) -> "SurfaceBetti":
        return cls(1, 22, 1)  # b2 = 22 for a K3 surface, taken as input


@lru_cache(maxsize=None)
def symmetric_power_poincare(surface: SurfaceBetti, n: int) -> PoincarePolynomial:
    """Poincare polynomial of the n-th symmetric power.

    Coefficient of q^n in prod_{i in 0,2,4} (1 - q t^i)^(-b_i): a multiset of
    n basis classes split as j0 + j2 + j4 over the three even degrees, with
    multichoose counts per degree.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    c0, c2, c4 = ([_multichoose(b, j) for j in range(n + 1)] for b in surface)
    out = [0] * (4 * n + 1)
    for j0 in range(n + 1):
        for j2 in range(n - j0 + 1):
            j4 = n - j0 - j2
            out[2 * j2 + 4 * j4] += c0[j0] * c2[j2] * c4[j4]
    return PoincarePolynomial(tuple(out))


def diagonal_poincare(surface: SurfaceBetti, diagram: tuple[int, ...]) -> PoincarePolynomial:
    """Poincare polynomial of a diagonal stratum closure.

    The stratum for a diagram is the product, over distinct part values, of
    the symmetric power of the surface in the multiplicity of that value.
    It depends only on the sorted multiplicities, the count of each
    distinct part value, which p(n) strata share far fewer of (1,772
    signatures for 37,338 strata at n = 40).
    """
    return _stratum_poincare(surface, tuple(sorted(map(diagram.count, set(diagram)))))


@lru_cache(maxsize=None)
def _stratum_poincare(surface: SurfaceBetti, mults: tuple[int, ...]) -> PoincarePolynomial:
    # one product per signature: the signature less its largest multiplicity
    # is a signature too, memoized with the rest
    if not mults:
        return PoincarePolynomial((1,))
    return _stratum_poincare(surface, mults[:-1]) * symmetric_power_poincare(surface, mults[-1])


def _euler_count(surface: SurfaceBetti, n: int) -> int:
    """a(n): the coefficient of q^n in prod_k (1 - q^k)^-(b0 + b2 + b4).

    This is the Poincare polynomial of the Hilbert scheme of n points at
    t = 1, by Euler's recurrence n a(n) = c sum_j sigma(j) a(n - j), with
    c = b0 + b2 + b4 and the divisor sums sigma from a sieve.
    """
    c = surface.b0 + surface.b2 + surface.b4
    sigma = [0] * (n + 1)
    for d in range(1, n + 1):
        for multiple in range(d, n + 1, d):
            sigma[multiple] += d
    a = [1] + [0] * n
    for m in range(1, n + 1):
        a[m] = c * sum(sigma[j] * a[m - j] for j in range(1, m + 1)) // m
    return a[n]


def _log_derivative(surface: SurfaceBetti, n: int) -> list[list[tuple[int, int]]]:
    """The terms (exponent, coefficient) of D_r(s) for r = 0..n, with s = t^2.

    Goettsche's product is F = prod_k prod_{j = 0,1,2} (1 - s^(k-1+j) q^k)^-b_{2j},
    so q d/dq log F = sum_r D_r(s) q^r with
    D_r(s) = sum_{k | r} k sum_j b_{2j} s^((r/k)(k-1+j)).  D_0 is empty.
    """
    terms = [{} for _ in range(n + 1)]
    for k in range(1, n + 1):
        for m in range(1, n // k + 1):
            d = terms[k * m]
            for j, b in enumerate(surface):
                if b:
                    e = m * (k - 1 + j)
                    d[e] = d.get(e, 0) + k * b
    return [list(d.items()) for d in terms]


StratumContribution = namedtuple("StratumContribution", (
    "diagram",
    "codim",
    "poincare",  # of the stratum itself, unshifted
))


class StratumLedger(namedtuple("StratumLedger", "n surface")):
    """The diagonal strata of one Hilbert scheme and their shifted sum."""

    __slots__ = ()

    @property
    def contributions(self) -> tuple[StratumContribution, ...]:
        """Every stratum, in `diagrams_of` order: p(n) of them, listed on each read."""
        return tuple(
            StratumContribution(d, codim_diagonal(d), diagonal_poincare(self.surface, d))
            for d in diagrams_of(self.n)
        )

    def total(self) -> PoincarePolynomial:
        """Sum over all strata of P(stratum) shifted by its codimension.

        This is F_n, the coefficient of q^n in Goettsche's product F, in
        s = t^2 (no odd degree occurs).  From q d/dq F = F q d/dq log F the
        graded Euler recurrence N F_N = sum_{r=1..N} D_r F_(N-r) builds
        F_1, ..., F_n from the few terms of each D_r (`_log_derivative`).
        No stratum is listed.

        Each F_N is packed into one int, the coefficient of s^i in slot i of
        `bits` bits (Kronecker substitution), so a term of D_r F_(N-r) is a
        small-int multiple, a power of s is a shift, and the division by N is
        one int division; a remainder raises RuntimeError.  At s = 1 the
        recurrence is `_euler_count`'s, so every slot of N F_N is at most
        N a(N) <= n a(n) and, every term being nonnegative, no slot carries
        into the next.  The unpacked slots must sum to a(n), as they do only
        if no slot carried; if they do not, RuntimeError.
        """
        n = self.n
        count = _euler_count(self.surface, n)
        # the width of a slot that holds every integer in 0..n a(n)
        bits = (n * count).bit_length()
        derivative = _log_derivative(self.surface, n)
        tables = [1]
        for big_n in range(1, n + 1):
            # by_power[e]: the packed sum of c F_(N-r) over the terms c s^e of
            # every D_r; then N F_N = sum_e by_power[e] s^e, by Horner's rule
            by_power = [0] * (2 * big_n + 1)
            for r in range(1, big_n + 1):
                lower = tables[big_n - r]
                for e, c in derivative[r]:
                    by_power[e] += c * lower
            acc = 0
            for x in reversed(by_power):
                acc = (acc << bits) + x
            table, remainder = divmod(acc, big_n)
            if remainder:
                raise RuntimeError(f"graded Euler recurrence left a remainder dividing by "
                                   f"N = {big_n}")
            tables.append(table)
        mask = (1 << bits) - 1
        slots = [(tables[n] >> (bits * i)) & mask for i in range(2 * n + 1)]
        if sum(slots) != count:
            raise RuntimeError("packed Betti recurrence carried between slots")
        betti = [0] * (4 * n + 1)
        betti[::2] = slots
        return PoincarePolynomial(tuple(betti))

    def entries_in_degree(self, i: int) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Nonzero contributions b_{i - codim}(stratum), in `diagrams_of` order.

        Only strata of codimension 2e <= i can contribute; their diagrams are
        (mu + 1, 1^(n - e - len mu)) for the partitions mu of e.
        """
        diagrams = []
        for e in range(min(i // 2, self.n - 1) + 1):
            for mu in partitions_of(e):
                if len(mu) <= self.n - e:
                    ones = (1,) * (self.n - e - len(mu))
                    diagrams.append(tuple(p + 1 for p in mu) + ones)
        out = []
        for d in sorted(diagrams, reverse=True):
            b = diagonal_poincare(self.surface, d).coefficient(i - codim_diagonal(d))
            if b:
                out.append((d, b))
        return tuple(out)


# `betti` lists no stratum: the graded Euler recurrence on packed ints takes
# O(n^2 log n) steps, and `betti --n 100 --json` takes 0.2 s on a 2-core VM
# (0.5-0.9 s on 1,1000000,1 and 1,1000000,1000000, whose slots are the widest)
MAX_BETTI_N = 100
# `strata` lists all p(n) strata: at n = 40 (37,338 strata in 1,772
# signatures) `strata --json` takes 1.6-1.8 s and writes 42 MB on a 2-core VM
MAX_STRATA_N = 40


def hilbert_stratum_ledger(surface: SurfaceBetti, n: int) -> StratumLedger:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_BETTI_N:
        raise ValueError(f"Betti tables capped at n = {MAX_BETTI_N}")
    return StratumLedger(n, surface)


def hilbert_strata(surface: SurfaceBetti, n: int) -> tuple[StratumContribution, ...]:
    """Every stratum of the Hilbert scheme of n points, in `diagrams_of` order."""
    if n > MAX_STRATA_N:
        raise ValueError(f"stratum tables capped at n = {MAX_STRATA_N}")
    return hilbert_stratum_ledger(surface, n).contributions
