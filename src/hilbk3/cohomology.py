"""Betti numbers of Hilbert schemes of points via diagonal strata.

The cycle map from the Hilbert scheme of n points to the n-th symmetric
power is semismall, so rationally the cohomology decomposes as a direct sum
over diagonal strata, each contributing its own cohomology shifted up by the
complex codimension of the stratum.  Each stratum is a product of symmetric
powers of the surface, whose Poincare polynomials are exact binomial sums.
All arithmetic is integer arithmetic.

The strata are the p(n) partitions of n, but the total never lists them:
grouped by part value it is a knapsack over k = 1..n, polynomial in n
(the factorised form of Goettsche's product).  Only the `strata` table
lists every stratum; degree-i entries list those of codimension <= i.

The value types are named tuples, checked when they are built: immutable
and hashable (surfaces key the polynomial caches), and, being tuples, they
also iterate, have a length and equal the plain tuple of their fields.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property, lru_cache
from math import comb

from .partitions import YoungDiagram, codim_diagonal, diagrams_of, partitions_of


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
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return PoincarePolynomial(tuple(out))


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
    out = [0] * (4 * n + 1)
    for j0 in range(n + 1):
        for j2 in range(n - j0 + 1):
            j4 = n - j0 - j2
            out[2 * j2 + 4 * j4] += (
                _multichoose(surface.b0, j0)
                * _multichoose(surface.b2, j2)
                * _multichoose(surface.b4, j4)
            )
    return PoincarePolynomial(tuple(out))


def diagonal_poincare(surface: SurfaceBetti, diagram: YoungDiagram) -> PoincarePolynomial:
    """Poincare polynomial of a diagonal stratum closure.

    The stratum for a diagram is the product, over distinct part values, of
    the symmetric power of the surface in the multiplicity of that value.
    It depends only on the sorted multiplicities, which p(n) strata share
    far fewer of (1,772 signatures for 37,338 strata at n = 40).
    """
    return _stratum_poincare(surface, tuple(sorted(Counter(diagram.parts).values())))


@lru_cache(maxsize=None)
def _stratum_poincare(surface: SurfaceBetti, mults: tuple[int, ...]) -> PoincarePolynomial:
    poly = PoincarePolynomial((1,))
    for mult in mults:
        poly = poly * symmetric_power_poincare(surface, mult)
    return poly


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


def _slot_bits(bound: int) -> int:
    # the width of a slot that holds every integer in 0..bound
    return bound.bit_length()


def _pack(coefficients, bits: int) -> int:
    # coefficient i in slot i of `bits` bits
    packed = 0
    for c in reversed(coefficients):
        packed = (packed << bits) | c
    return packed


StratumContribution = namedtuple("StratumContribution", (
    "diagram",
    "codim",
    "poincare",  # of the stratum itself, unshifted
))


class StratumLedger(namedtuple("StratumLedger", "n surface")):
    """The diagonal strata of one Hilbert scheme and their shifted sum."""

    # no __slots__: `contributions` is cached in the instance dict

    @cached_property
    def contributions(self) -> tuple[StratumContribution, ...]:
        """Every stratum, in `diagrams_of` order: p(n) of them."""
        return tuple(
            StratumContribution(d, codim_diagonal(d), diagonal_poincare(self.surface, d))
            for d in diagrams_of(self.n)
        )

    def total(self) -> PoincarePolynomial:
        """Sum over all strata of P(stratum) shifted by its codimension.

        A stratum gives each part value k a multiplicity m_k, with sum k m_k
        = n, and contributes the product of the P(Sym^{m_k} S) shifted by
        sum 2 m_k (k - 1).  So the sum is a knapsack over part values:
        sums[w] totals the partitions of w into the values seen so far, and
        value k with multiplicity m carries sums[w] to sums[w + k m] times
        P(Sym^m S), shifted by 2 m (k - 1).  No stratum is listed.

        Every degree is even, so each polynomial is packed into one int, the
        coefficient of t^(2i) in slot i of `bits` bits (Kronecker
        substitution): a product of polynomials is then one int product and
        a shift one int shift.  No slot carries into the next: every
        coefficient met is nonnegative and, at t = 1, a term of the total for
        at most n points, so at most a(n), the total at t = 1, which is below
        2^bits.  The unpacked slots must sum to a(n), as they do only if no
        slot carried; if they do not, RuntimeError.
        """
        n = self.n
        count = _euler_count(self.surface, n)
        bits = _slot_bits(count)
        sym = [_pack(symmetric_power_poincare(self.surface, m).betti[::2], bits)
               for m in range(n + 1)]
        sums = [0] * (n + 1)
        sums[0] = 1
        for k in range(1, n + 1):
            # w falls, so sums[w] does not hold value k yet when it is read
            for w in range(n - k, -1, -1):
                x = sums[w]
                for m in range(1, (n - w) // k + 1):
                    sums[w + k * m] += (x * sym[m]) << (bits * m * (k - 1))
        mask = (1 << bits) - 1
        slots = [(sums[n] >> (bits * i)) & mask for i in range(2 * n + 1)]
        if sum(slots) != count:
            raise RuntimeError("packed Betti knapsack carried between slots")
        betti = [0] * (4 * n + 1)
        betti[::2] = slots
        return PoincarePolynomial(tuple(betti))

    def entries_in_degree(self, i: int) -> tuple[tuple[YoungDiagram, int], ...]:
        """Nonzero contributions b_{i - codim}(stratum), in `diagrams_of` order.

        Only strata of codimension 2e <= i can contribute; their diagrams are
        (mu + 1, 1^(n - e - len mu)) for the partitions mu of e.
        """
        diagrams = []
        for e in range(min(i // 2, self.n - 1) + 1):
            for mu in partitions_of(e):
                if len(mu) <= self.n - e:
                    ones = (1,) * (self.n - e - len(mu))
                    diagrams.append(YoungDiagram(tuple(p + 1 for p in mu) + ones))
        out = []
        for d in sorted(diagrams, reverse=True):
            b = diagonal_poincare(self.surface, d).coefficient(i - codim_diagonal(d))
            if b:
                out.append((d, b))
        return tuple(out)


# `betti` sums the strata by part value and lists none: the knapsack on packed
# ints is polynomial in n, and `betti --n 100 --json` takes 0.6-0.7 s on a
# 2-core VM (0.7-0.9 s on the surface 1,30,1, whose slots are the widest)
MAX_BETTI_N = 100
# `strata` lists all p(n) strata: at n = 40 (37,338 strata) `strata --json`
# takes about 3 s and writes 42 MB on a 2-core VM
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
