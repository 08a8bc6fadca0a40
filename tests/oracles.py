"""Independent oracles and test-only constructions used by the test suite.

The oracles compute by a different route than the library code they check:
generating-function expansions, the per-stratum sum over all p(n) strata,
the packed knapsack over part values that the graded Euler recurrence
replaced, the `strata` report built from one dict row per stratum,
brute-force multiset enumeration and the cycle index of S_n for symmetric
powers, the plain product over a signature's multiplicities,
exhaustive subset scans (the full p(n) pinning audit, the 2^N sweep of
ideal supports), the whole truncated ring C[x, y]/m^N with its
single-monomial operators e and f (its slice matrices of e and their
highest-weight spaces by elimination, the ideal recheck and staircase
check that the library's one closure rule replaced, and the `ideals`
report built from the ideals its slices generate), the slice certificate
by the nullspace of e's one-entry rows that the library's count of e's
images replaced, the
check of every basis triple for associativity, the Frobenius pairing and
ideal-closure checks over every degree, powers of a linear class expanded
in the symmetric algebra, the top power of the Laplacian differentiated
out term by term (the pairing and the Fujiki relation checked with no
elimination), sympy eliminations, the standard library's JSON
encoder, and the hand-written argparse parser of the six reports.  Values
frozen in the tests were produced by these functions and cross-checked
against the literature before freezing.

The constructions below them exist only so tests can compare or sample
with them, and the reports never run them: the dense Frobenius build by
propagation that the library's kernel of a power of the Laplacian
replaced, the shape grammar, the full BB gram in Fractions that the
lattice's integral view states once, explicit BB classes, the routes of
the degree-4 path the library replaced (BB pairing and
period-triple Gram-Schmidt in Fractions, period triples orthogonal to
delta, congruence column operations over
zero entries too, with the signature read off them), the gram files
that CI's gates read and each gate's one comparison, which tier-1 calls
too, a rank, a matrix
inverse and the dense matrix and matrix-vector products, the three dense
rotation operators of a period triple with the dense invariance checks
built from them (the 2-form check the library replaced, and the
contravariant one), the inverse and transported BB tensors, the rotation
modules of d and d^2, and random isotropic vectors.
"""

import argparse
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import factorial, isqrt, lcm, prod
from pathlib import Path

import sympy

from hilbk3 import bb_lattice, cli, linalg
from hilbk3.bb_lattice import PeriodTriple
from hilbk3.cohomology import PoincarePolynomial, SurfaceBetti, symmetric_power_poincare
from hilbk3.frobenius import build_algebra, harmonic_basis, laplacian_matrix, monomial_basis
from hilbk3.partitions import diagrams_of, is_triangular, partitions_of


def goettsche_rows(b0, b2, b4, n_max):
    """Betti numbers of the Hilbert schemes of n <= n_max points, by n.

    Expands prod_{m>=1} (1-t^{2m-2}z^m)^{-b0} (1-t^{2m}z^m)^{-b2}
    (1-t^{2m+2}z^m)^{-b4} once to order z^n_max and returns the coefficient
    of each z^n as a tuple of t-coefficients.
    """
    series = [[1]] + [[0] for _ in range(n_max)]
    for m in range(1, n_max + 1):
        for shift, expo in ((2 * m - 2, b0), (2 * m, b2), (2 * m + 2, b4)):
            for _ in range(expo):
                # divide by (1 - t^shift z^m): R_j = S_j + t^shift R_{j-m},
                # in place with j rising
                for j in range(m, n_max + 1):
                    lower, cur = series[j - m], series[j]
                    if len(cur) < shift + len(lower):
                        cur.extend([0] * (shift + len(lower) - len(cur)))
                    for k, c in enumerate(lower):
                        cur[shift + k] += c
    rows = []
    for coeffs in series:
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        rows.append(tuple(coeffs))
    return rows


def goettsche_betti(b0, b2, b4, n):
    """Betti numbers of the n-th Hilbert scheme via the infinite product."""
    return goettsche_rows(b0, b2, b4, n)[n]


def stratum_sum(ledger):
    """The ledger's total, summed stratum by stratum over all p(n) strata."""
    out = [0] * (4 * ledger.n + 1)
    for c in ledger.contributions:
        for i, b in enumerate(c.poincare.betti):
            out[c.codim + i] += b
    return PoincarePolynomial(tuple(out))


def stratum_entries_in_degree(ledger, i):
    """Nonzero b_{i - codim}(stratum), filtered from all p(n) strata."""
    out = []
    for c in ledger.contributions:
        b = c.poincare.coefficient(i - c.codim) if i >= c.codim else 0
        if b:
            out.append((c.diagram, b))
    return tuple(out)


def _knapsack(sym, n, bits):
    # sums[w] totals the partitions of w into the part values seen so far;
    # value k with multiplicity m carries sums[w] to sums[w + k m] times
    # sym[m], shifted by m (k - 1) slots of `bits` bits
    sums = [1] + [0] * n
    for k in range(1, n + 1):
        # w falls, so sums[w] does not hold value k yet when it is read
        for w in range(n - k, -1, -1):
            x = sums[w]
            for m in range(1, (n - w) // k + 1):
                sums[w + k * m] += (x * sym[m]) << (bits * m * (k - 1))
    return sums[n]


def knapsack_betti(surface, n):
    """The Betti table of n points summed as a knapsack over part values.

    A stratum gives each part value k a multiplicity m_k, with sum k m_k = n,
    and contributes the product of the P(Sym^{m_k} S) shifted by
    sum 2 m_k (k - 1).  Each even-degree polynomial is one int, the
    coefficient of t^(2i) in slot i (Kronecker substitution), so a product
    is one int product.  The slots are as wide as the total at t = 1, the
    same knapsack over the dimensions of the symmetric powers, which bounds
    every coefficient met; the unpacked slots must sum to it.
    """
    polys = [symmetric_power_poincare(surface, m).betti[::2] for m in range(n + 1)]
    count = _knapsack([sum(p) for p in polys], n, 0)
    bits = count.bit_length()
    packed = _knapsack([sum(c << (bits * i) for i, c in enumerate(p)) for p in polys], n, bits)
    slots = [(packed >> (bits * i)) & ((1 << bits) - 1) for i in range(2 * n + 1)]
    if sum(slots) != count:
        raise ArithmeticError("packed Betti knapsack carried between slots")
    betti = [0] * (4 * n + 1)
    betti[::2] = slots
    return PoincarePolynomial(tuple(betti))


def euler_numbers_24(n_max):
    """chi of the Hilbert schemes of a surface with chi = 24.

    Coefficients of prod_{m>=1} (1-q^m)^{-24} up to q^n_max, indexed by n.
    """
    series = [Fraction(0)] * (n_max + 1)
    series[0] = Fraction(1)
    for m in range(1, n_max + 1):
        for _ in range(24):
            new = list(series)
            for k in range(m, n_max + 1):
                new[k] += new[k - m]
            series = new
    if any(c.denominator != 1 for c in series):
        raise ArithmeticError("the eta-product coefficients must be integers")
    return tuple(int(c) for c in series)


def brute_symmetric_power(b0, b2, b4, n):
    """Graded dimensions of the n-th symmetric power by multiset enumeration.

    Builds an explicit basis of the surface cohomology, one tag per graded
    basis element, and counts degree-d multisets of size n.  Odd cohomology
    is absent so no sign bookkeeping is needed.
    """
    basis = [0] * b0 + [2] * b2 + [4] * b4
    tags = list(range(len(basis)))
    counts = {}
    for combo in combinations_with_replacement(tags, n):
        degree = sum(basis[i] for i in combo)
        counts[degree] = counts.get(degree, 0) + 1
    top = max(counts)
    return tuple(counts.get(d, 0) for d in range(top + 1))


def cycle_index_symmetric_power(b0, b2, b4, n):
    """Graded dimensions of the n-th symmetric power by the cycle index of S_n.

    Sym^n of a graded space with Poincare polynomial P and no odd part has
    Poincare polynomial sum over lambda |- n of prod_i P(t^lambda_i) / z_lambda
    (Polya, Macdonald), with z_lambda = prod_k k^(m_k) m_k! for the
    multiplicities m_k of the parts k; polynomial in b0, b2, b4, so any size
    of surface costs the same.
    """
    out = [Fraction(0)] * (4 * n + 1)
    for parts in partitions_of(n):
        z = 1
        for k, m in Counter(parts).items():
            z *= k ** m * factorial(m)
        term = [Fraction(1, z)]
        for k in parts:
            # times P(t^k) = b0 + b2 t^(2k) + b4 t^(4k)
            grown = [Fraction(0)] * (len(term) + 4 * k)
            for i, c in enumerate(term):
                for d, b in ((0, b0), (2 * k, b2), (4 * k, b4)):
                    grown[i + d] += c * b
            term = grown
        for d, c in enumerate(term):
            out[d] += c
    if any(c.denominator != 1 for c in out):
        raise ArithmeticError("the cycle-index sum must be integral")
    return PoincarePolynomial(tuple(int(c) for c in out))


def plain_stratum_poincare(surface, mults):
    """The product of P(Sym^m S) over the multiplicities, one factor at a time,
    on plain coefficient lists."""
    out = [1]
    for m in mults:
        factor = symmetric_power_poincare(surface, m).betti
        grown = [0] * (len(out) + len(factor) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(factor):
                grown[i + j] += x * y
        out = grown
    return PoincarePolynomial(tuple(out))


def strata_report(n, surface=None, as_json=True):
    """The stdout of `strata --n n [--surface b0,b2,b4]`, --json or --table.

    The payload holds one dict per stratum with its polynomial as a list, as
    the report built it before it rendered each polynomial once per
    signature: the codimension and fiber dimension come from the parts, the
    polynomial is the plain product over the part multiplicities (once per
    multiplicity signature), and `cli._json` or `cli._flatten` writes it.
    """
    b0, b2, b4 = (1, 22, 1) if surface is None else map(int, surface.split(","))
    polys = {}
    rows = []
    for d in diagrams_of(n):
        mults = tuple(sorted(Counter(d).values()))
        if mults not in polys:
            polys[mults] = plain_stratum_poincare(SurfaceBetti(b0, b2, b4), mults)
        fiber = sum(p - 1 for p in d)
        codim = 2 * sum(p - 1 for p in d)
        rows.append({"diagram": list(d), "codim": codim, "fiber_dimension": fiber,
                     "semismall": 2 * fiber == codim, "poincare": list(polys[mults].betti)})
    semismall = all(r["semismall"] for r in rows)
    payload = {
        "schema": cli.SCHEMA,
        "command": "strata",
        "parameters": {"n": n} if surface is None else {"n": n, "surface": surface},
        "result": {"n": n, "surface": {"b0": b0, "b2": b2, "b4": b4}, "strata": rows},
        "checks": [{"name": "semismall-equality-all-strata", "ok": semismall}],
        "status": "ok" if semismall else "failed",
    }
    if as_json:
        return cli._json(payload, "") + "\n"
    lines = []
    cli._flatten("", payload, lines)
    return "\n".join(lines) + "\n"


def json_report(payload):
    """The --json text of a report payload, without its final newline, as
    the standard library's encoder writes it."""
    return json.dumps(payload, indent=2, sort_keys=True)


def reference_parser() -> argparse.ArgumentParser:
    """The hand-written argparse parser the command line had before its
    option table; the table's direct reader and fallback parser must agree
    with it."""
    parser = argparse.ArgumentParser(prog="hilbk3", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="machine readable output")
        fmt.add_argument("--table", action="store_true", help="flat text output (default)")
        return p

    p = add("betti", "Betti numbers of the Hilbert scheme of n points")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--surface", type=str, default=None, metavar="b0,b2,b4")
    p.add_argument("--max-degree", type=int, default=None, dest="max_degree")

    p = add("strata", "diagonal strata with codimensions and semismallness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--surface", type=str, default=None, metavar="b0,b2,b4")

    p = add("certify", "obstruct the trianalytic candidates on n points")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gram", type=str, default=None, metavar="PATH")
    p.add_argument("--seed", type=int, default=0)

    p = add("ideals", "invariant ideals of the truncated two-variable ring")
    p.add_argument("--N", type=int, required=True)

    p = add("punctual", "torus-fixed punctual ideals of a given colength")
    p.add_argument("--i", type=int, required=True)

    p = add("frobenius", "model Frobenius algebra dimensions and checks")
    p.add_argument("--dimv", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gram", type=str, default=None, metavar="PATH")

    return parser


def brute_pinning_audit(part_sizes):
    """Exhaustive scan over the 2^k pinning patterns of a length-k partition.

    Returns (total, dropped_at_fat_pins, dropped_at_any_pin, survivors)
    where the two drop stages mirror the candidate pipeline: first remove
    patterns pinning a part of size > 1, then remove patterns with any pin
    left, keeping only the fully unpinned one.
    """
    k = len(part_sizes)
    total = 0
    dropped_fat = 0
    dropped_pinned = 0
    survivors = 0
    for mask in range(2 ** k):
        total += 1
        pins = [i for i in range(k) if mask >> i & 1]
        if any(part_sizes[i] > 1 for i in pins):
            dropped_fat += 1
        elif pins:
            dropped_pinned += 1
        else:
            survivors += 1
    return total, dropped_fat, dropped_pinned, survivors


@dataclass(frozen=True)
class CandidateAudit:
    """Per-diagram audit of the trianalytic candidate pipeline.

    Of the 2^k ways to pin parts of a k-part diagram: pinnings touching a
    part of size > 1 are dropped first (pinned parts must be single points),
    then the remaining nonempty pinnings (pinned shapes deform, so are never
    trianalytic), leaving only the unpinned shape; the diagram survives iff
    every part is triangular.
    """

    diagram: tuple
    shapes_total: int
    dropped_fat_pinned: int
    dropped_pinned: int
    survives: bool
    annotation: str | None


def _annotate(diagram):
    values = set(diagram)
    if values == {1}:
        return "improper: the unpinned shape with all parts 1 is the whole space"
    if len(values) == 1:
        return f"simple candidate, l={len(diagram)}"
    return "product case (mixed part sizes): excluded by a product-type argument, flagged here"


def full_pinning_audit(n):
    """The candidate pipeline over all p(n) diagrams of n, with audit counts.

    The exhaustive route to `trianalytic_candidates`: its survivors, in
    order, are the diagrams that walk yields.
    """
    audits = []
    for d in diagrams_of(n):
        units = sum(1 for p in d if p == 1)
        total = 1 << len(d)
        survives = all(is_triangular(p)[0] for p in d)
        audits.append(CandidateAudit(
            diagram=d,
            shapes_total=total,
            dropped_fat_pinned=total - (1 << units),
            dropped_pinned=(1 << units) - 1,
            survives=survives,
            annotation=_annotate(d) if survives else None,
        ))
    return tuple(audits)


def brute_set_partitions_with_marks(n):
    """All (partition of {1..n}, marked blocks) pairs, built directly.

    Enumerates set partitions by recursive block insertion and then attaches
    every subset of blocks as the marked set.  Returns a set of canonical
    encodings: frozenset of (block frozenset, marked bool) pairs.
    """
    def set_partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in set_partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [part[i] | {first}] + part[i + 1:]
            yield part + [{first}]

    out = set()
    for part in set_partitions(list(range(1, n + 1))):
        blocks = [frozenset(b) for b in part]
        for mask in range(2 ** len(blocks)):
            marked = frozenset(
                (blocks[i], bool(mask >> i & 1)) for i in range(len(blocks))
            )
            out.add(marked)
    return out


def brute_stable_staircases(i):
    """Colength-i monomial ideals stable under both antidiagonal operators.

    Full scan of every monomial in the degree window, acting by e and f on
    each ideal monomial directly (no corner shortcuts).
    """
    window = {(a, b) for a in range(i + 1) for b in range(i + 1) if a + b <= i}
    hits = []
    for parts in partitions_of(i):
        quotient = {(a, b) for b in range(len(parts)) for a in range(parts[b])}
        members = window - quotient
        stable = True
        for (a, b) in members:
            if b >= 1 and (a + 1, b - 1) in quotient:
                stable = False
                break
            if a >= 1 and (a - 1, b + 1) in quotient:
                stable = False
                break
        if stable:
            hits.append(parts)
    return hits


def brute_invariant_supports(truncation):
    """Degree supports of the proper nonzero invariant ideals of C[x,y]/m^N.

    Sweeps all 2^N - 2 proper nonempty sets of degrees and keeps a set when
    the span of its monomials is closed under x, y, e = x d/dy and
    f = y d/dx, checked monomial by monomial.
    """
    n = truncation
    hits = []
    for mask in range(1, (1 << n) - 1):
        degrees = tuple(l for l in range(n) if mask >> l & 1)
        members = {(a, l - a) for l in degrees for a in range(l + 1)}
        if all((a + b + 1 == n or {(a + 1, b), (a, b + 1)} <= members)
               and (b == 0 or (a + 1, b - 1) in members)
               and (a == 0 or (a - 1, b + 1) in members)
               for a, b in members):
            hits.append(degrees)
    return sorted(hits)


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


def highest_weight_dimension(e_matrix):
    """dim ker e for a square matrix of e, by the nullspace of its sparse rows."""
    return len(linalg.nullspace(list(map(linalg.sparse, e_matrix)), len(e_matrix)))


def nullspace_irreducibility_certificate(l):
    """The degree-l slice certificate by elimination, which the library's
    count of e's images on the slice monomials replaced: e sends
    x^(l-r) y^r, column r, to r x^(l-r+1) y^(r-1), row r - 1, and row l
    is zero, so the slice is irreducible iff the l one-entry rows leave a
    one-dimensional nullspace."""
    return len(linalg.nullspace([{r + 1: r + 1} for r in range(l)], l + 1)) == 1


def ring_recheck_ideal(ring, degrees):
    """The ideal recheck on the whole ring: the span of the ring's monomials
    of the given degrees is closed under x, y, e and f, with e and f applied
    through the ring's single-monomial actions."""
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


def staircase_is_stable(quotient):
    """The staircase check on the quotient cells: e = x d/dy sends the ideal
    monomial (a-1, b+1) onto the quotient cell (a, b), and f = y d/dx sends
    (a+1, b-1) there, so stability fails exactly at such a preimage."""
    for (a, b) in quotient:
        if a >= 1 and (a - 1, b + 1) not in quotient:
            return False
        if b >= 1 and (a + 1, b - 1) not in quotient:
            return False
    return True


def _ring_ideal_generated_by(ring, seed):
    """The monomials of the smallest subspace containing `seed` that is
    closed under x, y, e and f, grown one monomial image at a time."""
    members = set(seed)
    todo = list(seed)
    while todo:
        a, b = todo.pop()
        images = [(a + 1, b), (a, b + 1)]
        for act in (ring.act_e, ring.act_f):
            image = act((a, b))
            if image is not None and image[0] != 0:
                images.append(image[1])
        for m in images:
            if sum(m) < ring.truncation and m not in members:
                members.add(m)
                todo.append(m)
    return members


def ideals_report(truncation):
    """The stdout of `ideals --N truncation --json`, built on the ring route.

    Each slice is certified irreducible by the nullspace of the ring's
    matrix of e, so an invariant ideal is a sum of the ideals generated by
    single slices; each of those is grown monomial by monomial in
    `TruncatedRing`, rechecked by `ring_recheck_ideal`, and `cli._json`
    writes the payload.
    """
    n = truncation
    ring = TruncatedRing(n)
    for l in range(n):
        if highest_weight_dimension(ring.matrix_e_on_degree(l)) != 1:
            raise RuntimeError(f"degree {l} slice is reducible")
    supports = []
    for l in range(1, n):
        degrees = tuple(sorted({a + b for a, b in _ring_ideal_generated_by(
            ring, [m for m in ring.monomials if sum(m) == l])}))
        if not ring_recheck_ideal(ring, degrees):
            raise RuntimeError(f"the ideal generated in degree {l} is not closed")
        if degrees not in supports:
            supports.append(degrees)
    rows = [{"degrees": list(s),
             "maximal_ideal_power": s[0] if s == tuple(range(s[0], n)) else None}
            for s in supports]
    checks = [
        {"name": "every-invariant-ideal-is-a-power-of-m",
         "ok": all(r["maximal_ideal_power"] is not None for r in rows)},
        {"name": "count-is-N-minus-1", "ok": len(rows) == n - 1},
    ]
    payload = {
        "schema": cli.SCHEMA,
        "command": "ideals",
        "parameters": {"N": n},
        "result": {"truncation": n, "ideals": rows},
        "checks": checks,
        "status": "ok" if all(c["ok"] for c in checks) else "failed",
    }
    return cli._json(payload, "") + "\n"


def ideal_normal_forms(gram, n, d):
    """Normal forms of the degree-d monomials modulo the ideal, n < d <= 2n.

    A second route to the table of the Frobenius models: the ideal in degree
    d is spanned directly by h * m for harmonics h of degree n + 1 (a sympy
    nullspace of the Laplacian) and monomials m of degree d - n - 1, and
    sympy's RREF of that span, unique for the subspace, gives each monomial
    its form {quotient monomial: coefficient} over the non-pivot monomials.
    Monomials are exponent tuples in descending lex order, as in the library.
    """
    dim = len(gram)

    def monomials(deg):
        return sorted((e for e in product(range(deg + 1), repeat=dim) if sum(e) == deg),
                      reverse=True)

    low, cols = monomials(n + 1), monomials(d)
    lap = [_dense(row, len(low)) for row in laplacian_matrix(gram, n + 1, 1)]
    harmonics = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                              for row in lap]).nullspace()
    index = {m: k for k, m in enumerate(cols)}
    rows = []
    for h in harmonics:
        for m in monomials(d - n - 1):
            row = [0] * len(cols)
            for c, e in zip(h, low):
                row[index[tuple(x + y for x, y in zip(e, m))]] += c
            rows.append(row)
    rref, pivots = sympy.Matrix(rows).rref()
    free = [k for k in range(len(cols)) if k not in pivots]
    forms = {cols[k]: {cols[k]: Fraction(1)} for k in free}
    for r, p in enumerate(pivots):
        forms[cols[p]] = {cols[k]: -Fraction(int(rref[r, k].p), int(rref[r, k].q))
                          for k in free if rref[r, k] != 0}
    return forms


# the frobenius benchmark deck's (dim V, n) cells, and the three CI builds
LARGE_FROBENIUS_CELLS = ((5, 4), (6, 3), (6, 4))
FROBENIUS_CELLS = tuple((d, n) for d in range(2, 7) for n in range(2, 5)
                        if (d, n) not in LARGE_FROBENIUS_CELLS)


def frobenius_grams(dim):
    """Identity, signed integer diagonal and a nondiagonal p/q gram of rank dim.

    The p/q gram has unit fractions off the diagonal and alternating signs
    on it; it is nondegenerate for dim <= 6.
    """
    return {
        "identity": [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)],
        "diagonal": [[Fraction((-1) ** i * (i + 1) if i == j else 0) for j in range(dim)]
                     for i in range(dim)],
        "rational": [[Fraction((-1) ** i * (i + 2), i + 1) if i == j else Fraction(1, i + j + 1)
                      for j in range(dim)] for i in range(dim)],
    }


def _dense(row, size):
    return [row.get(j, Fraction(0)) for j in range(size)]


def dense_normal_forms(gram, n):
    """Quotient monomials and normal forms of the Frobenius model, densely.

    The route by propagation that the library's kernel of a power of the
    Laplacian replaced: the ideal in degree n + 1 is spanned by the
    harmonics, and in each degree d > n + 1 by each variable times every
    dense row of the ideal in degree d - 1; every dense unit vector of
    degree d is reduced against their echelon, zeros and all.  Returns two
    dicts by degree, shaped like a FrobeniusAlgebra's _quotient_monomials
    and _forms.
    """
    gram = [[Fraction(x) for x in row] for row in gram]
    dim = len(gram)
    quotient_monomials, forms = {}, {}
    rows = None  # dense rows of the ideal in degree d - 1, once d > n + 1
    for d in range(2 * n + 1):
        basis = monomial_basis(dim, d)
        normal = linalg.identity(len(basis))
        pivots = set()
        if d > n:
            if rows is None:
                generators = harmonic_basis(gram, d, 1)  # sparse already
            else:
                index = {m: k for k, m in enumerate(basis)}
                prev = monomial_basis(dim, d - 1)
                generators = []
                for row in rows:
                    for x in monomial_basis(dim, 1):
                        image = [Fraction(0)] * len(basis)
                        for k, coeff in enumerate(row):
                            if coeff:
                                image[index[tuple(a + b for a, b in zip(prev[k], x))]] += coeff
                        generators.append(linalg.sparse(image))
            ech = linalg.Echelon(len(basis))
            for g in generators:
                ech.add(g)
            rows = [_dense(row, len(basis)) for _, row in sorted(ech._rows.items())]
            normal = [_dense(ech.reduce(linalg.sparse(v)), len(basis)) for v in normal]
            pivots = set(ech._rows)
        quotient = [k for k in range(len(basis)) if k not in pivots]
        column = {k: t for t, k in enumerate(quotient)}
        quotient_monomials[d] = tuple(basis[k] for k in quotient)
        forms[d] = {m: tuple((column[k], x) for k, x in enumerate(form) if x)
                    for m, form in zip(basis, normal)}
    return quotient_monomials, forms


def triple_associativity(alg):
    """(ab)c = a(bc) for every triple of basis monomials of a FrobeniusAlgebra.

    The exhaustive route the library's ideal-closure check replaced: it
    multiplies quotient basis monomials through the algebra's table of
    normal forms and compares both bracketings, #basis^3 products in all.
    """
    n, basis, forms = alg.n, alg._quotient_monomials, alg._forms

    def times(a, b):
        return tuple(x + y for x, y in zip(a, b))

    for i in range(2 * n + 1):
        for j in range(2 * n + 1 - i):
            for k in range(2 * n + 1 - i - j):
                for mb in basis[j]:
                    for mc in basis[k]:
                        bc = forms[j + k][times(mb, mc)]
                        for ma in basis[i]:
                            ab = forms[i + j][times(ma, mb)]
                            left = alg._normal_form(i + j + k, (
                                (times(basis[i + j][t], mc), x) for t, x in ab))
                            right = alg._normal_form(i + j + k, (
                                (times(ma, basis[j + k][t]), x) for t, x in bc))
                            if left != right:
                                return False
    return True


def unit_product_pairing(alg, i):
    """The pairing of A_{2i} with A_{2(2n-i)} of a FrobeniusAlgebra as the
    top coordinates of products of basis unit vectors, through `multiply`."""
    j = 2 * alg.n - i
    return [[alg.multiply(i, a, j, b)[0] for b in linalg.identity(alg.dim(j))]
            for a in linalg.identity(alg.dim(i))]


def large_cell_failure(cells=LARGE_FROBENIUS_CELLS):
    """None, or what fails first on the p/q gram at a (dim V, n) cell: the table
    against the dense oracle, the pairing off it against `unit_product_pairing`
    in degrees 0..n, the pairing and Fujiki relation by the Laplacian oracle."""
    for dim, n in cells:
        gram = frobenius_grams(dim)["rational"]
        alg = build_algebra(gram, n)
        if (alg._quotient_monomials, alg._forms) != dense_normal_forms(gram, n):
            return f"table differs from the dense oracle at {(dim, n)}"
        for i in range(n + 1):
            if alg.pairing_matrix(i) != unit_product_pairing(alg, i):
                return f"pairing off the table differs at {(dim, n, i)}"
        if not laplacian_pairing(alg):
            return f"pairing differs from the Laplacian oracle at {(dim, n)}"
        if not laplacian_fujiki(alg, random.Random(dim * 10 + n)):
            return f"Fujiki relation fails at {(dim, n)}"
    return None


def all_degree_pairing_nondegenerate(alg):
    """The pairing check of a FrobeniusAlgebra over all 2n + 1 degrees.

    The route the library's check replaced, which reads each matrix off the
    table's top degree and takes determinants in degrees 0..n only: here
    every matrix `unit_product_pairing` is multiplied out and every
    determinant is taken.
    """
    for i in range(2 * alg.n + 1):
        m = unit_product_pairing(alg, i)
        if alg.dim(i) != alg.dim(2 * alg.n - i) or (m and linalg.det(m) == 0):
            return False
    return True


def all_degree_closure(alg):
    """The ideal-closure check of a FrobeniusAlgebra over every degree.

    The route the library's check replaced, which compares NF(x * NF(m))
    with NF(x * m) for monomials m of degree n + 1..2n - 1 only: here every
    monomial of degree below 2n is compared, including those that are
    their own normal forms.
    """
    basis, forms = alg._quotient_monomials, alg._forms

    def times(a, b):
        return tuple(x + y for x, y in zip(a, b))

    for d in range(2 * alg.n + 1):
        if any(forms[d][m] != ((t, 1),) for t, m in enumerate(basis[d])):
            return False
    variables = monomial_basis(alg.dim_v, 1)
    for d in range(2 * alg.n):
        for m, form in forms[d].items():
            for x in variables:
                reduced_first = alg._normal_form(
                    d + 1, ((times(basis[d][t], x), c) for t, c in form))
                if reduced_first != alg._normal_form(d + 1, ((times(m, x), 1),)):
                    return False
    return True


def expanded_power(alg, alpha, p):
    """Coordinates of alpha^p in A_{2p} of a FrobeniusAlgebra, empty past 2n.

    The route the library's repeated products replaced: (sum alpha_i v_i)^p
    is expanded monomial by monomial in Sym^p and reduced once.
    """
    if p > 2 * alg.n:
        return []
    current = {(0,) * alg.dim_v: Fraction(1)}
    for _ in range(p):
        grown = {}
        for mono, coeff in current.items():
            for x, ai in zip(monomial_basis(alg.dim_v, 1), alpha):
                if ai:
                    key = tuple(a + b for a, b in zip(mono, x))
                    grown[key] = grown.get(key, 0) + coeff * Fraction(ai)
        current = grown
    return alg._normal_form(p, current.items())


def top_laplacian_values(gram, n):
    """Delta^n of the monomials of degree 2n, as a function of the exponent.

    Delta = 1/2 sum_ij g_ij d_i d_j over every ordered pair (i, j), each
    term differentiated out with the power rule; Delta^k of a monomial of
    degree 2k is Delta^(k-1) of the terms of its Delta, each kept once.  No
    elimination and no `laplacian_matrix`.
    """
    dim = len(gram)
    gram = [[Fraction(x) for x in row] for row in gram]
    values = {(0,) * dim: Fraction(1)}

    def derivative(poly, i):
        out = {}
        for e, c in poly.items():
            if e[i]:
                f = e[:i] + (e[i] - 1,) + e[i + 1:]
                out[f] = out.get(f, 0) + c * e[i]
        return out

    def value(e):
        if e not in values:
            image = {}
            for i in range(dim):
                first = derivative({e: 1}, i)
                for j in range(dim):
                    for f, c in derivative(first, j).items():
                        image[f] = image.get(f, 0) + gram[i][j] * c / 2
            values[e] = sum((c * value(f) for f, c in image.items()), Fraction(0))
        return values[e]

    return value


def laplacian_pairing(alg):
    """Whether pairing_matrix(i)[r][s] * Delta^n(q0) = Delta^n(a_r * b_s)
    for every degree i and every pair of basis monomials of a
    FrobeniusAlgebra, q0 its one basis monomial of degree 2n.

    The ideal in degree 2n is the kernel of Delta^n, so a monomial equals
    its top coordinate times q0 modulo that kernel; Delta^n(q0) != 0.
    """
    n = alg.n
    value = top_laplacian_values(alg.gram, n)
    (q0,) = alg._quotient_monomials[2 * n]
    top = value(q0)
    if top == 0:
        return False
    for i in range(2 * n + 1):
        matrix = alg.pairing_matrix(i)
        for row, a in zip(matrix, alg._quotient_monomials[i]):
            for entry, b in zip(row, alg._quotient_monomials[2 * n - i]):
                if entry * top != value(tuple(x + y for x, y in zip(a, b))):
                    return False
    return True


def laplacian_fujiki(alg, rng, samples=3):
    """Whether the top coordinate of alpha^(2n) times Delta^n(q0) equals
    (2n)! / 2^n * q(alpha)^n for seeded random alpha in V (the Fujiki
    relation), q0 the one basis monomial of degree 2n of a FrobeniusAlgebra.

    Delta(l^m) = q(alpha) m (m - 1) / 2 * l^(m - 2) for the linear form l of
    alpha, so Delta^n(l^(2n)) = (2n)! / 2^n * q(alpha)^n.
    """
    n, dim = alg.n, alg.dim_v
    value = top_laplacian_values(alg.gram, n)
    (q0,) = alg._quotient_monomials[2 * n]
    for _ in range(samples):
        alpha = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim)]
        q = sum(alpha[i] * alg.gram[i][j] * alpha[j] for i in range(dim) for j in range(dim))
        top = alg.power_of_linear(alpha, 2 * n)[0]
        if top * value(q0) != Fraction(factorial(2 * n), 2 ** n) * q ** n:
            return False
    return True


def shapes_by_grammar(n):
    """Marked set partitions of {1..n} by closing three production rules.

    Starting from the two marked shapes on {1}, each new point m becomes a
    free singleton, a marked singleton, or joins an existing block, keeping
    that block's mark.  Emits the encoding of brute_set_partitions_with_marks.
    """
    current = {frozenset({(frozenset({1}), mark)}) for mark in (False, True)}
    for m in range(2, n + 1):
        grown = set()
        for shape in current:
            for mark in (False, True):
                grown.add(shape | {(frozenset({m}), mark)})
            for block, mark in shape:
                grown.add((shape - {(block, mark)}) | {(block | {m}, mark)})
        current = grown
    return current


# Constructions on the BB lattice that only the tests use: the full gram in
# Fractions, explicit classes, contravariant tensors (the inverse BB gram and
# its transport behind the pullback coefficient), the dense rotation
# operators of a period triple and the rotation modules generated by d and
# d^2.  Classes are coordinate tuples with delta last, as in the library.

def full_gram(lat):
    """The BB gram on all total_dim coordinates as Fraction rows, delta last:
    the surface gram, then q(delta) = -2(n-1) on the diagonal.  The Fraction
    reference that the library's one statement, the integral view
    `lat.integral`, is compared against."""
    zero = Fraction(0)
    return (tuple(row + (zero,) for row in lat.gram)
            + ((zero,) * lat.dim_v + (Fraction(-2 * (lat.n - 1)),),))


def restriction_functional(lat):
    """The degree-4 functional f = B + 2(n-1) d^2 as Fraction rows: the full
    gram with 2(n-1) added at (delta, delta), where it cancels.  The
    Fraction reference for the integral view `bb_lattice.h4_obstruction`
    hands the su(2) check, which it builds from the lattice's own view."""
    f = [list(row) for row in full_gram(lat)]
    f[-1][-1] += 2 * (lat.n - 1)
    return f


def su2_views(triple):
    """(verdict, views): h4_obstruction(triple) and the rows of every form
    it hands is_su2_invariant, captured by wrapping the check for the call."""
    seen, real = [], bb_lattice.is_su2_invariant
    bb_lattice.is_su2_invariant = lambda rows, t: seen.append(rows) or real(rows, t)
    try:
        return bb_lattice.h4_obstruction(triple), seen
    finally:
        bb_lattice.is_su2_invariant = real


def f_view_verdict(lat, rng):
    """h4_obstruction's verdict on a triple of lat drawn from rng; None unless
    its one view is `restriction_functional` scaled to ints by lat's gden."""
    verdict, views = su2_views(bb_lattice.random_period_triple(lat, rng))
    f = linalg.integral_rows(restriction_functional(lat))
    return verdict if [(lat.integral[0], rows) for rows in views] == [f] else None


def delta_class(lat):
    return (Fraction(0),) * lat.dim_v + (Fraction(1),)


def delta_squared_form(lat):
    """d^2 for the delta-coordinate functional d, as a 2-form matrix."""
    size = lat.total_dim
    return [[Fraction(int(i == j == size - 1)) for j in range(size)] for i in range(size)]


def basis_class(lat, i):
    return tuple(Fraction(int(j == i)) for j in range(lat.total_dim))


def bb_inverse_tensor(lat):
    """The BB dual form as a contravariant matrix: the inverse full gram."""
    return inverse(full_gram(lat))


def transported_bb_tensor(src, dst):
    """The BB dual tensor of src transported to dst coordinates.

    Surface block unchanged; the coefficient -1/(2(n-1)) on the exceptional
    square is carried through the exceptional scaling delta_n -> (n/l)
    delta_l, picking up one factor n/l.
    """
    if src.gram != dst.gram:
        raise ValueError("lattices must share the surface gram")
    n, l = src.n, dst.n
    if n % l != 0 or not is_triangular(n // l)[0]:
        raise ValueError("transport needs l | n with triangular quotient")
    inv = inverse([list(r) for r in src.gram])
    size = dst.total_dim
    out = [[Fraction(0)] * size for _ in range(size)]
    for i in range(dst.dim_v):
        for j in range(dst.dim_v):
            out[i][j] = inv[i][j]
    out[size - 1][size - 1] = Fraction(n, l) * Fraction(-1, 2 * (n - 1))
    return out


def obstruction_coefficient_from_tensors(src, dst):
    """Independent route to c(n, l): transported BB dual minus the target BB dual.

    The surface blocks must cancel exactly (checked), leaving a pure
    exceptional-square coefficient.
    """
    t = transported_bb_tensor(src, dst)
    b = bb_inverse_tensor(dst)
    size = len(t)
    diff = [[t[i][j] - b[i][j] for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(size):
            if (i, j) != (size - 1, size - 1) and diff[i][j] != 0:
                raise RuntimeError("surface block failed to cancel in the transport")
    return diff[size - 1][size - 1]


# The Fraction routes the library's int-numerator degree-4 path replaced:
# every sum and product normalised through Fraction, dense column operations.

def fraction_bb_pair(lat, x, y):
    """B(x, y) summed in Fractions over the entries of the full gram."""
    return Fraction(sum(a * g * b for a, row in zip(x, full_gram(lat)) if a
                        for g, b in zip(row, y) if g))


def symmetric_fraction_rows(a, name):
    """Fraction rows of a square symmetric matrix; ValueError otherwise.
    Every entry is converted here, so an oracle never reads the package's
    own intake of a gram."""
    rows = [[Fraction(x) for x in row] for row in a]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError(f"{name} must be square")
    if any(rows[i][j] != rows[j][i] for i in range(len(rows)) for j in range(i)):
        raise ValueError(f"{name} must be symmetric")
    return rows


def dense_congruence_diagonalize(gram):
    """(P columns, diagonal) with P^T G P diagonal, every column and row
    operation run over all entries, zeros included.  P is kept as the
    matrix itself and its columns are read off at the end."""
    a = symmetric_fraction_rows(gram, "gram")
    n = len(a)
    p = linalg.identity(n)

    def add_col(dst, src, f):
        for i in range(n):
            a[i][dst] += f * a[i][src]
        for j in range(n):
            a[dst][j] += f * a[src][j]
        for i in range(n):
            p[i][dst] += f * p[i][src]

    def swap_col(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            p[r][i], p[r][j] = p[r][j], p[r][i]

    for k in range(n):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if pivot is not None:
                swap_col(k, pivot)
            else:
                off = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0), None)
                if off is None:
                    break
                i, j = off
                add_col(i, j, Fraction(1))
                if i != k:
                    swap_col(k, i)
        piv = a[k][k]
        for j in range(k + 1, n):
            if a[k][j] != 0:
                add_col(j, k, -a[k][j] / piv)
    return transpose(p), [a[i][i] for i in range(n)]


def congruence_agrees(gram):
    """Whether a checked `linalg.Gram` has the dense congruence's D and P, and
    prod D is `linalg.det`, the route the check does not take."""
    p, d = dense_congruence_diagonalize(gram)
    return (list(gram.diagonal) == d and [gram.column(c) for c in range(len(gram))] == p
            and prod(gram.diagonal) == linalg.det(gram))


def signature(gram):
    """(positive, negative, zero) inertia of a symmetric matrix, counted on
    the diagonal of the dense congruence; no eigenvalues."""
    d = dense_congruence_diagonalize(gram)[1]
    pos = sum(1 for x in d if x > 0)
    neg = sum(1 for x in d if x < 0)
    return pos, neg, len(d) - pos - neg


# The gram files that CI's gates read.  bound32 and int32 are dense, with
# p/q and int entries near +-cli.MAX_GRAM_ENTRY (|p|, q in 900,000..10^6);
# int32's D has 15 positive pivots, so certify draws period triples.
# last32 puts a negative-definite 29 x 29 block (diagonal near -1, other
# entries 0.01-0.02) before a positive diagonal 3 x 3 block, the worst
# pivot order.  sparse32 holds hyperbolic planes around two E8(-1) blocks,
# each scaled by its own p/(2q'), p prime and 2q' near the bound, so the
# congruence's swaps and pair-add repairs run on sparse rows.  dev has
# signature (3, 1) and a p/q entry; rational5 and rational6 are
# `frobenius_grams`' p/q grams.

def pq_text(x):
    """A rational as a gram file writes it: the string "p/q", q >= 1."""
    return f"{x.numerator}/{x.denominator}"


def gate_gram(name):
    """The rows of a gate gram file, ints and "p/q" strings, drawn here once."""
    if name == "dev":
        return [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, "2/3", 0], [0, 0, 0, 2]]
    if name.startswith("rational"):
        return [list(map(pq_text, row)) for row in frobenius_grams(int(name[8:]))["rational"]]
    r, b = random.Random({"bound32": 1, "last32": 2, "sparse32": 3, "int32": 4}[name]), 10 ** 6

    def q():
        return r.randint(b - 10 ** 5, b)

    if name == "sparse32":
        edges = {(i, i + 1) for i in range(6)} | {(4, 7)}
        e8 = [[-2 if i == j else int((min(i, j), max(i, j)) in edges) for j in range(8)]
              for i in range(8)]
        rows, off = [[0] * 32 for _ in range(32)], 0
        for block in ([[0, 1], [1, 0]] if kind == "U" else e8 for kind in "UEUUEUUUUU"):
            p = next(x for x in range(r.randint(b - 10 ** 5, b - 10 ** 4), b)
                     if all(x % d for d in range(2, isqrt(x) + 1)))
            s = Fraction(p, 2 * r.randint((b - 10 ** 5) // 2, b // 2))
            for i, row in enumerate(block):
                for j, x in enumerate(row):
                    if x:
                        rows[off + i][off + j] = pq_text(x * s)
            off += len(block)
        return rows

    def entry(i, j):
        if name == "bound32":
            return f"{r.choice((-1, 1)) * q()}/{q()}"
        if name == "int32":
            return r.choice((-1, 1)) * q()
        if max(i, j) >= 29:
            return f"{q()}/{q()}" if i == j else 0
        if i == j:
            return f"-{q()}/{q()}"
        return f"{r.choice((-1, 1)) * r.randint(10 ** 4, 2 * 10 ** 4)}/{q()}"

    low = [[entry(i, j) for j in range(i + 1)] for i in range(32)]
    return [[low[max(i, j)][min(i, j)] for j in range(32)] for i in range(32)]


def write_gate_grams(paths):
    """Write the gate gram named by each path's stem, with no trailing newline;
    `huge.json`, one row of 100 MB that the reader refuses, as text."""
    for path in map(Path, paths):
        if path.stem == "huge":
            text = '{"dim": 1, "rows": [[' + "1, " * (100 * 2 ** 20 // 3) + "1]]}"
        else:
            rows = gate_gram(path.stem)
            text = json.dumps({"dim": len(rows), "rows": rows})
        path.write_text(text)


def entry_bound_grams():
    """{name: Fraction rows} of the dense gate grams bound32 and last32."""
    return {name: [[Fraction(x) for x in row] for row in gate_gram(name)]
            for name in ("bound32", "last32")}


def fraction_period_triple(lat, rng, with_delta=True):
    """The classes of `random_period_triple` from the same draws, with
    Gram-Schmidt on Fraction classes: w -= (B(u, w) / q(u)) u per kept u.
    Without `with_delta` the classes stay orthogonal to delta: w1 is not
    rescaled and gets no delta coordinate."""
    p, diag = dense_congruence_diagonalize(lat.gram)
    dim = lat.dim_v
    basis = [c for c, d in zip(p, diag) if d > 0][:3]
    no_delta = (Fraction(0),) * (lat.total_dim - dim)
    for _ in range(256):
        mixes, noise = [], []
        for _ in range(3):
            mixes.append([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in basis])
            noise.append([Fraction(rng.randint(-1, 1)) for _ in range(dim)])
        if rank(mixes) == 3:
            break
    else:
        raise RuntimeError("failed to draw a valid period triple")
    vs = [[sum(m * b[i] for m, b in zip(mix, basis)) for i in range(dim)] for mix in mixes]
    scale = 1
    while True:
        ws = []
        for v, z in zip(vs, noise):
            w = tuple(scale * a + b for a, b in zip(v, z)) + no_delta
            for u in ws:
                coeff = fraction_bb_pair(lat, u, w) / fraction_bb_pair(lat, u, u)
                w = tuple(a - coeff * b for a, b in zip(w, u))
            if fraction_bb_pair(lat, w, w) <= 0:
                break
            ws.append(w)
        if len(ws) == 3:
            break
        scale *= 2
    if with_delta:
        scale = 1
        while scale * scale * fraction_bb_pair(lat, ws[0], ws[0]) <= 2 * (lat.n - 1):
            scale *= 2
        ws[0] = tuple(scale * a for a in ws[0][:dim]) + (Fraction(1),)
    return tuple(ws)


def flat_period_triple(lat, rng):
    """A period triple inside the surface part, drawn as `random_period_triple`
    draws one before it mixes in delta (the library's triples always do)."""
    return PeriodTriple(lat, fraction_period_triple(lat, rng, with_delta=False))


# dense matrix products: the library multiplies no matrices

def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    # zero entries are skipped: the grams and forms it meets are sparse
    return [sum(x * y for x, y in zip(row, v) if x) for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def vec_mat(v, a):
    return [sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0]))]


def is_zero_matrix(a):
    return all(x == 0 for row in a for x in row)


def rank(rows):
    """The number of rows an `Echelon` keeps of a dense matrix."""
    ech = linalg.Echelon(len(rows[0]) if rows else 0)
    return sum(ech.add(linalg.sparse(row)) is not None for row in rows)


def inverse(a):
    """Right half of the reduced echelon form of [a | I]; ValueError if singular.

    [a | I] always has rank n; its pivots are the first n columns exactly
    when a is invertible.
    """
    n = len(a)
    ech = linalg.Echelon(2 * n)
    for i, row in enumerate(a):
        ech.add(linalg.sparse(list(row) + [int(i == j) for j in range(n)]))
    if sorted(ech._rows) != list(range(n)):
        raise ValueError("matrix is singular")
    return [_dense(ech._rows[p], 2 * n)[n:] for p in range(n)]


def su2_generators(lat, triple):
    """Three BB-skew operators generating the rotation action of the triple."""
    if triple.lattice != lat:
        raise ValueError("triple belongs to a different lattice")
    g = full_gram(lat)
    ws = triple.w
    gws = [mat_vec(g, w) for w in ws]
    size = lat.total_dim
    ops = []
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        wb, wc, gb, gc = ws[b], ws[c], gws[b], gws[c]
        ops.append([[wc[i] * gb[j] - wb[i] * gc[j] for j in range(size)] for i in range(size)])
    return tuple(ops)


def _integer_scaled(m):
    dens = [Fraction(x).denominator for row in m for x in row]
    s = lcm(*dens) if dens else 1
    return [[int(Fraction(x) * s) for x in row] for row in m]


def dense_su2_invariant(lat, form, triple):
    """L^T F + F L = 0 for all three dense operators, on integer rescalings.

    The route `bb_lattice.is_su2_invariant` replaced: it builds the operators
    and forms both products; rescaling an operator or the form by a nonzero
    constant does not change whether the sum vanishes.
    """
    f = symmetric_fraction_rows(form, "form")
    if len(f) != lat.total_dim:
        raise ValueError("form size mismatch")
    t = _integer_scaled(f)
    for op in su2_generators(lat, triple):
        op = _integer_scaled(op)
        d = mat_add(mat_mul(transpose(op), t), mat_mul(t, op))
        if not is_zero_matrix(d):
            return False
    return True


def is_contravariant_invariant(lat, tensor, triple):
    """All three rotation derivations L T + T L^T vanish on the contravariant T.

    The library's check is for 2-forms (L^T F + F L); a tensor with upper
    indices transforms the other way round.
    """
    t = symmetric_fraction_rows(tensor, "tensor")
    if len(t) != lat.total_dim:
        raise ValueError("tensor size mismatch")
    for op in su2_generators(lat, triple):
        d = mat_add(mat_mul(op, t), mat_mul(t, transpose(op)))
        if not is_zero_matrix(d):
            return False
    return True


def _integer_ops(lat, triple):
    # rescaling an operator does not change the module it generates
    return [_integer_scaled(op) for op in su2_generators(lat, triple)]


def _saturation_rank(start, ops, act, flat, ncols):
    ech = linalg.Echelon(ncols)
    frontier = [start] if ech.add(linalg.sparse(flat(start))) else []
    while frontier:
        grown = []
        for x in frontier:
            for op in ops:
                y = act(x, op)
                if ech.add(linalg.sparse(flat(y))):
                    grown.append(y)
        frontier = grown
    return len(ech._rows)


def delta_module_dimension(lat, triple):
    """Dimension of the rotation module generated by the functional d."""
    size = lat.total_dim
    d = [0] * (size - 1) + [1]
    return _saturation_rank(d, _integer_ops(lat, triple), vec_mat, list, size)


def orbit_dimension_d2(lat, triple):
    """Dimension of the rotation module generated by d^2 inside Sym^2(H^2)*.

    1 when the triple is orthogonal to delta, and C(dim V0 + 1, 2) - 1 = 9
    otherwise, where V0 is the degree-1 module of d (the span of d^2 picks
    out only a line inside the two-dimensional trivial isotypic part of
    Sym^2 V0, hence one less than the full symmetric square).
    """
    size = lat.total_dim
    d2 = [[0] * size for _ in range(size)]
    d2[-1][-1] = 1

    def act(t, op):  # covariant action on a 2-tensor: -(L^T t + t L)
        return mat_scale(mat_add(mat_mul(transpose(op), t), mat_mul(t, op)), -1)

    def upper(t):
        return [t[i][j] for i in range(size) for j in range(i, size)]

    return _saturation_rank(d2, _integer_ops(lat, triple), act, upper, size * (size + 1) // 2)


# Isotropic vectors of a rational quadratic form, for sampling classes with
# alpha^(n+1) = 0 in the Frobenius models.

def find_isotropic(gram):
    """A nonzero isotropic vector by small search, or None.

    Tries e_i, then e_i + a e_j with a in +-1, +-2, then e_i + a e_j + b e_k
    with a, b in +-1, +-2, +-3, and returns the first isotropic one.
    """
    dim = len(gram)
    def q(v):
        return sum(v[i] * gram[i][j] * v[j] for i in range(dim) for j in range(dim))
    for i in range(dim):
        e = [Fraction(0)] * dim
        e[i] = Fraction(1)
        if q(e) == 0:
            return e
    for i in range(dim):
        for j in range(i + 1, dim):
            for a in (1, -1, 2, -2):
                v = [Fraction(0)] * dim
                v[i] = Fraction(1)
                v[j] = Fraction(a)
                if q(v) == 0:
                    return v
    for i, j, k in combinations(range(dim), 3):
        for a, b in product((1, -1, 2, -2, 3, -3), repeat=2):
            v = [Fraction(0)] * dim
            v[i] = Fraction(1)
            v[j] = Fraction(a)
            v[k] = Fraction(b)
            if q(v) == 0:
                return v
    return None


def random_isotropic(gram, rng):
    """Random rational isotropic vector (projection from a known one).

    For u isotropic and any v with B(u, v) != 0, v - q(v)/(2 B(u,v)) u is
    isotropic; drawing v at random sweeps out the quadric.
    """
    dim = len(gram)
    u = find_isotropic(gram)
    if u is None:
        raise ValueError("no rational isotropic vector found for this gram")
    def pair(x, y):
        return sum(x[i] * gram[i][j] * y[j] for i in range(dim) for j in range(dim))
    for _ in range(256):
        v = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim)]
        buv = pair(u, v)
        if buv == 0:
            continue
        alpha = [x - Fraction(pair(v, v), 2 * buv) * y for x, y in zip(v, u)]
        if any(x != 0 for x in alpha):
            if pair(alpha, alpha) != 0:
                raise RuntimeError("projected vector is not isotropic")
            return alpha
    raise RuntimeError("failed to draw an isotropic vector")
