"""Beauville-Bogomolov lattice model for H^2 of a Hilbert scheme of points.

For n >= 2 the second cohomology of the Hilbert scheme of n points on a K3
surface M is H^2(M) perp Q.delta, where delta is half the exceptional
divisor of the cycle map and q(delta) = -2(n-1); on H^2(M) the BB form is
the intersection form.  The default surface gram is E8(-1) + E8(-1) + three
hyperbolic planes, self-tested to be even, and unimodular of signature
(3,19) as read off the diagonal D of its Gram check (det G = prod D).

A lattice exists for n >= 2 only.  A class is a tuple of total_dim =
dim V + 1 rationals: its surface coordinates, then its delta coordinate
last.  A 2-form F in the same coordinates, f(x, y) = x^T F y, transforms
with lower indices, as the gram does, and the su(2) check reads it as an
integral view: the sparse int rows of F scaled by one common denominator
(`linalg.integral_rows`).  The full gram, the surface gram plus the
delta-delta entry, is stated once, as the lattice's integral view below.

Classes and grams go in and come out as Fractions, but the degree-4 path
computes on Python ints: a class x is X / den with X an int vector
(`linalg.numerators`, the package's one common-denominator rule), and every
pairing, like the degree-4 functional, reads the lattice's one integral
view `integral`, the full gram scaled by the lcm gden of its denominators.
That view is the surface gram's `integral` rows, kept once per gram by
`linalg.Gram`, plus delta's row, whose one entry -2(n-1) gden is data like
any other; no pairing writes the delta term out.  Fractions are formed only
where a value leaves the path, and being canonical they equal what
Fraction arithmetic gives, so no triple or verdict depends on the route.

A hyperkaehler rotation is encoded by a period triple: three pairwise
BB-orthogonal classes of positive norm, kept with the lattice they were
checked on, so `is_su2_invariant` and `h4_obstruction` take the triple
alone and read its lattice.  The induced su(2) action on H^2 is generated by
the three skew operators

    L_a x = w_c B(w_b, x) - w_b B(w_c, x)        ((a,b,c) cyclic),

which are BB-skew for any valid triple (no normalization, so everything
stays rational; L_a w_b is proportional to w_c with positive factor q(w_b),
and [L_a, L_b] = q(w_c) L_c).  A class or tensor is invariant under the
rotations iff the three derivations vanish on it.  Each L_a has rank two,
so the operators are never built: invariance of a 2-form is an exact
identity between the triple, its images under the gram and under the form,
and checking L_0 and L_1 suffices, since [L_0, L_1] = q(w_2) L_2 with
q(w_2) > 0.

The two obstruction routes for candidate trianalytic subvarieties live here:
the exact pullback coefficient on the exceptional square for candidates
coming from a smaller Hilbert scheme, and the failure of su(2)-invariance of
the degree-4 restriction functional f = B + 2(n-1) d^2 for the punctual
candidate, where d is the coordinate functional dual to delta (d vanishes on
H^2(M), d(delta) = 1; with that normalization f(delta, delta) = 0).  f
is stated once, as a view: f = B on every other pair, so its integral view
is the lattice's with delta's row emptied.  The degree-4 verdict is
reached twice: by the su(2) identity on f, and in closed form,
since B is invariant and f is invariant iff d^2 is.  Only the degree-4
route imports `linalg`, in the functions that run on it: the pullback
coefficient needs no lattice, so certifying a non-triangular n loads no
linear algebra.

The lattice, triple and certificate types are named tuples, checked when
they are built: immutable (no instance dict, so no attribute can be set)
and hashable, and, being tuples, they also iterate, have a length and
equal the plain tuple of their fields.  A lattice's gram is a
`linalg.Gram`; its check's elimination gives the three positive columns of
a congruence, which every triple is drawn from.
"""

import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from .partitions import is_triangular, trianalytic_candidates

_E8_EDGES = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8))


def _e8_cartan() -> list[list[int]]:
    m = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in _E8_EDGES:
        m[i - 1][j - 1] = m[j - 1][i - 1] = -1
    return m


@lru_cache(maxsize=None)
def default_k3_gram():
    """E8(-1) + E8(-1) + U + U + U as a `linalg.Gram`, with construction
    self-test."""
    from . import linalg

    g = [[0] * 22 for _ in range(22)]
    e8 = _e8_cartan()
    for block in range(2):
        off = 8 * block
        for i in range(8):
            for j in range(8):
                g[off + i][off + j] = -e8[i][j]
    for block in range(3):
        off = 16 + 2 * block
        g[off][off + 1] = g[off + 1][off] = 1
    if any(g[i][i] % 2 for i in range(22)):
        raise RuntimeError("default gram is not even")
    gram = linalg.Gram(g)
    # the Gram check's elimination: T^T G T = L diag(D) L^T with T built
    # from pair adds and swaps, so det G = prod D
    diag = gram.diagonal
    if prod(diag) not in (1, -1):
        raise RuntimeError("default gram is not unimodular")
    if sum(x > 0 for x in diag) != 3:  # nondegenerate: 19 negative
        raise RuntimeError("default gram has wrong signature")
    return gram


class H2Lattice(namedtuple("H2Lattice", "n gram")):
    """H^2(M) + Q delta for the Hilbert scheme of n >= 2 points."""

    __slots__ = ()

    def __new__(cls, n: int, gram):
        from . import linalg

        if not isinstance(n, int) or n < 2:
            raise ValueError("n must be an integer >= 2")
        return super().__new__(cls, n, linalg.Gram(gram))

    @property
    def dim_v(self) -> int:
        return len(self.gram)

    @property
    def total_dim(self) -> int:
        return self.dim_v + 1

    @property
    def integral(self) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        """The BB gram on all total_dim coordinates, delta last, as
        `linalg.integral_rows` would scale it, built on each read: the
        surface gram's rows, then delta's row with its entry -2(n-1) gden."""
        gden, rows = self.gram.integral
        return gden, rows + (((self.dim_v, -2 * (self.n - 1) * gden),),)


def _times(rows, x) -> list[int]:
    """The int matrix of sparse rows times the int vector x."""
    return [sum(g * x[j] for j, g in row) for row in rows]


def _gram_images(triple: "PeriodTriple") -> tuple[list, list]:
    """(W, g): the int numerators W_a of the triple's classes, and g_a its
    lattice's integral view times W_a."""
    from . import linalg

    _, rows = triple.lattice.integral
    ws = [linalg.numerators(w)[0] for w in triple.w]
    return ws, [_times(rows, w) for w in ws]


def _pair(rows, x, y) -> int:
    """x^T M y for the int matrix M of sparse rows; x may stop short of M's
    rows, as a surface class against the full gram does."""
    return sum(a * sum(g * y[j] for j, g in row) for a, row in zip(x, rows) if a)


def k3_lattice(n: int, gram=None) -> H2Lattice:
    return H2Lattice(n, gram if gram is not None else default_k3_gram())


def bb_pair(lat: H2Lattice, x, y) -> Fraction:
    """B(x, y) for two classes of lat, each a sequence of total_dim rationals."""
    from . import linalg

    if len(x) != lat.total_dim or len(y) != lat.total_dim:
        raise ValueError(f"classes must have {lat.total_dim} coordinates")
    gden, rows = lat.integral
    (xs, dx), (ys, dy) = linalg.numerators(x), linalg.numerators(y)
    return Fraction(_pair(rows, xs, ys), gden * dx * dy)


def q_norm(lat: H2Lattice, x) -> Fraction:
    return bb_pair(lat, x, x)


def obstruction_coefficient(n: int, l: int) -> Fraction:
    """Coefficient on the exceptional square after pulling back the BB dual.

    c(n, l) = 1/(2(l-1)) - (n/l)/(2(n-1)); zero iff n = l.  Requires l >= 2,
    l | n and n/l triangular (the existence conditions for the map).
    """
    if not (isinstance(n, int) and isinstance(l, int)):
        raise ValueError("n and l must be integers")
    if l < 2 or n < l:
        raise ValueError("need 2 <= l <= n")
    if n % l != 0:
        raise ValueError(f"{l} does not divide {n}")
    t = n // l
    ok, _ = is_triangular(t)
    if not ok:
        raise ValueError(f"quotient {t} is not triangular")
    return Fraction(1, 2 * (l - 1)) - Fraction(t, 2 * (n - 1))


class PeriodTriple(namedtuple("PeriodTriple", "lattice w")):
    """Three pairwise BB-orthogonal classes of positive norm."""

    __slots__ = ()

    def __new__(cls, lattice: H2Lattice,
                w: tuple[tuple[Fraction, ...], tuple[Fraction, ...], tuple[Fraction, ...]]):
        if len(w) != 3:
            raise ValueError("need exactly three classes")
        for i in range(3):
            if q_norm(lattice, w[i]) <= 0:
                raise ValueError("degenerate period triple: nonpositive norm")
            for j in range(i + 1, 3):
                if bb_pair(lattice, w[i], w[j]) != 0:
                    raise ValueError("degenerate period triple: not orthogonal")
        return super().__new__(cls, lattice, w)

    @property
    def has_delta_component(self) -> bool:
        return any(x[-1] != 0 for x in self.w)


def is_su2_invariant(rows, triple: PeriodTriple) -> bool:
    """The rotation derivations L^T F + F L vanish on the 2-form F, given as
    the sparse (column, int) rows of an integral view, as
    `linalg.integral_rows` and `H2Lattice.integral` return them, in the
    coordinates of the triple's lattice.  A form's common denominator does
    not change the identity, so it is not read.

    With g = G w and phi = F w, each L_a = w_c g_b^T - w_b g_c^T has rank two
    and L_a^T F + F L_a = S + S^T for S = g_b phi_c^T - g_c phi_b^T, so
    invariance is an exact identity between six vectors, checked on i >= j
    for L_1 and L_0 only: [L_0, L_1] = q(w_2) L_2 with q(w_2) > 0, so they
    imply invariance under L_2.  With w_a = W_a / den_a and G and F integral
    up to constants, every term of the identity for L_a carries the same
    factor 1 / (den_b den_c), so it is compared on the int numerators of g
    and phi.  Only w_0 of a drawn triple has a delta component, so f always
    passes the identity for L_0 and can fail the one for L_1 only in
    delta's row: L_1 is checked first, from the last row up.
    """
    dim = triple.lattice.total_dim
    cells = {(i, j): a for i, row in enumerate(rows) for j, a in row}
    if any(not 0 <= j < len(rows) for _, j in cells):
        raise ValueError("form must be square")
    if len(rows) != dim:
        raise ValueError("form size mismatch")
    if any(cells.get((j, i), 0) != a for (i, j), a in cells.items()):
        raise ValueError("form must be symmetric")
    ws, g = _gram_images(triple)
    phi = [_times(rows, w) for w in ws]
    for b, c in ((2, 0), (1, 2)):
        gb, gc, pb, pc = g[b], g[c], phi[b], phi[c]
        for i in range(dim - 1, -1, -1):
            for j in range(i + 1):
                if gb[i] * pc[j] + gb[j] * pc[i] != gc[i] * pb[j] + gc[j] * pb[i]:
                    return False
    return True


def h4_obstruction(triple: PeriodTriple) -> bool:
    """Whether f = B + 2(n-1) d^2 on the triple's lattice fails to be
    invariant under the triple.

    Requires n triangular >= 3 (the punctual candidate exists only there)
    and a triple with nonzero projection of the delta functional onto the
    span, i.e. some w_a with a delta component.

    f is read as a view: f(delta, delta) = 0 and f = B on every other pair,
    so f's integral view is the lattice's `integral` rows with delta's row
    emptied, once that row is checked to hold just -2(n-1) gden.  The
    verdict is reached twice, and a RuntimeError reports any disagreement.
    Once by the su(2) identity on f; once in closed form: B is invariant,
    so f is iff d^2 = e e^T is, where e is the delta functional, and that
    holds iff L_a^T e = e(w_c) g_b - e(w_b) g_c vanishes for a = 0, 1,
    compared on the int numerators of the triple.
    """
    lat = triple.lattice
    ok, _ = is_triangular(lat.n)
    if not ok or lat.n < 3:
        raise ValueError(f"n = {lat.n} is not a triangular number >= 3")
    if not triple.has_delta_component:
        raise ValueError("period triple is orthogonal to the exceptional class; "
                         "the precondition proj(delta-dual) != 0 fails")
    gden, rows = lat.integral
    if rows[-1] != ((lat.dim_v, -2 * (lat.n - 1) * gden),):
        raise RuntimeError("restriction functional does not vanish on (delta, delta)")
    ws, g = _gram_images(triple)
    obstructed = any(ws[c][-1] * x != ws[b][-1] * y
                     for b, c in ((1, 2), (2, 0)) for x, y in zip(g[b], g[c]))
    if obstructed == is_su2_invariant(rows[:-1] + ((),), triple):
        raise RuntimeError("the su(2) identity and the closed form disagree on f")
    return obstructed


def _positive_basis(lat: H2Lattice) -> tuple[tuple[Fraction, ...], ...]:
    gram = lat.gram
    positive = [c for c, d in enumerate(gram.diagonal) if d > 0][:3]
    if len(positive) < 3:
        raise ValueError("surface gram has no positive 3-space")
    return tuple(tuple(gram.column(c)) for c in positive)


def random_period_triple(lat: H2Lattice, rng: random.Random) -> PeriodTriple:
    """Deterministic-in-seed random valid triple with a delta component.

    Three independent random rational mixes of an exact positive basis, each
    plus integer noise, under one common scale doubled until exact BB
    Gram-Schmidt keeps all three norms positive (a RuntimeError after 256
    tries).  Then delta is mixed into w1 with a scale keeping the norm
    positive, so the triple has a delta component.
    """
    from . import linalg

    basis = [linalg.numerators(b) for b in _positive_basis(lat)]  # (B_b, d_b)
    dim = lat.dim_v
    for _ in range(256):
        mixes, noise = [], []
        for _ in range(3):
            mixes.append([Fraction(rng.randint(-4, 4), rng.randint(1, 3) * d) for _, d in basis])
            noise.append([rng.randint(-1, 1) for _ in range(dim)])
        if linalg.det(mixes) != 0:
            break
    else:
        raise RuntimeError("failed to draw a valid period triple")
    # a mix's coefficients are drawn as m_b / d_b, so the mix
    # sum_b m_b B_b / d_b is N / D in ints, with (C, D) their `numerators`
    # and N = sum_b C_b B_b; cancelling gcd(D, *N) leaves the `numerators`
    # of its reduced entries
    vs = []
    for mix in mixes:
        cs, big = linalg.numerators(mix)
        num = [sum(c * b[i] for c, (b, _) in zip(cs, basis)) for i in range(dim)]
        k = gcd(big, *num)
        vs.append(([a // k for a in num], big // k))
    rows = lat.integral[1]  # the surface classes below read its surface block
    # the mixes span a positive-definite 3-space, so the Gram-Schmidt norms
    # of scale * v + noise are all positive once the scale is large enough.
    # A class w = W / den is kept with its numerator norm nu = W^T G W (times
    # the gram's denominator): against it, w - (B(u, w) / q(u)) u is
    # (nu W - c U) / (nu den) for u = U / du and c = U^T G W.  The scale
    # doubled at most 11 times over seeds 0-4 at n = 3, 6 and 28 on the K3
    # gram, the benchmark's certify grams and the CI bound grams; 256
    # doublings stop a defect upstream (a basis that is not positive)
    scale = 1
    for _ in range(256):
        kept: list[tuple[list[int], int, int]] = []  # (W, den, nu)
        for (v, den), z in zip(vs, noise):
            w = [scale * a + den * b for a, b in zip(v, z)]
            for u, _, nu in kept:
                c = _pair(rows, u, w)
                w = [nu * a - c * b for a, b in zip(w, u)]
                den *= nu
                k = gcd(den, *w)
                w, den = [a // k for a in w], den // k
            nu = _pair(rows, w, w)
            if nu <= 0:
                break
            kept.append((w, den, nu))
        if len(kept) == 3:
            break
        scale *= 2
    else:
        raise RuntimeError("period triple norms stayed non-positive")
    ws = [tuple(Fraction(a, den) for a in w) + (Fraction(0),) for w, den, _ in kept]
    # q(w_0) = nu / (gden den^2) for the kept (W, den, nu) of w_0, and
    # delta's one entry in the view is q(delta) gden
    _, den, nu = kept[0]
    ((_, delta),) = rows[-1]
    scale = 1
    while scale * scale * nu <= -delta * den * den:
        scale *= 2
    ws[0] = tuple(scale * a for a in ws[0][:dim]) + (Fraction(1),)
    return PeriodTriple(lat, (ws[0], ws[1], ws[2]))


CandidateCertificate = namedtuple("CandidateCertificate", (
    "diagram",
    "kind",          # "improper" | "simple" | "mixed"
    "status",        # "whole-space" | "obstructed" | "flagged" | "not-obstructed"
    "method",        # None | "pullback-coefficient" | "degree-4-functional"
    "coefficient",   # Fraction | None
    "detail",
))

CertificationReport = namedtuple("CertificationReport", (
    "n",
    "seed",
    "verdict",       # "certified" | "inconclusive"
    "certificates",  # tuple of CandidateCertificate
))


# the candidates (partitions into triangular parts) grow faster than any
# polynomial in n: at n = 100 there are 8,676 and `certify --json` takes
# about 0.8 s and prints 5.3 MB; at n = 120, 2.2 s and 15 MB
MAX_POINTS = 100


def certify_no_trianalytic(n: int, gram=None, seed: int = 0) -> CertificationReport:
    """Obstruct every proper simple trianalytic candidate on n points.

    Candidates with equal parts of size > 1 come from a smaller Hilbert
    scheme: obstructed by a nonzero pullback coefficient (l >= 2) or by the
    non-invariance of the degree-4 functional (l = 1, seeded period triple).
    Mixed-part candidates are product-type and only flagged.  The verdict is
    "certified" iff every proper simple candidate is obstructed; the random
    seed affects only the choice of period triples, never the verdict.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_POINTS:
        raise ValueError(f"certification capped at n = {MAX_POINTS}")
    rng = random.Random(seed)
    certificates = []
    for d in trianalytic_candidates(n):
        values = set(d)
        l, method, coefficient = len(d), None, None
        if values == {1}:
            kind, status = "improper", "whole-space"
            detail = "all parts 1: the unpinned shape is the whole space, not a proper subvariety"
        elif len(values) > 1:
            kind, status = "mixed", "flagged"
            detail = "mixed part sizes: product-type candidate, flagged, not certified here"
        else:
            kind = "simple"
            if l >= 2:
                method, coefficient = "pullback-coefficient", obstruction_coefficient(n, l)
                obstructed = coefficient != 0
                detail = (f"pullback of the BB dual along the map from {l} points: "
                          f"coefficient 1/(2*{l - 1}) - {n // l}/(2*{n - 1}) = {coefficient} "
                          f"on the exceptional square")
            else:
                method = "degree-4-functional"
                lat = k3_lattice(n, gram)
                obstructed = h4_obstruction(random_period_triple(lat, rng))
                verb = "is not" if obstructed else "is"
                detail = (f"f = B + 2*{n - 1}*d^2 (with f(delta,delta) = 0) {verb} "
                          f"invariant under the rotations of a period triple with a "
                          f"delta component (seed={seed})")
            status = "obstructed" if obstructed else "not-obstructed"
        certificates.append(CandidateCertificate(d, kind, status, method, coefficient, detail))
    simple = [c for c in certificates if c.kind == "simple"]
    verdict = "certified" if all(c.status == "obstructed" for c in simple) else "inconclusive"
    return CertificationReport(n=n, seed=seed, verdict=verdict,
                               certificates=tuple(certificates))
