import hashlib
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbk3 import bb_lattice, linalg
from hilbk3.bb_lattice import (
    MAX_POINTS,
    H2Lattice,
    PeriodTriple,
    bb_pair,
    certify_no_trianalytic,
    default_k3_gram,
    h4_obstruction,
    is_su2_invariant,
    k3_lattice,
    obstruction_coefficient,
    q_norm,
    random_period_triple,
)
from hilbk3.partitions import is_triangular

from oracles import (
    basis_class,
    bb_inverse_tensor,
    congruence_agrees,
    delta_class,
    delta_module_dimension,
    delta_squared_form,
    dense_su2_invariant,
    entry_bound_grams,
    f_view_verdict,
    flat_period_triple,
    fraction_bb_pair,
    fraction_period_triple,
    full_gram,
    is_contravariant_invariant,
    is_zero_matrix,
    mat_add,
    mat_mul,
    mat_scale,
    mat_vec,
    obstruction_coefficient_from_tensors,
    orbit_dimension_d2,
    restriction_functional,
    signature,
    su2_generators,
    su2_views,
    symmetric_fraction_rows,
    transported_bb_tensor,
    transpose,
)

# small surface gram with a positive 3-space, for fast tests
SMALL = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))


# signature (3, 1), determinant -144, entries large next to the +-1 noise
# of the period-triple sampler
SCRAMBLED = ((-19, 127, 73, 115), (127, -185, -91, -451), (73, -91, -43, -253),
             (115, -451, -253, -535))


def small_lattice(n):
    return k3_lattice(n, SMALL)


def pullback(src, dst, x):
    """Pull a class back along the rational map from the dst Hilbert scheme.

    Defined when dst.n divides src.n with triangular quotient: identity on
    the surface part and delta_n -> (n/l) delta_l.
    """
    if src.gram != dst.gram:
        raise ValueError("lattices must share the surface gram")
    n, l = src.n, dst.n
    if n % l != 0:
        raise ValueError(f"{l} does not divide {n}")
    t = n // l
    ok, _ = is_triangular(t)
    if not ok:
        raise ValueError(f"quotient {t} = {n}/{l} is not triangular")
    if len(x) != src.total_dim:
        raise ValueError(f"classes of the source must have {src.total_dim} coordinates")
    return tuple(x[:src.dim_v]) + (x[-1] * Fraction(n, l),)


def test_default_gram_shape_and_invariants():
    g = default_k3_gram()
    assert len(g) == 22 and all(len(row) == 22 for row in g)
    assert all(g[i][j] == g[j][i] for i in range(22) for j in range(22))
    assert all(g[i][i] % 2 == 0 for i in range(22))
    rows = [list(map(Fraction, row)) for row in g]
    assert linalg.det(rows) in (1, -1)
    assert signature(rows) == (3, 19, 0)
    # the checked gram every K3 lattice shares, with the elimination it keeps;
    # its U blocks take the zero-pivot repair
    assert isinstance(g, linalg.Gram) and k3_lattice(3).gram is g is k3_lattice(6).gram
    # D and P are the dense congruence's; the self-test reads unimodularity
    # off the check's D: det = prod D
    assert congruence_agrees(g)


def _set_first_diagonal(value):
    def change(m):
        m[0][0] = value
        return m
    return change


@pytest.mark.parametrize("change, message", [
    (_set_first_diagonal(3), "default gram is not even"),
    # E8 with a 4 at an end node has determinant 1 + 2 det E7 = 5: even and
    # nondegenerate, but the product of the diagonal is 25
    (_set_first_diagonal(4), "default gram is not unimodular"),
    # E8 + E8 positive definite: even and unimodular, signature (19, 3)
    (lambda m: [[-x for x in row] for row in m], "default gram has wrong signature"),
], ids=["odd", "not-unimodular", "wrong-signature"])
def test_default_gram_self_test_can_fail(monkeypatch, change, message):
    cartan = bb_lattice._e8_cartan
    monkeypatch.setattr(bb_lattice, "_e8_cartan", lambda: change(cartan()))
    default_k3_gram.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            default_k3_gram()
    finally:
        default_k3_gram.cache_clear()


def test_lattice_validation():
    with pytest.raises(ValueError):
        H2Lattice(2, ((1, 0),))  # not square
    with pytest.raises(ValueError):
        H2Lattice(2, ((0, 1), (2, 0)))  # not symmetric
    with pytest.raises(ValueError):
        H2Lattice(2, ((1, 1), (1, 1)))  # degenerate
    for n in (0, 1):  # no exceptional class below n = 2
        with pytest.raises(ValueError, match="n must be an integer >= 2"):
            H2Lattice(n, SMALL)


def test_delta_norm_and_dimensions():
    for n in (2, 3, 5, 11):
        lat = small_lattice(n)
        assert full_gram(lat)[-1][-1] == -2 * (n - 1)
        # delta's row of the integral view: one entry, q(delta) gden
        gden, rows = lat.integral
        assert rows[-1] == ((4, -2 * (n - 1) * gden),)
        assert lat.dim_v == 4
        assert lat.total_dim == 5
        assert q_norm(lat, delta_class(lat)) == -2 * (n - 1)


def test_full_gram_blocks():
    lat = small_lattice(3)
    fg = full_gram(lat)
    assert len(fg) == 5
    for i in range(4):
        assert fg[i][4] == fg[4][i] == 0
        for j in range(4):
            assert fg[i][j] == SMALL[i][j]
    assert fg[4][4] == -4
    assert lat.integral == linalg.integral_rows(fg)  # the library's one statement of it


def test_lattice_rows_are_the_integral_rows_of_the_full_gram():
    # the lattice's view, the surface gram's integral rows, kept once per
    # gram, plus delta's row with its entry -2(n-1) gden, is the full gram
    # scaled to ints, on the K3 gram and on the two 32 x 32 grams at the
    # entry bound that CI certifies on
    for gram in (default_k3_gram(), *map(linalg.Gram, entry_bound_grams().values())):
        for n in (2, 3, 28):
            lat = k3_lattice(n, gram)
            gden, rows = lat.gram.integral
            assert lat.integral == linalg.integral_rows(full_gram(lat)) == (
                gden, rows + (((lat.dim_v, -2 * (n - 1) * gden),),))


def test_bb_pair_and_coords():
    lat = small_lattice(4)
    e0, e1 = basis_class(lat, 0), basis_class(lat, 1)
    assert bb_pair(lat, e0, e1) == 1
    assert bb_pair(lat, e0, e0) == 0
    d = delta_class(lat)
    assert bb_pair(lat, e0, d) == 0
    assert bb_pair(lat, d, d) == -6
    # coordinates are the surface part, then delta last
    x = (1, 2, 0, 1, Fraction(1, 2))
    assert bb_pair(lat, x, e0) == 2
    assert bb_pair(lat, x, d) == -3
    assert q_norm(lat, x) == 4 + 2 - Fraction(6, 4)
    with pytest.raises(ValueError):
        bb_pair(lat, (1,), e0)
    with pytest.raises(ValueError):
        bb_pair(lat, e0, (1, 0, 0, 0))  # no delta slot


def test_pullback_on_classes():
    src, dst = small_lattice(6), small_lattice(2)
    x = (1, -1, 2, 0, 1)
    y = pullback(src, dst, x)
    assert y[:4] == x[:4]
    assert y[4] == 3


def test_pullback_validation():
    with pytest.raises(ValueError):
        pullback(small_lattice(6), k3_lattice(2), delta_class(small_lattice(6)))
    with pytest.raises(ValueError):
        pullback(small_lattice(6), small_lattice(4), delta_class(small_lattice(6)))
    with pytest.raises(ValueError):
        # quotient 4 is not triangular
        pullback(small_lattice(8), small_lattice(2), delta_class(small_lattice(8)))
    with pytest.raises(ValueError):
        pullback(small_lattice(6), small_lattice(2), (1, 0, 0, 0))  # no delta slot


def test_obstruction_coefficient_values():
    assert obstruction_coefficient(6, 2) == Fraction(1, 5)
    assert obstruction_coefficient(12, 4) == Fraction(1, 33)
    assert obstruction_coefficient(9, 3) == Fraction(1, 16)
    assert obstruction_coefficient(12, 2) == Fraction(5, 22)
    assert obstruction_coefficient(6, 6) == 0
    assert obstruction_coefficient(2, 2) == 0


def test_obstruction_coefficient_validation():
    with pytest.raises(ValueError):
        obstruction_coefficient(6, 1)
    with pytest.raises(ValueError):
        obstruction_coefficient(6, 4)
    with pytest.raises(ValueError):
        obstruction_coefficient(8, 2)
    for n, l in ((6.0, 2), (6, Fraction(2)), ("6", 2)):
        with pytest.raises(ValueError, match="^n and l must be integers$"):
            obstruction_coefficient(n, l)


def test_tensor_fixtures():
    lat = small_lattice(3)
    b = full_gram(lat)
    binv = bb_inverse_tensor(lat)
    assert mat_mul(b, binv) == linalg.identity(5)
    rows = delta_squared_form(lat)
    assert rows[4][4] == 1
    assert all(rows[i][j] == 0 for i in range(5) for j in range(5) if (i, j) != (4, 4))
    # d^2 pairs two classes through their delta coordinates only
    x, y = (1, 2, 0, 1, 3), (0, 1, 1, 0, -2)
    assert sum(a * b for a, b in zip(x, mat_vec(rows, y))) == 3 * -2


def test_is_su2_invariant_validates_the_form():
    lat = small_lattice(3)
    triple = random_period_triple(lat, random.Random(3))
    good = [list(r) for r in full_gram(lat)]
    assert is_su2_invariant(linalg.integral_rows(good)[1], triple)
    # sparse rows do not show trailing zero columns, so a row that is too
    # long shows as a column past the last row
    with pytest.raises(ValueError):
        is_su2_invariant(linalg.integral_rows([r + [1] for r in good])[1], triple)  # not square
    with pytest.raises(ValueError):
        is_su2_invariant(linalg.integral_rows([r[:4] for r in good[:4]])[1], triple)  # wrong size
    skew = [list(r) for r in good]
    skew[0][1] += 1
    with pytest.raises(ValueError):
        is_su2_invariant(linalg.integral_rows(skew)[1], triple)  # not symmetric


def random_symmetric(rng, size):
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return rows


def test_is_su2_invariant_matches_the_dense_operators():
    # the rank-two identity against L^T F + F L on the three dense operators
    rng = random.Random(53)
    answers = []
    for gram in (None, SMALL, SCRAMBLED):
        for n in (2, 3, 6, 10):
            lat = k3_lattice(n, gram)
            size = lat.total_dim
            g = full_gram(lat)
            noise = random_symmetric(rng, size)
            i, j = rng.randrange(size), rng.randrange(size)
            bumped = [list(r) for r in g]
            bumped[i][j] += 1
            bumped[j][i] += i != j
            forms = [g, bb_inverse_tensor(lat), [[0] * size for _ in range(size)], noise,
                     [[a + b for a, b in zip(r, s)] for r, s in zip(g, noise)], bumped,
                     restriction_functional(lat), delta_squared_form(lat)]
            # the flat triples come from the oracle: the library's always
            # have a delta component
            for draw in (flat_period_triple, random_period_triple):
                triple = draw(lat, rng)
                for form in forms:
                    answer = is_su2_invariant(linalg.integral_rows(form)[1], triple)
                    assert answer == dense_su2_invariant(lat, form, triple)
                    answers.append(answer)
    # invariant: the gram and zero under both triples, f and d^2 under the
    # triple orthogonal to delta; 6 of the 16 answers on each of 12 lattices
    assert (answers.count(True), answers.count(False)) == (72, 120)


def test_transported_tensor_matches_formula():
    for (n, l) in ((6, 2), (12, 4), (12, 2), (6, 6)):
        src, dst = small_lattice(n), small_lattice(l)
        assert obstruction_coefficient_from_tensors(src, dst) == obstruction_coefficient(n, l)


def test_transported_tensor_on_default_gram():
    src, dst = k3_lattice(6), k3_lattice(2)
    t = transported_bb_tensor(src, dst)
    assert obstruction_coefficient_from_tensors(src, dst) == Fraction(1, 5)
    # upper indices: invariant under rotations that fix delta; a nonzero
    # coefficient on the exceptional square breaks invariance otherwise,
    # and with c(6, 6) = 0 the transport is the target's BB dual
    rng = random.Random(29)
    assert is_contravariant_invariant(dst, t, flat_period_triple(dst, rng))
    assert not is_contravariant_invariant(dst, t, random_period_triple(dst, rng))
    same = transported_bb_tensor(src, src)
    assert same == bb_inverse_tensor(src)
    assert is_contravariant_invariant(src, same, random_period_triple(src, rng))


def test_period_triple_validation():
    lat = small_lattice(2)
    w_good = (
        (1, 1, 0, 0, 0),      # q = 2
        (0, 0, 1, 0, 0),      # q = 2
        (0, 0, 0, 1, 0),      # q = 2
    )
    triple = PeriodTriple(lat, w_good)
    assert not triple.has_delta_component
    assert len(triple.w) == 3
    assert PeriodTriple(lat, ((3, 3, 0, 0, 1),) + w_good[1:]).has_delta_component  # q = 16
    with pytest.raises(ValueError):
        PeriodTriple(lat, (w_good[0], w_good[0], w_good[2]))  # not orthogonal
    with pytest.raises(ValueError):
        PeriodTriple(lat, ((1, 0, 0, 0, 0),) + w_good[1:])  # isotropic first vector
    with pytest.raises(ValueError):
        PeriodTriple(lat, ((1, 1, 0, 0),) + w_good[1:])  # no delta slot


def test_su2_generator_identities():
    lat = small_lattice(3)
    rng = random.Random(5)
    for _ in range(5):
        triple = random_period_triple(lat, rng)
        ops = su2_generators(lat, triple)
        w = triple.w
        q = [q_norm(lat, c) for c in w]
        g = full_gram(lat)
        for a in range(3):
            b, c = (a + 1) % 3, (a + 2) % 3
            # annihilates its own period, rotates the other two
            assert mat_vec(ops[a], w[a]) == [0] * 5
            assert mat_vec(ops[a], w[b]) == [q[b] * x for x in w[c]]
            assert mat_vec(ops[a], w[c]) == [-q[c] * x for x in w[b]]
            # BB-skew: L^T G + G L = 0
            skew = mat_add(
                mat_mul(transpose(ops[a]), g),
                mat_mul(g, ops[a]),
            )
            assert is_zero_matrix(skew)
        # so(3)-type brackets: [L_a, L_b] = q_c L_c
        for a in range(3):
            b, c = (a + 1) % 3, (a + 2) % 3
            bracket = mat_add(
                mat_mul(ops[a], ops[b]),
                mat_scale(mat_mul(ops[b], ops[a]), -1),
            )
            expect = mat_scale(ops[c], q[c])
            assert bracket == expect


def test_bb_form_always_invariant():
    lat = small_lattice(3)
    rng = random.Random(17)
    for draw in (random_period_triple, flat_period_triple):
        triple = draw(lat, rng)
        assert is_su2_invariant(linalg.integral_rows(full_gram(lat))[1], triple)
        assert is_contravariant_invariant(lat, bb_inverse_tensor(lat), triple)
        # the two index positions are different checks: B as a contravariant
        # tensor, or its inverse as a form, is moved by the rotations
        assert not is_contravariant_invariant(lat, full_gram(lat), triple)
        assert not is_su2_invariant(linalg.integral_rows(bb_inverse_tensor(lat))[1], triple)


def test_delta_squared_invariance_depends_on_periods():
    lat = small_lattice(3)
    rng = random.Random(23)
    triple = random_period_triple(lat, rng)
    assert triple.has_delta_component
    d2 = linalg.integral_rows(delta_squared_form(lat))[1]
    assert not is_su2_invariant(d2, triple)
    flat = flat_period_triple(lat, rng)
    assert not flat.has_delta_component
    assert is_su2_invariant(d2, flat)


def test_is_su2_invariant_reads_int_and_fraction_forms_alike():
    # each integral form as ints, as Fractions and as a mix has one integral
    # view, and so one verdict
    lat = k3_lattice(3)
    triple = random_period_triple(lat, random.Random(23))
    flat = flat_period_triple(lat, random.Random(23))
    for form, expect in ((full_gram(lat), (True, True)),
                         (delta_squared_form(lat), (False, True)),
                         (restriction_functional(lat), (False, True))):
        fractions = [[Fraction(x) for x in row] for row in form]
        ints = [[int(x) for x in row] for row in fractions]
        assert ints == fractions  # integral
        mixed = [[x if (i + j) % 2 else Fraction(x) for j, x in enumerate(row)]
                 for i, row in enumerate(ints)]
        for t, verdict in zip((triple, flat), expect):
            views = [linalg.integral_rows(f)[1] for f in (ints, fractions, mixed)]
            assert views[0] == views[1] == views[2]
            assert [is_su2_invariant(v, t) for v in views] == [verdict] * 3


def test_orbit_dimensions():
    lat = small_lattice(3)
    rng = random.Random(31)
    triple = random_period_triple(lat, rng)
    m = delta_module_dimension(lat, triple)
    assert m == 4
    assert orbit_dimension_d2(lat, triple) == m * (m + 1) // 2 - 1 == 9
    flat = flat_period_triple(lat, rng)
    assert delta_module_dimension(lat, flat) == 1
    assert orbit_dimension_d2(lat, flat) == 1


def test_h4_obstruction_holds():
    rng = random.Random(41)
    for n in (3, 6):
        lat = small_lattice(n)
        triple = random_period_triple(lat, rng)
        assert h4_obstruction(triple)


def test_h4_obstruction_preconditions():
    rng = random.Random(43)
    lat4 = small_lattice(4)
    with pytest.raises(ValueError):
        h4_obstruction(random_period_triple(lat4, rng))
    lat3 = small_lattice(3)
    flat = flat_period_triple(lat3, rng)
    with pytest.raises(ValueError):
        h4_obstruction(flat)


def test_random_period_triple_needs_the_exceptional_class():
    # n = 1 has no delta to mix into w1, and no lattice; from n = 2 on the
    # library's triple has a delta component and the oracle's flat one none
    for gram in (None, SMALL):
        with pytest.raises(ValueError, match="n must be an integer >= 2"):
            k3_lattice(1, gram)
        lat = k3_lattice(2, gram)
        assert random_period_triple(lat, random.Random(0)).has_delta_component
        assert not flat_period_triple(lat, random.Random(0)).has_delta_component


def test_random_period_triple_on_a_scrambled_gram():
    lat = k3_lattice(3, SCRAMBLED)
    assert linalg.det([list(map(Fraction, r)) for r in SCRAMBLED]) == -144
    assert signature([list(map(Fraction, r)) for r in SCRAMBLED]) == (3, 1, 0)
    for seed in range(4):
        assert random_period_triple(lat, random.Random(seed)).has_delta_component
        assert not flat_period_triple(lat, random.Random(seed)).has_delta_component
    report = certify_no_trianalytic(3, gram=SCRAMBLED, seed=0)
    assert report.verdict == "certified"


def negative_a(m):
    """The A_m root lattice, negated."""
    return [[-2 if i == j else int(abs(i - j) == 1) for j in range(m)] for i in range(m)]


# U + <2> + <4> + A_2(-1) + <-6>, signature (3, 4)
BLOCK_SUM = tuple(tuple(row) for row in (
    [[0, 1] + [0] * 5, [1, 0] + [0] * 5, [0, 0, 2] + [0] * 4, [0] * 3 + [4, 0, 0, 0]]
    + [[0] * 4 + row + [0] for row in negative_a(2)] + [[0] * 6 + [-6]]))
# a p/q gram of signature (3, 1): the int-numerator path scales it by 6
SCRAMBLED_7_6 = tuple(tuple(Fraction(7 * x, 6) for x in row) for row in SCRAMBLED)
INTEGER_PATH_GRAMS = (None, SMALL, BLOCK_SUM, SCRAMBLED, SCRAMBLED_7_6)


def test_bb_pair_matches_the_fraction_sum():
    rng = random.Random(59)
    for gram in INTEGER_PATH_GRAMS:
        for n in (2, 3):
            lat = k3_lattice(n, gram)
            classes = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                             for _ in range(lat.total_dim)) for _ in range(4)]
            classes += [basis_class(lat, 0), (0,) * lat.total_dim]
            classes += random_period_triple(lat, rng).w + flat_period_triple(lat, rng).w
            for x in classes:
                for y in classes:
                    assert bb_pair(lat, x, y) == fraction_bb_pair(lat, x, y)


def test_random_period_triple_matches_fraction_gram_schmidt():
    # the int-numerator Gram-Schmidt against the Fraction one from the same
    # draws; on the p/q gram the su(2) check is compared with the dense
    # operators too, since the pinned draws all have an integral gram
    for gram in INTEGER_PATH_GRAMS:
        for n in (3, 6):
            lat = k3_lattice(n, gram)
            for seed in range(4):
                triple = random_period_triple(lat, random.Random(seed))
                assert triple.w == fraction_period_triple(lat, random.Random(seed))
                # the oracle's flat triple from the same draws is the triple
                # before delta is mixed into w1 with a power-of-two scale
                flat = flat_period_triple(lat, random.Random(seed))
                assert flat.w[1:] == triple.w[1:] and flat.w[0][-1] == 0
                scale = next(b / a for a, b in zip(flat.w[0], triple.w[0]) if a)
                assert [scale * a for a in flat.w[0][:-1]] == list(triple.w[0][:-1])
                if gram is SCRAMBLED_7_6:
                    for t in (triple, flat):
                        for form in (full_gram(lat), restriction_functional(lat)):
                            assert (is_su2_invariant(linalg.integral_rows(form)[1], t)
                                    == dense_su2_invariant(lat, form, t))
    lat = k3_lattice(3, SCRAMBLED_7_6)
    assert h4_obstruction(random_period_triple(lat, random.Random(0)))


def test_random_period_triple_draws_are_pinned():
    # SHA-256 over the coordinates (surface part, then delta) of the triples
    # drawn for seeds 0-9, with delta and then flat from the oracle, on the
    # default gram at n = 3 and n = 6 and on the scrambled gram, as drawn
    # with classes held as (v, delta) pairs; certify output never prints a
    # triple, so its pinned bytes cannot catch a changed draw
    digest = hashlib.sha256()
    for lat in (k3_lattice(3), k3_lattice(6), k3_lattice(3, SCRAMBLED)):
        for draw in (random_period_triple, flat_period_triple):
            for seed in range(10):
                for w in draw(lat, random.Random(seed)).w:
                    digest.update((" ".join(map(str, w)) + "\n").encode())
    assert digest.hexdigest() == (
        "b34357be85fd7f6d454f1041116dedc8afaca0e0cc36dfdf6cfd4d209dfdbad2")


def test_random_period_triple_is_deterministic():
    lat = small_lattice(3)
    t1 = random_period_triple(lat, random.Random(7))
    t2 = random_period_triple(lat, random.Random(7))
    assert t1 == t2
    t3 = random_period_triple(lat, random.Random(8))
    assert t1 != t3


class ScriptedRandom(random.Random):
    """A seeded Random whose first randint calls return scripted values;
    `seeded` counts the calls after them."""

    def __init__(self, seed, values):
        super().__init__(seed)
        self.values = list(values)
        self.seeded = 0

    def randint(self, a, b):
        if self.values:
            x = self.values.pop(0)
            assert a <= x <= b
            return x
        self.seeded += 1
        return super().randint(a, b)


def test_random_period_triple_redraws_singular_mixes():
    # a first draw of three dependent mix rows is thrown away, so the triple
    # is the one the seeded Random draws first, in as many calls as the
    # script; the scripted noise keeps positive norms, so a kept singular
    # draw would end in another triple (and not loop)
    lat = small_lattice(3)
    rows = ([1, 1, 1], [2, 2, 2], [-1, -1, -1])
    noise = ([1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])
    script = []
    for row, z in zip(rows, noise):
        for x in row:
            script += [x, 1]  # Fraction(x, 1)
        script += z
    rng = ScriptedRandom(5, script)
    assert linalg.det([list(map(Fraction, row)) for row in rows]) == 0
    triple = random_period_triple(lat, rng)
    assert not rng.values and rng.seeded == len(script)
    assert triple == random_period_triple(lat, random.Random(5))


def test_certify_n6_structure():
    report = certify_no_trianalytic(6, gram=SMALL)
    assert report.verdict == "certified"
    by_diagram = {c.diagram: c for c in report.certificates}
    assert set(by_diagram) == {
        (6,),
        (3, 3),
        (3, 1, 1, 1),
        (1, 1, 1, 1, 1, 1),
    }
    assert by_diagram[(3, 3)].status == "obstructed"
    assert by_diagram[(3, 3)].coefficient == Fraction(1, 5)
    assert by_diagram[(6,)].status == "obstructed"
    assert by_diagram[(6,)].coefficient is None
    assert by_diagram[(3, 1, 1, 1)].status == "flagged"
    assert by_diagram[(1,) * 6].status == "whole-space"


def test_certify_small_n():
    report = certify_no_trianalytic(2, gram=SMALL)
    assert report.verdict == "certified"
    # only the open stratum survives the pipeline at n = 2
    assert [c.status for c in report.certificates] == ["whole-space"]


def test_certify_n12_coefficients():
    report = certify_no_trianalytic(12, gram=SMALL)
    assert report.verdict == "certified"
    by_diagram = {c.diagram: c for c in report.certificates}
    assert by_diagram[(3, 3, 3, 3)].coefficient == Fraction(1, 33)
    assert by_diagram[(6, 6)].coefficient == Fraction(5, 22)
    assert (12,) not in by_diagram  # 12 is not triangular


def test_certify_deterministic_and_seed_stable():
    a = certify_no_trianalytic(6, gram=SMALL, seed=0)
    b = certify_no_trianalytic(6, gram=SMALL, seed=0)
    assert a == b
    c = certify_no_trianalytic(6, gram=SMALL, seed=1)
    assert c.verdict == a.verdict
    assert [x.status for x in c.certificates] == [x.status for x in a.certificates]
    with pytest.raises(ValueError):
        certify_no_trianalytic(0)


def test_certify_budget():
    with pytest.raises(ValueError):
        certify_no_trianalytic(MAX_POINTS + 1)


@st.composite
def signature_3k_grams(draw):
    """(k, block sum of U, <+-2d> and A_m(-1) blocks of signature (3, k)), k <= 10."""
    k = draw(st.integers(0, 10))
    planes = draw(st.integers(0, min(3, k)))
    blocks = [[[0, 1], [1, 0]]] * planes
    blocks += [[[2 * draw(st.integers(1, 6))]] for _ in range(3 - planes)]
    left = k - planes
    while left:
        m = draw(st.integers(1, left))
        blocks.append([[-2 * draw(st.integers(1, 6))]] if m == 1 and draw(st.booleans())
                      else negative_a(m))
        left -= m
    gram = [[0] * (3 + k) for _ in range(3 + k)]
    off = 0
    for block in draw(st.permutations(blocks)):
        for i, row in enumerate(block):
            gram[off + i][off:off + len(row)] = row
        off += len(block)
    return k, tuple(map(tuple, gram))


@lru_cache(maxsize=None)
def k3_statuses(n):
    return tuple(c.status for c in certify_no_trianalytic(n, seed=0).certificates)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), drawn=signature_3k_grams(),
       n=st.sampled_from((3, 6, 10)))
def test_certify_is_seed_and_gram_independent(seed, drawn, n):
    k, gram = drawn
    assert signature([list(map(Fraction, r)) for r in gram]) == (3, k, 0)
    report = certify_no_trianalytic(n, gram=gram, seed=seed)
    assert report.verdict == "certified"
    statuses = tuple(c.status for c in report.certificates)
    assert statuses == tuple(c.status for c in certify_no_trianalytic(n, gram=gram).certificates)
    assert statuses == k3_statuses(n)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), drawn=signature_3k_grams(),
       n=st.sampled_from((3, 6, 10)))
def test_the_two_degree_4_routes_agree(seed, drawn, n):
    # h4_obstruction raises RuntimeError when its closed form and the su(2)
    # identity disagree, so a returned verdict is one both routes reach; the
    # dense operators agree with it.  A triple with no delta component leaves
    # d^2, and so f, invariant
    lat = k3_lattice(n, drawn[1])
    f = restriction_functional(lat)
    triple = random_period_triple(lat, random.Random(seed))
    assert h4_obstruction(triple)
    assert not dense_su2_invariant(lat, f, triple)
    flat = flat_period_triple(lat, random.Random(seed))
    assert (is_su2_invariant(linalg.integral_rows(f)[1], flat)
            and dense_su2_invariant(lat, f, flat))


def test_h4_obstruction_reads_f_as_the_lattices_view():
    # the one view the su(2) check gets is f's: the oracle's Fraction
    # B + 2(n-1) d^2 scaled to ints, with the lattice's gden; f is obstructed
    for gram in INTEGER_PATH_GRAMS:
        for n in (3, 6, 28):
            assert f_view_verdict(k3_lattice(n, gram), random.Random(n)) is True


def test_restriction_functional_structure():
    # the view of f that h4_obstruction hands the su(2) check, as Fractions
    lat = k3_lattice(3)
    obstructed, [view] = su2_views(random_period_triple(lat, random.Random(3)))
    assert obstructed
    assert all(j < len(view) for row in view for j, _ in row)
    gden = lat.integral[0]
    rows = [[Fraction(dict(row).get(j, 0), gden) for j in range(len(view))] for row in view]
    full, d = full_gram(lat), lat.dim_v
    # a plain symmetric matrix of size total_dim
    assert symmetric_fraction_rows(rows, "form") == rows and len(rows) == lat.total_dim
    for i in range(d):
        for j in range(d):
            assert rows[i][j] == full[i][j]
        assert rows[i][d] == 0 and rows[d][i] == 0
    # the delta square cancels: -2(n-1) + 2(n-1) = 0
    assert rows[d][d] == 0
    assert q_norm(lat, delta_class(lat)) == -4
    with pytest.raises(ValueError):
        k3_lattice(1, SMALL)  # no exceptional class, so no lattice


NONZERO_FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)


@settings(max_examples=60, deadline=None)
@given(drawn=signature_3k_grams(), data=st.data(), n=st.integers(2, 100))
def test_the_integral_view_is_the_full_gram(drawn, data, n):
    # the signature (3, k) family under c D G D for a rational c > 0 and a
    # diagonal D of nonzero rationals: the same signature and zero diagonal
    # entries, with p/q entries; every pairing reads the view, delta's row
    # included, so bb_pair is x^T G y over the full gram in Fractions
    k, gram = drawn
    c = data.draw(NONZERO_FRACTIONS.map(abs))
    d = data.draw(st.lists(NONZERO_FRACTIONS, min_size=k + 3, max_size=k + 3))
    lat = k3_lattice(n, [[c * a * b * g for b, g in zip(d, row)] for a, row in zip(d, gram)])
    assert lat.integral == linalg.integral_rows(full_gram(lat))
    classes = data.draw(st.lists(st.tuples(*[st.fractions(-9, 9, max_denominator=7)] * (k + 3),
                                           NONZERO_FRACTIONS), min_size=2, max_size=4))
    for x in classes:
        for y in classes:
            assert bb_pair(lat, x, y) == fraction_bb_pair(lat, x, y)
