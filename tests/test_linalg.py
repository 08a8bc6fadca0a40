import random
from decimal import Decimal
from fractions import Fraction
from math import prod

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilbk3 import bb_lattice, linalg

from oracles import (
    dense_congruence_diagonalize,
    inverse,
    is_zero_matrix,
    mat_add,
    mat_mul,
    mat_vec,
    rank,
    signature,
    transpose,
    vec_mat,
)


def _dense(v, ncols):
    """A sparse {column: value} vector written out over ncols columns."""
    return [v.get(j, 0) for j in range(ncols)]


def _random_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]


def test_identity_and_transpose():
    eye = linalg.identity(3)
    assert eye == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    a = [[1, 2, 3], [4, 5, 6]]
    assert transpose(a) == [[1, 4], [2, 5], [3, 6]]
    assert transpose(transpose(a)) == [[Fraction(x) for x in row] for row in a]


def test_mat_mul_agrees_with_mat_vec():
    rng = random.Random(7)
    for _ in range(20):
        a = _random_matrix(rng, 3, 4)
        b = _random_matrix(rng, 4, 2)
        ab = mat_mul(a, b)
        for j in range(2):
            col = [row[j] for row in b]
            assert [row[j] for row in ab] == mat_vec(a, col)


def test_vec_mat_is_transpose_action():
    rng = random.Random(11)
    a = _random_matrix(rng, 3, 5)
    v = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
    assert vec_mat(v, a) == mat_vec(transpose(a), v)


def test_rank_known_values():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([]) == 0
    assert rank([[0, 0, 0]]) == 0


def test_nullspace_vectors_annihilate():
    rng = random.Random(3)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        a = _random_matrix(rng, rows, cols, -3, 3)
        basis = [_dense(v, cols) for v in linalg.nullspace(list(map(linalg.sparse, a)), cols)]
        assert len(basis) == cols - rank(a)
        for v in basis:
            assert all(x == 0 for x in mat_vec(a, v))
        # basis vectors are independent
        assert rank(basis) == len(basis)


def test_nullspace_of_empty_matrix_is_everything():
    basis = linalg.nullspace([], 4)
    assert basis == [{j: 1} for j in range(4)]


def _echelon_rows(a, ncols):
    """The rows of an Echelon fed the rows of a, as (pivots, dense rows)."""
    ech = linalg.Echelon(ncols)
    for row in a:
        ech.add(linalg.sparse(row))
    rows = ech.rows
    return [p for p, _ in rows], [[row.get(j, 0) for j in range(ncols)] for _, row in rows]


def test_echelon_rows_span_the_input():
    rng = random.Random(19)
    for _ in range(20):
        a = _random_matrix(rng, 4, 4, -2, 2)
        pivots, rows = _echelon_rows(a, 4)
        assert len(rows) == len(pivots) == rank(a)
        # each row has pivot entry 1 and zeros in the other pivot columns
        for p, row in zip(pivots, rows):
            assert [row[q] for q in pivots] == [int(q == p) for q in pivots]
        # the rows span the input's row space, and the input spans theirs
        back = linalg.Echelon(4)
        for row in rows:
            back.add(linalg.sparse(row))
        for row in a:
            assert not back.reduce(linalg.sparse(row))
        assert rank(a + rows) == len(rows)


def test_det_rank_consistency():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = _random_matrix(rng, n, n, -3, 3)
        d = linalg.det(a)
        if rank(a) < n:
            assert d == 0
        else:
            assert d != 0


def test_det_multiplicative():
    rng = random.Random(29)
    for _ in range(10):
        a = _random_matrix(rng, 3, 3)
        b = _random_matrix(rng, 3, 3)
        assert linalg.det(mat_mul(a, b)) == linalg.det(a) * linalg.det(b)


def test_inverse_round_trip():
    rng = random.Random(31)
    done = 0
    while done < 10:
        a = _random_matrix(rng, 4, 4)
        if linalg.det(a) == 0:
            continue
        inv = inverse(a)
        assert mat_mul(a, inv) == linalg.identity(4)
        assert mat_mul(inv, a) == linalg.identity(4)
        done += 1


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        inverse([[1, 2], [2, 4]])


def test_echelon_membership():
    # add returns the pivot column and the value there of the reduced row
    ech = linalg.Echelon(3)
    assert ech.add({0: 1, 1: 1}) == (0, 1)
    assert ech.add({1: 2, 2: 2}) == (1, 2)
    assert ech.add({0: 1, 1: 2, 2: 1}) is None  # dependent
    assert len(ech.pivots) == 2
    assert not ech.reduce({0: 2, 1: 3, 2: 1})
    assert ech.reduce({2: 1}) == {2: 1}
    assert not ech.reduce({})


def test_signature_of_diagonal_forms():
    assert signature([[2, 0], [0, -3]]) == (1, 1, 0)
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert signature([[0, 0], [0, 5]]) == (1, 0, 1)


def test_congruence_diagonalize_property():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n, n, -3, 3)
        gram = mat_add(a, transpose(a))
        diag, _ = linalg.congruence_diagonalize(list(map(linalg.sparse, gram)))
        pos = sum(1 for d in diag if d > 0)
        neg = sum(1 for d in diag if d < 0)
        zero = sum(1 for d in diag if d == 0)
        assert signature(gram) == (pos, neg, zero)
        if zero:
            continue
        checked = linalg.Gram(gram)
        p = transpose([checked.column(c) for c in range(n)])
        ptgp = mat_mul(transpose(p), mat_mul(gram, p))
        for i in range(n):
            for j in range(n):
                expect = diag[i] if i == j else 0
                assert ptgp[i][j] == expect


def test_gram_is_checked_once_and_keeps_its_eliminations():
    rows = [[0, 1, 0], [1, 0, 0], [0, 0, Fraction(-3, 2)]]
    gram = linalg.Gram(rows)
    assert isinstance(gram, tuple) and gram == tuple(tuple(map(Fraction, r)) for r in rows)
    assert all(type(row) is tuple and all(x is y for x, y in zip(row, given))
               for row, given in zip(gram, rows))
    assert not hasattr(gram, "det") and linalg.det(rows) == Fraction(3, 2)
    # T is built from pair adds and swaps, so the diagonal D the check keeps
    # has the gram's determinant as its product
    assert prod(gram.diagonal) == linalg.det(rows)
    assert linalg.Gram(gram) is gram
    dense = dense_congruence_diagonalize(rows)
    assert list(gram.diagonal) == dense[1]
    assert [gram.column(c) for c in range(3)] == dense[0]
    # its entries scaled to ints, read off the gram and not its elimination
    assert gram.integral == (2, (((1, 2),), ((0, 2),), ((2, -3),)))
    assert signature(rows) == (1, 2, 0)
    for bad, message in ((((1, 0),), "square"), (((0, 1), (2, 0)), "symmetric"),
                         (((1, 1), (1, 1)), "nondegenerate"), (((0,),), "nondegenerate")):
        with pytest.raises(ValueError, match=f"^gram must be {message}$"):
            linalg.Gram(bad)


def test_gram_reads_int_and_fraction_entries_alike():
    # one gram, whose check swaps a pivot and repairs a zero-diagonal block,
    # fed as ints, as Fractions and as a mix: the same D, integral view and
    # columns of P, value for value and type for type
    ints = [[1, 1, 1, 0, 0], [1, 1, 2, 0, 0], [1, 2, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 1, 0]]
    fractions = [[Fraction(x) for x in row] for row in ints]
    mixed = [[x if (i + j) % 2 else Fraction(x) for j, x in enumerate(row)]
             for i, row in enumerate(ints)]

    def kept(gram):
        return [[(type(x), x) for x in values]
                for values in (gram.diagonal, *[gram.column(c) for c in range(len(gram))])]

    grams = [linalg.Gram(rows) for rows in (ints, fractions, mixed)]
    assert grams[0] == grams[1] == grams[2]
    assert kept(grams[0]) == kept(grams[1]) == kept(grams[2])
    assert grams[0].integral == grams[1].integral == grams[2].integral == (
        1, tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in ints))
    assert all(type(x) is int for g in grams for row in g.integral[1] for _, x in row)
    # every entry is the object given
    for gram, rows in zip(grams, (ints, fractions, mixed)):
        assert all(x is y for row, given_row in zip(gram, rows) for x, y in zip(row, given_row))


def test_a_gram_of_ints_keeps_its_int_entries():
    # no entry of an int gram becomes a Fraction: the identity's and the K3
    # lattice's entries are the int objects given
    k3 = [list(row) for row in bb_lattice.default_k3_gram()]
    for rows in (linalg.identity(4), k3):
        gram = linalg.Gram(rows)
        assert all(type(x) is int and x is y
                   for row, given in zip(gram, rows) for x, y in zip(row, given))


@pytest.mark.parametrize("bad", (0.5, "1/2", True, Decimal(1)), ids=repr)
def test_a_gram_refuses_entries_that_are_not_ints_or_fractions(bad):
    # a float, str, Decimal or bool entry is refused, not read through Fraction()
    for rows in ([[bad]], [[1, 0], [0, bad]]):
        with pytest.raises(ValueError, match="^gram entries must be ints or Fractions$"):
            linalg.Gram(rows)


def test_is_zero_matrix():
    assert is_zero_matrix([[0, 0], [0, 0]])
    assert not is_zero_matrix([[0, 0], [0, Fraction(1, 7)]])


# Property tests: the elimination core against sympy on small rational
# matrices, square and not, with zero rows, dependent rows and denominators.

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
ENTRIES = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-6, max_value=6, max_denominator=4))


@st.composite
def matrices(draw, square=False, min_rows=0):
    nrows = draw(st.integers(min_rows, 5))
    ncols = nrows if square else draw(st.integers(1, 5))
    a = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                      min_size=nrows, max_size=nrows))
    if nrows >= 2:
        i, j, *rest = draw(st.permutations(range(nrows)))
        k = rest[0] if rest else j
        c = draw(ENTRIES)
        kind = draw(st.sampled_from(("full", "zero-row", "dependent-row")))
        if kind == "zero-row":
            a[i] = [Fraction(0)] * ncols
        elif kind == "dependent-row":
            a[i] = [x + c * y for x, y in zip(a[j], a[k])]
    return a


@PROPERTY
@given(a=matrices(min_rows=1))
@example(a=[[Fraction(-3, 4)]])
@example(a=[[Fraction(0)]])
def test_integral_rows_match_fraction_arithmetic(a):
    def least(d, m):
        # the least scale that makes every entry integral
        def scales(d):
            return all((d * x).denominator == 1 for row in m for x in row)
        return scales(d) and not any(d % p == 0 and scales(d // p) for p in range(2, d + 1))

    den, rows = linalg.integral_rows(a)
    assert least(den, a)
    assert len(rows) == len(a)
    for row, sparse_row in zip(a, rows):
        assert all(type(v) is int and v for _, v in sparse_row)
        assert [j for j, _ in sparse_row] == sorted({j for j, _ in sparse_row})
        dense = dict(sparse_row)
        assert [Fraction(dense.get(j, 0), den) for j in range(len(row))] == row
    # the same rule on vectors: each row, the empty vector and an integral one
    ints = [x.numerator for x in a[0]]
    for x in (*a, [], ints):
        xs, d = linalg.numerators(x)
        assert least(d, [x]) and all(type(v) is int for v in xs)
        assert [Fraction(v, d) for v in xs] == x
    assert linalg.numerators([]) == ([], 1) and linalg.numerators(ints) == (ints, 1)


def _sym(a, ncols):
    return sympy.Matrix(len(a), ncols,
                        [sympy.Rational(x.numerator, x.denominator) for row in a for x in row])


def _frac(x):
    return Fraction(int(x.p), int(x.q))


def _ncols(a):
    return len(a[0]) if a else 3


@PROPERTY
@given(matrices())
def test_rank_and_rref_match_sympy(a):
    # the reduced row echelon form is the rows an Echelon keeps
    ncols = _ncols(a)
    expect, expect_pivots = _sym(a, ncols).rref()
    pivots, rows = _echelon_rows(a, ncols)
    assert rank(a) == _sym(a, ncols).rank() == len(expect_pivots)
    assert pivots == list(expect_pivots)
    assert rows == [[_frac(x) for x in expect.row(i)] for i in range(len(pivots))]


@PROPERTY
@given(matrices())
def test_nullspace_matches_sympy_span(a):
    # the reduced echelon basis of the kernel, unique for the subspace: the
    # rows of sympy's RREF of any kernel basis, with 0 and 1 entries ints
    ncols = _ncols(a)
    sparse_basis = linalg.nullspace(list(map(linalg.sparse, a)), ncols)
    basis = [_dense(v, ncols) for v in sparse_basis]
    expect = [list(v) for v in _sym(a, ncols).nullspace()]
    assert len(basis) == len(expect)
    for v in basis:
        assert all(x == 0 for x in mat_vec(a, v))
    if basis:
        both = [[_frac(x) for x in v] for v in expect] + basis
        assert _sym(both, ncols).rank() == len(basis)
        rref, _ = sympy.Matrix(expect).rref()
        assert basis == [[_frac(x) for x in rref.row(i)] for i in range(len(basis))]
    assert all(x != 0 for v in sparse_basis for x in v.values())
    assert all(type(x) is int for v in sparse_basis for x in v.values() if x.denominator == 1)


@PROPERTY
@given(matrices(square=True))
def test_det_and_inverse_match_sympy(a):
    n = len(a)
    m = _sym(a, n)
    d = linalg.det(a)
    assert d == _frac(m.det())
    if d == 0:
        with pytest.raises(ValueError):
            inverse(a)
    else:
        expect = m.inv()
        assert inverse(a) == [[_frac(x) for x in expect.row(i)] for i in range(n)]


@PROPERTY
@given(matrices(square=True, min_rows=2), st.data())
def test_det_changes_sign_under_row_swaps(a, data):
    i, j = data.draw(st.permutations(range(len(a))))[:2]
    swapped = list(a)
    swapped[i], swapped[j] = a[j], a[i]
    assert linalg.det(swapped) == -linalg.det(a) == -_frac(_sym(a, len(a)).det())


@PROPERTY
@given(matrices(min_rows=1), st.data())
def test_echelon_contains_matches_sympy_rank(a, data):
    ncols = len(a[0])
    ech = linalg.Echelon(ncols)
    for row in a:
        ech.add(linalg.sparse(row))
    vec = data.draw(st.one_of(
        st.lists(ENTRIES, min_size=ncols, max_size=ncols),
        st.sampled_from(a).map(lambda row: [2 * x for x in row]),
    ))
    inside = _sym(a + [vec], ncols).rank() == _sym(a, ncols).rank()
    assert (not ech.reduce(linalg.sparse(vec))) == inside
    assert ech.pivots == list(_sym(a, ncols).rref()[1])


# nonzero values of three kinds: ints, integral Fractions and proper ones
MIXED = st.one_of(st.integers(-6, 6), st.integers(-6, 6).map(Fraction),
                  st.fractions(min_value=-6, max_value=6, max_denominator=4)).filter(bool)


def _int_exactly_when_integral(values):
    return all(type(x) is int if x.denominator == 1 else type(x) is Fraction for x in values)


@PROPERTY
@given(st.data())
def test_echelon_values_are_ints_exactly_when_integral(data):
    ncols = data.draw(st.integers(1, 6))
    vectors = st.dictionaries(st.integers(0, ncols - 1), MIXED, max_size=ncols)
    ech = linalg.Echelon(ncols)
    for vec in data.draw(st.lists(vectors, min_size=1, max_size=7)):
        ech.add(vec)
        assert _int_exactly_when_integral(x for row in ech._rows.values() for x in row.values())
        assert _int_exactly_when_integral(x for _, row in ech.rows for x in row.values())
        for probe in (vec, data.draw(vectors)):
            assert _int_exactly_when_integral(ech.reduce(probe).values())


def test_det_is_an_int_exactly_when_integral():
    for a, value in (([[1, 0], [0, 1]], 1), ([[2, 1], [1, 1]], 1), ([[1, 2], [2, 4]], 0),
                     ([[Fraction(1, 2)]], Fraction(1, 2)),
                     ([[Fraction(1, 2), 0], [0, Fraction(2)]], 1)):
        det = linalg.det(a)
        assert det == value and _int_exactly_when_integral([det])


SPARSE = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), ENTRIES)
NONZERO = st.builds(Fraction, st.sampled_from([p for p in range(-6, 7) if p]), st.integers(1, 4))


@pytest.mark.parametrize("kind", ("random", "integral", "low-rank", "zero-diagonal",
                                  "sheared"))
@PROPERTY
@given(data=st.data())
def test_congruence_diagonalize_matches_det_and_the_dense_oracle(kind, data):
    # D: a zero exactly when det is 0, and prod D is det, on random forms, on
    # int forms, on forms singular by construction (B^T diag B of rank below
    # n), and on zero-diagonal forms, which reach the pair-add repair and the
    # zero-block stop.  No D entry and no kept value is a float, and each is
    # an int exactly when it is integral, on int forms too, where a pivot
    # factor divides one int by another; no kept row holds a zero.  On every
    # nondegenerate form, each column of the Gram's P equals the dense
    # oracle's, and is all Fractions.  A swap or a pair-add at step k must
    # act on the rows before k too.  The sheared forms Z + d a a^T, with a[0] = 1 and
    # Z zero in its first row and column and at (1, 1), reach one of them at
    # k = 1, where Z is the Schur complement and row 0, d a^T, still reaches
    # every column: the repair if Z's diagonal is zero, else the swap
    n = data.draw(st.integers(3 if kind == "sheared" else 1, 7))
    if kind == "low-rank":
        r = data.draw(st.integers(0, n - 1))
        b = [[data.draw(ENTRIES) for _ in range(n)] for _ in range(r)]
        d = [data.draw(ENTRIES) for _ in range(r)]
        gram = [[sum((b[k][i] * d[k] * b[k][j] for k in range(r)), Fraction(0))
                 for j in range(n)] for i in range(n)]
    elif kind == "sheared":
        repair = data.draw(st.booleans())
        lower = [[Fraction(0) if j == 0 or i == j and (i == 1 or repair)
                  else data.draw(NONZERO if i == j else ENTRIES) for j in range(i + 1)]
                 for i in range(n)]
        d = data.draw(NONZERO)
        a = [Fraction(1)] + [data.draw(NONZERO) for _ in range(n - 1)]
        gram = [[lower[max(i, j)][min(i, j)] + d * a[i] * a[j] for j in range(n)]
                for i in range(n)]
    elif kind == "integral":
        lower = [[data.draw(st.one_of(st.just(0), st.integers(-6, 6))) for j in range(i + 1)]
                 for i in range(n)]
        gram = [[lower[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
    else:
        lower = [[Fraction(0) if kind == "zero-diagonal" and i == j else data.draw(SPARSE)
                  for j in range(i + 1)] for i in range(n)]
        gram = [[lower[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
    rows = list(map(linalg.sparse, gram))
    diag, _ = linalg.congruence_diagonalize(rows)
    det = linalg.det(gram)
    assert (0 in diag) == (det == 0)
    assert prod(diag, start=Fraction(1)) == det
    assert kind != "low-rank" or det == 0
    kept = [x for row in rows for x in row.values()]
    assert 0 not in kept
    assert _int_exactly_when_integral(diag + kept)
    if det != 0:
        checked = linalg.Gram(gram)
        assert list(checked.diagonal) == diag
        columns = [checked.column(c) for c in range(n)]
        assert columns == dense_congruence_diagonalize(gram)[0]
        assert all(type(x) is Fraction for column in columns for x in column)


def test_congruence_keeps_no_cancelled_entry():
    # an int form whose elimination cancels entries, swaps a pivot into place
    # at k = 1 and repairs the zero-diagonal block at k = 3: every cancelled
    # entry leaves its row, the swap and the repair included, and the Gram
    # keeps the same rows as (column, value) pairs
    gram = [[1, 1, 1, 0, 0], [1, 1, 2, 0, 0], [1, 2, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 1, 0]]
    rows = list(map(linalg.sparse, gram))
    diag, moves = linalg.congruence_diagonalize(rows)
    assert diag == [1, -1, 1, 2, Fraction(-1, 2)]
    assert moves == [("swap", 1, 2), ("add", 3, 4), ("swap", 3, 3)]
    assert rows == [{0: 1, 1: 1, 2: 1}, {1: -1, 2: 1}, {2: 1}, {3: 2, 4: 1},
                    {4: Fraction(-1, 2)}]
    assert _int_exactly_when_integral(x for row in rows for x in row.values())
    checked = linalg.Gram(gram)
    assert checked._eliminated == tuple(tuple(row.items()) for row in rows)
    assert ([checked.column(c) for c in range(5)], list(checked.diagonal)) == (
        dense_congruence_diagonalize(gram))


@PROPERTY
@given(st.data())
def test_mat_vec_matches_the_dense_product(data):
    nrows, ncols = data.draw(st.integers(0, 8)), data.draw(st.integers(1, 8))
    a = data.draw(st.lists(st.lists(SPARSE, min_size=ncols, max_size=ncols),
                           min_size=nrows, max_size=nrows))
    for i in data.draw(st.sets(st.integers(0, nrows - 1))) if nrows else ():
        a[i] = [Fraction(0)] * ncols
    v = data.draw(st.lists(SPARSE, min_size=ncols, max_size=ncols))
    assert mat_vec(a, v) == [row[0] for row in mat_mul(a, [[y] for y in v])]
