import random
from fractions import Fraction

import pytest

from hilbk3 import linalg
from hilbk3.bb_lattice import k3_lattice, q_norm, restriction_functional
from hilbk3.cohomology import SurfaceBetti, hilbert_stratum_ledger
from hilbk3.frobenius import (
    MAX_DIM_V,
    MAX_N,
    MAX_PATTERN_DIM_V,
    MAX_PATTERN_N,
    ConstructionError,
    FrobeniusAlgebra,
    algebra_dimension_pattern,
    build_algebra,
    harmonic_basis,
    laplacian_matrix,
    monomial_basis,
)

from oracles import (
    FROBENIUS_CELLS,
    all_degree_closure,
    all_degree_pairing_nondegenerate,
    delta_class,
    dense_normal_forms,
    find_isotropic,
    frobenius_grams,
    ideal_normal_forms,
    inverse,
    mat_add,
    mat_mul,
    mat_scale,
    mat_vec,
    random_isotropic,
    transpose,
    triple_associativity,
)

U = ((0, 1), (1, 0))
U2 = ((0, 1, 0), (1, 0, 0), (0, 0, 2))
U4 = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))


def quadric_element(gram, dim):
    """The inverse form as an element of Sym^2 V (the invariant quadric)."""
    inv = inverse([list(r) for r in gram])
    basis = monomial_basis(dim, 2)
    out = [Fraction(0)] * len(basis)
    index = {m: k for k, m in enumerate(basis)}
    for i in range(dim):
        for j in range(dim):
            e = [0] * dim
            e[i] += 1
            e[j] += 1
            out[index[tuple(e)]] += inv[i][j]
    return out


def sym_power_matrix(g, dim, degree):
    """Matrix of Sym^degree of a linear map g on V (columns = image monomials)."""
    basis = monomial_basis(dim, degree)
    index = {m: k for k, m in enumerate(basis)}
    cols = []
    for mono in basis:
        poly = {(0,) * dim: Fraction(1)}
        for var, count in enumerate(mono):
            for _ in range(count):
                grown = {}
                for m, c in poly.items():
                    for i in range(dim):
                        gi = Fraction(g[i][var])
                        if gi == 0:
                            continue
                        e = list(m)
                        e[i] += 1
                        key = tuple(e)
                        grown[key] = grown.get(key, Fraction(0)) + c * gi
                poly = grown
        col = [Fraction(0)] * len(basis)
        for m, c in poly.items():
            col[index[m]] = c
        cols.append(col)
    return [[cols[s][r] for s in range(len(basis))] for r in range(len(basis))]


def random_so_element(gram, rng):
    """Random rational element of SO(q) by the Cayley transform.

    S = G^{-1} A with A skew gives a q-skew operator; (I - S)^{-1} (I + S)
    is then a special orthogonal substitution (retry if I - S is singular).
    """
    dim = len(gram)
    ginv = inverse([list(map(Fraction, r)) for r in gram])
    for _ in range(64):
        a = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                x = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                a[i][j] = x
                a[j][i] = -x
        s = mat_mul(ginv, a)
        i_minus = mat_add(linalg.identity(dim), mat_scale(s, -1))
        try:
            inv = inverse(i_minus)
        except ValueError:
            continue
        return mat_mul(inv, mat_add(linalg.identity(dim), s))
    raise RuntimeError("failed to draw an orthogonal substitution")


def test_monomial_basis_counts():
    from math import comb
    for dim in (1, 2, 3, 4):
        for deg in range(5):
            basis = monomial_basis(dim, deg)
            assert len(basis) == comb(dim + deg - 1, deg)
            assert all(sum(m) == deg for m in basis)
            assert len(set(basis)) == len(basis)


def test_laplacian_on_isotropic_power():
    # x^d is harmonic when x is isotropic: Delta picks up B(x, x) = 0
    for d in range(2, 5):
        basis = monomial_basis(2, d)
        vec = [Fraction(1) if m == (d, 0) else Fraction(0) for m in basis]
        assert all(x == 0 for x in mat_vec(laplacian_matrix(U, d), vec))


def test_quadric_is_laplacian_eigenvector():
    for gram in (U, U2, U4):
        dim = len(gram)
        q = quadric_element(gram, dim)
        image = mat_vec(laplacian_matrix(gram, 2), q)
        assert image == [Fraction(dim)]


def test_harmonic_dimensions():
    from math import comb
    for gram in (U, U2):
        dim = len(gram)
        for d in range(2, 5):
            expect = comb(dim + d - 1, d) - comb(dim + d - 3, d - 2)
            assert len(harmonic_basis(gram, d)) == expect
    # low degrees: the Laplacian has no rows, so everything is harmonic
    for d in (0, 1):
        assert laplacian_matrix(U, d) == []
        assert harmonic_basis(U, d) == linalg.identity(len(monomial_basis(2, d)))


def test_dimension_pattern():
    assert algebra_dimension_pattern(2, 2) == (1, 2, 3, 2, 1)
    assert algebra_dimension_pattern(4, 3) == (1, 4, 10, 20, 10, 4, 1)
    assert algebra_dimension_pattern(23, 2) == (1, 23, 276, 23, 1)
    for dim_v in range(1, 8):
        for n in range(1, 5):
            pattern = algebra_dimension_pattern(dim_v, n)
            assert pattern[0] == 1 and pattern[-1] == 1
            assert pattern == pattern[::-1]


def test_dimension_pattern_budget():
    at_cap = algebra_dimension_pattern(MAX_PATTERN_DIM_V, MAX_PATTERN_N)
    assert len(at_cap) == 2 * MAX_PATTERN_N + 1 and at_cap == at_cap[::-1]
    for dim_v, n in ((MAX_PATTERN_DIM_V + 1, 1), (1, MAX_PATTERN_N + 1)):
        with pytest.raises(ValueError):
            algebra_dimension_pattern(dim_v, n)


def test_pattern_matches_hilbert_even_betti():
    even = hilbert_stratum_ledger(SurfaceBetti.k3(), 2).total().betti[::2]
    assert algebra_dimension_pattern(23, 2) == even


def test_algebra_dimensions_and_checks():
    for gram, n in ((U, 1), (U, 2), (U2, 2), (U4, 2), (U4, 3)):
        alg = build_algebra(gram, n)
        dims = tuple(alg.dim(i) for i in range(2 * n + 1))
        assert dims == algebra_dimension_pattern(len(gram), n)
        assert alg.check_pairing_nondegenerate()
        assert alg.check_associative()


def test_normal_form_table_matches_sympy_rref():
    diagonal = ((1, 0, 0), (0, 2, 0), (0, 0, -3))
    for gram, n in ((U, 2), (U2, 2), (diagonal, 3), (U4, 2)):
        alg = build_algebra(gram, n)
        for d in range(n + 1, 2 * n + 1):
            table = {mono: {alg._quotient_monomials[d][t]: x for t, x in form}
                     for mono, form in alg._forms[d].items()}
            assert table == ideal_normal_forms(gram, n, d), (gram, n, d)


@pytest.mark.parametrize(
    "dim, n, kind",
    [(dim, n, kind) for dim, n in FROBENIUS_CELLS for kind in ("identity", "diagonal", "rational")]
    + [(5, 4, "identity"), (6, 3, "identity")],
    ids=lambda arg: str(arg))
def test_sparse_build_matches_the_dense_oracle(dim, n, kind):
    # the same table, tuple order included, as dense generator rows and every
    # dense unit vector reduced
    gram = frobenius_grams(dim)[kind]
    alg = build_algebra(gram, n)
    quotient_monomials, forms = dense_normal_forms(gram, n)
    assert alg._quotient_monomials == quotient_monomials
    assert alg._forms == forms


@pytest.mark.parametrize("cell", FROBENIUS_CELLS[:FROBENIUS_CELLS.index((5, 3)) + 1],
                         ids=lambda cell: "dimv%d-n%d" % cell)
def test_ideal_closure_agrees_with_the_triple_oracle(cell):
    dim, n = cell
    for kind, gram in frobenius_grams(dim).items():
        alg = build_algebra(gram, n)
        assert alg.check_associative() is triple_associativity(alg) is True, kind


def test_corrupted_table_entries_are_caught():
    # raising any one entry of the table breaks associativity, for the
    # ideal-closure check and the triple oracle alike; in degrees <= n the
    # entry is a basis monomial's own form; emptying the top degree kills
    # the pairing
    alg = build_algebra(U2, 2)
    corrupted = own_forms = 0
    for d in (1, 2, 3, 4):
        for mono, form in list(alg._forms[d].items()):
            for e, (t, x) in enumerate(form):
                alg._forms[d][mono] = form[:e] + ((t, x + 1),) + form[e + 1:]
                assert not alg.check_associative(), (d, mono, e)
                assert not triple_associativity(alg), (d, mono, e)
                alg._forms[d][mono] = form
                if d > alg.n:
                    corrupted += 1
                else:
                    own_forms += 1
    assert corrupted == 9
    assert own_forms == 3 + 6
    assert alg.check_associative() and alg.check_pairing_nondegenerate()
    # doubling the whole top degree keeps the kernel closed under V, but the
    # table stops being a projection, which only the closure check's first
    # condition sees: 1 * (bc) = 4bc against (1 * b)c = 2bc
    top = alg._forms[4]
    alg._forms[4] = {mono: tuple((t, 2 * x) for t, x in form) for mono, form in top.items()}
    assert not alg.check_associative() and not triple_associativity(alg)
    alg._forms[4] = top
    alg._forms[4] = {mono: () for mono in alg._forms[4]}
    assert not alg.check_pairing_nondegenerate()


@pytest.mark.parametrize("cell", FROBENIUS_CELLS, ids=lambda cell: "dimv%d-n%d" % cell)
def test_shortened_checks_agree_with_the_all_degree_oracles(cell):
    # the pairing check reads degrees 0..n and the closure check degrees
    # n + 1..2n - 1; the oracles read every degree
    dim, n = cell
    for kind, gram in frobenius_grams(dim).items():
        alg = build_algebra(gram, n)
        assert alg.check_pairing_nondegenerate() is all_degree_pairing_nondegenerate(alg) is True
        assert alg.check_associative() is all_degree_closure(alg) is True, kind
        for i in range(2 * n + 1):
            assert alg.pairing_matrix(2 * n - i) == transpose(alg.pairing_matrix(i)), (kind, i)


def _verdicts(alg):
    return (alg.check_pairing_nondegenerate(), alg.check_associative())


def _oracle_verdicts(alg):
    return (all_degree_pairing_nondegenerate(alg), all_degree_closure(alg))


def test_corrupted_tables_get_the_oracle_verdicts():
    # the tables of test_corrupted_table_entries_are_caught, then each
    # nonzero top-degree form zeroed on its own, which breaks a check
    alg = build_algebra(U2, 2)
    for d in (1, 2, 3, 4):
        for mono, form in list(alg._forms[d].items()):
            for e, (t, x) in enumerate(form):
                alg._forms[d][mono] = form[:e] + ((t, x + 1),) + form[e + 1:]
                assert _verdicts(alg) == _oracle_verdicts(alg), (d, mono, e)
                alg._forms[d][mono] = form
    top = alg._forms[4]
    for corrupt in ({mono: tuple((t, 2 * x) for t, x in form) for mono, form in top.items()},
                    {mono: () for mono in top}):
        alg._forms[4] = corrupt
        assert _verdicts(alg) == _oracle_verdicts(alg)
        alg._forms[4] = top
    for gram, n in ((U2, 2), (frobenius_grams(3)["rational"], 3)):
        alg = build_algebra(gram, n)
        top = alg._forms[2 * n]
        for mono in [mono for mono, form in top.items() if form]:
            form, top[mono] = top[mono], ()
            assert _verdicts(alg) == _oracle_verdicts(alg) != (True, True), (n, mono)
            top[mono] = form


def test_algebra_validation():
    with pytest.raises(ValueError):
        FrobeniusAlgebra(((1, 2), (3, 4)), 2)  # not symmetric
    with pytest.raises(ValueError):
        FrobeniusAlgebra(((1, 1), (1, 1)), 2)  # degenerate
    with pytest.raises(ValueError):
        FrobeniusAlgebra(U, 0)
    with pytest.raises(ValueError):
        FrobeniusAlgebra(U, 5)  # over the table cap
    assert issubclass(ConstructionError, RuntimeError)


def test_argument_checks_run_before_the_determinant(monkeypatch):
    # n and the caps are checked first, so a large gram is rejected for them
    # without its determinant
    def det(_):
        raise RuntimeError("determinant taken before the argument checks")

    monkeypatch.setattr(linalg, "det", det)
    with pytest.raises(ValueError, match="n must be a positive integer"):
        FrobeniusAlgebra(U, 0)
    big = frobenius_grams(MAX_DIM_V + 1)["rational"]
    with pytest.raises(ValueError, match="full tables capped"):
        FrobeniusAlgebra(big, 2)
    with pytest.raises(ValueError, match="full tables capped"):
        FrobeniusAlgebra(U, MAX_N + 1)


def test_unit_and_commutativity():
    alg = build_algebra(U2, 2)
    rng = random.Random(3)
    one = [Fraction(1)]
    for i in range(5):
        for vec in linalg.identity(alg.dim(i)):
            assert alg.multiply(0, one, i, vec) == vec
    for i in range(3):
        for j in range(3 - i):
            a = [Fraction(rng.randint(-3, 3)) for _ in range(alg.dim(i))]
            b = [Fraction(rng.randint(-3, 3)) for _ in range(alg.dim(j))]
            assert alg.multiply(i, a, j, b) == alg.multiply(j, b, i, a)


def test_multiplication_truncates_past_top():
    alg = build_algebra(U, 1)
    top = linalg.identity(alg.dim(2))[0]
    assert alg.multiply(2, top, 2, top) == []


def test_pairing_matrix_reads_the_top_coordinate():
    # each entry is the one coordinate of a basis product in A_{4n}, and on
    # an integral table it stays an int
    alg = build_algebra(U, 2)
    assert alg.dim(4) == 1
    for i in range(5):
        units = linalg.identity(alg.dim(4 - i))
        m = alg.pairing_matrix(i)
        assert m == [[alg.multiply(i, a, 4 - i, b)[0] for b in units]
                     for a in linalg.identity(alg.dim(i))]
        assert all(type(x) is int for row in m for x in row)


def test_power_of_linear_isotropic_vanishing():
    for gram, n in ((U, 2), (U2, 2), (U4, 3)):
        alg = build_algebra(gram, n)
        rng = random.Random(11)
        for _ in range(5):
            alpha = random_isotropic(gram, rng)
            # powers survive exactly through degree n
            assert any(x != 0 for x in alg.power_of_linear(alpha, n))
            assert all(x == 0 for x in alg.power_of_linear(alpha, n + 1))


def test_power_of_linear_anisotropic_top():
    alg = build_algebra(U2, 2)
    alpha = [0, 0, 1]  # q(alpha) = 2
    top = alg.power_of_linear(alpha, 4)
    assert len(top) == 1 and top[0] != 0


def test_sym_power_matrix_functorial():
    rng = random.Random(13)
    g = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
    h = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
    for d in (2, 3):
        lhs = sym_power_matrix(mat_mul(g, h), 3, d)
        rhs = mat_mul(sym_power_matrix(g, 3, d), sym_power_matrix(h, 3, d))
        assert lhs == rhs
    assert sym_power_matrix(linalg.identity(3), 3, 2) == linalg.identity(6)


def test_so_elements_preserve_form_and_products():
    gram = U2
    alg = build_algebra(gram, 2)
    rng = random.Random(17)
    g = random_so_element(gram, rng)
    gm = [list(map(Fraction, row)) for row in gram]
    assert mat_mul(transpose(g), mat_mul(gm, g)) == gm
    assert linalg.det(g) == 1

    def transform(i, coords):
        basis = monomial_basis(3, i)
        lifted = [Fraction(0)] * len(basis)
        for c, m in zip(coords, alg._quotient_monomials[i]):
            lifted[basis.index(m)] = Fraction(c)
        moved = mat_vec(sym_power_matrix(g, 3, i), lifted)
        return alg.reduce(i, moved)

    for i in range(3):
        for j in range(3 - i):
            a = [Fraction(rng.randint(-2, 2)) for _ in range(alg.dim(i))]
            b = [Fraction(rng.randint(-2, 2)) for _ in range(alg.dim(j))]
            lhs = transform(i + j, alg.multiply(i, a, j, b))
            rhs = alg.multiply(i, transform(i, a), j, transform(j, b))
            assert lhs == rhs


def test_restriction_functional_structure():
    lat = k3_lattice(3, U4)
    rows = restriction_functional(lat)
    full = lat.full_gram
    d = lat.dim_v
    # a plain symmetric matrix of size total_dim
    assert linalg.symmetric_rows(rows) == rows and len(rows) == lat.total_dim
    for i in range(d):
        for j in range(d):
            assert rows[i][j] == full[i][j]
        assert rows[i][d] == 0 and rows[d][i] == 0
    # the delta square cancels: -2(n-1) + 2(n-1) = 0
    assert rows[d][d] == 0
    delta = delta_class(lat)
    assert q_norm(lat, delta) == -4
    with pytest.raises(ValueError):
        k3_lattice(1, U4)  # no exceptional class, so no lattice


def test_find_isotropic():
    assert find_isotropic(((1, 0), (0, 1))) is None
    v = find_isotropic(U)
    assert v is not None and any(x != 0 for x in v)
    assert sum(v[i] * U[i][j] * v[j] for i in range(2) for j in range(2)) == 0
    with pytest.raises(ValueError):
        random_isotropic(((1, 0), (0, 1)), random.Random(0))


def test_random_isotropic_is_isotropic_and_nonzero():
    rng = random.Random(19)
    for gram in (U, U2, U4):
        dim = len(gram)
        for _ in range(10):
            v = random_isotropic(gram, rng)
            assert any(x != 0 for x in v)
            q = sum(v[i] * gram[i][j] * v[j] for i in range(dim) for j in range(dim))
            assert q == 0
