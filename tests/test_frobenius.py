import json
import random
from fractions import Fraction

import pytest

from hilbk3 import bb_lattice, cli, frobenius, linalg
from hilbk3.bb_lattice import k3_lattice, q_norm
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
    expanded_power,
    find_isotropic,
    frobenius_grams,
    full_gram,
    ideal_normal_forms,
    inverse,
    laplacian_fujiki,
    laplacian_pairing,
    mat_add,
    mat_mul,
    mat_scale,
    mat_vec,
    random_isotropic,
    symmetric_fraction_rows,
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
    with pytest.raises(ValueError, match="^dim must be >= 1$"):
        monomial_basis(0, 1)


def dense_laplacian(gram, degree, power):
    """The sparse rows of `laplacian_matrix` written out over the monomials
    of Sym^degree."""
    ncols = len(monomial_basis(len(gram), degree))
    return [[row.get(c, 0) for c in range(ncols)] for row in laplacian_matrix(gram, degree, power)]


def test_laplacian_on_isotropic_power():
    # x^d is harmonic when x is isotropic: Delta picks up B(x, x) = 0
    for d in range(2, 5):
        basis = monomial_basis(2, d)
        vec = [Fraction(1) if m == (d, 0) else Fraction(0) for m in basis]
        assert all(x == 0 for x in mat_vec(dense_laplacian(U, d, 1), vec))
    # on an integral gram every entry is an int: e_i (e_i - 1) / 2 is one;
    # the sparse rows hold no zero
    for gram in (U, U2, U4):
        for d in range(2, 6):
            m = laplacian_matrix(gram, d, 1)
            assert all(type(x) is int and x for row in m for x in row.values()), (gram, d)


def test_quadric_is_laplacian_eigenvector():
    for gram in (U, U2, U4):
        dim = len(gram)
        q = quadric_element(gram, dim)
        image = mat_vec(dense_laplacian(gram, 2, 1), q)
        assert image == [Fraction(dim)]


def _laplacian_test_grams():
    yield from (U, U2, U4)
    for dim in (2, 3, 4):
        yield from frobenius_grams(dim).values()


def test_harmonic_dimensions():
    # Delta^k maps Sym^d onto Sym^(d-2k) for a nondegenerate form, so its
    # kernel has the difference of the two dimensions
    for gram in _laplacian_test_grams():
        dim = len(gram)
        for d in range(7):
            for k in range(1, d // 2 + 1):
                expect = len(monomial_basis(dim, d)) - len(monomial_basis(dim, d - 2 * k))
                assert len(harmonic_basis(gram, d, k)) == expect, (gram, d, k)
    # low degrees: the Laplacian has no rows, so everything is harmonic
    for d in (0, 1):
        assert laplacian_matrix(U, d, 1) == []
        assert harmonic_basis(U, d, 1) == [{k: 1} for k in range(len(monomial_basis(2, d)))]


def test_laplacian_power_is_the_composite():
    # Delta^k is Delta applied k times; the form is read as the gram check's
    # integral rows, so every entry of it is an int, p/q grams included
    for gram in _laplacian_test_grams():
        for d in range(7):
            composite = None
            for k in range(1, d // 2 + 1):
                step = dense_laplacian(gram, d - 2 * k + 2, 1)
                composite = step if composite is None else mat_mul(step, composite)
                assert dense_laplacian(gram, d, k) == composite, (gram, d, k)
                power = laplacian_matrix(gram, d, k)
                assert all(type(x) is int and x for row in power for x in row.values()), (
                    gram, d, k)


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


def test_pattern_is_bounded_by_hilbert_even_betti():
    # the pattern is that of the subalgebra of H^*(Hilb^n(K3)) generated by
    # H^2 (Verbitsky), so degree by degree it is at most the even Betti
    # number, and it is all of the cohomology only at n = 2
    for n in range(2, 41):
        even = hilbert_stratum_ledger(SurfaceBetti.k3(), n).total().betti[::2]
        pattern = algebra_dimension_pattern(23, n)
        assert len(pattern) == len(even)
        assert all(a <= b for a, b in zip(pattern, even)), n
        assert (pattern == even) == (n == 2), n


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


def test_dimensions_that_are_not_palindromic_fail_the_pairing_check(monkeypatch):
    # A_0 listed twice against the one monomial of A_4: the dimensions are
    # compared before any determinant is taken
    alg = build_algebra(U2, 2)
    assert alg.check_pairing_nondegenerate()
    monkeypatch.setattr(linalg, "det", lambda m: pytest.fail("a determinant was taken"))
    alg._quotient_monomials[0] *= 2
    assert [alg.dim(i) for i in range(5)] == [2, 3, 6, 3, 1]
    assert alg.check_pairing_nondegenerate() is False


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


def _plus(u, v):
    """u + v on sparse vectors, zeros dropped."""
    return {j: x for j in sorted(u.keys() | v.keys()) if (x := u.get(j, 0) + v.get(j, 0))}


# kernel bases that break what _build reads off `harmonic_basis`: each
# vector 1 at its least column and 0 at every other vector's least column
BAD_KERNEL_BASES = {
    "v0-doubled": lambda b: [{j: 2 * x for j, x in b[0].items()}] + b[1:],
    "v0-plus-v1-for-v0": lambda b: [_plus(b[0], b[1])] + b[1:],
    # two vectors with one least column: the dimension check
    "v1-plus-v0-for-v1": lambda b: [b[0], _plus(b[1], b[0])] + b[2:],
}


def _spoil_kernel(monkeypatch, spoil):
    real = frobenius.harmonic_basis
    monkeypatch.setattr(frobenius, "harmonic_basis",
                        lambda gram, degree, power: spoil(real(gram, degree, power)))


@pytest.mark.parametrize("spoil", BAD_KERNEL_BASES.values(), ids=BAD_KERNEL_BASES)
def test_a_kernel_basis_off_the_contract_is_a_construction_error(monkeypatch, spoil):
    # not a KeyError and not a wrong table
    _spoil_kernel(monkeypatch, spoil)
    with pytest.raises(ConstructionError):
        build_algebra(U2, 2)


def test_a_kernel_basis_off_the_contract_is_an_internal_failure(monkeypatch, capsys):
    _spoil_kernel(monkeypatch, BAD_KERNEL_BASES["v0-plus-v1-for-v0"])
    code = cli.main(["frobenius", "--dimv", "2", "--n", "2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert (code, payload["status"]) == (3, "internal-error")
    assert payload["error"]["type"] == "ConstructionError"


def test_the_k3_h2_generates_the_even_cohomology_at_n_2(monkeypatch):
    # the paper's own H^2, the K3 lattice plus delta, above the table cap
    monkeypatch.setattr(frobenius, "MAX_DIM_V", 23)
    alg = build_algebra(full_gram(k3_lattice(2)), 2)
    dims = tuple(alg.dim(i) for i in range(5))
    even = hilbert_stratum_ledger(SurfaceBetti.k3(), 2).total().betti[::2]
    assert dims == (1, 23, 276, 23, 1) == even
    assert alg.check_associative()
    assert alg.check_pairing_nondegenerate()


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


@pytest.mark.parametrize("cell", FROBENIUS_CELLS, ids=lambda cell: "dimv%d-n%d" % cell)
def test_pairing_matrix_reads_the_top_coordinate(cell):
    # each entry read off the table is the one coordinate in A_{4n} of the
    # product of two basis unit vectors, and an int wherever it is integral
    dim, n = cell
    for kind, gram in frobenius_grams(dim).items():
        alg = build_algebra(gram, n)
        assert alg.dim(2 * n) == 1
        for i in range(2 * n + 1):
            units = linalg.identity(alg.dim(2 * n - i))
            m = alg.pairing_matrix(i)
            assert m == [[alg.multiply(i, a, 2 * n - i, b)[0] for b in units]
                         for a in linalg.identity(alg.dim(i))], (kind, i)
            assert all(type(x) is int or x.denominator > 1 for row in m for x in row), (kind, i)


LAPLACIAN_CASES = ([(name, gram, n) for name, gram in (("U", U), ("U2", U2), ("U4", U4))
                    for n in range(1, 5)]
                   + [("%s-dimv%d" % (kind, dim), gram, n) for dim, n in FROBENIUS_CELLS
                      for kind, gram in frobenius_grams(dim).items()])


@pytest.mark.parametrize("name, gram, n", LAPLACIAN_CASES,
                         ids=["%s-n%d" % (name, n) for name, _, n in LAPLACIAN_CASES])
def test_pairing_and_fujiki_relation_by_the_laplacian_oracle(name, gram, n):
    # no elimination: Delta^n, differentiated out in the oracle, is the
    # pairing up to the factor Delta^n(q0), and gives the top coordinate
    # of alpha^(2n) as (2n)!/2^n q(alpha)^n
    alg = build_algebra(gram, n)
    assert laplacian_pairing(alg)
    assert laplacian_fujiki(alg, random.Random(len(gram) * 10 + n))


def _check_isotropic_powers(gram, n, rng, draws):
    alg = build_algebra(gram, n)
    for _ in range(draws):
        alpha = random_isotropic(gram, rng)
        # powers survive exactly through degree n
        assert any(x != 0 for x in alg.power_of_linear(alpha, n))
        assert all(x == 0 for x in alg.power_of_linear(alpha, n + 1))
        for p in range(2 * n + 2):
            assert alg.power_of_linear(alpha, p) == expanded_power(alg, alpha, p), p


def test_power_of_linear_isotropic_vanishing():
    for gram, n in ((U, 2), (U2, 2), (U4, 3)):
        _check_isotropic_powers(gram, n, random.Random(11), 5)


@pytest.mark.parametrize(
    "dim, n, kind",
    [(dim, n, kind) for dim, n in FROBENIUS_CELLS for kind, gram in frobenius_grams(dim).items()
     if find_isotropic(gram) is not None],
    ids=lambda v: str(v))
def test_power_of_linear_isotropic_vanishing_on_the_benchmark_grams(dim, n, kind):
    _check_isotropic_powers(frobenius_grams(dim)[kind], n, random.Random(dim * 10 + n), 2)


@pytest.mark.parametrize("cell", FROBENIUS_CELLS, ids=lambda cell: "dimv%d-n%d" % cell)
def test_powers_of_linear_classes_match_the_expanded_power(cell):
    # repeated products against the expansion in Sym^p, through degree
    # 2n + 1 where both are empty
    dim, n = cell
    rng = random.Random(dim * 10 + n)
    for kind, gram in frobenius_grams(dim).items():
        alg = build_algebra(gram, n)
        for _ in range(2):
            alpha = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]
            for p in range(2 * n + 2):
                assert alg.power_of_linear(alpha, p) == expanded_power(alg, alpha, p), (kind, p)


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


def test_restriction_functional_structure(monkeypatch):
    # the view of f that h4_obstruction hands the su(2) check, as Fractions
    lat = k3_lattice(3)
    seen = []
    real = bb_lattice.is_su2_invariant
    monkeypatch.setattr(bb_lattice, "is_su2_invariant",
                        lambda rows, triple: seen.append(rows) or real(rows, triple))
    assert bb_lattice.h4_obstruction(bb_lattice.random_period_triple(lat, random.Random(3)))
    [view] = seen
    assert all(j < len(view) for row in view for j, _ in row)
    gden = lat.integral[0]
    rows = [[Fraction(dict(row).get(j, 0), gden) for j in range(len(view))] for row in view]
    full = full_gram(lat)
    d = lat.dim_v
    # a plain symmetric matrix of size total_dim
    assert symmetric_fraction_rows(rows, "form") == rows and len(rows) == lat.total_dim
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
    # the support-3 pass reaches the benchmark grams; identity grams are definite
    found = [(kind, dim) for dim in range(2, 7) for kind, gram in frobenius_grams(dim).items()
             if find_isotropic(gram) is not None]
    assert sorted(found) == [("diagonal", d) for d in (4, 5, 6)] + [
        ("rational", d) for d in (3, 4, 5, 6)]
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
