"""Exact linear algebra over the rationals: one sparse row form and one
inner loop for every elimination; no matrix products.

Matrices are lists of rows; entries are Fraction or int (ints are promoted
by arithmetic).  No floats anywhere: kernels, determinants and congruences
are exact.  Every elimination works on sparse {column: value} rows, each
value an int when its denominator is 1 and a Fraction otherwise, and
updates them through `_subtract`, which drops every entry that cancels.
A gram's entries are kept as given: `Gram` refuses any entry that is not an
int or a Fraction and converts none, so a gram of ints makes no Fraction.
`Echelon` holds the row span in reduced echelon form; nullspace takes such
sparse rows and returns the kernel as its reduced echelon basis of sparse
vectors.  `det` is the one routine that takes dense rows: it passes them
through `sparse` once and reads its answer off `Echelon`.  The identity's 0
and 1 entries are ints, and det, like every value an elimination returns,
is an int exactly when it is integral.  `Gram`, the one check of a
gram, reads nondegeneracy off the diagonal D of `congruence_diagonalize`
(det = prod D), the symmetric elimination on the same sparse rows, and
solves columns of P off the rows it eliminated.  It also keeps its entries
scaled to ints, once per gram, by `integral_rows`.  `numerators` is the
one rule that scales rationals to a common denominator: a vector's, and
through `integral_rows` a matrix's, as sparse int rows.  Every other module
scales through it, and every reader of a gram in ints reads the checked
`Gram`'s `integral` rows.  A checked `Gram` is read-only, like every value
type.  `bb_lattice` imports this module only in its degree-4 functions,
so `certify` at a non-triangular n, which builds no lattice, never loads it.
"""
from fractions import Fraction
from itertools import islice
from math import lcm, prod

Vector = list
Matrix = list


def identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def numerators(x: Vector) -> tuple[list[int], int]:
    """(X, den) with x = X / den, den the lcm of the denominators of x (1
    for an empty or all-integer x): the package's one common-denominator
    rule."""
    den = lcm(*(a.denominator for a in x))
    return [a.numerator * (den // a.denominator) for a in x], den


def integral_rows(m: Matrix) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """(den, rows): `numerators` of m's entries, one den for the whole
    matrix, with rows den * m as sparse (column, int) pairs over the nonzero
    entries."""
    flat, den = numerators([a for row in m for a in row])
    cells = iter(flat)
    return den, tuple(tuple((j, a) for j, a in enumerate(islice(cells, len(row))) if a)
                      for row in m)


def _exact(a):
    """a as an int when its denominator is 1, else a itself."""
    return a if type(a) is int or a.denominator != 1 else a.numerator


def sparse(row: Vector) -> dict:
    """A dense row in the package's sparse row form: {column: entry} over
    its nonzero entries, each an int when its denominator is 1."""
    return {j: _exact(a) for j, a in enumerate(row) if a}


def _subtract(x: dict, f, y: dict) -> None:
    """x -= f * y in place on sparse rows (f != 0); cancelled entries are
    dropped.  The inner loop of every elimination: `Echelon`'s and the
    gram congruence's."""
    for j, b in y.items():
        a = x.get(j, 0) - f * b
        if a:
            # `_exact` written out: this is the elimination's inner loop
            x[j] = a if type(a) is int or a.denominator != 1 else a.numerator
        else:
            del x[j]


class Echelon:
    """Incremental row span kept in reduced echelon form.

    Rows are in the package's one sparse row form, {column: value} dicts
    over nonzero values only (see `sparse`), and are updated by the one
    inner loop, `_subtract`, that `congruence_diagonalize` shares.  A row's
    pivot is its least column, with entry 1 there and 0 at every other
    row's pivot, so a vector r reduces to r - sum_p r[p] * row_p with every
    r[p] read straight from the input.  Every value it stores or returns is
    an int when its denominator is 1 and a Fraction otherwise, so rows that
    stay integral cost int arithmetic.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, dict] = {}  # pivot column -> row

    def add(self, vec: dict) -> tuple[int, int | Fraction] | None:
        """Insert vec into the span: the pivot column and the value there
        of its reduced row, or None if vec was already in the span."""
        r = self.reduce(vec)
        if not r:
            return None
        lead = min(r)
        value = r[lead]
        if value != 1:
            inv = 1 / Fraction(value)
            r = {j: _exact(a * inv) for j, a in r.items()}
        for row in self._rows.values():
            f = row.get(lead)
            if f:
                _subtract(row, f, r)
        self._rows[lead] = r
        return lead, value

    def reduce(self, vec: dict) -> dict:
        """vec minus its component in the span; empty if vec lies in it."""
        r = {j: _exact(a) for j, a in vec.items()}
        # subtracting row p leaves the other pivot columns of r alone, so each
        # r[p] is still the input's value when its turn comes
        for p in [p for p in r if p in self._rows]:
            _subtract(r, r[p], self._rows[p])
        return r

    def contains(self, vec: dict) -> bool:
        # no caller in the package; benchmarks/tracing.py wraps it by name
        return not self.reduce(vec)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

    @property
    def rows(self) -> list[tuple[int, dict]]:
        """(pivot column, sparse row) in pivot order; the rows are copies."""
        return [(p, dict(self._rows[p])) for p in self.pivots]


def nullspace(a: list[dict], ncols: int) -> list[dict]:
    """The reduced echelon basis of the right kernel of the sparse rows a
    over ncols columns, unique for the subspace: sparse vectors in pivot
    order, each 1 at its least column (its pivot) and 0 at every other
    vector's least column.  The Frobenius build reads its normal forms
    straight off that contract.

    a is eliminated with its columns reversed.  A free column f there gives
    the vector with 1 at f and -row[f] at the pivot of each row; mapped
    back to ncols - 1 - f, that 1 comes first, the pivots after it.
    """
    last = ncols - 1
    ech = Echelon(ncols)
    for row in a:
        ech.add({last - j: x for j, x in row.items()})
    rows = ech.rows
    pivots = {p for p, _ in rows}
    return [{last - f: 1, **{last - p: -row[f] for p, row in rows if f in row}}
            for f in range(last, -1, -1) if f not in pivots]


def det(a: Matrix) -> int | Fraction:
    """Sign of the row-to-pivot-column permutation times the pivot values
    that `Echelon.add` returns: an int exactly when it is integral.

    Each row is reduced only against the rows before it, so the reduced rows
    differ from a by a unit lower-triangular factor and are triangular up to
    that permutation of columns.
    """
    ech = Echelon(len(a))
    hits = [ech.add(sparse(row)) for row in a]
    if None in hits:
        return 0
    inversions = sum(p > q for i, (p, _) in enumerate(hits) for q, _ in hits[i + 1:])
    value = _exact(prod(v for _, v in hits))
    return -value if inversions % 2 else value


def congruence_diagonalize(rows: list[dict]) -> tuple[list, list]:
    """Symmetric elimination, in place, of the sparse rows (see `sparse`) of
    a square symmetric matrix G; returns (D, moves), with det G = prod D.

    Whole-row operations clear each pivot's column below it and leave the
    symmetric Schur complement, so no step mirrors a column operation.  The
    pivot swap ("swap", k, i) and the zero-pivot repair ("add", i, j), which
    adds column and row j to column and row i, act on every row and are
    logged as moves; T is their product.  Each row k ends as D[k] * L[i][k]
    in its columns i > k, where T^T G T = L diag(D) L^T with L unit lower
    triangular, so P = T L^-T has P^T G P = diag(D) (`Gram.column`).  The
    rows keep `Echelon`'s form throughout: no zero entry, and every value
    an int when its denominator is 1.
    """
    n = len(rows)
    moves = []
    for k in range(n):
        if k not in rows[k]:
            pivot = next((i for i in range(k + 1, n) if i in rows[i]), None)
            if pivot is None:
                # the block's first nonzero row has no entry left of its
                # diagonal, which is zero: its least column j is the first
                # nonzero entry above the block's diagonal
                pivot = next((i for i in range(k, n) if rows[i]), None)
                if pivot is None:
                    break  # remaining block is zero
                j = min(rows[pivot])
                for row in rows:
                    if j in row:
                        _subtract(row, -row[j], {pivot: 1})
                _subtract(rows[pivot], -1, rows[j])  # diagonal 2 a[pivot][j] != 0
                moves.append(("add", pivot, j))
            # the symmetric swap: rows k and pivot, then in each row only
            # those two columns
            rows[k], rows[pivot] = rows[pivot], rows[k]
            for row in rows:
                a, b = row.pop(k, 0), row.pop(pivot, 0)
                if b:
                    row[k] = b
                if a:
                    row[pivot] = a
            moves.append(("swap", k, pivot))
        top = rows[k]
        for row in rows[k + 1:]:
            if k in row:
                # Fraction, not /: two int values would give a float
                _subtract(row, _exact(Fraction(row[k], top[k])), top)
    return [row.get(i, 0) for i, row in enumerate(rows)], moves


class Gram(tuple):
    """The package's only check of a gram: square, symmetric rows of int or
    Fraction entries with no 0 in the D of `congruence_diagonalize`.  Its
    entries are the given rows' own objects, none converted, and `sparse`
    reads an integral Fraction as an int, so ints, Fractions or a mix of
    them give the same D, `integral` and columns, value for value and type
    for type.  A `Gram` passes through unchanged and keeps that
    one elimination: its `diagonal` D and, through `column`, the columns of
    P with P^T G P = diag(D).  It also keeps `integral`, the `integral_rows`
    of its own entries.  A checked `Gram` is read-only: everything it keeps
    is a tuple, and setting or deleting any attribute raises AttributeError,
    so every holder of it pairs against the numbers its one check
    produced."""

    def __new__(cls, rows):
        if isinstance(rows, Gram):
            return rows
        gram = super().__new__(cls, map(tuple, rows))
        if not {int, Fraction}.issuperset(type(x) for row in gram for x in row):
            raise ValueError("gram entries must be ints or Fractions")  # a bool is refused too
        if any(len(row) != len(gram) for row in gram):
            raise ValueError("gram must be square")
        if any(gram[i][j] != gram[j][i] for i in range(len(gram)) for j in range(i)):
            raise ValueError("gram must be symmetric")
        rows = list(map(sparse, gram))
        diagonal, moves = congruence_diagonalize(rows)
        if 0 in diagonal:
            raise ValueError("gram must be nondegenerate")
        vars(gram).update(diagonal=tuple(diagonal), integral=integral_rows(gram),
                          _eliminated=tuple(tuple(r.items()) for r in rows), _moves=tuple(moves))
        return gram

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a checked Gram is read-only: {name!r} cannot change")

    __delattr__ = __setattr__  # called with the name alone

    def column(self, c: int) -> list:
        """P e_c = T L^-T e_c: back-substitution in L^T x = e_c over the
        eliminated rows' (column, value) pairs, then the moves applied last
        to first.  Every entry is a Fraction."""
        rows, d = self._eliminated, self.diagonal
        x = [Fraction(0)] * len(d)
        x[c] = Fraction(1)
        for j in range(c - 1, -1, -1):
            x[j] = -sum((v * x[i] for i, v in rows[j] if j < i <= c), Fraction(0)) / d[j]
        for kind, i, j in reversed(self._moves):
            if kind == "swap":
                x[i], x[j] = x[j], x[i]
            else:  # column i += column j: T x gains x[i] at j
                x[j] += x[i]
        return x
