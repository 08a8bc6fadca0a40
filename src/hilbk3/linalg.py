"""Exact linear algebra over the rationals: one sparse elimination core plus
one symmetric elimination for grams; no matrix products.

Matrices are lists of rows; entries are Fraction or int (ints are promoted
by arithmetic).  No floats anywhere: kernels, determinants and congruences
are exact.  `Echelon` holds the sparse row-elimination loop and works on
sparse {column: value} rows throughout, each value an int when its
denominator is 1 and a Fraction otherwise; nullspace and det pass their
dense rows through `sparse` once and read their answers off it, the kernel
as its reduced echelon basis of such sparse vectors.  The identity's 0 and
1 entries are ints; det returns a Fraction.  `Gram`, the one check of a
gram, reads nondegeneracy off the diagonal D of `congruence_diagonalize`
(det = prod D) and solves columns of P off the rows it eliminated.  It
also keeps its entries scaled to ints, once per gram, by `integral_rows`,
the one rule that scales a rational matrix to a common denominator and
sparse int rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

Vector = list
Matrix = list


def identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def symmetric_rows(a: Matrix, name: str = "matrix") -> Matrix:
    """Fraction rows of a square symmetric matrix; ValueError otherwise."""
    rows = [[Fraction(x) for x in row] for row in a]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError(f"{name} must be square")
    if any(rows[i][j] != rows[j][i] for i in range(len(rows)) for j in range(i)):
        raise ValueError(f"{name} must be symmetric")
    return rows


def integral_rows(m: Matrix) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """(den, rows): den the lcm of the denominators of m, rows den * m as
    sparse (column, int) pairs over the nonzero entries."""
    den = lcm(*(a.denominator for row in m for a in row))
    return den, tuple(tuple((j, a.numerator * (den // a.denominator))
                            for j, a in enumerate(row) if a) for row in m)


def sparse(row: Vector) -> dict:
    """{column: entry} over the nonzero entries of a dense row."""
    return {j: a for j, a in enumerate(row) if a}


def _exact(a):
    """a as an int when its denominator is 1, else a itself."""
    return a if type(a) is int or a.denominator != 1 else a.numerator


def _subtract(x: dict, f, y: dict) -> None:
    """x -= f * y in place on sparse rows (f != 0); cancelled entries are dropped."""
    for j, b in y.items():
        a = x.get(j, 0) - f * b
        if a:
            # `_exact` written out: this is the elimination's inner loop
            x[j] = a if type(a) is int or a.denominator != 1 else a.numerator
        else:
            del x[j]


class Echelon:
    """Incremental row span kept in reduced echelon form.

    The package's only row-elimination loop.  Rows are sparse
    {column: value} dicts whose pivot is their least column, with entry 1
    there and 0 at every other row's pivot, so a vector r reduces to
    r - sum_p r[p] * row_p with every r[p] read straight from the input.
    Vectors go in and come out sparse: {column: value} dicts over nonzero
    values only (see `sparse`).  Every value it stores or returns is an int
    when its denominator is 1 and a Fraction otherwise, so rows that stay
    integral cost int arithmetic.
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


def nullspace(a: Matrix, ncols: int) -> list[dict]:
    """The reduced echelon basis of the right kernel, unique for the
    subspace: sparse vectors in pivot order, each 1 at its least column
    (its pivot) and 0 at every other vector's least column.  The Frobenius
    build reads its normal forms straight off that contract.

    a is eliminated with its columns reversed.  A free column f there gives
    the vector with 1 at f and -row[f] at the pivot of each row; mapped
    back to ncols - 1 - f, that 1 comes first, the pivots after it.
    """
    last = ncols - 1
    ech = Echelon(ncols)
    for row in a:
        ech.add(sparse(row[::-1]))
    rows = ech.rows
    pivots = {p for p, _ in rows}
    return [{last - f: 1, **{last - p: -row[f] for p, row in rows if f in row}}
            for f in range(last, -1, -1) if f not in pivots]


def det(a: Matrix) -> Fraction:
    """Sign of the row-to-pivot-column permutation times the pivot values
    that `Echelon.add` returns.

    Each row is reduced only against the rows before it, so the reduced rows
    differ from a by a unit lower-triangular factor and are triangular up to
    that permutation of columns.
    """
    ech = Echelon(len(a))
    hits = [ech.add(sparse(row)) for row in a]
    if None in hits:
        return Fraction(0)
    inversions = sum(p > q for i, (p, _) in enumerate(hits) for q, _ in hits[i + 1:])
    value = prod((v for _, v in hits), start=Fraction(1))
    return -value if inversions % 2 else value


def _add_row(row: Vector, f, src: Vector) -> None:
    """row += f * src over src's nonzero entries only."""
    for j, x in enumerate(src):
        if x:
            row[j] += f * x


def congruence_diagonalize(rows: Matrix) -> tuple[list, list]:
    """Symmetric elimination, in place, of square symmetric Fraction rows G;
    returns (D, moves), with det G = prod D.

    Whole-row operations clear each pivot's column below it and leave the
    symmetric Schur complement, so no step mirrors a column operation.  The
    pivot swap ("swap", k, i) and the zero-pivot repair ("add", i, j), which
    adds column and row j to column and row i, act on every row and are
    logged as moves; T is their product.  Each row k ends as D[k] * L[i][k]
    in its columns i > k, where T^T G T = L diag(D) L^T with L unit lower
    triangular, so P = T L^-T has P^T G P = diag(D) (`Gram.column`).
    """
    n = len(rows)
    moves = []
    for k in range(n):
        if rows[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if rows[i][i] != 0), None)
            if pivot is None:
                off = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                            if rows[i][j] != 0), None)
                if off is None:
                    break  # remaining block is zero
                pivot, j = off
                for row in rows:
                    row[pivot] += row[j]
                _add_row(rows[pivot], 1, rows[j])  # diagonal 2 a[pivot][j] != 0
                moves.append(("add", pivot, j))
            for row in rows:
                row[k], row[pivot] = row[pivot], row[k]
            rows[k], rows[pivot] = rows[pivot], rows[k]
            moves.append(("swap", k, pivot))
        top = rows[k]
        for row in rows[k + 1:]:
            if row[k]:
                _add_row(row, -row[k] / top[k], top)
    return [rows[i][i] for i in range(n)], moves


class Gram(tuple):
    """The package's only check of a gram: square, symmetric Fraction rows
    with no 0 in the D of `congruence_diagonalize`.  A `Gram` passes through
    unchanged and keeps that one elimination: its `diagonal` D and, through
    `column`, the columns of P with P^T G P = diag(D).  It also keeps
    `integral`, the `integral_rows` of its own entries."""

    def __new__(cls, rows):
        if isinstance(rows, Gram):
            return rows
        rows = symmetric_rows(rows, "gram")
        gram = super().__new__(cls, map(tuple, rows))
        diagonal, moves = congruence_diagonalize(rows)  # rows are a copy already
        if 0 in diagonal:
            raise ValueError("gram must be nondegenerate")
        gram.diagonal, gram._eliminated, gram._moves = tuple(diagonal), rows, moves
        gram.integral = integral_rows(gram)
        return gram

    def column(self, c: int) -> list:
        """P e_c = T L^-T e_c: back-substitution in L^T x = e_c, then the
        moves applied last to first.  Every entry is a Fraction."""
        rows, d = self._eliminated, self.diagonal
        x = [Fraction(0)] * len(d)
        x[c] = Fraction(1)
        for j in range(c - 1, -1, -1):
            x[j] = -sum(rows[j][i] * x[i] for i in range(j + 1, c + 1)) / d[j]
        for kind, i, j in reversed(self._moves):
            if kind == "swap":
                x[i], x[j] = x[j], x[i]
            else:  # column i += column j: T x gains x[i] at j
                x[j] += x[i]
        return x
