"""Exact gram matrices with determinant and signature known by construction.

The benchmark never asks the library under measurement about its own
inputs: every gram here carries its determinant and signature from the way
it was assembled, either as an orthogonal sum of standard blocks or as a
congruence P^T D P with P a product of integer elementary matrices (so
det P = 1 and Sylvester's law keeps the signature of D).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


@dataclass(frozen=True)
class Gram:
    rows: tuple[tuple[Fraction, ...], ...]
    det: Fraction
    signature: tuple[int, int]  # (positive, negative)
    family: str

    @property
    def dim(self) -> int:
        return len(self.rows)

    def write(self, path) -> None:
        """Gram JSON as the CLI reads it: ints where integral, else "p/q"."""
        rows = [[int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
                 for x in row] for row in self.rows]
        with open(path, "w") as fh:
            json.dump({"dim": self.dim, "rows": rows}, fh)


def hyperbolic_plane():
    return [[0, 1], [1, 0]], Fraction(-1), (1, 1)


def e8_negative():
    m = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in _E8_EDGES:
        m[i][j] = m[j][i] = 1
    return m, Fraction(1), (0, 8)


def a_negative(k: int):
    m = [[-2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(k)] for i in range(k)]
    return m, Fraction((-1) ** k * (k + 1)), (0, k)


def rank_one(value: int):
    return [[value]], Fraction(value), (1, 0) if value > 0 else (0, 1)


def block_sum(blocks, family: str) -> Gram:
    dim = sum(len(m) for m, _, _ in blocks)
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    det, pos, neg, off = Fraction(1), 0, 0, 0
    for m, d, (p, q) in blocks:
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                rows[off + i][off + j] = Fraction(x)
        off += len(m)
        det *= d
        pos += p
        neg += q
    return Gram(tuple(map(tuple, rows)), det, (pos, neg), family)


def random_block_sum(rng: random.Random, dim: int) -> Gram:
    """U, E8(-1), A_k(-1) and <+-2d> blocks of total rank `dim`, signature (3, dim - 3)."""
    planes = rng.randint(0, min(3, dim - 4))
    blocks = [hyperbolic_plane()] * planes
    blocks += [rank_one(2 * rng.randint(1, 6)) for _ in range(3 - planes)]
    left = dim - 3 - planes
    while left:
        pick = rng.randrange(3)
        if pick == 0 and left >= 8:
            blocks.append(e8_negative())
        elif pick == 1:
            blocks.append(a_negative(rng.randint(1, min(8, left))))
        else:
            blocks.append(rank_one(-2 * rng.randint(1, 6)))
        left -= len(blocks[-1][0])
    rng.shuffle(blocks)
    return block_sum(blocks, "block-sum")


def congruence(diag, rng: random.Random, min_entry: int, family: str) -> Gram:
    """P^T D P with P a product of elementary matrices I + c E_ij.

    Steps stop once the largest entry reaches `min_entry`; with |c| <= 2 one
    step at most multiplies an entry by 9, so the entries land between
    min_entry and 9 * min_entry.
    """
    dim = len(diag)
    g = [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(dim)] for i in range(dim)]
    while max(abs(x) for row in g for x in row) < min_entry:
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-2, -1, 1, 2))
        # column j += c * column i, then row j += c * row i
        for r in range(dim):
            g[r][j] += c * g[r][i]
        for s in range(dim):
            g[j][s] += c * g[i][s]
    det = Fraction(1)
    for x in diag:
        det *= Fraction(x)
    pos = sum(1 for x in diag if x > 0)
    return Gram(tuple(map(tuple, g)), det, (pos, dim - pos), family)


def scrambled(rng: random.Random, dim: int) -> Gram:
    """Signature (3, dim - 3), entries in the hundreds (the largest at least 300)."""
    diag = [rng.randint(1, 6) for _ in range(3)] + [-rng.randint(1, 6) for _ in range(dim - 3)]
    rng.shuffle(diag)
    return congruence(diag, rng, 300, "scrambled")


def frobenius_gram(kind: str, dim: int, rng: random.Random) -> Gram:
    """Identity, integer diagonal of mixed signature, or rational diagonal."""
    if kind == "identity":
        diag = [1] * dim
    elif kind == "diagonal":
        diag = [rng.choice((-1, 1)) * rng.randint(1, 5) for _ in range(dim)]
        diag[0], diag[-1] = abs(diag[0]), -abs(diag[-1])
    elif kind == "rational":
        diag = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(2, 5))
                for _ in range(dim)]
    else:
        raise ValueError(f"unknown gram kind {kind!r}")
    return congruence(diag, rng, 0, kind)  # min_entry 0: D itself, no elementary steps
