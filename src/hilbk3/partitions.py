"""Partition combinatorics for diagonal strata of Hilbert schemes of points.

A partition alpha = (n_1 >= ... >= n_k) of n indexes the diagonal stratum of
the n-th symmetric power of a surface where exactly k points remain distinct,
with prescribed multiplicities.  These strata drive the Betti computation;
the diagrams with all parts triangular are the candidates for trianalytic
subvarieties.

Every list of partitions comes from one walk, `partitions_of`, which places
rows largest first.  A row rule `rows(previous, remaining)` names the parts
allowed below each row, so a constrained walk (triangular parts for the
candidates, one-shorter rows for the punctual staircases) visits only the
partitions it keeps.

`YoungDiagram` is a named tuple of one field, checked when it is built: it
is immutable and hashable, sorts by its parts, and, being a tuple, also
iterates, has a length and equals the plain tuple `(parts,)`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import isqrt


class YoungDiagram(namedtuple("YoungDiagram", "parts")):
    """Weakly decreasing tuple of positive integer parts."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]):
        if not all(isinstance(p, int) and p >= 1 for p in parts):
            raise ValueError("parts must be positive integers")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("parts must be weakly decreasing")
        return super().__new__(cls, parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def partitions_of(n: int, *, rows=None):
    """Yield partitions of n as weakly decreasing tuples, largest part first.

    Without `rows` every part in 1..min(remaining, previous row) may come
    next.  With `rows`, the parts placed below the row `previous` (None
    above the first row), with `remaining` still to cover, are those
    `rows(previous, remaining)` yields, largest first; a part outside that
    range raises ValueError.  A partition ends when nothing remains.  The
    ruled walk yields the full walk's partitions that the rule allows at
    every row, in the same order, and never extends a prefix the rule did
    not allow.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    yield from _rows(n, None, rows)


def _rows(remaining: int, previous: int | None, rows):
    if remaining == 0:
        yield ()
        return
    bound = remaining if previous is None else min(remaining, previous)
    for p in range(bound, 0, -1) if rows is None else rows(previous, remaining):
        if rows is not None and not 0 < p <= bound:
            raise ValueError(f"row rule yielded {p} outside 1..{bound}")
        for rest in _rows(remaining - p, p, rows):
            yield (p,) + rest


@lru_cache(maxsize=None)
def diagrams_of(n: int) -> tuple[YoungDiagram, ...]:
    return tuple(YoungDiagram(p) for p in partitions_of(n))


def codim_diagonal(diagram: YoungDiagram) -> int:
    """Complex codimension of the stratum: 2 * sum(part - 1)."""
    return 2 * sum(p - 1 for p in diagram.parts)


def fiber_dimension(diagram: YoungDiagram) -> int:
    """Dimension of the punctual fiber over the stratum.

    The fiber over a cycle with multiplicities n_i is a product of punctual
    pieces of dimension n_i - 1 each.
    """
    return sum(p - 1 for p in diagram.parts)


def verify_semismall(diagram: YoungDiagram) -> bool:
    """Fiber dimension equals half the codimension (exact, both sides computed)."""
    return 2 * fiber_dimension(diagram) == codim_diagonal(diagram)


def is_triangular(m: int) -> tuple[bool, int | None]:
    """Whether m = l(l+1)/2 for some l >= 1, and that l."""
    if m < 1:
        return False, None
    l = (isqrt(8 * m + 1) - 1) // 2
    return (l * (l + 1) // 2 == m, l if l * (l + 1) // 2 == m else None)


def _triangular_rows(previous: int | None, remaining: int):
    # the triangular numbers up to the bound, largest first
    top = remaining if previous is None else min(previous, remaining)
    return (l * (l + 1) // 2 for l in range((isqrt(8 * top + 1) - 1) // 2, 0, -1))


def trianalytic_candidates(n: int) -> tuple[YoungDiagram, ...]:
    """The diagrams of n whose parts are all triangular, in `diagrams_of` order.

    Of the 2^k ways to pin parts of a k-part diagram, pinnings touching a
    part of size > 1 are dropped (pinned parts must be single points) and
    the remaining nonempty pinnings deform, so are never trianalytic: only
    the unpinned shape is left, and it survives iff every part is
    triangular.  The walk places triangular rows only.
    """
    return tuple(YoungDiagram(p) for p in partitions_of(n, rows=_triangular_rows))
