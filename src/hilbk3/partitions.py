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
partitions it keeps.  The walk's levels share one prefix list, so a
partition becomes a tuple once, when it is complete.

A diagram is the walk's tuple of weakly decreasing positive parts.
"""

from math import isqrt


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
    yield from _rows(n, None, rows, [])


def _rows(remaining: int, previous: int | None, rows, parts: list[int]):
    # the levels share one prefix list: each appends its row and pops it after
    # the walk below it, and a finished partition is copied out as a tuple,
    # so no level builds one and the caller may keep what it is given
    if remaining == 0:
        yield tuple(parts)
        return
    bound = remaining if previous is None else min(remaining, previous)
    for p in range(bound, 0, -1) if rows is None else rows(previous, remaining):
        if rows is not None and not 0 < p <= bound:
            raise ValueError(f"row rule yielded {p} outside 1..{bound}")
        parts.append(p)
        yield from _rows(remaining - p, p, rows, parts)
        parts.pop()


def diagrams_of(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(partitions_of(n))


def codim_diagonal(diagram: tuple[int, ...]) -> int:
    """Complex codimension of the stratum: 2 * sum(part - 1)."""
    return 2 * (sum(diagram) - len(diagram))


def fiber_dimension(diagram: tuple[int, ...]) -> int:
    """Dimension of the punctual fiber over the stratum.

    The fiber over a cycle with multiplicities n_i is a product of punctual
    pieces of dimension n_i - 1 each.
    """
    return sum(diagram) - len(diagram)


def verify_semismall(diagram: tuple[int, ...]) -> bool:
    """Fiber dimension equals half the codimension (exact, both sides computed)."""
    return 2 * fiber_dimension(diagram) == codim_diagonal(diagram)


def _triangular_root(m: int) -> int:
    """The largest l >= 0 with l(l+1)/2 <= m, for m >= 0."""
    return (isqrt(8 * m + 1) - 1) // 2


def is_triangular(m: int) -> tuple[bool, int | None]:
    """Whether m = l(l+1)/2 for some l >= 1, and that l."""
    if m < 1:
        return False, None
    l = _triangular_root(m)
    return (True, l) if l * (l + 1) // 2 == m else (False, None)


def _triangular_rows(previous: int | None, remaining: int):
    # the triangular numbers up to the bound, largest first
    top = remaining if previous is None else min(previous, remaining)
    return (l * (l + 1) // 2 for l in range(_triangular_root(top), 0, -1))


def trianalytic_candidates(n: int) -> tuple[tuple[int, ...], ...]:
    """The diagrams of n whose parts are all triangular, in `diagrams_of` order.

    Of the 2^k ways to pin parts of a k-part diagram, pinnings touching a
    part of size > 1 are dropped (pinned parts must be single points) and
    the remaining nonempty pinnings deform, so are never trianalytic: only
    the unpinned shape is left, and it survives iff every part is
    triangular.  The walk places triangular rows only.
    """
    return tuple(partitions_of(n, rows=_triangular_rows))
