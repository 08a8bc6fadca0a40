"""Partition combinatorics for diagonal strata of Hilbert schemes of points.

A partition alpha = (n_1 >= ... >= n_k) of n indexes the diagonal stratum of
the n-th symmetric power of a surface where exactly k points remain distinct,
with prescribed multiplicities.  These strata drive the Betti computation,
and the audit of their pinnings drives the candidate pipeline for
trianalytic subvarieties.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt


@dataclass(frozen=True, order=True)
class YoungDiagram:
    """Weakly decreasing tuple of positive integer parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not all(isinstance(p, int) and p >= 1 for p in self.parts):
            raise ValueError("parts must be positive integers")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be weakly decreasing")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def partitions_of(n: int, max_part: int | None = None, *, admits=None):
    """Yield partitions of n as weakly decreasing tuples, largest part first.

    With `admits`, a row `part` is placed below the row `previous` only if
    `admits(previous, part)`, and a partition ends after its last row only
    if `admits(previous, 0)`; the first row is unconstrained.  A rejected
    prefix is never extended, so the walk yields exactly the partitions
    whose neighbouring rows are all admitted, in the same order.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    yield from _rows(n, n if max_part is None else max_part, None, admits)


def _rows(n: int, max_part: int, previous: int | None, admits):
    # partitions of n with parts <= max_part, placed below the row `previous`
    # (None above the first row)
    if n == 0:
        if previous is None or admits is None or admits(previous, 0):
            yield ()
        return
    for p in range(min(n, max_part), 0, -1):
        if previous is None or admits is None or admits(previous, p):
            for rest in _rows(n - p, p, p, admits):
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


@dataclass(frozen=True)
class CandidateAudit:
    """Per-diagram audit of the trianalytic candidate pipeline.

    Of the 2^k ways to pin parts of a k-part diagram: pinnings touching a
    part of size > 1 are dropped first (pinned parts must be single points),
    then the remaining nonempty pinnings (pinned shapes deform, so are never
    trianalytic), leaving only the unpinned shape; the diagram survives iff
    every part is triangular.
    """

    diagram: YoungDiagram
    shapes_total: int
    dropped_fat_pinned: int
    dropped_pinned: int
    survives: bool
    annotation: str | None


def _annotate(diagram: YoungDiagram) -> str:
    values = set(diagram.parts)
    if values == {1}:
        return "improper: the unpinned shape with all parts 1 is the whole space"
    if len(values) == 1:
        return f"simple candidate, l={diagram.length}"
    return "product case (mixed part sizes): excluded by a product-type argument, flagged here"


def trianalytic_candidates(n: int) -> tuple[CandidateAudit, ...]:
    """Run the candidate pipeline over all diagrams of n, with audit counts."""
    audits = []
    for d in diagrams_of(n):
        k = d.length
        units = sum(1 for p in d.parts if p == 1)
        total = 1 << k
        fat = total - (1 << units)
        pinned = (1 << units) - 1
        survives = all(is_triangular(p)[0] for p in d.parts)
        audits.append(CandidateAudit(
            diagram=d,
            shapes_total=total,
            dropped_fat_pinned=fat,
            dropped_pinned=pinned,
            survives=survives,
            annotation=_annotate(d) if survives else None,
        ))
    return tuple(audits)

