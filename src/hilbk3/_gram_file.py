"""The reader of a --gram file, loaded only by a report that is given one."""

import json
import os
import re
import stat
from fractions import Fraction

from . import linalg
from .cli import MAX_GRAM_CHARS, MAX_GRAM_DIM, MAX_GRAM_ENTRY

# sign, then the digits of p and of q without their leading zeros
_RATIONAL = re.compile(r"(-?)0*([0-9]+)(?:/0*([0-9]+))?")


def entries(rows) -> list[list]:
    """The value of each entry of a gram file's rows, row by row: an int
    when it is integral and a Fraction otherwise, the package's one rule."""
    digits = len(str(MAX_GRAM_ENTRY))

    def entry(x):
        # only the documented forms, each bounded; an exponent string such as
        # "1e999999999" would ask for an unbounded amount of exact arithmetic
        if isinstance(x, int) and not isinstance(x, bool):
            p, q = x, 1
        elif isinstance(x, str) and (m := _RATIONAL.fullmatch(x)):
            sign, num, den = m.groups("1")
            # with no leading zeros a longer digit string is over the bound,
            # and it is never converted
            too_long = max(len(num), len(den)) > digits
            p, q = (MAX_GRAM_ENTRY + 1, 1) if too_long else (int(sign + num), int(den))
        else:
            p, q = 0, 0
        if abs(p) > MAX_GRAM_ENTRY or q > MAX_GRAM_ENTRY:
            raise ValueError(f"gram entries p/q must have |p| <= {MAX_GRAM_ENTRY} "
                             f"and q <= {MAX_GRAM_ENTRY}")
        if q == 0:
            # another form, or a zero denominator
            raise ValueError("gram entries must be integers or 'p/q' strings")
        return p // q if p % q == 0 else Fraction(p, q)

    return [[entry(x) for x in row] for row in rows]


def load(path: str, dim_v: int | None = None):
    """The checked `linalg.Gram` of the gram file at path.  A dim_v that the
    file's size must match is compared before the gram is eliminated, since
    the Gram check is the costliest step."""
    # opened without blocking and checked before it is read: a FIFO with no
    # writer would block open() and read() with no bound
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise ValueError("gram file must be a regular file")
        with open(fd, closefd=False) as fh:
            text = fh.read(MAX_GRAM_CHARS + 1)
    finally:
        os.close(fd)
    if len(text) > MAX_GRAM_CHARS:
        raise ValueError(f"gram files are capped at {MAX_GRAM_CHARS} characters")
    try:
        data = json.loads(text)
    except RecursionError:
        # a RuntimeError, which would read as an internal failure
        raise ValueError("gram file is nested too deeply") from None
    if not (isinstance(data, dict) and "dim" in data and isinstance(data.get("rows"), list)
            and all(isinstance(r, list) for r in data["rows"])):
        raise ValueError('gram file must be a JSON object {"dim": d, "rows": [[...], ...]}')
    if len(data["rows"]) > MAX_GRAM_DIM or any(len(r) > MAX_GRAM_DIM for r in data["rows"]):
        raise ValueError(f"gram files are capped at dimension {MAX_GRAM_DIM}")
    dim = data["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError("gram file dim must be a positive integer")
    rows = entries(data["rows"])
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ValueError("gram file dimensions are inconsistent")
    if dim_v not in (None, dim):
        raise ValueError("--dimv disagrees with the gram file")
    return linalg.Gram(rows)
