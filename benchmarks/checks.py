"""Output checks for every report, computed without the library under measurement.

Each check recomputes the expected answer by another route: Goettsche's
product for Betti tables, a partition count for strata, the closed-form
pullback coefficient, binomial dimensions for the Frobenius models, the
triangular-number test for punctual fixed points and the powers of m for
invariant ideals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

SCHEMA = "hilbk3.report/1"
K3_SURFACE = (1, 22, 1)


def goettsche_tables(b0: int, b2: int, b4: int, n_max: int) -> list[tuple[int, ...]]:
    """Betti numbers of the Hilbert schemes of 0..n_max points.

    Expands prod_m (1 - t^(2m-2) z^m)^-b0 (1 - t^(2m) z^m)^-b2 (1 - t^(2m+2) z^m)^-b4;
    the coefficient of z^k is a polynomial in t of degree at most 4k.
    """
    series = [[0] * (4 * k + 1) for k in range(n_max + 1)]
    series[0][0] = 1
    for m in range(1, n_max + 1):
        for shift, power in ((2 * m - 2, b0), (2 * m, b2), (2 * m + 2, b4)):
            for _ in range(power):
                # divide by (1 - t^shift z^m), lowest z-degree first
                for k in range(m, n_max + 1):
                    src, dst = series[k - m], series[k]
                    for d, c in enumerate(src):
                        if c:
                            dst[d + shift] += c
    return [tuple(row) for row in series]


def partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def triangular_root(i: int) -> int | None:
    l = (isqrt(8 * i + 1) - 1) // 2
    return l if l * (l + 1) // 2 == i else None


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _surface(argv) -> tuple[int, int, int]:
    text = _option(argv, "--surface")
    return K3_SURFACE if text is None else tuple(int(x) for x in text.split(","))


class Checker:
    """Checks payloads; keeps the Goettsche tables of the surfaces seen."""

    def __init__(self):
        self._betti: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}

    def prepare(self, reports) -> None:
        """Expand the generating function once per surface, before timing starts."""
        betti = [argv for argv in reports if argv[0] == "betti"]
        if betti:
            n_max = max(int(argv[2]) for argv in betti)
            for surface in {_surface(argv) for argv in betti}:
                self._betti[surface] = goettsche_tables(*surface, n_max)

    def _tables(self, surface, n):
        table = self._betti.get(surface)
        if table is None or len(table) <= n:
            table = self._betti[surface] = goettsche_tables(*surface, n)
        return table

    def betti(self, argv, result):
        n = int(argv[2])
        full = list(self._tables(_surface(argv), n)[n])
        while len(full) > 1 and full[-1] == 0:
            full.pop()
        cut = _option(argv, "--max-degree")
        expected = full if cut is None else full[: int(cut) + 1]
        return (result["betti"] == expected and result["top_degree"] == 4 * n
                and result["euler_characteristic"] == sum(full))

    @staticmethod
    def strata(argv, result):
        n = int(argv[2])
        rows = result["strata"]
        diagrams = {tuple(r["diagram"]) for r in rows}
        return (len(rows) == partition_count(n) == len(diagrams)
                and all(sum(d) == n and list(d) == sorted(d, reverse=True) and min(d) > 0
                        for d in diagrams)
                and all(r["codim"] == 2 * r["fiber_dimension"] and r["semismall"] for r in rows))

    @staticmethod
    def certify(argv, result):
        n = int(argv[2])
        if result["verdict"] != "certified" or result["n"] != n:
            return False
        for cert in result["certificates"]:
            if cert["method"] == "pullback-coefficient":
                l = len(cert["diagram"])
                expected = Fraction(1, 2 * (l - 1)) - Fraction(n, l) / (2 * (n - 1))
                if Fraction(cert["coefficient"]) != expected:
                    return False
        return True

    @staticmethod
    def frobenius(argv, result):
        dimv, n = int(argv[2]), int(argv[4])
        dims = [comb(dimv + min(i, 2 * n - i) - 1, min(i, 2 * n - i)) for i in range(2 * n + 1)]
        return (result["dimensions"] == dims and result["total_dimension"] == sum(dims)
                and result["mode"] == "full")

    @staticmethod
    def punctual(argv, result):
        root = triangular_root(int(argv[2]))
        staircases = [fp["staircase"] for fp in result["fixed_points"]]
        return staircases == ([] if root is None else [list(range(root, 0, -1))])

    @staticmethod
    def ideals(argv, result):
        big_n = int(argv[2])
        found = sorted((r["maximal_ideal_power"], r["degrees"]) for r in result["ideals"])
        return found == [(k, list(range(k, big_n))) for k in range(1, big_n)]

    def verdict(self, argv, returncode: int, stdout: bytes, stderr: bytes) -> "Verdict":
        """Whether the report passed, and whether a finished report was wrong."""
        try:
            payload = json.loads(stdout)
        except ValueError:
            return Verdict(False, reason=f"exit {returncode}, no JSON payload")
        try:
            good = (payload["schema"] == SCHEMA and payload["command"] == argv[0]
                    and payload["status"] == "ok" and all(c["ok"] for c in payload["checks"])
                    and getattr(self, argv[0])(argv, payload["result"]))
        except (KeyError, TypeError, ValueError, IndexError):
            good = False
        if not good or returncode != 0 or b"Traceback" in stderr:
            return Verdict(False, wrong=True, reason=f"exit {returncode}, payload rejected")
        return Verdict(True)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    wrong: bool = False  # printed a payload, and it was wrong
    reason: str = ""
