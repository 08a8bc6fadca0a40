"""The bodies of the `betti` and `strata` reports and their --surface reader."""

from . import cohomology, partitions
from .cli import MAX_SURFACE_BETTI, _json, _plain, _Text


def _surface_number(text: str) -> int:
    # the digits are counted before the text is converted, as for a gram
    # entry: without sign, underscores and leading zeros, a longer digit
    # string is over the bound
    digits = text.strip().lstrip("+-").replace("_", "").lstrip("0")
    value = MAX_SURFACE_BETTI + 1
    if len(digits) <= len(str(MAX_SURFACE_BETTI)):
        value = int(text)
    if abs(value) > MAX_SURFACE_BETTI:
        raise ValueError(f"--surface entries must have |b| <= {MAX_SURFACE_BETTI}")
    return value


def _parse_surface(text: str | None):
    if text is None:
        return cohomology.SurfaceBetti.k3()
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("--surface expects b0,b2,b4")
    return cohomology.SurfaceBetti(*map(_surface_number, parts))


def betti(args) -> tuple[dict, list[dict]]:
    if args.max_degree is not None and args.max_degree < 0:
        raise ValueError("max-degree must be >= 0")
    surface = _parse_surface(args.surface)
    ledger = cohomology.hilbert_stratum_ledger(surface, args.n)
    poly = ledger.total()
    betti = list(poly.betti)
    if args.max_degree is not None:
        betti = betti[: args.max_degree + 1]
    degree2 = [
        {"diagram": _plain(d), "contribution": b} for d, b in ledger.entries_in_degree(2)
    ]
    checks = [
        {"name": "b0-is-1", "ok": poly.coefficient(0) == 1},
        {"name": "odd-degrees-vanish", "ok": poly.has_only_even_degrees},
        {"name": "poincare-duality", "ok": poly.is_palindromic},
    ]
    if args.n >= 2:
        checks.append({"name": "degree-2-ledger-has-two-strata", "ok": len(degree2) == 2})
        checks.append({"name": "b2-is-surface-b2-plus-1",
                       "ok": poly.coefficient(2) == surface.b2 + 1})
    result = {
        "n": args.n,
        "surface": _plain(surface),
        "betti": betti,
        "top_degree": poly.top_degree,
        "euler_characteristic": poly.euler_characteristic,
        "degree_2_entries": degree2,
    }
    return result, checks


def strata(args) -> tuple[dict, list[dict]]:
    surface = _parse_surface(args.surface)
    strata = cohomology.hilbert_strata(surface, args.n)
    # the strata of one multiplicity signature share a polynomial, rendered once;
    # for --json at its depth in the payload (result, strata, row: 8 spaces)
    texts = {p: _Text(_json(list(p.betti), " " * 8)) if args.json
             else " ".join(map(str, p.betti)) for p in {c.poincare for c in strata}}
    rows = [{
        "diagram": list(c.diagram),
        "codim": c.codim,
        "fiber_dimension": partitions.fiber_dimension(c.diagram),
        "semismall": partitions.verify_semismall(c.diagram),
        "poincare": texts[c.poincare],
    } for c in strata]
    checks = [{"name": "semismall-equality-all-strata", "ok": all(r["semismall"] for r in rows)}]
    return {"n": args.n, "surface": _plain(surface), "strata": rows}, checks
