"""Command line reports: exact Betti numbers, stratum tables, obstruction
certificates, invariant ideal classifications and Frobenius algebra checks.

Output is deterministic byte-for-byte for fixed arguments: JSON with sorted
keys (--json) or a flat key: value listing (--table, default).  Rationals
are serialized as "p/q" strings.  Exit status is 0 iff every reported check
passed; 1 for a failed check ("failed") or bad input ("error"), 2 for a
usage error, and 3 for an internal failure ("internal-error").  A --gram
path must name a regular file: a FIFO, device or directory is bad input,
refused before it is read.
"""

import sys
from types import SimpleNamespace

# each report imports the layers it runs when it runs, so that a report
# loads only those layers: `certify` loads `linalg` only to check a gram file
# or to build the lattice of a triangular n.  The same holds for the report
# code itself, which is compiled on every run when no bytecode is cached:
# this module keeps the bounds, the argv reader, the emitter and the three
# short reports; `betti` and `strata` run in `_stratum_reports`, `frobenius`
# in `_frobenius_report`, and `_gram_file` loads only to read a --gram file.
# No layer imports `dataclasses` (or `inspect`), and `betti`, `strata`,
# `punctual` and `ideals` load neither `fractions` nor the `decimal` it
# imports.  Well-formed argv is read without `argparse` (and the `gettext`
# and `locale` it loads), and `json` is loaded only to read a gram file or
# to escape a string

SCHEMA = "hilbk3.report/1"
# bound on |p| and q for every gram entry p/q; the exact arithmetic on a
# gram grows faster than linearly with the size of its entries
MAX_GRAM_ENTRY = 10 ** 6
# bound on the dimension of a gram file, checked before any entry is parsed:
# a dense 32 x 32 gram of p/q entries near MAX_GRAM_ENTRY takes 3.3-3.6 s for
# `certify --n 3`, most of it the gram check's one symmetric elimination, and
# 1.9-2.4 s for `frobenius --dimv 32 --n 2`, the check alone (2-core VM,
# Python 3.11.7)
MAX_GRAM_DIM = 32
# bound on the characters of a gram file, read before it is parsed: a dense
# 32 x 32 gram of p/q entries near MAX_GRAM_ENTRY is about 18 KB of JSON
MAX_GRAM_CHARS = 2 ** 20
# bound on |b0|, |b2| and |b4| of a --surface; the Betti numbers grow as a
# power of b2 + b4, and at the bound (1,10^6,1) `betti --n 100` takes
# 0.5-0.8 s and `strata --n 40` 2.4-2.7 s (2-core VM)
MAX_SURFACE_BETTI = 10 ** 6


def _plain(obj):
    if obj is None or isinstance(obj, (int, str)):
        return obj
    if hasattr(obj, "denominator"):
        # a Fraction, recognised without importing `fractions`
        return f"{obj.numerator}/{obj.denominator}"
    if hasattr(obj, "_fields"):
        # a record: its fields in the order it defines them
        return {name: _plain(value) for name, value in zip(obj._fields, obj)}
    if isinstance(obj, tuple):
        # a tuple of ints, such as a diagram, is copied whole
        return list(obj) if _INTS.issuperset(map(type, obj)) else [_plain(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_CONTAINERS = {dict, list}


def _flatten(prefix: str, obj, lines: list[str]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, lines)
    elif isinstance(obj, list):
        if _CONTAINERS.isdisjoint(map(type, obj)):
            lines.append(f"{prefix}: {' '.join(map(str, obj))}")
        else:
            for i, x in enumerate(obj):
                _flatten(f"{prefix}[{i}]", x, lines)
    else:
        lines.append(f"{prefix}: {obj}")


_INTS = {int}


class _Text(str):
    """Text in its emitted form, which `_json` writes as it stands."""


def _quote(text) -> str:
    """The JSON string literal of `text`, with every non-ASCII character escaped.

    A printable ASCII string with no '"' or '\\' needs no escape; any other
    string, or a key that is not a str, goes to the standard encoder's
    quoting, which raises TypeError on the latter.
    """
    if (type(text) is str and text.isascii() and text.isprintable()
            and '"' not in text and "\\" not in text):
        return f'"{text}"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)


def _json(obj, indent: str) -> str:
    """The text of json.dumps(obj, indent=2, sort_keys=True) at this indent.

    Only the types `_plain` produces are taken: dicts with str keys, lists,
    str, int, bool and None; anything else raises TypeError.  json.dumps
    with an indent runs its pure-Python encoder, where this joins a list of
    plain ints in C.  Strings are escaped to ASCII, as json.dumps does by
    default, and bools are told apart before ints.
    """
    if isinstance(obj, str):
        return obj if type(obj) is _Text else _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if type(obj) is int:
        return int.__repr__(obj)
    inner = indent + "  "
    if type(obj) is list:
        if not obj:
            return "[]"
        if _INTS.issuperset(map(type, obj)):
            body = (",\n" + inner).join(map(int.__repr__, obj))
        else:
            body = (",\n" + inner).join([_json(x, inner) for x in obj])
        return f"[\n{inner}{body}\n{indent}]"
    if type(obj) is dict:
        if not obj:
            return "{}"
        # `_quote` raises TypeError on a key that is not a str
        body = (",\n" + inner).join([f"{_quote(k)}: {_json(obj[k], inner)}"
                                      for k in sorted(obj)])
        return f"{{\n{inner}{body}\n{indent}}}"
    raise TypeError(f"cannot emit {type(obj).__name__}")


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(_json(payload, "") + "\n")
    else:
        lines: list[str] = []
        _flatten("", payload, lines)
        sys.stdout.write("\n".join(lines) + "\n")


def _read_gram(path: str | None, dim_v: int | None = None):
    """The checked `linalg.Gram` of a --gram file, None for no path; the
    reader is loaded only for a path."""
    if path is None:
        return None
    from . import _gram_file

    return _gram_file.load(path, dim_v)


def cmd_betti(args) -> tuple[dict, list[dict]]:
    from . import _stratum_reports

    return _stratum_reports.betti(args)


def cmd_strata(args) -> tuple[dict, list[dict]]:
    from . import _stratum_reports

    return _stratum_reports.strata(args)


def cmd_certify(args) -> tuple[dict, list[dict]]:
    from . import bb_lattice

    gram = _read_gram(args.gram)
    report = bb_lattice.certify_no_trianalytic(args.n, gram=gram, seed=args.seed)
    checks = [{"name": "verdict-certified", "ok": report.verdict == "certified"}]
    return _plain(report), checks


def cmd_ideals(args) -> tuple[dict, list[dict]]:
    from . import invariant_ideals

    found = invariant_ideals.classify_invariant_ideals(args.N)
    rows = [{"degrees": list(ideal.degrees), "maximal_ideal_power": ideal.maximal_ideal_power()}
            for ideal in found]
    checks = [
        {"name": "every-invariant-ideal-is-a-power-of-m",
         "ok": all(r["maximal_ideal_power"] is not None for r in rows)},
        {"name": "count-is-N-minus-1", "ok": len(found) == args.N - 1},
    ]
    return {"truncation": args.N, "ideals": rows}, checks


def cmd_punctual(args) -> tuple[dict, list[dict]]:
    from . import invariant_ideals, partitions

    fixed = invariant_ideals.punctual_fixed_points(args.i)
    triangular, root = partitions.is_triangular(args.i)
    rows = [{
        "staircase": _plain(ideal.staircase),
        "generators": [list(g) for g in ideal.generators()],
    } for ideal in fixed]
    checks = [{
        "name": "unique-fixed-point-iff-triangular",
        "ok": (len(fixed) == 1) == triangular,
    }]
    result = {
        "colength": args.i,
        "triangular": triangular,
        "triangular_root": root,
        "fixed_points": rows,
    }
    return result, checks


def cmd_frobenius(args) -> tuple[dict, list[dict]]:
    from . import _frobenius_report

    return _frobenius_report.report(args)


_COMMANDS = {
    "betti": cmd_betti,
    "strata": cmd_strata,
    "certify": cmd_certify,
    "ideals": cmd_ideals,
    "punctual": cmd_punctual,
    "frobenius": cmd_frobenius,
}


# each report's help line and options, in the order the namespace lists
# them after `command`, `json` and `table`: flag -> (type, default, required,
# metavar).  Every report also takes one of --json and --table.
_REPORTS = {
    "betti": ("Betti numbers of the Hilbert scheme of n points", {
        "--n": (int, None, True, None),
        "--surface": (str, None, False, "b0,b2,b4"),
        "--max-degree": (int, None, False, None),
    }),
    "strata": ("diagonal strata with codimensions and semismallness", {
        "--n": (int, None, True, None),
        "--surface": (str, None, False, "b0,b2,b4"),
    }),
    "certify": ("obstruct the trianalytic candidates on n points", {
        "--n": (int, None, True, None),
        "--gram": (str, None, False, "PATH"),
        "--seed": (int, 0, False, None),
    }),
    "ideals": ("invariant ideals of the truncated two-variable ring", {
        "--N": (int, None, True, None),
    }),
    "punctual": ("torus-fixed punctual ideals of a given colength", {
        "--i": (int, None, True, None),
    }),
    "frobenius": ("model Frobenius algebra dimensions and checks", {
        "--dimv": (int, None, True, None),
        "--n": (int, None, True, None),
        "--gram": (str, None, False, "PATH"),
    }),
}
_FORMATS = {"--json": "machine readable output", "--table": "flat text output (default)"}


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for well-formed argv, or None.

    Well-formed: the command first; then each option written out in full, at
    most once, with a separate value that does not start with "-" and that
    int() converts for an int option; at most one of --json and --table; and
    every required option present.
    """
    if not argv or argv[0] not in _REPORTS:
        return None
    options = _REPORTS[argv[0]][1]
    namespace = {"command": argv[0], "json": False, "table": False}
    for flag, (_, default, _, _) in options.items():
        namespace[flag[2:].replace("-", "_")] = default
    missing = sum(required for _, _, required, _ in options.values())
    seen = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag in seen:
            return None
        seen.add(flag)
        if flag in _FORMATS:
            namespace[flag[2:]] = True
            continue
        value = next(tokens, "-")
        if flag not in options or value.startswith("-"):
            return None
        kind, _, required, _ = options[flag]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        namespace[flag[2:].replace("-", "_")] = value
        missing -= required
    if missing or namespace["json"] and namespace["table"]:
        return None
    return SimpleNamespace(**namespace)


def _argparser():
    """The parser for any other argv: help, abbreviations and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(prog="hilbk3", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _REPORTS.items():
        p = sub.add_parser(name, help=help_text)
        fmt = p.add_mutually_exclusive_group()
        for flag, help_line in _FORMATS.items():
            fmt.add_argument(flag, action="store_true", help=help_line)
        for flag, (kind, default, required, metavar) in options.items():
            p.add_argument(flag, type=kind, default=default, required=required,
                           metavar=metavar)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv) or _argparser().parse_args(argv)
    parameters = {k: v for k, v in vars(args).items()
                  if k not in ("command", "json", "table") and v is not None}
    # the head of every payload; --table prints the keys in insertion order
    payload = {"schema": SCHEMA, "command": args.command, "parameters": parameters}
    try:
        result, checks = _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        # no input reaches a KeyError: it, like a RuntimeError, is a defect
        internal = isinstance(exc, (RuntimeError, KeyError))
        payload["status"] = "internal-error" if internal else "error"
        payload["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 3 if internal else 1
    else:
        ok = all(c["ok"] for c in checks)
        payload.update(result=result, checks=checks, status="ok" if ok else "failed")
        code = 0 if ok else 1
    _emit(payload, bool(args.json))
    return code
