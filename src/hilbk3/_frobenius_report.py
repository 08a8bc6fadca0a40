"""The body of the `frobenius` report."""

from math import comb

from . import frobenius, linalg
from .cli import _read_gram


def report(args) -> tuple[dict, list[dict]]:
    # the pattern first: an argument over its budget is reported before the
    # gram file is read, and the file's size before its Gram check
    pattern = frobenius.algebra_dimension_pattern(args.dimv, args.n)
    gram = _read_gram(args.gram, args.dimv)
    # entries 0..n recounted from the harmonic dimensions dim H_k =
    # C(d+k-1, k) - C(d+k-3, k-2): Sym^m = H_m + q Sym^(m-2), so dim Sym^m
    # is S_m = H_m + S_(m-2).  Both lists start two places early, at 0:
    # c[k + 2] = C(d+k-1, k) and sym[k + 2] = S_k
    d, n, c, sym = args.dimv, args.n, [0, 0], [0, 0]
    for k in range(n + 1):
        c.append(comb(d + k - 1, k))
        sym.append(c[k + 2] - c[k] + sym[k])
    # a palindrome of 2n + 1 entries is fixed by its entries 0..n
    ok = (len(pattern) == 2 * n + 1 and pattern == pattern[::-1]
          and list(pattern[:n + 1]) == sym[2:])
    checks = [{"name": "dimension-pattern-palindromic", "ok": ok}]
    result = {
        "dim_v": args.dimv,
        "n": args.n,
        "dimensions": list(pattern),
        "total_dimension": sum(pattern),
    }
    if frobenius.full_table(args.dimv, args.n):
        if gram is None:
            gram = linalg.identity(args.dimv)
        algebra = frobenius.build_algebra(gram, args.n)
        result["mode"] = "full"
        checks.append({"name": "pairing-nondegenerate",
                       "ok": algebra.check_pairing_nondegenerate()})
        checks.append({"name": "associative", "ok": algebra.check_associative()})
    else:
        result["mode"] = "dimensions-only"
    return result, checks
