from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.utilities.iterables import partitions as sympy_partitions

from hilbk3.bb_lattice import MAX_POINTS
from hilbk3.partitions import (
    codim_diagonal,
    diagrams_of,
    fiber_dimension,
    is_triangular,
    partitions_of,
    trianalytic_candidates,
    verify_semismall,
)

from oracles import (
    CandidateAudit,
    brute_pinning_audit,
    brute_set_partitions_with_marks,
    full_pinning_audit,
    shapes_by_grammar,
)


def surviving_candidates(n):
    return tuple(a for a in full_pinning_audit(n) if a.survives)


def test_partition_counts():
    # p(1)..p(12)
    expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n, count in zip(range(1, 13), expected):
        assert len(list(partitions_of(n))) == count
        assert len(diagrams_of(n)) == count


def test_walk_matches_the_sympy_partitions():
    # sympy yields {part: multiplicity} dicts; the walk's order is reverse
    # lexicographic on the weakly decreasing tuples
    for n in range(31):
        expected = sorted((tuple(p for p in sorted(d, reverse=True) for _ in range(d[p]))
                           for d in sympy_partitions(n)), reverse=True)
        assert list(partitions_of(n)) == expected
    assert list(partitions_of(0)) == [()]
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        list(partitions_of(-1))


PAIRS = st.sets(st.tuples(st.none() | st.integers(1, 12), st.integers(1, 12)), max_size=60)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 12), PAIRS, st.booleans())
def test_row_rule_walks_exactly_the_allowed_partitions(n, pairs, listed_are_allowed):
    def allowed(previous, part):
        return ((previous, part) in pairs) == listed_are_allowed

    def rows(previous, remaining):
        asked.append((previous, remaining))
        bound = previous if previous is not None else n
        return [part for part in range(min(remaining, bound), 0, -1) if allowed(previous, part)]

    def allowed_throughout(parts):
        return all(allowed(a, b) for a, b in zip((None,) + parts, parts))

    asked = []
    walked = list(partitions_of(n, rows=rows))
    full = list(partitions_of(n))
    assert walked == [p for p in full if allowed_throughout(p)]
    # the rule is asked once below every allowed prefix with something left,
    # and never below a prefix it did not allow
    prefixes = {p[:k] for p in full for k in range(len(p)) if allowed_throughout(p[:k])}
    assert Counter(asked) == Counter(
        (q[-1] if q else None, n - sum(q)) for q in prefixes)


def test_row_rule_edge_cases():
    def nothing(previous, remaining):
        return ()

    assert list(partitions_of(0, rows=nothing)) == [()]
    assert list(partitions_of(4, rows=nothing)) == []
    # a rule that yields a part outside 1..min(remaining, previous row) is
    # rejected, not walked
    for n, rule in [
        (4, lambda previous, remaining: (5,)),
        (4, lambda previous, remaining: (0,)),
        (5, lambda previous, remaining: (2,) if previous is None else (remaining,)),
    ]:
        with pytest.raises(ValueError):
            list(partitions_of(n, rows=rule))


def test_codim_and_fiber_dimensions():
    d = (2, 1, 1)
    assert codim_diagonal(d) == 2
    assert fiber_dimension(d) == 1
    full = (4,)
    assert codim_diagonal(full) == 6
    assert fiber_dimension(full) == 3
    open_stratum = (1, 1, 1, 1)
    assert codim_diagonal(open_stratum) == 0
    assert fiber_dimension(open_stratum) == 0


def test_semismall_everywhere():
    for n in range(1, 13):
        for d in diagrams_of(n):
            assert verify_semismall(d)


def test_is_triangular():
    hits = {1: 1, 3: 2, 6: 3, 10: 4, 15: 5, 21: 6, 28: 7}
    for m in range(1, 30):
        flag, l = is_triangular(m)
        if m in hits:
            assert flag and l == hits[m]
        else:
            assert not flag and l is None
    assert is_triangular(0) == (False, None)


def test_enumerate_universal_reldim0():
    # the strata of universal subvarieties of relative dimension zero are the
    # diagrams whose parts are all triangular: the pipeline's survivors
    def universal(n):
        return set(trianalytic_candidates(n))

    assert universal(6) == {
        (6,),
        (3, 3),
        (3, 1, 1, 1),
        (1, 1, 1, 1, 1, 1),
    }
    # 4 has no all-triangular partition with a part > 1 except using 3+1
    assert (4,) not in universal(4)
    assert (3, 1) in universal(4)


def test_natural_shapes_grammar_equals_marked():
    for n in range(1, 7):
        assert shapes_by_grammar(n) == brute_set_partitions_with_marks(n)


def test_natural_shape_counts_match_brute_force():
    # sum over k of S(n, k) 2^k: set partitions into k blocks, times the
    # 2^k ways to mark blocks
    def stirling2(n, k):
        if n == k:
            return 1
        if k == 0:
            return 0
        return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)

    for n in range(1, 7):
        expected = sum(stirling2(n, k) * 2 ** k for k in range(1, n + 1))
        assert len(shapes_by_grammar(n)) == len(brute_set_partitions_with_marks(n)) == expected


def test_trianalytic_candidates_match_the_full_audit():
    # the triangular-row walk yields the full audit's survivors, in order
    for n in [*range(1, 31), 36, 45]:
        survivors = tuple(a.diagram for a in full_pinning_audit(n) if a.survives)
        assert trianalytic_candidates(n) == survivors


def test_candidate_count_is_the_triangular_parts_series():
    # the number of partitions of n into triangular parts is the coefficient
    # of q^n in prod_{l >= 1} 1 / (1 - q^(l(l+1)/2)), expanded as an int series
    coeffs = [1] + [0] * MAX_POINTS
    l = 1
    while (t := l * (l + 1) // 2) <= MAX_POINTS:
        for k in range(t, MAX_POINTS + 1):
            coeffs[k] += coeffs[k - t]
        l += 1
    for n in range(1, MAX_POINTS + 1):
        assert len(trianalytic_candidates(n)) == coeffs[n], n


def test_candidate_audit_against_brute_force():
    for n in range(1, 9):
        audits = {a.diagram: a for a in full_pinning_audit(n)}
        assert set(audits) == set(diagrams_of(n))
        for d, audit in audits.items():
            total, fat, pinned, survivors = brute_pinning_audit(d)
            assert audit.shapes_total == total
            assert audit.dropped_fat_pinned == fat
            assert audit.dropped_pinned == pinned
            expected_survives = survivors == 1 and all(
                is_triangular(p)[0] for p in d
            )
            assert audit.survives == expected_survives


def test_surviving_candidates_n6():
    survivors = {a.diagram: a for a in surviving_candidates(6)}
    assert set(survivors) == {
        (6,),
        (3, 3),
        (3, 1, 1, 1),
        (1, 1, 1, 1, 1, 1),
    }
    assert survivors[(6,)].annotation == "simple candidate, l=1"
    assert survivors[(3, 3)].annotation == "simple candidate, l=2"
    assert "product case" in survivors[(3, 1, 1, 1)].annotation
    assert "whole space" in survivors[(1, 1, 1, 1, 1, 1)].annotation


def test_candidate_audit_is_frozen_record():
    audit = full_pinning_audit(3)[0]
    assert isinstance(audit, CandidateAudit)
    with pytest.raises(Exception):
        audit.survives = False
