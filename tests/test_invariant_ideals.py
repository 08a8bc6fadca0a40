from fractions import Fraction

import pytest

from hilbk3 import invariant_ideals, linalg, partitions
from hilbk3.invariant_ideals import (
    MAX_COLENGTH,
    MAX_TRUNCATION,
    MonomialIdeal,
    TruncatedRing,
    classify_invariant_ideals,
    irreducibility_certificate,
    punctual_fixed_points,
)
from hilbk3.partitions import YoungDiagram, is_triangular

from oracles import (
    brute_invariant_supports,
    brute_stable_staircases,
    mat_add,
    mat_mul,
    mat_scale,
)


def act_h(mono):
    a, b = mono
    return (a - b, mono)


def operator_matrix(ring, act):
    """Matrix of a single-monomial action on the whole truncated ring."""
    index = {m: k for k, m in enumerate(ring.monomials)}
    dim = len(ring.monomials)
    out = [[Fraction(0)] * dim for _ in range(dim)]
    for k, mono in enumerate(ring.monomials):
        image = act(mono)
        if image is not None and image[0] != 0:
            coeff, target = image
            out[index[target]][k] = Fraction(coeff)
    return out


def test_ring_dimensions_and_grading():
    for n in (1, 3, 6):
        ring = TruncatedRing(n)
        assert len(ring.monomials) == n * (n + 1) // 2
        for l in range(n):
            assert len(ring.degree_indices(l)) == l + 1


def test_operator_actions_on_monomials():
    ring = TruncatedRing(5)
    # e = x d/dy, f = y d/dx, h = x d/dx - y d/dy
    assert ring.act_e((1, 2)) == (2, (2, 1))
    assert ring.act_e((3, 0)) is None or ring.act_e((3, 0))[0] == 0
    assert ring.act_f((1, 2)) == (1, (0, 3))
    assert act_h((3, 1)) == (2, (3, 1))


def test_commutation_relations():
    ring = TruncatedRing(6)
    e, f, h = (operator_matrix(ring, act) for act in (ring.act_e, ring.act_f, act_h))

    def bracket(a, b):
        return mat_add(mat_mul(a, b), mat_scale(mat_mul(b, a), -1))

    assert bracket(e, f) == h
    assert bracket(h, e) == mat_scale(e, 2)
    assert bracket(h, f) == mat_scale(f, -2)


def test_operators_preserve_degree():
    ring = TruncatedRing(5)
    for mono in ring.monomials:
        for act in (ring.act_e, ring.act_f):
            image = act(mono)
            if image is not None and image[0] != 0:
                assert sum(image[1]) == sum(mono)


def test_irreducibility_certificates():
    for l in range(13):
        assert irreducibility_certificate(l)
        # the certificate's ring C[x, y]/m^(l+1) has the slice of every larger one
        for truncation in (l + 2, 13):
            assert TruncatedRing(truncation).matrix_e_on_degree(l) == (
                TruncatedRing(l + 1).matrix_e_on_degree(l))
    # control: two copies of the same slice have a 2-dim highest weight space
    ring = TruncatedRing(6)
    e = ring.matrix_e_on_degree(4)
    m = len(e)
    doubled = [row + [0] * m for row in e] + [[0] * m + row for row in e]
    assert len(linalg.nullspace(e, m)) == 1
    assert len(linalg.nullspace(doubled, 2 * m)) == 2


def test_classification_is_powers_of_the_maximal_ideal():
    for n in range(2, 11):
        ideals = classify_invariant_ideals(n)
        powers = [i.maximal_ideal_power() for i in ideals]
        assert powers == list(range(1, n))
        for ideal in ideals:
            assert ideal.degrees == tuple(range(ideal.degrees[0], n))


def test_classification_matches_the_support_sweep():
    for n in range(1, 13):
        assert [i.degrees for i in classify_invariant_ideals(n)] == brute_invariant_supports(n)


def test_classification_cap():
    with pytest.raises(ValueError):
        classify_invariant_ideals(MAX_TRUNCATION + 1)


def test_monomial_ideal_geometry():
    ideal = MonomialIdeal(YoungDiagram((2, 1)), truncation=4)
    assert sum(ideal.staircase.parts) == len(ideal.quotient_monomials()) == 3
    assert ideal.quotient_monomials() == {(0, 0), (1, 0), (0, 1)}
    assert ideal.generators() == ((2, 0), (1, 1), (0, 2))


def test_punctual_fixed_points_are_staircases():
    for i in range(1, 22):
        pts = punctual_fixed_points(i)
        flag, l = is_triangular(i)
        if flag:
            assert len(pts) == 1
            assert pts[0].staircase == YoungDiagram(tuple(range(l, 0, -1)))
        else:
            assert pts == ()


def test_punctual_fixed_points_match_brute_force():
    for i in range(1, 31):
        fast = sorted(tuple(p.staircase.parts) for p in punctual_fixed_points(i))
        brute = sorted(brute_stable_staircases(i))
        assert fast == brute


def test_punctual_validation():
    with pytest.raises(ValueError):
        punctual_fixed_points(0)
    with pytest.raises(ValueError):
        punctual_fixed_points(MAX_COLENGTH + 1)


def test_punctual_fixed_points_at_the_budget():
    for i in (MAX_COLENGTH, 99681):  # 99681 = 446 * 447 / 2, the last triangular one
        flag, l = is_triangular(i)
        pts = punctual_fixed_points(i)
        assert [p.staircase.parts for p in pts] == ([tuple(range(l, 0, -1))] if flag else [])


def test_unstable_staircase_from_the_walk_is_an_invariant_failure(monkeypatch):
    # a walk that ignores the row rule yields (4,) first, which is not stable
    monkeypatch.setattr(invariant_ideals, "partitions_of",
                        lambda n, rows: partitions.partitions_of(n))
    with pytest.raises(RuntimeError):
        punctual_fixed_points(4)
