from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbk3 import invariant_ideals, partitions
from hilbk3.invariant_ideals import (
    MAX_COLENGTH,
    MAX_TRUNCATION,
    InvariantIdeal,
    MonomialIdeal,
    classify_invariant_ideals,
    irreducibility_certificate,
    punctual_fixed_points,
)
from hilbk3.partitions import is_triangular

from oracles import (
    TruncatedRing,
    brute_invariant_supports,
    brute_stable_staircases,
    highest_weight_dimension,
    mat_add,
    mat_mul,
    mat_scale,
    nullspace_irreducibility_certificate,
    ring_recheck_ideal,
    staircase_is_stable,
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
    assert highest_weight_dimension(e) == 1
    assert highest_weight_dimension(doubled) == 2


def test_classification_is_powers_of_the_maximal_ideal():
    for n in range(2, 11):
        ideals = classify_invariant_ideals(n)
        powers = [i.maximal_ideal_power() for i in ideals]
        assert powers == list(range(1, n))
        for ideal in ideals:
            assert ideal.degrees == tuple(range(ideal.degrees[0], n))


def test_a_support_that_is_not_a_suffix_is_no_power_of_m():
    # the classification lists suffixes only, so these come from no report
    assert InvariantIdeal(6, (2, 3, 4, 5)).maximal_ideal_power() == 2
    for degrees in ((2, 4), (1, 2, 3), (0, 2, 3, 4, 5), ()):
        assert InvariantIdeal(6, degrees).maximal_ideal_power() is None


def test_classification_matches_the_support_sweep():
    for n in range(1, 13):
        assert [i.degrees for i in classify_invariant_ideals(n)] == brute_invariant_supports(n)


def test_closure_rule_matches_the_ring_routes(monkeypatch):
    # the ideal recheck against the whole-ring recheck on every support the
    # sweep visits
    for n in range(1, 11):
        ring = TruncatedRing(n)
        for mask in range(1, (1 << n) - 1):
            degrees = tuple(l for l in range(n) if mask >> l & 1)
            assert invariant_ideals._recheck_ideal(n, degrees) == (
                ring_recheck_ideal(ring, degrees)), degrees
    # the staircase check against the quotient-cell scan on every partition
    for i in range(1, 15):
        for parts in partitions.partitions_of(i):
            quotient = MonomialIdeal(parts).quotient_monomials()
            assert invariant_ideals._closed_under_e_and_f(quotient) == (
                staircase_is_stable(quotient)), parts
    # the images of e the certificate reads against the ring's slice matrix:
    # it applies e once to each monomial x^(l-r) y^r, column r, and the image
    # x^(l-s) y^s lands in row s
    seen = []
    act_e = invariant_ideals._act_e
    monkeypatch.setattr(invariant_ideals, "_act_e",
                        lambda a, b: seen.append(((a, b), act_e(a, b))) or seen[-1][1])
    for l in range(MAX_TRUNCATION):
        seen.clear()
        assert irreducibility_certificate(l)
        assert [mono for mono, _ in seen] == [(l - r, r) for r in range(l + 1)], l
        matrix = [[0] * (l + 1) for _ in range(l + 1)]
        for (_, r), image in seen:
            if image is not None:
                coeff, (_, s) = image
                matrix[s][r] = coeff
        assert matrix == TruncatedRing(l + 1).matrix_e_on_degree(l), l


def test_certificate_matches_the_nullspace_oracle():
    for l in range(MAX_TRUNCATION):
        assert irreducibility_certificate(l) is nullspace_irreducibility_certificate(l) is True
        assert highest_weight_dimension(TruncatedRing(l + 1).matrix_e_on_degree(l)) == 1
    with pytest.raises(ValueError):
        irreducibility_certificate(-1)


def _certify_with(l, images):
    """The certificate's verdict on degree l when e sends x^(l-r) y^r to
    coeff x^(l-s) y^s for images[r] = (coeff, s), and kills it for None;
    and the oracle's, from the nullspace of that matrix of e."""
    matrix = [[0] * (l + 1) for _ in range(l + 1)]
    for r, image in enumerate(images):
        if image is not None:
            matrix[image[1]][r] = image[0]
    act = [image and (image[0], (l - image[1], image[1])) for image in images]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariant_ideals, "_act_e", lambda a, b: act[b])
        verdict = irreducibility_certificate(l)
    return verdict, highest_weight_dimension(matrix) == 1


def test_a_non_injective_e_fails_the_certificate():
    # e x^a y^b = b x^(a+b) for b >= 1 kills one monomial, like e, but sends
    # the other l onto one monomial, so its kernel has dimension l
    for l in range(2, 13):
        assert _certify_with(l, [None] + [(r, 0) for r in range(1, l + 1)]) == (False, False)
    # e itself, and e with one image or a coefficient taken away
    for l in range(1, 13):
        e = [None] + [(r, r - 1) for r in range(1, l + 1)]
        assert _certify_with(l, e) == (True, True)
        assert _certify_with(l, e[:-1] + [None]) == (False, False)
        assert _certify_with(l, e[:-1] + [(0, l - 1)]) == (False, False)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), l=st.integers(0, 8))
def test_certificate_matches_the_nullspace_on_drawn_raising_maps(data, l):
    # e raises the h-weight, and so does each drawn map: x^(l-r) y^r goes to
    # a multiple (possibly 0) of some x^(l-s) y^s with s < r, or to zero.
    # The count of e's images is then exactly the kernel's dimension
    images = [None] + [data.draw(st.none() | st.tuples(st.integers(-3, 3), st.integers(0, r - 1)))
                       for r in range(1, l + 1)]
    verdict, oracle = _certify_with(l, images)
    assert verdict == oracle


def test_classification_cap():
    with pytest.raises(ValueError):
        classify_invariant_ideals(MAX_TRUNCATION + 1)


def test_monomial_ideal_geometry():
    ideal = MonomialIdeal((2, 1))
    assert sum(ideal.staircase) == len(ideal.quotient_monomials()) == 3
    assert ideal.quotient_monomials() == {(0, 0), (1, 0), (0, 1)}
    assert ideal.generators() == ((2, 0), (1, 1), (0, 2))


def test_punctual_fixed_points_are_staircases():
    for i in range(1, 22):
        pts = punctual_fixed_points(i)
        flag, l = is_triangular(i)
        if flag:
            assert len(pts) == 1
            assert pts[0].staircase == tuple(range(l, 0, -1))
        else:
            assert pts == ()


def test_punctual_fixed_points_match_brute_force():
    for i in range(1, 31):
        fast = sorted(p.staircase for p in punctual_fixed_points(i))
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
        assert [p.staircase for p in pts] == ([tuple(range(l, 0, -1))] if flag else [])


def test_unstable_staircase_from_the_walk_is_an_invariant_failure(monkeypatch):
    # a walk that ignores the row rule yields (4,) first, which is not stable
    monkeypatch.setattr(invariant_ideals, "partitions_of",
                        lambda n, rows: partitions.partitions_of(n))
    with pytest.raises(RuntimeError):
        punctual_fixed_points(4)
