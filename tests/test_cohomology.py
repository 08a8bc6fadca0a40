from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbk3 import cohomology
from hilbk3.cohomology import (
    MAX_BETTI_N,
    MAX_STRATA_N,
    PoincarePolynomial,
    SurfaceBetti,
    diagonal_poincare,
    hilbert_stratum_ledger,
    symmetric_power_poincare,
)
from hilbk3.partitions import codim_diagonal, diagrams_of

from oracles import (
    brute_symmetric_power,
    cycle_index_symmetric_power,
    euler_numbers_24,
    goettsche_betti,
    goettsche_rows,
    knapsack_betti,
    plain_stratum_poincare,
    stratum_entries_in_degree,
    stratum_sum,
)

K3 = SurfaceBetti.k3()
# surfaces with b2 and b4 from 0 to the --surface bound 10^6
_SURFACES = st.builds(SurfaceBetti, st.just(1),
                      st.sampled_from((0, 22, 10 ** 6)) | st.integers(0, 30),
                      st.sampled_from((0, 10 ** 6)) | st.integers(0, 3))


def test_poincare_polynomial_basics():
    p = PoincarePolynomial((1, 0, 2, 0, 1))
    assert p.top_degree == 4
    assert p.coefficient(2) == 2
    assert p.coefficient(99) == 0
    assert p.euler_characteristic == 4
    assert p.is_palindromic
    assert p.has_only_even_degrees
    assert not PoincarePolynomial((1, 1)).has_only_even_degrees
    assert not PoincarePolynomial((1, 0, 2)).is_palindromic


def test_poincare_polynomial_trims_and_validates():
    p = PoincarePolynomial((1, 2, 0, 0))
    assert p.betti == (1, 2)
    assert PoincarePolynomial((0,)).betti == ()
    with pytest.raises(ValueError):
        PoincarePolynomial((1, -1))


def test_poincare_ring_operations():
    a = PoincarePolynomial((1, 1))
    b = PoincarePolynomial((1, 0, 3))
    assert (a * b).betti == (1, 1, 3, 3)
    assert (a * PoincarePolynomial(())).betti == ()
    # euler characteristic is multiplicative (signs alternate)
    ac = a.euler_characteristic
    bc = b.euler_characteristic
    assert (a * b).euler_characteristic == ac * bc


def test_surface_betti_validation():
    assert K3.b0 == 1 and K3.b2 == 22 and K3.b4 == 1
    with pytest.raises(ValueError):
        SurfaceBetti(b0=2, b2=22, b4=1)
    with pytest.raises(ValueError):
        SurfaceBetti(1, 22, -1)
    # the surface itself is its first symmetric power
    assert symmetric_power_poincare(SurfaceBetti(1, 5, 1), 1).betti == (1, 0, 5, 0, 1)


def test_symmetric_power_against_brute_force():
    for surface in (K3, SurfaceBetti(1, 5, 1), SurfaceBetti(1, 0, 3)):
        for n in range(1, 5):
            got = symmetric_power_poincare(surface, n)
            want = brute_symmetric_power(surface.b0, surface.b2, surface.b4, n)
            assert got.betti == want


@settings(derandomize=True, max_examples=150, deadline=None)
@given(surface=_SURFACES, n=st.integers(0, 6))
def test_symmetric_power_matches_brute_force_and_the_cycle_index(surface, n):
    # the multichoose columns against the cycle index of S_n on every surface,
    # and against multiset enumeration wherever that is affordable
    got = symmetric_power_poincare(surface, n)
    assert got == cycle_index_symmetric_power(*surface, n)
    if comb(sum(surface) + n - 1, n) <= 20_000:
        assert got.betti == brute_symmetric_power(*surface, n)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(surface=_SURFACES, parts=st.lists(st.integers(1, 6), min_size=1, max_size=14))
def test_prefix_built_stratum_polynomial_is_the_plain_product(surface, parts):
    # the signature read from the run lengths of the sorted parts, and the
    # product built from the signature one shorter, against one product per
    # multiplicity taken factor by factor
    diagram = tuple(sorted(parts, reverse=True))
    mults = tuple(sorted(Counter(parts).values()))
    want = plain_stratum_poincare(surface, mults)
    assert cohomology._stratum_poincare(surface, mults) == want
    assert diagonal_poincare(surface, diagram) == want


def test_symmetric_power_edge_cases():
    assert symmetric_power_poincare(K3, 0).betti == (1,)
    assert symmetric_power_poincare(K3, 1).betti == (1, 0, 22, 0, 1)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        symmetric_power_poincare(K3, -1)


def test_diagonal_poincare_is_product_over_distinct_part_values():
    d = (2, 2, 1)
    got = diagonal_poincare(K3, d)
    want = symmetric_power_poincare(K3, 2) * symmetric_power_poincare(K3, 1)
    assert got.betti == want.betti


def test_hilbert_poincare_n2_frozen_vector():
    assert hilbert_stratum_ledger(K3, 2).total().betti == (1, 0, 23, 0, 276, 0, 23, 0, 1)


def test_hilbert_poincare_matches_infinite_product():
    for n in range(1, 6):
        assert hilbert_stratum_ledger(K3, n).total().betti == goettsche_betti(1, 22, 1, n)


def test_hilbert_poincare_duality_and_parity():
    for n in range(1, 6):
        p = hilbert_stratum_ledger(K3, n).total()
        assert p.top_degree == 4 * n
        assert p.is_palindromic
        assert p.has_only_even_degrees
        assert p.coefficient(0) == 1


def test_euler_characteristics_match_eta_product():
    chis = euler_numbers_24(6)
    for n in range(1, 7):
        assert hilbert_stratum_ledger(K3, n).total().euler_characteristic == chis[n]


def test_stratum_ledger_structure():
    for n in (1, 3, 6):
        ledger = hilbert_stratum_ledger(K3, n)
        assert tuple(c.diagram for c in ledger.contributions) == diagrams_of(n)
        for c in ledger.contributions:
            assert c.codim == codim_diagonal(c.diagram)
            assert c.poincare == diagonal_poincare(K3, c.diagram)
        assert ledger.total() == stratum_sum(ledger)
        for i in range(-1, 4 * n + 2):
            assert ledger.entries_in_degree(i) == stratum_entries_in_degree(ledger, i)


def test_knapsack_matches_per_stratum_sum_and_goettsche_on_k3():
    # the recurrence, the knapsack by part value, the per-stratum sum and one
    # expansion of the product give every row
    rows = goettsche_rows(1, 22, 1, 30)
    for n in range(1, 31):
        ledger = hilbert_stratum_ledger(K3, n)
        total = ledger.total()
        assert total.betti == rows[n]
        assert total == knapsack_betti(K3, n) == stratum_sum(ledger)
        for i in range(7):
            assert ledger.entries_in_degree(i) == stratum_entries_in_degree(ledger, i)


def test_knapsack_matches_goettsche_past_the_strata_cap():
    # betti runs up to MAX_BETTI_N, where no per-stratum sum could follow;
    # the recurrence and the knapsack on K3 and on 1,30,1 and 1,0,0, with
    # b0 + b2 + b4 = 24, 32 and 1
    for surface in (K3, SurfaceBetti(1, 30, 1), SurfaceBetti(1, 0, 0)):
        rows = goettsche_rows(*surface, MAX_BETTI_N)
        for n in (MAX_STRATA_N + 1, 64, MAX_BETTI_N):
            assert hilbert_stratum_ledger(surface, n).total().betti == rows[n]
            assert knapsack_betti(surface, n).betti == rows[n]


@pytest.mark.parametrize("surface", [SurfaceBetti(1, 10 ** 6, 1), SurfaceBetti(1, 0, 10 ** 6),
                                     SurfaceBetti(1, 10 ** 6, 10 ** 6)], ids=str)
def test_recurrence_matches_the_knapsack_on_surfaces_at_the_bound(surface):
    # the widest slots --surface allows, where the product expansion, one
    # factor per class, cannot follow
    for n in (1, 2, 3, 7, 16, 30, 50):
        assert hilbert_stratum_ledger(surface, n).total() == knapsack_betti(surface, n)


def test_packed_recurrence_raises_when_its_slots_carry(monkeypatch):
    # one-bit slots carry as soon as a Betti number exceeds 1: the slot sum
    # catches it, even with assertions stripped, and no wrong table is returned
    cases = [(surface, n) for surface in (K3, SurfaceBetti(1, 30, 1), SurfaceBetti(1, 0, 0))
             for n in (1, 2, 5, 16)]
    tables = [hilbert_stratum_ledger(surface, n).total() for surface, n in cases]
    euler_count = cohomology._euler_count

    class OneBitCount(int):
        # a(n) itself, but n a(n), the bound the slot width is read off, is 1
        def __rmul__(self, n):
            return 1

    monkeypatch.setattr(cohomology, "_euler_count",
                        lambda surface, n: OneBitCount(euler_count(surface, n)))
    for (surface, n), table in zip(cases, tables):
        if max(table.betti) > 1:
            with pytest.raises(RuntimeError, match="carried"):
                hilbert_stratum_ledger(surface, n).total()
        else:
            assert hilbert_stratum_ledger(surface, n).total() == table


def test_recurrence_raises_when_a_division_leaves_a_remainder(monkeypatch):
    # D_2 without its constant term b0 (divisor k = 1): 2 F_2 then has an odd
    # constant term on these surfaces, and the exact division by N = 2
    # catches it, even with assertions stripped; no wrong table is returned
    derivative = cohomology._log_derivative

    def defective(surface, n):
        terms = derivative(surface, n)
        terms[2] = [(e, c) for e, c in terms[2] if e]
        return terms

    monkeypatch.setattr(cohomology, "_log_derivative", defective)
    for surface in (K3, SurfaceBetti(1, 0, 0), SurfaceBetti(1, 7, 1)):
        for n in (2, 5, 16):
            with pytest.raises(RuntimeError, match="remainder"):
                hilbert_stratum_ledger(surface, n).total()


@pytest.mark.parametrize("surface", [SurfaceBetti(1, 0, 1), SurfaceBetti(1, 7, 1),
                                     SurfaceBetti(1, 2, 3)], ids=str)
def test_knapsack_matches_per_stratum_sum_on_other_surfaces(surface):
    for n in range(1, 25):
        ledger = hilbert_stratum_ledger(surface, n)
        assert ledger.total() == knapsack_betti(surface, n) == stratum_sum(ledger)
        for i in range(7):
            assert ledger.entries_in_degree(i) == stratum_entries_in_degree(ledger, i)


def test_degree_two_ledger_entries():
    ledger = hilbert_stratum_ledger(K3, 4)
    entries = dict(ledger.entries_in_degree(2))
    assert entries == {
        (1, 1, 1, 1): 22,
        (2, 1, 1): 1,
    }


def test_generic_surface_b2():
    # b2 of the Hilbert scheme is the surface b2 plus one, for any surface
    for b2 in (0, 5, 22):
        surface = SurfaceBetti(1, b2, 1)
        for n in (2, 3, 4):
            assert hilbert_stratum_ledger(surface, n).total().coefficient(2) == b2 + 1
