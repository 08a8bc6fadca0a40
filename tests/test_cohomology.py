import pytest

from hilbk3 import cohomology
from hilbk3.cohomology import (
    MAX_BETTI_N,
    MAX_STRATA_N,
    PoincarePolynomial,
    SurfaceBetti,
    diagonal_poincare,
    hilbert_poincare,
    hilbert_stratum_ledger,
    symmetric_power_poincare,
)
from hilbk3.partitions import YoungDiagram, codim_diagonal, diagrams_of

from oracles import (
    brute_symmetric_power,
    euler_numbers_24,
    goettsche_betti,
    goettsche_rows,
    stratum_entries_in_degree,
    stratum_sum,
)

K3 = SurfaceBetti.k3()


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
    assert SurfaceBetti(1, 5, 1).poincare().betti == (1, 0, 5, 0, 1)


def test_symmetric_power_against_brute_force():
    for surface in (K3, SurfaceBetti(1, 5, 1), SurfaceBetti(1, 0, 3)):
        for n in range(1, 5):
            got = symmetric_power_poincare(surface, n)
            want = brute_symmetric_power(surface.b0, surface.b2, surface.b4, n)
            assert got.betti == want


def test_symmetric_power_edge_cases():
    assert symmetric_power_poincare(K3, 0).betti == (1,)
    assert symmetric_power_poincare(K3, 1).betti == (1, 0, 22, 0, 1)


def test_diagonal_poincare_is_product_over_distinct_part_values():
    d = YoungDiagram((2, 2, 1))
    got = diagonal_poincare(K3, d)
    want = symmetric_power_poincare(K3, 2) * symmetric_power_poincare(K3, 1)
    assert got.betti == want.betti


def test_hilbert_poincare_n2_frozen_vector():
    assert hilbert_poincare(K3, 2).betti == (1, 0, 23, 0, 276, 0, 23, 0, 1)


def test_hilbert_poincare_matches_infinite_product():
    for n in range(1, 6):
        assert hilbert_poincare(K3, n).betti == goettsche_betti(1, 22, 1, n)


def test_hilbert_poincare_duality_and_parity():
    for n in range(1, 6):
        p = hilbert_poincare(K3, n)
        assert p.top_degree == 4 * n
        assert p.is_palindromic
        assert p.has_only_even_degrees
        assert p.coefficient(0) == 1


def test_euler_characteristics_match_eta_product():
    chis = euler_numbers_24(6)
    for n in range(1, 7):
        assert hilbert_poincare(K3, n).euler_characteristic == chis[n]


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
    # one expansion of the product gives every row
    rows = goettsche_rows(1, 22, 1, 30)
    for n in range(1, 31):
        ledger = hilbert_stratum_ledger(K3, n)
        total = ledger.total()
        assert total.betti == rows[n]
        assert total == stratum_sum(ledger)
        for i in range(7):
            assert ledger.entries_in_degree(i) == stratum_entries_in_degree(ledger, i)


def test_knapsack_matches_goettsche_past_the_strata_cap():
    # betti runs up to MAX_BETTI_N, where no per-stratum sum could follow;
    # on K3 and on the surfaces with the widest and the narrowest packed
    # slots, b0 + b2 + b4 = 24, 32 and 1
    for surface in (K3, SurfaceBetti(1, 30, 1), SurfaceBetti(1, 0, 0)):
        rows = goettsche_rows(*surface, MAX_BETTI_N)
        for n in (MAX_STRATA_N + 1, 64, MAX_BETTI_N):
            assert hilbert_poincare(surface, n).betti == rows[n]


def test_packed_knapsack_raises_when_its_slots_carry(monkeypatch):
    # one-bit slots carry as soon as a Betti number exceeds 1: the slot sum
    # catches it, even with assertions stripped, and no wrong table is returned
    cases = [(surface, n) for surface in (K3, SurfaceBetti(1, 30, 1), SurfaceBetti(1, 0, 0))
             for n in (1, 2, 5, 16)]
    tables = [hilbert_poincare(surface, n) for surface, n in cases]
    monkeypatch.setattr(cohomology, "_slot_bits", lambda bound: 1)
    for (surface, n), table in zip(cases, tables):
        if max(table.betti) > 1:
            with pytest.raises(RuntimeError, match="carried"):
                hilbert_poincare(surface, n)
        else:
            assert hilbert_poincare(surface, n) == table


@pytest.mark.parametrize("surface", [SurfaceBetti(1, 0, 1), SurfaceBetti(1, 7, 1),
                                     SurfaceBetti(1, 2, 3)], ids=str)
def test_knapsack_matches_per_stratum_sum_on_other_surfaces(surface):
    for n in range(1, 25):
        ledger = hilbert_stratum_ledger(surface, n)
        assert ledger.total() == stratum_sum(ledger)
        for i in range(7):
            assert ledger.entries_in_degree(i) == stratum_entries_in_degree(ledger, i)


def test_degree_two_ledger_entries():
    ledger = hilbert_stratum_ledger(K3, 4)
    entries = dict(ledger.entries_in_degree(2))
    assert entries == {
        YoungDiagram((1, 1, 1, 1)): 22,
        YoungDiagram((2, 1, 1)): 1,
    }


def test_generic_surface_b2():
    # b2 of the Hilbert scheme is the surface b2 plus one, for any surface
    for b2 in (0, 5, 22):
        surface = SurfaceBetti(1, b2, 1)
        for n in (2, 3, 4):
            assert hilbert_poincare(surface, n).coefficient(2) == b2 + 1
