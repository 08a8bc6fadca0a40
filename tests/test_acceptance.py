"""Acceptance suite: twelve end-to-end criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
criterion prints exactly one "ACCEPTANCE kk PASS/FAIL" line.  All arithmetic
is exact, so there are no tolerances anywhere: equalities are equalities.
"""

import random
from fractions import Fraction

from hilbk3 import linalg
from hilbk3.bb_lattice import (
    H2Lattice,
    bb_pair,
    certify_no_trianalytic,
    h4_obstruction,
    is_su2_invariant,
    k3_lattice,
    obstruction_coefficient,
    q_norm,
    random_period_triple,
)
from hilbk3.cohomology import SurfaceBetti, hilbert_stratum_ledger
from hilbk3.frobenius import algebra_dimension_pattern, build_algebra
from hilbk3.invariant_ideals import classify_invariant_ideals, punctual_fixed_points
from hilbk3.partitions import (
    diagrams_of,
    is_triangular,
    trianalytic_candidates,
    verify_semismall,
)

from oracles import (
    basis_class,
    brute_set_partitions_with_marks,
    delta_class,
    delta_module_dimension,
    delta_squared_form,
    flat_period_triple,
    full_gram,
    goettsche_betti,
    obstruction_coefficient_from_tensors,
    orbit_dimension_d2,
    random_isotropic,
    shapes_by_grammar,
)

K3 = SurfaceBetti.k3()


def _report(num, description, body):
    from conftest import ACCEPTANCE_LINES

    try:
        body()
    except BaseException:
        line = f"ACCEPTANCE {num:02d} FAIL: {description}"
        print(line)
        ACCEPTANCE_LINES.append(line)
        raise
    line = f"ACCEPTANCE {num:02d} PASS: {description}"
    print(line)
    ACCEPTANCE_LINES.append(line)


def test_01_second_betti_number_is_23():
    def body():
        for n in range(2, 11):
            ledger = hilbert_stratum_ledger(K3, n)
            entries = dict(ledger.entries_in_degree(2))
            open_stratum = (1,) * n
            doubled = (2,) + (1,) * (n - 2)
            assert entries == {open_stratum: 22, doubled: 1}
            assert ledger.total().coefficient(2) == 23

    _report(1, "b_2 of the Hilbert scheme is 22 + 1 = 23 for 2 <= n <= 10, "
               "split over the open and first diagonal strata", body)


def test_02_betti_tables_match_infinite_product():
    def body():
        assert hilbert_stratum_ledger(K3, 2).total().betti == (1, 0, 23, 0, 276, 0, 23, 0, 1)
        for n in range(1, 7):
            p = hilbert_stratum_ledger(K3, n).total()
            assert p.betti == goettsche_betti(1, 22, 1, n)
            assert p.is_palindromic
            assert p.has_only_even_degrees
            assert p.top_degree == 4 * n

    _report(2, "Betti tables for n <= 6 match the infinite-product oracle, "
               "satisfy duality, and reproduce the frozen n = 2 table", body)


def test_03_cycle_map_is_semismall():
    def body():
        for n in range(1, 13):
            for d in diagrams_of(n):
                assert verify_semismall(d)

    _report(3, "2 * fiber dimension equals stratum codimension for every "
               "diagonal stratum of every n <= 12", body)


def test_04_exceptional_class_norm():
    def body():
        for n in range(2, 21):
            lat = k3_lattice(n)
            d = delta_class(lat)
            assert q_norm(lat, d) == -2 * (n - 1)
            for i in range(0, lat.dim_v, 5):
                assert bb_pair(lat, d, basis_class(lat, i)) == 0

    _report(4, "the exceptional class has BB square -2(n-1) and is "
               "BB-orthogonal to the surface part for 2 <= n <= 20", body)


def test_05_pullback_coefficient_vanishes_only_trivially():
    def body():
        assert obstruction_coefficient(6, 2) == Fraction(1, 5)
        assert obstruction_coefficient(12, 4) == Fraction(1, 33)
        pairs = 0
        for n in range(2, 61):
            for l in range(2, n + 1):
                if n % l:
                    continue
                ok, _ = is_triangular(n // l)
                if not ok:
                    continue
                pairs += 1
                c = obstruction_coefficient(n, l)
                assert (c == 0) == (n == l)
        assert pairs > 59  # the trivial family n = l plus genuine cases

    _report(5, "the exceptional pullback coefficient 1/(2(l-1)) - t/(2(n-1)) "
               "vanishes iff n = l, over every valid (n, l) with n <= 60", body)


def test_06_tensor_transport_agrees_with_closed_form():
    def body():
        rng = random.Random(2024)
        cases = [(6, 2), (12, 4), (12, 2), (9, 3), (20, 2)]
        done = 0
        while done < 10:
            dim = rng.randint(3, 6)
            rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
            gram = tuple(tuple(rows[i][j] + rows[j][i] for j in range(dim)) for i in range(dim))
            if linalg.det([list(map(Fraction, r)) for r in gram]) == 0:
                continue
            n, l = cases[done % len(cases)]
            src, dst = H2Lattice(n, gram), H2Lattice(l, gram)
            assert obstruction_coefficient_from_tensors(src, dst) == obstruction_coefficient(n, l)
            done += 1

    _report(6, "transporting the inverse BB tensor along the pullback and "
               "subtracting the target's reproduces the closed-form "
               "coefficient for 10 random surface grams", body)


def test_07_rotation_invariance_of_the_tensors():
    def body():
        lat = k3_lattice(3)
        rng = random.Random(20260814)
        b = full_gram(lat)
        d2 = delta_squared_form(lat)
        # the degree-4 functional B + 2(n-1) d^2 on plain matrices has the
        # integral view the su(2) check reads: the lattice's, with delta's
        # row emptied
        gden, rows = lat.integral
        assert linalg.integral_rows([[x + 4 * y for x, y in zip(rb, rd)]
                                     for rb, rd in zip(b, d2)]) == (gden, rows[:-1] + ((),))
        bview, d2view = linalg.integral_rows(b)[1], linalg.integral_rows(d2)[1]
        for trial in range(20):
            with_delta = trial % 2 == 0
            # the library's triples always touch delta; the flat ones come
            # from the oracle, from the same draws
            triple = (random_period_triple if with_delta else flat_period_triple)(lat, rng)
            assert is_su2_invariant(bview, triple)
            m = delta_module_dimension(lat, triple)
            orbit = orbit_dimension_d2(lat, triple)
            if with_delta:
                assert not is_su2_invariant(d2view, triple)
                assert m == 4
                assert orbit == m * (m + 1) // 2 - 1 == 9
            else:
                assert is_su2_invariant(d2view, triple)
                assert m == 1
                assert orbit == 1

    _report(7, "the BB form is rotation-invariant for 20 random period "
               "triples; d^2 moves in a 9-dimensional orbit when the "
               "periods touch delta and is invariant when they do not", body)


def test_08_degree_four_functional_obstructs_punctual_candidates():
    def body():
        for n in (3, 6, 10):
            lat = k3_lattice(n)
            rng = random.Random(n)
            for _ in range(10):
                triple = random_period_triple(lat, rng)
                assert h4_obstruction(triple)

    _report(8, "f = B + 2(n-1)d^2 fails rotation-invariance for every one "
               "of 10 random period triples at each of n = 3, 6, 10", body)


def test_09_certification_runs_clean_through_n_12():
    def body():
        for n in range(2, 13):
            report = certify_no_trianalytic(n, seed=0)
            assert report.verdict == "certified"
            for cert in report.certificates:
                if cert.kind == "simple":
                    assert cert.status == "obstructed"
            again = certify_no_trianalytic(n, seed=0)
            assert again == report

    _report(9, "certify_no_trianalytic returns verdict 'certified' with "
               "every simple candidate obstructed for all 2 <= n <= 12, "
               "deterministically", body)


def test_10_frobenius_models_check_out():
    def body():
        grams = {
            2: ((0, 1), (1, 0)),
            3: ((0, 1, 0), (1, 0, 0), (0, 0, 2)),
            4: ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
        }
        algebras = []
        for dim_v, gram in grams.items():
            for n in (1, 2, 3):
                alg = build_algebra(gram, n)
                dims = tuple(alg.dim(i) for i in range(2 * n + 1))
                assert dims == algebra_dimension_pattern(dim_v, n)
                assert alg.check_pairing_nondegenerate()
                assert alg.check_associative()
                algebras.append((gram, alg))
        rng = random.Random(99)
        for k in range(50):
            gram, alg = algebras[k % len(algebras)]
            alpha = random_isotropic(gram, rng)
            assert any(x != 0 for x in alg.power_of_linear(alpha, alg.n))
            assert all(x == 0 for x in alg.power_of_linear(alpha, alg.n + 1))
        even = hilbert_stratum_ledger(K3, 2).total().betti[::2]
        assert algebra_dimension_pattern(23, 2) == even

    _report(10, "all 9 model algebras have the predicted dimensions, "
                "nondegenerate pairings and associative products; 50 random "
                "isotropic classes satisfy alpha^(n+1) = 0 with alpha^n != 0; "
                "the dim-23 pattern equals the even Betti table of n = 2", body)


def test_11_invariant_ideals_and_punctual_fixed_points():
    def body():
        for n in range(2, 11):
            ideals = classify_invariant_ideals(n)
            assert [i.maximal_ideal_power() for i in ideals] == list(range(1, n))
        for i in range(1, 31):
            pts = punctual_fixed_points(i)
            flag, l = is_triangular(i)
            if flag:
                assert len(pts) == 1
                assert pts[0].staircase == tuple(range(l, 0, -1))
            else:
                assert pts == ()
        for n in range(1, 9):
            universal = set(trianalytic_candidates(n))
            for d in diagrams_of(n):
                expected = all(len(punctual_fixed_points(p)) == 1 for p in d)
                assert (d in universal) == expected

    _report(11, "the invariant ideals of the truncated ring are exactly the "
                "powers of the maximal ideal (N <= 10); punctual fixed points "
                "exist uniquely iff the colength is triangular (i <= 30), "
                "matching the universal stratum enumeration", body)


def test_12_shape_grammar_closure_is_complete():
    def body():
        for n in range(1, 6):
            assert shapes_by_grammar(n) == brute_set_partitions_with_marks(n)

    _report(12, "the three production rules generate exactly the marked set "
                "partitions for every n <= 5", body)
