import math
import random
from fractions import Fraction

import pytest

from tensornorm.chebyshev import (binary_lower_bound, binary_lower_bound_max,
                                  cheb_coefficients, chebyshev_T,
                                  optimal_decomposition_m2, psi, psi_mixed)


def fourier_coefficients(xi: float, n: int) -> list[float]:
    """Independent route to the interpolation weights via discrete inversion."""
    out = []
    for j in range(2 * n):
        total = (-1) ** j * chebyshev_T(n, xi) + 1.0
        total += 2.0 * sum(math.cos(j * k * math.pi / n) * chebyshev_T(k, xi)
                           for k in range(1, n))
        out.append(total / (2 * n))
    return out


class TestChebyshevPolynomial:
    def test_recurrence_matches_trig_form(self):
        for n in range(0, 12):
            for i in range(41):
                x = -1.0 + i / 20.0
                assert chebyshev_T(n, x) == pytest.approx(
                    math.cos(n * math.acos(max(-1.0, min(1.0, x)))), abs=1e-12)

    def test_exact_on_fractions(self):
        assert chebyshev_T(2, Fraction(5, 3)) == Fraction(41, 9)


class TestPsi:
    def test_same_sign_cube(self):
        assert psi(1, 1, 3) == 8

    def test_antidiagonal_powers_exact(self):
        for n in range(1, 11):
            assert psi(1.0, -1.0, n) == 2.0 ** (2 * n - 1)

    def test_four_minus_one(self):
        # both closed routes: the even binomial sum and 9*T_2(5/3)
        assert psi(4, -1, 2) == 41
        assert 9 * chebyshev_T(2, Fraction(5, 3)) == 41

    def test_mixed_matches_chebyshev_route(self):
        rng = random.Random(7)
        for _ in range(50):
            a = rng.uniform(0.3, 3.0)
            b = rng.uniform(0.05, a * 0.95)
            n = rng.randint(1, 8)
            want = (a - b) ** n * chebyshev_T(n, (a + b) / (a - b))
            assert psi(a, -b, n) == pytest.approx(want, rel=1e-10)

    def test_global_sign_flip(self):
        assert psi(-2.0, 1.0, 3) == psi(2.0, -1.0, 3)
        assert psi(-1.0, -1.0, 4) == psi(1.0, 1.0, 4)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_homogeneity_and_envelope(self, n):
        rng = random.Random(n)
        for _ in range(40):
            a = rng.uniform(-2, 2)
            b = rng.uniform(-2, 2)
            lam = rng.uniform(-3, 3)
            if abs(a) + abs(b) < 1e-9:
                continue
            assert psi(lam * a, lam * b, n) == pytest.approx(
                abs(lam) ** n * psi(a, b, n), rel=1e-9)
            ratio = psi(a, b, n) / (abs(a) + abs(b)) ** n
            assert ratio <= 2.0 ** (n - 1) + 1e-9
            if a * b < 0:
                assert psi(a, b, n) >= (abs(a) + abs(b)) ** n - 1e-9

    def test_equality_only_at_antidiagonal(self):
        n = 4
        assert psi(1.0, -1.0, n) == pytest.approx(2.0 ** (n - 1) * 2.0 ** n)
        assert psi(1.0, -0.5, n) < 2.0 ** (n - 1) * 1.5 ** n - 1e-6

    def test_rational_inputs_stay_exact(self):
        assert psi(Fraction(3, 2), Fraction(-1, 2), 3) == psi_mixed(
            Fraction(3, 2), Fraction(1, 2), 3)
        assert isinstance(psi(Fraction(1), Fraction(2), 4), Fraction)


class TestCoefficients:
    def test_constant_polynomial_sums_to_one(self):
        for n in (1, 2, 3, 5, 8):
            c = cheb_coefficients(2.0, 1.0, n)
            assert math.fsum(c) == pytest.approx(1.0, abs=1e-9)

    def test_alternating_signs(self):
        for n in (2, 3, 6):
            c = cheb_coefficients(3.0, 1.0, n)
            for j, cj in enumerate(c):
                assert cj * (-1) ** j > 0

    def test_interpolates_low_degree_monomials(self):
        n = 4
        a, b = 2.5, 1.0
        xi = (a + b) / (a - b)
        c = cheb_coefficients(a, b, n)
        for k in range(n + 1):
            value = math.fsum(cj * math.cos(j * math.pi / n) ** k
                              for j, cj in enumerate(c))
            assert value == pytest.approx(xi ** k, rel=1e-9)

    def test_matches_fourier_inversion(self):
        for n in (1, 2, 3, 5):
            a, b = 2.0, 0.7
            xi = (a + b) / (a - b)
            got = cheb_coefficients(a, b, n)
            want = fourier_coefficients(xi, n)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-11)

    def test_cost_identity(self):
        rng = random.Random(11)
        for _ in range(40):
            a = rng.uniform(0.5, 3.0)
            b = rng.uniform(0.05, a * 0.9)
            n = rng.randint(1, 8)
            c = cheb_coefficients(a, b, n)
            assert math.fsum(abs(x) for x in c) * (a - b) ** n == pytest.approx(
                psi(a, -b, n), rel=1e-9)

    def test_degenerate_small_b(self):
        c = cheb_coefficients(1.0, 0.0, 3)
        assert c[0] == 1.0 and all(x == 0.0 for x in c[1:])

    def test_equal_magnitudes_rejected(self):
        with pytest.raises(ValueError):
            cheb_coefficients(1.0, 1.0, 3)

    def test_mirror_symmetry(self):
        n = 5
        c = cheb_coefficients(2.0, 1.0, n)
        for j in range(1, n):
            assert c[2 * n - j] == pytest.approx(c[j], rel=1e-12)


class TestOptimalDecomposition:
    def test_antidiagonal_n2(self):
        dec = optimal_decomposition_m2(1.0, -1.0, 2)
        merged = dict((tuple(v), w) for w, v in dec.to_combination().terms)
        assert merged[(1.0, 0.0)] == pytest.approx(2.0)
        assert merged[(0.0, 1.0)] == pytest.approx(2.0)
        mid = [k for k in merged if abs(k[0] - 0.5) < 1e-12]
        assert len(mid) == 1 and merged[mid[0]] == pytest.approx(-4.0)
        assert dec.total_variation == pytest.approx(8.0)

    def test_positive_vector_single_term(self):
        dec = optimal_decomposition_m2(1.0, 1.0, 3)
        assert len(dec.coefficients) == 1
        assert dec.coefficients[0] == pytest.approx(8.0)
        assert dec.nodes[0] == pytest.approx((0.5, 0.5))
        assert dec.total_variation == pytest.approx(8.0)

    def test_two_minus_one(self):
        dec = optimal_decomposition_m2(2.0, -1.0, 2)
        assert dec.total_variation == pytest.approx(17.0, rel=1e-12)
        assert dec.reconstruction_residual() <= 1e-10

    def test_signs_alternate_for_mixed_input(self):
        dec = optimal_decomposition_m2(3.0, -1.0, 4)
        lead = dec.coefficients[0]
        for j, w in enumerate(dec.coefficients):
            assert w * (-1) ** j * lead > 0

    def test_swapped_and_negated_inputs(self):
        for (a, b) in [(-2.0, 1.0), (1.0, -3.0), (-1.0, 2.0)]:
            for n in (1, 2, 3, 5):
                dec = optimal_decomposition_m2(a, b, n)
                assert dec.total_variation == pytest.approx(psi(a, b, n), rel=1e-10)
                assert dec.reconstruction_residual() <= 1e-10
                for node in dec.nodes:
                    assert min(node) >= -1e-15
                    assert sum(node) == pytest.approx(1.0, abs=1e-12)

    def test_total_variation_matches_psi_sampled(self):
        rng = random.Random(23)
        for _ in range(60):
            a = rng.uniform(0.05, 4.0)
            b = -rng.uniform(0.05, min(a, 4.0))
            n = rng.randint(1, 8)
            dec = optimal_decomposition_m2(a, b, n)
            assert dec.total_variation == pytest.approx(psi(a, b, n), rel=1e-10)
            # residual scales with the decomposition size
            assert dec.reconstruction_residual() <= 1e-12 * max(1.0, dec.total_variation)

    def test_zero_vector(self):
        dec = optimal_decomposition_m2(0.0, 0.0, 2)
        assert dec.total_variation == 0.0 and not dec.coefficients


class TestNonFinite:
    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (math.inf, -1.0), (1.0, -math.inf)])
    def test_closed_forms_reject(self, a, b):
        for fn in (psi, cheb_coefficients, optimal_decomposition_m2):
            with pytest.raises(ValueError):
                fn(a, b, 3)

    def test_exact_inputs_pass_unchecked(self):
        # a huge int or Fraction must not reach math.isfinite, which overflows
        assert psi(10 ** 400, 1, 1) == 10 ** 400 + 1
        assert psi(Fraction(3, 2), Fraction(-1, 2), 2) == 7


class TestBinaryBounds:
    def test_exact_values(self):
        assert binary_lower_bound(2, 1) == Fraction(6, 2) == 3
        assert binary_lower_bound_max(2) == 3
        assert binary_lower_bound_max(3) == 5
        assert binary_lower_bound_max(4) == Fraction(35, 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_lower_bound(3, 4)
        with pytest.raises(ValueError):
            binary_lower_bound(3, -1)

    def test_max_dominates_all_j(self):
        for n in range(1, 12):
            best = binary_lower_bound_max(n)
            assert best == max(binary_lower_bound(n, j) for j in range(n + 1))
