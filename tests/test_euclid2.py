import math
import random

import pytest

from tensornorm._colgen import SolverOptions
from tensornorm.euclid2 import (UVWCoords, constants_l2, extreme_points, half_circle_lp,
                                norm_pi_uvw, norms_ab, positive_wedge_lp, trace_norm_2x2,
                                trace_norm_bounds)
from tensornorm.tensor_core import SymmetricTensor

FAST = SolverOptions(tol=1e-7, max_rounds=120)


class TestTraceNorm:
    @pytest.mark.parametrize("matrix,value", [
        ([[0, 1], [1, 0]], 2.0),
        ([[1, 0], [0, 1]], 2.0),
        ([[1, -1], [-1, 1]], 2.0),
        ([[3, 0], [0, -4]], 7.0),
    ])
    def test_values(self, matrix, value):
        assert trace_norm_2x2(matrix) == pytest.approx(value, abs=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            trace_norm_2x2([[0, 1], [0.5, 0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("pos", [(0, 0), (0, 1), (1, 0), (1, 1)], ids=str)
    @pytest.mark.parametrize("fn", [trace_norm_2x2, trace_norm_bounds, half_circle_lp,
                                    positive_wedge_lp, UVWCoords.from_matrix],
                             ids=lambda fn: fn.__name__)
    def test_non_finite_entry_rejected(self, fn, pos, bad):
        matrix = [[1.0, 0.0], [0.0, 0.0]]
        matrix[pos[0]][pos[1]] = bad
        with pytest.raises(ValueError, match="finite"):
            fn(matrix)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("pos", range(3))
    def test_non_finite_uvw_rejected(self, pos, bad):
        uvw = [1.0, 0.0, 0.0]
        uvw[pos] = bad
        with pytest.raises(ValueError, match="finite"):
            norm_pi_uvw(*uvw)

    def test_bounds_carry_spectral_witness(self):
        nb = trace_norm_bounds([[0, 1], [1, 0]])
        assert nb.lower == nb.upper == pytest.approx(2.0)
        recon = nb.primal.evaluate()
        assert recon.value((0, 1)) == pytest.approx(1.0)
        assert nb.primal.cost(p=2) == pytest.approx(2.0)

    def test_matches_cylinder_form(self):
        rng = random.Random(12)
        for _ in range(100):
            u, v, w = (rng.uniform(-2, 2) for _ in range(3))
            A = UVWCoords(u, v, w).to_matrix()
            assert trace_norm_2x2(A) == pytest.approx(norm_pi_uvw(u, v, w), abs=1e-12)


class TestUVW:
    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            u, v, w = (rng.uniform(-2, 2) for _ in range(3))
            c = UVWCoords.from_matrix(UVWCoords(u, v, w).to_matrix())
            assert (c.u, c.v, c.w) == pytest.approx((u, v, w), abs=1e-12)


class TestClosedNorms:
    @pytest.mark.parametrize("a,b,want", [
        (1.0, -1.0, (2.0, 6.0, 4.0)),
        (0.0, 1.0, (2.0, 4.0, 2.0)),
        (1.0, 0.0, (2.0, 2.0, 2.0)),
    ])
    def test_values(self, a, b, want):
        assert norms_ab(a, b) == pytest.approx(want)

    @pytest.mark.parametrize("a,b", [(math.nan, 1.0), (1.0, -math.inf)])
    def test_non_finite_rejected(self, a, b):
        with pytest.raises(ValueError):
            norms_ab(a, b)

    def test_chain_everywhere(self):
        rng = random.Random(8)
        for _ in range(300):
            a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
            pi_v, pisp_v, pip_v = norms_ab(a, b)
            assert pi_v <= pip_v + 1e-12
            assert pip_v <= pisp_v + 1e-12

    def test_ratio_extremes(self):
        grid = [k / 200 * 2 * math.pi for k in range(401)]
        r1 = max(norms_ab(math.cos(t), math.sin(t))[1]
                 / norms_ab(math.cos(t), math.sin(t))[0] for t in grid)
        assert r1 == pytest.approx(3.0, abs=1e-9)
        r2 = max(norms_ab(math.cos(t), math.sin(t))[1]
                 / norms_ab(math.cos(t), math.sin(t))[2] for t in grid)
        assert r2 == pytest.approx(2.0, abs=1e-9)


class TestHalfCircle:
    def test_offdiagonal_with_witness(self):
        nb = half_circle_lp([[0, 1], [1, 0]], FAST)
        assert nb.converged and nb.contains(4.0, 1e-9)
        atoms = {}
        for w, x in nb.primal.terms:
            t = math.atan2(x[1], x[0])
            atoms[round(t, 6)] = atoms.get(round(t, 6), 0.0) + w
        assert atoms[round(math.pi / 4, 6)] == pytest.approx(2.0, abs=1e-6)
        assert atoms[round(0.0, 6)] == pytest.approx(-1.0, abs=1e-6)
        assert atoms[round(math.pi / 2, 6)] == pytest.approx(-1.0, abs=1e-6)

    def test_positive_power(self):
        nb = half_circle_lp([[1, 0], [0, 0]], FAST)
        assert nb.contains(1.0, 1e-9)

    def test_antidiagonal(self):
        nb = half_circle_lp([[1, -1], [-1, 1]], FAST)
        assert nb.converged and nb.contains(6.0, 1e-8)

    def test_matches_closed_form_on_plane(self):
        rng = random.Random(5)
        for _ in range(60):
            a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
            nb = half_circle_lp([[a, b], [b, a]], FAST)
            want = norms_ab(a, b)[1]
            assert nb.converged
            assert nb.contains(want, 1e-6), (a, b, want, nb.lower, nb.upper)
            assert nb.gap() <= 1e-6


class TestFullCircle:
    """The power norm over the whole circle is the trace norm; check its certificate."""

    def test_matches_trace_norm(self):
        rng = random.Random(6)
        angles = [2 * math.pi * j / 4096 for j in range(4096)]
        for _ in range(40):
            u, v, w = (rng.uniform(-2, 2) for _ in range(3))
            A = UVWCoords(u, v, w).to_matrix()
            a, b, c = A[0][0], A[0][1], A[1][1]
            nb = trace_norm_bounds(A)
            assert nb.converged and nb.lower == nb.upper and nb.iterations == 0
            recon = nb.primal.evaluate()
            target = SymmetricTensor(2, 2, {(0, 0): a, (0, 1): b, (1, 1): c})
            assert recon.residual_inf(target) <= 1e-12
            assert math.fsum(abs(wt) for wt, _ in nb.primal.terms) == nb.upper
            assert a * nb.dual[0] + b * nb.dual[1] + c * nb.dual[2] == pytest.approx(
                nb.upper, abs=1e-12)
            worst = max(abs(nb.dual[0] * math.cos(t) ** 2
                            + nb.dual[1] * math.cos(t) * math.sin(t)
                            + nb.dual[2] * math.sin(t) ** 2) for t in angles)
            assert worst <= 1 + 1e-12


class TestPositiveWedge:
    def test_offdiagonal(self):
        nb = positive_wedge_lp([[0, 1], [1, 0]], FAST)
        assert nb.converged and nb.contains(2.0, 1e-8)
        assert nb.primal_pairs

    def test_antidiagonal(self):
        nb = positive_wedge_lp([[1, -1], [-1, 1]], FAST)
        assert nb.converged and nb.contains(4.0, 1e-8)

    def test_matches_closed_form_on_plane(self):
        rng = random.Random(7)
        for _ in range(40):
            a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
            nb = positive_wedge_lp([[a, b], [b, a]], FAST)
            want = norms_ab(a, b)[2]
            assert nb.converged
            assert nb.contains(want, 1e-6), (a, b, want, nb.lower, nb.upper)

    def test_chain_against_power_norms(self):
        rng = random.Random(17)
        for _ in range(20):
            u, v, w = (rng.uniform(-1.5, 1.5) for _ in range(3))
            A = UVWCoords(u, v, w).to_matrix()
            pi_v = trace_norm_2x2(A)
            pip_b = positive_wedge_lp(A, FAST)
            pisp_b = half_circle_lp(A, FAST)
            assert pi_v <= pip_b.upper + 1e-6
            assert pip_b.upper <= pisp_b.upper + 1e-6
            assert pip_b.lower <= pisp_b.lower + 1e-6


class TestExtremePoints:
    def test_plain_ball_contains_named_points(self):
        pts = extreme_points("pi", 16)
        assert (1.0, 0.0, 1.0) in pts
        assert (-1.0, 0.0, -1.0) in pts

    def test_positive_power_half_range(self):
        pts = extreme_points("pisp", 64)
        for u, v, w in pts:
            if u > 0:
                assert v >= -1e-12  # only the s in [0, pi] arc appears
        norms = [half_circle_lp(UVWCoords(u, v, w).to_matrix(), FAST)
                 for (u, v, w) in pts[:9]]
        for nb in norms:
            assert nb.contains(1.0, 1e-7)

    def test_wedge_ball_has_corner(self):
        pts = extreme_points("pip", 8)
        assert any(p == pytest.approx((0.0, 1.0, 0.0), abs=1e-12) for p in pts)

    def test_wedge_points_have_unit_norm(self):
        pts = extreme_points("pip", 8)
        for (u, v, w) in pts[:12]:
            nb = positive_wedge_lp(UVWCoords(u, v, w).to_matrix(), FAST)
            assert nb.contains(1.0, 1e-7), (u, v, w, nb.lower, nb.upper)

    def test_plain_points_have_unit_norm(self):
        for (u, v, w) in extreme_points("pi", 32):
            assert norm_pi_uvw(u, v, w) == pytest.approx(1.0, abs=1e-12)

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            extreme_points("pi", 2)
        with pytest.raises(ValueError):
            extreme_points("cube", 8)


class TestConstants:
    def test_record_and_verification(self):
        rec = constants_l2(FAST)
        assert (rec["csp"], rec["cssp"], rec["cpsp"], rec["cp_squared"]) == (3, 3, 2, 2)
        lo, hi = rec["verified"]["csp_sample_bracket"]
        assert lo <= 3.0 + 1e-6 and hi >= 3.0 - 1e-6
        assert rec["verified"]["cpsp_sample_max"] == pytest.approx(2.0, abs=1e-9)
        assert rec["verified"]["cp_squared_sample_max"] == pytest.approx(2.0, abs=1e-9)
