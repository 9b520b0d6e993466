import math
import random

import numpy as np
import pytest

from tensornorm import lp_engine
from tensornorm._colgen import SolverOptions, run_column_generation
from tensornorm.norm_solver import (SpaceDescriptor, _PowerFamily, _simplex_lattice,
                                    cssp_l1, kappa, l1, l2dim2, norm_pi, norm_pip,
                                    norm_pis, norm_pisp, polarization_constants)
from tensornorm.chebyshev import psi
from tensornorm.exchangeable import load_distribution, mu_binary, uv_bound
from tensornorm.tensor_core import (SymmetricTensor, multi_indices, power,
                                    tensor_pushforward, wedge)

E_WEDGE = wedge([(1.0, 0.0), (0.0, 1.0)])
FAST = SolverOptions(tol=1e-6, max_rounds=120)


def random_tensor(rng, m, n):
    entries = {idx: rng.uniform(-1, 1) for idx in multi_indices(m, n)}
    return SymmetricTensor(m, n, entries)


class TestSpaceDescriptor:
    def test_l2_requires_dim2(self):
        with pytest.raises(ValueError):
            SpaceDescriptor("l2dim2", 3)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            SpaceDescriptor("linf", 2)


class TestNormPi:
    def test_wedge_pair(self):
        nb = norm_pi(E_WEDGE, l1(2))
        assert nb.lower == nb.upper == 1.0

    def test_trace_norm_antidiagonal(self):
        t = power((1.0, -1.0), 2)
        nb = norm_pi(t, l2dim2())
        assert nb.lower == pytest.approx(2.0, abs=1e-12)

    def test_pm_power_l1(self):
        nb = norm_pi(power((1.0, -1.0), 2), l1(2))
        assert nb.upper == pytest.approx(4.0)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            norm_pi(power((1.0, -1.0), 3), l2dim2())


class TestNormPisp:
    def test_kappa2_instance_with_dual_witness(self):
        nb = norm_pisp(E_WEDGE, l1(2))
        assert nb.converged
        assert nb.lower == pytest.approx(3.0, abs=1e-9)
        assert nb.upper == pytest.approx(3.0, abs=1e-9)
        # dual is proportional to the quadratic form a + c - 6b
        d = np.asarray(nb.dual)
        assert d / d[0] == pytest.approx([1.0, -6.0, 1.0], abs=1e-9)

    def test_antidiagonal_power(self):
        nb = norm_pisp(power((1.0, -1.0), 2), l1(2))
        assert nb.contains(8.0, 1e-9)

    def test_positive_power_single_term(self):
        nb = norm_pisp(power((0.25, 0.75), 3), l1(2))
        assert nb.converged
        assert nb.upper == pytest.approx(1.0, abs=1e-9)
        assert len(nb.primal.terms) == 1
        w, x = nb.primal.terms[0]
        assert w == pytest.approx(1.0, abs=1e-9)
        assert x == pytest.approx((0.25, 0.75), abs=1e-12)

    def test_brackets_contain_closed_form(self):
        rng = random.Random(5)
        for _ in range(25):
            a = rng.uniform(0.1, 1.0)
            b = -rng.uniform(0.1, 1.0)
            n = rng.randint(1, 6)
            nb = norm_pisp(power((a, b), n), l1(2), FAST)
            assert nb.converged
            assert nb.contains(psi(a, b, n), 1e-7), (a, b, n)
            assert nb.gap() <= 1e-5

    def test_dim3_mixed_tensor(self):
        t = wedge([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
        nb = norm_pisp(t, l1(3), FAST)
        assert nb.converged
        assert nb.contains(3.0, 1e-6)  # embeds the two-state instance


class TestNormPis:
    def test_wedge_pair_value_two(self):
        nb = norm_pis(E_WEDGE, l1(2))
        assert nb.converged
        assert nb.contains(2.0, 1e-7)
        assert nb.gap() <= 1e-6

    def test_elementary_power(self):
        nb = norm_pis(power((1.0, -1.0), 2), l1(2))
        assert nb.contains(4.0, 1e-8)

    def test_l2_offdiagonal(self):
        nb = norm_pis(power((1.0, 0.0), 2), l2dim2())
        assert nb.upper >= 1.0 - 1e-9
        t = SymmetricTensor(2, 2, {(0, 1): 1.0})
        nb = norm_pis(t, l2dim2())
        assert nb.contains(2.0, 1e-7)

    def test_large_dim_rejected(self):
        t = wedge([(1.0,) + (0.0,) * 4] * 2)
        with pytest.raises(ValueError):
            norm_pis(t, l1(5))


class TestNormPip:
    def test_equals_entrywise_on_l1(self):
        rng = random.Random(9)
        for _ in range(10):
            t = random_tensor(rng, 3, 2)
            nb = norm_pip(t, l1(3))
            assert nb.lower == pytest.approx(float(t.entrywise_l1()), rel=1e-12)

    def test_l2_offdiagonal(self):
        t = SymmetricTensor(2, 2, {(0, 1): 1.0})
        nb = norm_pip(t, l2dim2())
        assert nb.contains(2.0, 1e-7)

    def test_l2_antidiagonal(self):
        nb = norm_pip(power((1.0, -1.0), 2), l2dim2())
        assert nb.contains(4.0, 1e-7)
        assert nb.primal_pairs is not None


class TestKappa:
    def test_order_one(self):
        nb = kappa(1)
        assert nb.lower == nb.upper == 1.0

    def test_order_two_exact(self):
        nb = kappa(2)
        assert nb.converged
        assert nb.lower == pytest.approx(3.0, abs=1e-9)
        assert nb.upper == pytest.approx(3.0, abs=1e-9)

    def test_order_three_bracket(self):
        nb = kappa(3)
        assert nb.converged
        assert nb.lower >= 5.0 - 1e-6
        assert nb.upper <= 13.5 + 1e-6

    def test_envelope_consistency(self):
        for n in (2, 3, 4):
            nb = kappa(n)
            assert nb.lower >= n ** n / math.factorial(n) - 1e-6
            assert nb.upper <= uv_bound(n) + 1e-6


class TestCsspL1:
    @pytest.mark.parametrize("n,value", [(1, 1.0), (2, 2.0), (5, 16.0)])
    def test_values(self, n, value):
        nb = cssp_l1(n)
        assert nb.contains(value, 1e-6)
        assert nb.gap() <= 1e-6

    def test_maximizer_at_antidiagonal(self):
        n = 4
        c = math.cos(math.pi / 4)
        peak = psi(c, -c, n) / (2 * c) ** n
        grid = [psi(math.cos(t), -math.sin(t), n)
                / (math.cos(t) + math.sin(t)) ** n
                for t in np.linspace(0, math.pi / 2, 301)]
        assert peak == pytest.approx(max(grid), rel=1e-12)
        assert peak == pytest.approx(2.0 ** (n - 1), rel=1e-12)


class TestPolarizationConstants:
    def test_record_invariants(self):
        pc = polarization_constants(2)
        assert pc.kappa.lower >= pc.classical_cs_lower - 1e-7
        assert pc.cssp.contains(pc.gamma_reference, 1e-6)
        assert pc.gamma_reference == 2.0


class TestSolverInvariants:
    def test_norm_chain_brackets(self):
        rng = random.Random(77)
        for _ in range(12):
            t = random_tensor(rng, 2, rng.randint(2, 4))
            pi_b = norm_pi(t, l1(2))
            pis_b = norm_pis(t, l1(2), FAST)
            pisp_b = norm_pisp(t, l1(2), FAST)
            pip_b = norm_pip(t, l1(2))
            tol = 1e-6
            assert pi_b.upper <= pis_b.upper + tol
            assert pi_b.lower <= pis_b.lower + tol
            assert pis_b.upper <= pisp_b.upper + tol
            assert pis_b.lower <= pisp_b.lower + tol
            assert pip_b.upper <= pisp_b.upper + tol
            assert pip_b.lower <= pisp_b.lower + tol

    def test_homogeneity(self):
        t = power((0.4, -0.6), 3)
        base = norm_pisp(t, l1(2), FAST)
        for c in (-2.0, 0.5):
            nb = norm_pisp(t.scaled(c), l1(2), FAST)
            assert nb.upper == pytest.approx(abs(c) * base.upper, rel=1e-7)
            assert nb.lower == pytest.approx(abs(c) * base.lower, rel=1e-6)

    def test_more_rounds_never_increase_upper(self):
        t = power((0.3, -0.7), 4)
        coarse = norm_pisp(t, l1(2), SolverOptions(max_rounds=1))
        fine = norm_pisp(t, l1(2), SolverOptions(max_rounds=60))
        assert fine.upper <= coarse.upper + 1e-12

    def test_pushforward_contraction(self):
        rng = random.Random(31)
        for _ in range(8):
            t = random_tensor(rng, 2, 3)
            cols = []
            for _ in range(2):
                u = rng.uniform(0.05, 0.95)
                cols.append((u, 1 - u))
            M = [[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]]
            mt = tensor_pushforward(M, t)
            before = norm_pisp(t, l1(2), FAST)
            after = norm_pisp(mt, l1(2), FAST)
            assert after.upper <= before.upper + 1e-6

    def test_dual_reproduces_objective(self):
        t = power((0.5, -0.5), 3)
        nb = norm_pisp(t, l1(2))
        dual = np.asarray(nb.dual)
        total = 0.0
        for w, x in nb.primal.terms:
            col = np.asarray([math.prod(x[i] for i in idx)
                              for idx in multi_indices(2, 3)])
            total += w * float(col @ dual)
        assert total == pytest.approx(nb.upper, abs=1e-6)

    def test_dual_scaled_feasible_on_generators(self):
        t = random_tensor(random.Random(3), 2, 3)
        nb = norm_pisp(t, l1(2))
        dual = np.asarray(nb.dual)
        for u in np.linspace(0, 1, 257):
            col = np.asarray([u ** (3 - k) * (1 - u) ** k for k in range(4)])
            assert abs(float(col @ dual)) <= 1.0 + 1e-7


class _SingleSeedFamily(_PowerFamily):
    """Seeds the master with e_1 alone, so its first LPs are infeasible."""

    def seeds(self):
        return [(1.0, 0.0)]


class TestInfeasibleMaster:
    @pytest.mark.parametrize("target, value", [
        (power((0.3, 0.7), 4).vector(), 1.0),
        (mu_binary(4, 2).tensor.vector(), 35.0 / 3.0),
    ])
    def test_farkas_pricing_recovers(self, monkeypatch, target, value):
        statuses = []
        solve = lp_engine.solve_min_tv

        def counted(*args, **kwargs):
            sol = solve(*args, **kwargs)
            statuses.append(sol.status)
            return sol

        monkeypatch.setattr(lp_engine, "solve_min_tv", counted)
        nb = run_column_generation(target, _SingleSeedFamily(2, 4, signed=False))
        assert statuses[0] == "infeasible"
        assert statuses[-1] == "optimal"
        assert nb.converged
        assert nb.contains(value, 1e-9)
        assert nb.gap() <= 1e-7


class TestUncertifiedLowerEnd:
    @pytest.mark.xfail(strict=True, reason="for m >= 3 the lower end rests on grid + "
                                           "polish pricing and is not a certificate")
    def test_scaled_dual_feasible_on_fine_lattice(self):
        rng = random.Random("simplex:law-m3-n4:14")
        idx = multi_indices(3, 4)
        weights = [rng.random() for _ in idx]
        total = math.fsum(weights)
        d = load_distribution([(i, w / total) for i, w in zip(idx, weights)],
                              states=range(3), order=4)
        nb = norm_pisp(d.tensor, l1(3))
        assert nb.converged
        counts = _PowerFamily(3, 4, signed=False).counts
        lattice = _simplex_lattice(3, 600)
        cols = np.ones((len(lattice), len(idx)))
        for c in range(3):
            cols *= lattice[:, [c]] ** counts[:, c]
        assert np.abs(cols @ np.asarray(nb.dual)).max() <= 1.0 + 1e-7
