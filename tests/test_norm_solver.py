import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from tensornorm import lp_engine
from tensornorm._colgen import NormBounds, PRUNE_TOL, SolverOptions, run_column_generation
from tensornorm.euclid2 import _ArcPowerFamily
from tensornorm.norm_solver import (SpaceDescriptor, _OrbitPowerFamily, _PowerFamily,
                                    _arrangements, _basis_wedge, _full_shape,
                                    _monomials, _simplex_lattice, cssp_l1, kappa, l1, l2dim2,
                                    norm_pi, norm_pip, norm_pis, norm_pisp,
                                    norm_pisp_invariant, polarization_constants)
from tensornorm.chebyshev import psi
from tensornorm.exchangeable import chi_nN, load_distribution, mu_binary, uv_bound
from tensornorm.tensor_core import (SignedPowerCombination, SymmetricTensor, multi_indices, power,
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

    def test_l2_is_the_trace_norm(self):
        t = SymmetricTensor(2, 2, {(0, 0): 0.5, (0, 1): -1.25, (1, 1): -2.0})
        nb = norm_pis(t, l2dim2())
        assert nb == norm_pi(t, l2dim2())
        assert nb.lower == nb.upper and nb.iterations == 0 and nb.converged

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

    def test_cached_result_is_not_shared(self):
        want = kappa(3)
        nb = kappa(3)
        nb.lower = 0.0
        nb.dual[0] = 123.0
        again = kappa(3)
        assert again is not nb and again.dual is not nb.dual
        assert again.lower == want.lower and again.dual == want.dual


class TestCsspL1:
    @pytest.mark.parametrize("n,value", [(1, 1.0), (2, 2.0), (5, 16.0)])
    def test_values(self, n, value):
        nb = cssp_l1(n)
        assert nb.contains(value, 1e-6)
        assert nb.gap() <= 1e-6

    def test_exact_for_every_order(self):
        for n in range(1, 61):
            nb = cssp_l1(n)
            assert nb.lower == nb.upper == 2.0 ** (n - 1), n
            assert nb.iterations == 0 and nb.converged

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


class TestSolverOptions:
    @pytest.mark.parametrize("kwargs", [
        {"tol": math.nan}, {"tol": math.inf}, {"tol": -1e-9},
        {"max_rounds": -5}, {"max_rounds": 1.5}, {"max_rounds": math.inf},
    ], ids=repr)
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)

    def test_boundary_values_accepted(self):
        assert SolverOptions(tol=0, max_rounds=0) == SolverOptions(0.0, 0)
        assert SolverOptions(max_rounds=np.int64(3)).max_rounds == 3


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


class _NearSeedArcFamily(_ArcPowerFamily):
    """Prices a violated column 4e-13 from the seed angle 0."""

    def oracle(self, y):
        return 0.0 + 4e-13, 2.0, []


class _NearSeedPowerFamily(_SingleSeedFamily):
    """Prices a violated column 4e-13 from the seed (1, 0)."""

    def oracle(self, y):
        return (1.0 - 4e-13, 4e-13), 2.0, []


class _KeptWeightsFamily(_PowerFamily):
    """Records the (parameter, weight) pairs the witness is built from."""

    def primal(self, kept):
        self.kept = kept
        return super().primal(kept)


class TestColumnIdentity:
    """run_column_generation keys every parameter to 12 decimals and prunes the weights."""

    @pytest.mark.parametrize("family", [_NearSeedArcFamily(),
                                        _NearSeedPowerFamily(2, 4, signed=False)],
                             ids=["angle", "tuple"])
    def test_parameter_within_12_decimals_is_no_new_column(self, family):
        target = family.column(family.seeds()[0])
        nb = run_column_generation(target, family)
        assert nb.iterations == 1 and not nb.converged
        assert nb.upper == pytest.approx(1.0, abs=1e-12)

    def test_primal_gets_only_weights_above_prune_tol(self):
        fam = _KeptWeightsFamily(2, 4, signed=False)
        nb = run_column_generation(mu_binary(4, 2).tensor.vector(), fam)
        assert nb.converged and fam.kept
        assert all(type(w) is float and abs(w) > PRUNE_TOL for _, w in fam.kept)
        assert len(nb.primal.terms) == len(fam.kept)


def test_iteration_limit_master_is_not_converged(monkeypatch):
    solve = lp_engine.solve_min_tv

    def limited(*args, **kwargs):
        sol = solve(*args, **kwargs)
        if sol.status == "optimal":
            sol = dataclasses.replace(sol, status="iteration-limit")
        return sol

    assert norm_pisp(power((0.3, 0.7), 4), l1(2)).converged
    monkeypatch.setattr(lp_engine, "solve_min_tv", limited)
    assert not norm_pisp(power((0.3, 0.7), 4), l1(2)).converged


def test_phase_one_cut_short_gives_no_bracket(monkeypatch):
    solve = lp_engine.solve_min_tv
    monkeypatch.setattr(lp_engine, "solve_min_tv",
                        lambda cols, target: solve(cols, target, max_iters=1))
    nb = norm_pisp(power((0.3, 0.7), 4), l1(2))
    assert (nb.lower, nb.upper, nb.primal, nb.dual) == (0.0, math.inf, None, None)
    assert nb.iterations == 1 and not nb.converged


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


def _polarization_cost(n):
    return math.fsum(math.comb(n, k) * k ** n for k in range(n + 1)) / math.factorial(n)


def _wedge_basis(n):
    return wedge([tuple(float(j == i) for j in range(n)) for i in range(n)])


def _all_distinct(t):
    # the reduced target of a tensor whose only non-zero type is n distinct indices
    return {(1,) * t.order: t.entries[tuple(range(t.order))]}


class TestOrbitFamily:
    """The orbit-reduced master: one row per partition, half-degree pricing."""

    @pytest.mark.parametrize("length", range(1, 8))
    def test_arrangements_are_the_sorted_distinct_permutations(self, length):
        rng = random.Random(f"arrangements:{length}")
        for _ in range(20):
            x = tuple(rng.choice((0.0, 0.0, 0.125, 0.25, 0.5)) for _ in range(length))
            assert _arrangements(x) == sorted(set(itertools.permutations(x)))

    def test_rows_are_partitions(self):
        assert [len(_OrbitPowerFamily(n, n).parts) for n in (3, 4, 5)] == [3, 5, 7]
        assert _OrbitPowerFamily(5, 2).parts == [(2,), (1, 1)]
        assert _OrbitPowerFamily(2, 4).parts == [(4,), (3, 1), (2, 2)]

    @pytest.mark.parametrize("dim,n", [(3, 3), (4, 4), (5, 5), (6, 3), (7, 4)])
    def test_column_is_the_type_average(self, dim, n):
        fam = _OrbitPowerFamily(dim, n)
        idx = multi_indices(dim, n)
        counts = np.asarray([[i.count(c) for c in range(dim)] for i in idx])
        types = [tuple(sorted((k for k in row if k), reverse=True)) for row in counts.tolist()]
        rng = random.Random(f"orbit-column:{dim}:{n}")
        for blocks in [(1,), (dim,), (1, 2), (2, dim - 2)]:
            vals = [rng.random() for _ in blocks]
            x = [v for v, k in zip(vals, blocks) for _ in range(k)]
            x = np.asarray(x + [0.0] * (dim - len(x)))
            x /= x.sum()
            full = _monomials(x, counts)
            want = [full[[t == lam for t in types]].mean() for lam in fam.parts]
            assert fam.column(tuple(sorted(x, reverse=True))) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_kappa_closes_on_the_polarization_cost(self, n):
        nb = kappa(n)
        assert nb.converged
        assert nb.lower == pytest.approx(_polarization_cost(n), rel=1e-9)
        assert nb.upper == pytest.approx(_polarization_cost(n), rel=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_expanded_primal_reconstructs_the_wedge(self, n):
        nb = kappa(n)
        tv = math.fsum(abs(w) for w, _ in nb.primal.terms)
        assert tv == pytest.approx(nb.upper, rel=1e-12)
        residual = nb.primal.evaluate().residual_inf(_wedge_basis(n))
        assert residual <= 1e-12 * tv

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_expanded_dual_is_feasible(self, n):
        # grid + polish over the whole simplex: the pricing lattice and beyond
        nb = kappa(n)
        assert len(nb.dual) == len(multi_indices(n, n))
        _, peak, _ = _PowerFamily(n, n, signed=False).oracle(nb.dual)
        assert peak <= 1.0 + 1e-9
        lower = float(np.asarray(_wedge_basis(n).vector()) @ np.asarray(nb.dual))
        assert lower == pytest.approx(nb.lower, rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_kappa_target_is_the_wedge_entry(self, n):
        assert _basis_wedge(n) == _all_distinct(_wedge_basis(n))

    def test_three_block_pricing_from_order_six(self):
        # n = 6 prices three-block patterns by grid + polish; two rounds keep
        # the polarization decomposition as the upper end
        nb = norm_pisp_invariant(6, 6, _all_distinct(_wedge_basis(6)), SolverOptions(max_rounds=2))
        nb = _full_shape(nb, 6, 6)
        assert nb.iterations == 2 and not nb.converged
        assert nb.upper == pytest.approx(_polarization_cost(6), rel=1e-12)
        assert 0.0 < nb.lower <= nb.upper
        tv = math.fsum(abs(w) for w, _ in nb.primal.terms)
        assert nb.primal.evaluate().residual_inf(_wedge_basis(6)) <= 1e-12 * tv

    def test_rejects_a_key_that_is_not_a_partition(self):
        # n = 3 over l1^2: (3,) and (2, 1) are the rows
        assert norm_pisp_invariant(2, 3, {(2, 1): 0.25}).converged
        for key in [(1, 2), (2, 2), (1, 1, 1), (3, 0), (2, 1, 0), 3]:
            with pytest.raises(ValueError, match="not a partition of 3 into at most 2 parts"):
                norm_pisp_invariant(2, 3, {(2, 1): 0.25, key: 0.0})

    @pytest.mark.parametrize("dim,n", [(1, 1), (4, 1), (3, 2), (2, 5), (5, 3), (4, 4)])
    def test_types_index_the_partitions(self, dim, n):
        # closed-form rows and sizes against the types of the multi-indices
        fam = _OrbitPowerFamily(dim, n)
        types = [tuple(sorted((i.count(c) for c in set(i)), reverse=True))
                 for i in multi_indices(dim, n)]
        assert fam.parts == sorted(set(types), reverse=True)
        assert fam.sizes.tolist() == [types.count(lam) for lam in fam.parts]

    @pytest.mark.parametrize("n,N", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4)])
    def test_overlaps_the_plain_solve(self, n, N):
        t = chi_nN(n, N).tensor
        orbit, plain = norm_pisp_invariant(N, n, _all_distinct(t)), norm_pisp(t, l1(N))
        widen = 1e-7 * max(1.0, orbit.upper)
        assert orbit.lower <= plain.upper + widen and plain.lower <= orbit.upper + widen

    @pytest.mark.parametrize("n,N", [(2, 5), (3, 6), (4, 7)])
    def test_expanded_witness_reconstructs_chi(self, n, N):
        t = chi_nN(n, N).tensor
        nb = norm_pisp_invariant(N, n, _all_distinct(t))
        full = _full_shape(nb, N, n).primal
        assert len(nb.primal.terms) < len(full.terms)
        tv = math.fsum(abs(w) for w, _ in nb.primal.terms)
        assert tv == pytest.approx(nb.upper, rel=1e-12)
        residual = full.evaluate().residual_inf(t)
        assert residual <= 1e-12 * max(abs(v) for v in t.entries.values())

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_half_degree_maximum_matches_the_simplex(self, n):
        fam = _OrbitPowerFamily(n, n)
        full = _PowerFamily(n, n, signed=False)
        rng = random.Random(f"half-degree:{n}")
        for _ in range(20):
            y = [rng.uniform(-1, 1) for _ in fam.parts]
            _, half, _ = fam.oracle(y)
            reduced = NormBounds(0.0, 0.0, SignedPowerCombination(n, n, ()), y, 0, False)
            dual = _full_shape(reduced, n, n).dual
            _, whole, _ = full.oracle(dual)
            assert half >= whole - 1e-12
