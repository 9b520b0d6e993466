import math
import random
from fractions import Fraction

import pytest

from tensornorm._colgen import SolverOptions
from tensornorm.exchangeable import (chi_nN, iid, kappa_bounds, kappa_nN_bounds,
                                     kappa_nNm_bounds, load_distribution,
                                     mu_binary, partition_log_slack, represent,
                                     uv_bound, verify_representation)
from tensornorm.tensor_core import multi_indices

FAST = SolverOptions(tol=1e-6, max_rounds=120)


def random_exchangeable(rng, m, n):
    atoms = []
    weights = [rng.random() for _ in multi_indices(m, n)]
    total = sum(weights)
    for idx, w in zip(multi_indices(m, n), weights):
        atoms.append((idx, w / total))
    return load_distribution(atoms, states=range(m), order=n)


class TestLoadDistribution:
    def test_single_off_diagonal_atom(self):
        d = load_distribution([((0, 1), 1.0)])
        assert d.tensor.entries == {(0, 1): 0.5}

    def test_iid_fair_coin(self):
        d = load_distribution([((0, 0), 0.25), ((0, 1), 0.5), ((1, 1), 0.25)])
        assert all(v == pytest.approx(0.25) for v in d.tensor.entries.values())
        assert len(d.tensor.entries) == 3

    def test_point_mass(self):
        d = load_distribution([((0, 0), 1.0)], states=(0, 1))
        assert d.tensor.entries == {(0, 0): 1.0}
        assert d.num_states == 2

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError):
            load_distribution([((0, 1), -0.5), ((0, 0), 1.5)])

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            load_distribution([((0, 1), 0.7)])

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            load_distribution([((0, 3), 1.0)], states=(0, 1))

    def test_unordered_atoms_are_symmetrised(self):
        d1 = load_distribution([((1, 0), 1.0)])
        d2 = load_distribution([((0, 1), 1.0)])
        assert d1.tensor.entries == d2.tensor.entries


class TestRepresent:
    def test_uniform_transposition_lp(self):
        d = load_distribution([((0, 1), 1.0)])
        mes = represent(d, "lp")
        assert mes.total_variation == pytest.approx(3.0, abs=1e-8)
        atoms = dict((tuple(nu), w) for w, nu in mes.atoms)
        assert atoms[(0.5, 0.5)] == pytest.approx(2.0, abs=1e-8)
        assert atoms[(1.0, 0.0)] == pytest.approx(-0.5, abs=1e-8)
        assert atoms[(0.0, 1.0)] == pytest.approx(-0.5, abs=1e-8)

    def test_iid_single_atom(self):
        d = iid((0.25, 0.75), 3)
        mes = represent(d, "lp")
        assert len(mes.atoms) == 1
        w, nu = mes.atoms[0]
        assert w == pytest.approx(1.0, abs=1e-9)
        assert nu == pytest.approx((0.25, 0.75), abs=1e-12)
        assert mes.total_variation == pytest.approx(1.0, abs=1e-9)

    def test_lp_measure_matches_norm_bracket(self):
        d = load_distribution([((0, 1), 1.0)])
        report = verify_representation(d, represent(d, "lp"))
        assert report["residual"] <= 1e-8
        assert report["weight_sum"] == pytest.approx(1.0, abs=1e-8)

    def test_constructive_reproduces_and_bounded(self):
        rng = random.Random(42)
        for _ in range(6):
            m = rng.randint(2, 3)
            n = rng.randint(2, 4)
            d = random_exchangeable(rng, m, n)
            mes = represent(d, "constructive", FAST)
            report = verify_representation(d, mes)
            assert report["residual"] <= 1e-8
            assert report["weight_sum"] == pytest.approx(1.0, abs=1e-8)
            assert mes.total_variation <= uv_bound(n) + 1e-6

    def test_constructive_fallback_without_lp_primal(self):
        # max_rounds=0 leaves kappa without a primal, so the master
        # decomposition falls back to polarization + Vandermonde nodes
        d = mu_binary(3, 1)
        mes = represent(d, "constructive", SolverOptions(max_rounds=0))
        report = verify_representation(d, mes)
        assert report["residual"] <= 1e-9
        assert report["weight_sum"] == pytest.approx(1.0, abs=1e-9)
        assert mes.total_variation > represent(d, "constructive").total_variation

    def test_lp_beats_constructive(self):
        rng = random.Random(43)
        for _ in range(5):
            d = random_exchangeable(rng, 2, 3)
            tv_lp = represent(d, "lp", FAST).total_variation
            tv_con = represent(d, "constructive", FAST).total_variation
            assert tv_lp <= tv_con + 1e-6

    def test_tv_at_least_one(self):
        rng = random.Random(44)
        for _ in range(5):
            d = random_exchangeable(rng, 3, 2)
            mes = represent(d, "lp", FAST)
            assert mes.total_variation >= 1.0 - 1e-9

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            represent(iid((1.0,), 2), "magic")


class TestVerifyRepresentation:
    def test_exact_measure_passes(self):
        d = load_distribution([((0, 1), 1.0)])
        mes = represent(d, "lp")
        rep = verify_representation(d, mes)
        assert rep["residual"] <= 1e-10
        assert rep["tv"] == pytest.approx(3.0, abs=1e-8)

    def test_empty_measure_reports_max_entry(self):
        from tensornorm.exchangeable import SignedMixingMeasure
        d = load_distribution([((0, 1), 1.0)])
        rep = verify_representation(d, SignedMixingMeasure([], 0.0))
        assert rep["residual"] == pytest.approx(0.5)

    def test_scaled_measure_flagged(self):
        d = load_distribution([((0, 1), 1.0)])
        mes = represent(d, "lp")
        mes.atoms = [(2 * w, nu) for w, nu in mes.atoms]
        rep = verify_representation(d, mes)
        assert rep["weight_sum"] == pytest.approx(2.0, abs=1e-7)


class TestUvBound:
    def test_order_two_exact(self):
        assert uv_bound(2) == 3.0

    def test_order_three(self):
        assert uv_bound(3) == 13.5

    def test_order_one(self):
        assert uv_bound(1) == 1.0

    def test_envelope(self):
        for n in range(1, 13):
            val = uv_bound(n)
            crude = 2 ** (n - 1) * n ** n / math.factorial(n)
            assert n ** n / math.factorial(n) <= val + 1e-9
            assert val <= crude + 1e-9


class TestKappaBounds:
    def test_small_orders(self):
        assert kappa_bounds(1) == (1.0, 1.0, 1.0)
        assert kappa_bounds(2) == (3.0, 3.0, 4.0)
        lo, uv, crude = kappa_bounds(3)
        assert lo == 5.0 and uv == 13.5 and crude == 18.0

    def test_lower_from_binomials(self):
        assert kappa_bounds(4)[0] == pytest.approx(float(Fraction(35, 3)))


class TestChi:
    def test_chi_23(self):
        d = chi_nN(2, 3)
        want = {idx: pytest.approx(1 / 6) for idx in [(0, 1), (0, 2), (1, 2)]}
        assert d.tensor.entries == want

    def test_chi_nn_is_permutation_law(self):
        from tensornorm.tensor_core import wedge
        d = chi_nN(3, 3)
        basis = [(1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)]
        assert d.tensor.residual_inf(wedge(basis)) <= 1e-12

    def test_chi_1N_uniform(self):
        d = chi_nN(1, 4)
        assert all(v == pytest.approx(0.25) for v in d.tensor.entries.values())

    def test_rejects_n_above_N(self):
        with pytest.raises(ValueError):
            chi_nN(3, 2)

    def test_probability_mass(self):
        for (n, N) in [(2, 4), (3, 5)]:
            assert chi_nN(n, N).tensor.entrywise_l1() == pytest.approx(1.0)


class TestExtendibilityBounds:
    def test_n2_N3_formulas(self):
        eb = kappa_nN_bounds(2, 3)
        assert eb.upper == pytest.approx(3.0)
        assert eb.lower == pytest.approx(math.exp(0.25))

    def test_nn_equals_kappa(self):
        eb = kappa_nN_bounds(2, 2, exact=True)
        assert eb.lp_value.contains(3.0, 1e-7)
        assert eb.lower == pytest.approx(math.exp(0.5))

    def test_exact_values_decreasing_in_N(self):
        uppers = []
        lowers = []
        for N in (2, 3, 4, 5):
            eb = kappa_nN_bounds(2, N, exact=True, opts=FAST)
            assert eb.lp_value.converged
            assert eb.lower - 1e-6 <= eb.lp_value.upper
            assert eb.lp_value.lower <= eb.upper + 1e-6
            uppers.append(eb.lp_value.upper)
            lowers.append(eb.lp_value.lower)
        for a, b in zip(uppers, uppers[1:]):
            assert b <= a + 1e-6
        for a, b in zip(lowers, lowers[1:]):
            assert b <= a + 1e-6

    def test_m_variant_formulas(self):
        eb = kappa_nNm_bounds(2, 4, 2)
        assert eb.upper == pytest.approx(7.0)
        assert eb.lower == pytest.approx(math.exp(0.25))

    def test_m_one_degenerate(self):
        eb = kappa_nNm_bounds(2, 4, 1, exact=True, opts=FAST)
        assert eb.lower == 1.0
        assert eb.lp_value.contains(1.0, 1e-7)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            kappa_nN_bounds(3, 2)
        with pytest.raises(ValueError):
            kappa_nNm_bounds(2, 4, 3)


class TestBinaryMarginals:
    def test_mu_j_entries(self):
        d = mu_binary(3, 1)
        assert d.tensor.entries == {(0, 1, 1): pytest.approx(1 / 3)}
        assert d.tensor.entrywise_l1() == pytest.approx(1.0)

    def test_lp_value_respects_binomial_bound(self):
        from tensornorm.chebyshev import binary_lower_bound
        from tensornorm.norm_solver import l1, norm_pisp
        for n in (2, 3):
            for j in range(n + 1):
                d = mu_binary(n, j)
                nb = norm_pisp(d.tensor, l1(2), FAST)
                assert nb.upper >= float(binary_lower_bound(n, j)) - 1e-7


class TestPartitionSlack:
    def test_trivial_single_part(self):
        assert partition_log_slack((4,), 0.7) == pytest.approx(0.0)

    def test_two_singletons(self):
        want = -math.log(0.75) - 0.25
        assert partition_log_slack((1, 1), 0.5) == pytest.approx(want, rel=1e-12)

    def test_zero_t(self):
        assert partition_log_slack((2, 2), 0.0) == 0.0

    def test_rejects_t_one_with_large_part(self):
        with pytest.raises(ValueError):
            partition_log_slack((2, 1), 1.0)

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            partition_log_slack((0, 2), 0.5)

    def test_non_negative_over_random_partitions(self):
        rng = random.Random(99)
        for _ in range(400):
            n = rng.randint(1, 12)
            parts = []
            rem = n
            while rem:
                p = rng.randint(1, rem)
                parts.append(p)
                rem -= p
            t = rng.uniform(0.0, 0.999999)
            assert partition_log_slack(parts, t) >= -1e-12
