import math
import random
from fractions import Fraction

import pytest

from tensornorm import norm_solver
from tensornorm._colgen import PRUNE_TOL, SolverOptions
from tensornorm.exchangeable import (_master_decomposition, _merged_measure, chi_nN, iid,
                                     kappa_bounds,
                                     kappa_nN_bounds, kappa_nNm_bounds, load_distribution,
                                     mu_binary, partition_log_slack, represent,
                                     uv_bound, verify_representation)
from tensornorm.tensor_core import (SignedPowerCombination, multi_indices, multiplicity,
                                    pushforward, wedge)

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

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_probability(self, p):
        with pytest.raises(ValueError, match="probability"):
            load_distribution([((0, 0), p), ((0, 1), 1.0)], states=(0, 1))

    @pytest.mark.parametrize("states", [(0, 1), None])
    @pytest.mark.parametrize("idx", [(0.9, 1.2), (0, 1.5), (0, math.nan), (0, math.inf),
                                     (0, "1")])
    def test_rejects_non_integral_index(self, idx, states):
        with pytest.raises(ValueError, match="not an integer"):
            load_distribution([(idx, 1.0)], states=states)

    def test_integral_floats_are_indices(self):
        d = load_distribution([((0.0, 1.0), 1.0)], states=(0, 1))
        assert d.tensor.entries == {(0, 1): 0.5}
        assert all(type(i) is int for idx in d.tensor.entries for i in idx)

    @pytest.mark.parametrize("nu", [(math.nan, 1.0), (0.5, math.inf), (-math.inf, 1.0)])
    def test_iid_rejects_non_finite_entries(self, nu):
        with pytest.raises(ValueError, match="probability vector"):
            iid(nu, 3)

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
            mes = represent(d, "constructive")
            report = verify_representation(d, mes)
            assert report["residual"] <= 1e-8
            assert report["weight_sum"] == pytest.approx(1.0, abs=1e-8)
            assert mes.total_variation <= uv_bound(n) + 1e-6

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_constructive_reconstructs_at_every_order(self, m, n):
        d = random_exchangeable(random.Random(100 * m + n), m, n)
        mes = represent(d, "constructive")
        report = verify_representation(d, mes)
        assert report["residual"] <= 1e-12 * mes.total_variation
        assert report["weight_sum_dev"] <= 1e-12 * mes.total_variation

    def test_constructive_order_five_binary(self):
        # the 31 master terms pushed through the word 01111 merge into the
        # barycentres (1/k, 1 - 1/k), k = 1..5, and the point mass (0, 1)
        mes = represent(mu_binary(5, 1), "constructive")
        assert len(mes.atoms) == 6
        assert mes.total_variation == pytest.approx(75.4, abs=1e-9)

    def test_constructive_atoms_are_not_rounded(self):
        # atoms merge as exact Fractions; each is then the float of its Fraction
        mes = represent(mu_binary(3, 1), "constructive")
        assert [nu for _, nu in mes.atoms] == [(0.0, 1.0), (1 / 3, 2 / 3), (0.5, 0.5),
                                               (1.0, 0.0)]
        # only the merged weights' rounding is left (5.6e-17 at (1, 1, 1))
        assert verify_representation(mu_binary(3, 1), mes)["residual"] <= 1e-16

    def test_constructive_reads_no_solver_option(self):
        # the master is a closed form: no LP, so no setting can change it
        d = mu_binary(3, 1)
        mes = represent(d, "constructive", SolverOptions(max_rounds=0))
        assert mes.atoms == represent(d, "constructive").atoms
        assert mes.total_variation == pytest.approx(25 / 3, abs=1e-12)

    def test_constructive_merges_atoms_that_words_share(self):
        # both words push the master onto the barycentres of {0}, {1} and {0, 1}
        d = load_distribution([((0, 0, 1), 0.5), ((0, 1, 1), 0.5)])
        master = _master_decomposition(3)
        exact: dict = {}
        pushed = 0
        for idx, p in d.tensor.entries.items():
            positions = [[int(s == state) for s in idx] for state in range(2)]
            for a, nu in pushforward(positions, master).terms:
                assert all(isinstance(v, Fraction) for v in nu)
                exact[nu] = exact.get(nu, 0) + Fraction(p) * multiplicity(idx) * a
                pushed += 1
        want = [(w, tuple(map(float, nu))) for nu, w in sorted(exact.items())
                if abs(w) > PRUNE_TOL]
        mes = represent(d, "constructive")
        assert pushed > len(exact) >= len(mes.atoms)
        assert all(type(v) is float for w, nu in mes.atoms for v in (w, *nu))
        assert [nu for _, nu in mes.atoms] == [nu for _, nu in want]
        assert [w for w, _ in mes.atoms] == pytest.approx([float(w) for w, _ in want],
                                                          abs=1e-12)

    def test_merge_drops_weights_that_cancel(self):
        one, half = (1.0, 0.0), (0.5, 0.5)
        comb_ = SignedPowerCombination(2, 2, ((0.75, one), (0.5, half), (2e-10, (0.0, 1.0)),
                                              (-0.5 + 5e-11, half), (0.25, one)))
        mes = _merged_measure(comb_)
        assert mes.atoms == [(2e-10, (0.0, 1.0)), (1.0, (1.0, 0.0))]
        assert mes.total_variation == math.fsum([2e-10, 1.0])

    @pytest.mark.parametrize("m, n", [(2, 4), (3, 3)])
    def test_lp_atoms_are_the_witness_terms(self, m, n):
        d = random_exchangeable(random.Random(10 * m + n), m, n)
        terms = norm_solver.norm_pisp(d.tensor, norm_solver.l1(m), FAST).primal.terms

        def bits(atoms):
            return [(w.hex(), tuple(v.hex() for v in nu)) for w, nu in atoms]

        mes = represent(d, "lp", FAST)
        assert len(terms) > 1
        assert bits(mes.atoms) == bits(terms)
        assert mes.total_variation == math.fsum(abs(w) for w, _ in terms)

    def test_lp_beats_constructive(self):
        rng = random.Random(43)
        for _ in range(5):
            d = random_exchangeable(rng, 2, 3)
            tv_lp = represent(d, "lp", FAST).total_variation
            tv_con = represent(d, "constructive").total_variation
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


class TestMasterDecomposition:
    """The polarization identity as an exact decomposition of e_1 v ... v e_n."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_cost_is_the_closed_form(self, n):
        master = _master_decomposition(n)
        assert len(master.terms) == 2 ** n - 1
        want = Fraction(sum(math.comb(n, k) * k ** n for k in range(1, n + 1)),
                        math.factorial(n))
        assert master.cost() == want

    @pytest.mark.parametrize("n", range(1, 7))
    def test_evaluates_to_the_symmetrised_basis(self, n):
        basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        assert _master_decomposition(n).evaluate(exact=True) == wedge(basis, exact=True)


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

    @pytest.mark.parametrize("N", range(4, 9))
    def test_exact_order_four_is_finite(self, N):
        eb = kappa_nN_bounds(4, N, exact=True)
        nb = eb.lp_value
        assert nb.converged and math.isfinite(nb.upper)
        assert 1.0 <= nb.lower <= nb.upper <= nb.lower * (1 + 1e-9)
        assert nb.upper <= uv_bound(4) + 1e-9

    def test_exact_values_on_record(self):
        # chi_2,N for N = 2..5 and chi_4,5 = 59/4
        for N, value in [(2, 3.0), (3, 2.0), (4, 5 / 3), (5, 1.5)]:
            assert kappa_nN_bounds(2, N, exact=True).lp_value.contains(value, 1e-9)
        assert kappa_nN_bounds(4, 5, exact=True).lp_value.contains(14.75, 1e-9)

    @pytest.mark.parametrize("n,N", [(1, 1), (2, 5), (3, 7), (5, 12), (6, 9)])
    def test_exact_solve_reads_chi_on_its_types(self, n, N, monkeypatch):
        seen = []
        monkeypatch.setattr(norm_solver, "norm_pisp_invariant", lambda *args: seen.append(args))
        kappa_nN_bounds(n, N, exact=True)
        [(dim, order, target, _)] = seen
        assert (dim, order, list(target)) == (N, n, [(1,) * n])
        assert set(chi_nN(n, N).tensor.entries.values()) == {target[(1,) * n]}

    def test_no_converged_zero_below_the_feasibility_tolerance(self):
        # 1/(70)_5 < 1e-9: phase 1 accepts the all-artificial basis, objective 0
        nb = kappa_nN_bounds(5, 70, exact=True).lp_value
        assert not nb.converged
        assert (nb.lower, nb.upper) == (0.0, math.inf)

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

    def test_t_one_with_every_part_one(self):
        # log(1 - 0) per part, minus log(1) + log(2/3) + log(1/3), minus 2 * 1/2
        want = math.log(4.5) - 1.0
        assert partition_log_slack([1, 1, 1], 1.0) == pytest.approx(want, rel=1e-12)
        assert partition_log_slack([1], 1.0) == 0.0

    @pytest.mark.parametrize("t", [1.5, -0.25])
    def test_rejects_t_outside_unit_interval(self, t):
        with pytest.raises(ValueError, match=r"^t must lie in \[0, 1\], and below 1 when"):
            partition_log_slack((1, 1), t)

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
