import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tensornorm.tensor_core import (SignedPowerCombination,
                                    SymmetricTensor, entrywise_l1, multi_indices,
                                    multiplicity, polarization_expand,
                                    pos_neg_split, power, pushforward,
                                    tensor_pushforward, vandermonde_decomposition,
                                    vandermonde_node_bound, wedge)

E1 = (1.0, 0.0)
E2 = (0.0, 1.0)


def small_vectors(m, max_n=3):
    coord = st.integers(-3, 3)
    return st.lists(st.tuples(*([coord] * m)), min_size=1, max_size=max_n)


class TestWedgePower:
    def test_wedge_basis_pair(self):
        t = wedge([E1, E2])
        assert t.entries == {(0, 1): 0.5}

    def test_wedge_single_vector_is_identity(self):
        t = wedge([(2.0, -3.0)])
        assert t.entries == {(0,): 2.0, (1,): -3.0}

    def test_wedge_three_distinct_basis(self):
        t = wedge([(1, 0, 0), (0, 1, 0), (0, 0, 1)], exact=True)
        assert t.entries == {(0, 1, 2): Fraction(1, 6)}

    def test_power_pm_one(self):
        t = power((1.0, -1.0), 2)
        assert t.value((0, 0)) == 1 and t.value((0, 1)) == -1 and t.value((1, 1)) == 1

    def test_power_uniform(self):
        t = power((0.5, 0.5), 2)
        assert all(v == 0.25 for v in t.entries.values())

    def test_power_basis_cube(self):
        t = power(E1, 3)
        assert t.entries == {(0, 0, 0): 1.0}

    def test_zero_vector_gives_zero_tensor(self):
        assert power((0.0, 0.0), 3).entries == {}
        assert wedge([(0.0, 0.0), (1.0, 1.0)]).entries == {}

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wedge([(1.0, 0.0), (1.0, 0.0, 0.0)])

    @given(st.integers(2, 4), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_wedge_of_equal_vectors_is_power(self, m, n, data):
        x = tuple(data.draw(st.integers(-3, 3)) for _ in range(m))
        a = wedge([x] * n, exact=True)
        b = power(x, n, exact=True)
        assert a.entries == b.entries

    @given(small_vectors(3, max_n=3), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_wedge_permutation_invariant(self, vecs, rng):
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        a = wedge(vecs, exact=True)
        b = wedge(shuffled, exact=True)
        assert a.entries == b.entries

    def test_wedge_multilinear_in_first_slot(self):
        x, y, z = (1, 2), (3, -1), (0, 5)
        lhs = wedge([tuple(2 * a + b for a, b in zip(x, y)), z], exact=True)
        rx = wedge([x, z], exact=True)
        ry = wedge([y, z], exact=True)
        for idx in multi_indices(2, 2):
            assert lhs.value(idx) == 2 * rx.value(idx) + ry.value(idx)


class TestEntrywiseL1:
    def test_wedge_pair(self):
        assert entrywise_l1(wedge([E1, E2])) == 1.0

    def test_pm_one_power(self):
        assert entrywise_l1(power((1.0, -1.0), 2)) == 4.0

    def test_zero(self):
        assert entrywise_l1(SymmetricTensor(2, 2, {})) == 0.0

    @given(st.integers(1, 4), st.lists(st.integers(-4, 4), min_size=2, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_power_norm_identity(self, n, x):
        # entrywise l1 of x^(x n) is ||x||_1 ** n
        t = power(tuple(x), n, exact=True)
        assert entrywise_l1(t) == sum(abs(v) for v in x) ** n


class TestPolarization:
    def test_basis_pair_merged_terms(self):
        comb = polarization_expand([E1, E2])
        assert set(comb.terms) == {(0.25, (1.0, 1.0)), (-0.25, (1.0, -1.0))}

    def test_single_vector(self):
        comb = polarization_expand([(3.0, -2.0)])
        assert comb.terms == ((1.0, (3.0, -2.0)),)

    def test_duplicate_vector_cost(self):
        comb = polarization_expand([E1, E1])
        assert comb.evaluate().residual_inf(power(E1, 2)) == 0
        assert comb.cost(p=1) == 1.0

    @given(small_vectors(2, max_n=4))
    @settings(max_examples=80, deadline=None)
    def test_reconstructs_wedge_exactly(self, vecs):
        comb = polarization_expand(vecs, exact=True)
        assert comb.evaluate(exact=True).entries == wedge(vecs, exact=True).entries

    @given(small_vectors(3, max_n=3))
    @settings(max_examples=60, deadline=None)
    def test_reconstructs_wedge_float(self, vecs):
        comb = polarization_expand(vecs)
        assert comb.evaluate().residual_inf(wedge(vecs)) <= 1e-12


class TestMerged:
    """merged() is the one term merge: polarization_expand and to_combination use it."""

    @pytest.mark.parametrize("order, weight", [(2, 3.0), (3, -1.0), (4, 3.0), (5, -1.0)])
    def test_opposite_vectors_merge_with_sign_of_order(self, order, weight):
        comb = SignedPowerCombination(2, order, ((1.0, (1.0, -2.0)), (2.0, (-1.0, 2.0))))
        merged = comb.merged()
        assert merged.terms == ((weight, (1.0, -2.0)),)
        assert merged.evaluate().residual_inf(comb.evaluate()) == 0

    def test_vector_with_leading_zero_keeps_first_nonzero_positive(self):
        comb = SignedPowerCombination(3, 3, ((1.0, (0.0, -1.0, 2.0)),))
        assert comb.merged().terms == ((-1.0, (0.0, 1.0, -2.0)),)

    def test_zero_vectors_are_dropped(self):
        comb = SignedPowerCombination(2, 2, ((5.0, (0.0, 0.0)), (1.0, (1.0, 0.0)),
                                             (2.0, (-0.0, 0.0))))
        assert comb.merged().terms == ((1.0, (1.0, 0.0)),)

    def test_cancelling_weights_are_dropped(self):
        comb = SignedPowerCombination(2, 2, ((0.5, (1.0, 1.0)), (-0.5, (1.0, 1.0)),
                                             (1.5, (0.0, 1.0)), (-1.5, (0.0, -1.0))))
        assert comb.merged().terms == ()
        assert SignedPowerCombination(2, 2, ((0.0, (1.0, 2.0)),)).merged().terms == ()

    def test_fraction_weights_stay_fractions(self):
        half = Fraction(1, 2)
        comb = SignedPowerCombination(2, 3, ((half, (Fraction(1), Fraction(-1))),
                                             (Fraction(1, 3), (Fraction(-1), Fraction(1))),
                                             (half, (Fraction(0), Fraction(1)))))
        merged = comb.merged()
        assert merged.terms == ((half, (Fraction(0), Fraction(1))),
                                (Fraction(1, 6), (Fraction(1), Fraction(-1))))
        assert all(type(w) is Fraction for w, _ in merged.terms)
        assert merged.evaluate(exact=True).entries == comb.evaluate(exact=True).entries

    def test_terms_come_out_sorted(self):
        vecs = [(0.5, 0.5), (0.0, 1.0), (1.0, 0.0), (0.25, 0.75), (-0.3, -0.7)]
        comb = SignedPowerCombination(2, 2, tuple((float(k + 1), v) for k, v in enumerate(vecs)))
        keys = [x for _, x in comb.merged().terms]
        assert keys == sorted(keys) == [(0.0, 1.0), (0.25, 0.75), (0.3, 0.7), (0.5, 0.5),
                                        (1.0, 0.0)]
        assert comb.merged().merged() == comb.merged()


class TestPosNegSplit:
    def test_l1_example(self):
        s = pos_neg_split((3.0, -4.0), p=1)
        assert s.positive_part == (3.0, 0.0)
        assert s.negative_part == (0.0, 4.0)
        assert s.plus_norm == 7.0

    def test_euclidean_ratio(self):
        s = pos_neg_split((1.0, -1.0), p=2)
        assert s.plus_norm == pytest.approx(2.0)
        # ratio to the Euclidean norm is sqrt(2)
        assert s.plus_norm / math.sqrt(2.0) == pytest.approx(2 ** 0.5)

    def test_positive_vector_untouched(self):
        for p in (1, 2, math.inf):
            s = pos_neg_split((1.0, 1.0), p=p)
            assert s.negative_part == (0.0, 0.0)
            assert s.plus_norm == pytest.approx({1: 2.0, 2: math.sqrt(2), math.inf: 1.0}[p])

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_disjoint_and_recompose(self, x):
        s = pos_neg_split(tuple(x), p=1)
        for xp, xn, xv in zip(s.positive_part, s.negative_part, x):
            assert xp * xn == 0
            assert xp - xn == xv
            assert xp >= 0 and xn >= 0


class TestVandermonde:
    def test_hand_solved_system(self):
        # nodes (0, 1, 2): weights solve sum lam (t+1)^j = [j == 0]
        comb = vandermonde_decomposition((1.0, -1.0), 2, (0, 1, 2))
        weights = [a for a, _ in comb.terms]
        vectors = [x for _, x in comb.terms]
        assert weights == pytest.approx([3.0, -3.0, 1.0])
        assert vectors == [(1.0, 0.0), (1.0, 1.0), (1.0, 2.0)]
        assert comb.evaluate().residual_inf(power((1.0, -1.0), 2)) <= 1e-12

    def test_positive_input_collapses(self):
        comb = vandermonde_decomposition((2.0, 1.0), 3, exact=True)
        assert len(comb.terms) == 1
        a, x = comb.terms[0]
        assert a == 1 and x == (2, 1)

    def test_order_one(self):
        comb = vandermonde_decomposition((1.0, -1.0), 1, (0, 1))
        assert [a for a, _ in comb.terms] == pytest.approx([2.0, -1.0])
        assert comb.evaluate().residual_inf(power((1.0, -1.0), 1)) == 0

    def test_repeated_nodes_rejected(self):
        with pytest.raises(ValueError):
            vandermonde_decomposition((1.0, -1.0), 2, (0, 1, 1))

    def test_negative_nodes_rejected(self):
        with pytest.raises(ValueError):
            vandermonde_decomposition((1.0, -1.0), 2, (-1, 0, 1))

    def test_node_bound_matches_definition(self):
        comb = vandermonde_decomposition((1.0, -1.0), 2, (0, 1, 2))
        weights = [a for a, _ in comb.terms]
        assert vandermonde_node_bound((0, 1, 2), weights) == pytest.approx(
            3.0 + 3.0 * 1.0 + 1.0 * 4.0)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_float_weights_match_exact(self, n):
        # solving the Vandermonde system in floats instead loses every digit by n = 16
        got = [a for a, _ in vandermonde_decomposition((1.0, -1.0), n).terms]
        want = [a for a, _ in vandermonde_decomposition((1.0, -1.0), n, exact=True).terms]
        assert len(got) == len(want) == n + 1
        for g, w in zip(got, want):
            assert abs(g - float(w)) <= 1e-14 * abs(float(w))

    @pytest.mark.parametrize("n", [8, 12, 16, 20])
    @pytest.mark.parametrize("m", [2, 3])
    def test_float_reconstruction_residual(self, m, n):
        rng = random.Random(f"vandermonde:{m}:{n}")
        for _ in range(20):
            x = tuple(rng.uniform(-1.0, 1.0) for _ in range(m))
            comb = vandermonde_decomposition(x, n)
            residual = comb.evaluate().residual_inf(power(x, n))
            assert residual <= 1e-11 * max(1.0, comb.cost())

    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=3), st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_reconstruction_and_positivity(self, x, n):
        comb = vandermonde_decomposition(tuple(x), n, exact=True)
        assert comb.evaluate(exact=True).entries == power(tuple(x), n, exact=True).entries
        for _, vec in comb.terms:
            assert all(v >= 0 for v in vec)


class TestPushforward:
    def test_identity(self):
        comb = polarization_expand([E1, E2])
        out = pushforward([[1, 0], [0, 1]], comb)
        assert out.terms == comb.terms

    def test_column_stochastic_maps_wedge(self):
        M = [[0.5, 0.25], [0.5, 0.75]]
        comb = polarization_expand([E1, E2])
        out = pushforward(M, comb)
        want = wedge([(0.5, 0.5), (0.25, 0.75)])
        assert out.evaluate().residual_inf(want) <= 1e-12

    def test_collapse_to_point_mass(self):
        # both basis vectors map to the same state
        M = [[1.0, 1.0], [0.0, 0.0]]
        comb = polarization_expand([E1, E2])
        out = pushforward(M, comb)
        assert out.evaluate().residual_inf(power((1.0, 0.0), 2)) <= 1e-12

    def test_negative_matrix_rejected(self):
        with pytest.raises(ValueError):
            pushforward([[1.0, -0.1], [0.0, 1.0]], polarization_expand([E1, E2]))

    @given(small_vectors(2, max_n=3),
           st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2),
                    min_size=2, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_commutes_with_evaluate(self, vecs, rows):
        comb = polarization_expand(vecs)
        out = pushforward(rows, comb)
        direct = out.evaluate()
        lifted = tensor_pushforward(rows, comb.evaluate())
        assert direct.residual_inf(lifted) <= 1e-9

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_tensor_pushforward_at_higher_order(self, n):
        rng = random.Random(f"pushforward:{n}")
        for m, m_out in ((2, 2), (2, 3), (3, 2)):
            comb = SignedPowerCombination(m, n, tuple(
                (rng.uniform(-1.0, 1.0), tuple(rng.uniform(-1.0, 1.0) for _ in range(m)))
                for _ in range(4)))
            M = [[rng.uniform(0.0, 1.0) for _ in range(m)] for _ in range(m_out)]
            direct = pushforward(M, comb)
            lifted = tensor_pushforward(M, comb.evaluate())
            assert lifted.residual_inf(direct.evaluate()) <= 1e-12 * direct.cost()


class TestJsonRoundTrip:
    def test_tensor(self):
        t = power((0.5, -0.5), 3)
        d = t.to_json_dict()
        assert d["dim"] == 2 and d["order"] == 3
        back = SymmetricTensor.from_json_dict(d)
        assert back.residual_inf(t) == 0

    def test_combination(self):
        c = polarization_expand([E1, E2])
        back = SignedPowerCombination.from_json_dict(c.to_json_dict())
        assert back.terms == c.terms

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError):
            SymmetricTensor(2, 2, {(1, 0): 1.0})
        with pytest.raises(ValueError):
            SymmetricTensor(2, 2, {(0, 2): 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SymmetricTensor(2, 2, {(0, 0): bad, (0, 1): 0.5, (1, 1): 0.2})
        with pytest.raises(ValueError, match="finite"):
            power((1e200, 1.0), 2)   # overflows to inf


class TestMultiplicity:
    def test_values(self):
        assert multiplicity((0, 1)) == 2
        assert multiplicity((0, 0)) == 1
        assert multiplicity((0, 1, 2)) == 6
        assert multiplicity((0, 0, 1)) == 3

    def test_storage_size(self):
        assert len(multi_indices(3, 4)) == math.comb(3 + 4 - 1, 4)
