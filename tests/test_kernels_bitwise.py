"""The fast kernels against the plain loops they replaced, bit for bit.

The m = 2 root isolation and the simplex pivot were rewritten for speed
without changing a single floating-point operation.  The loop versions live
on here as references, and every comparison is on the bytes of the result,
so a reordered sum or a lost sign of zero fails.
"""

import math
import random
from math import comb

import numpy as np
import pytest

from tensornorm import lp_engine, norm_solver
from tensornorm.lp_engine import solve_min_tv
from tensornorm.norm_solver import _poly_coeffs, _roots_unit_interval, l1, norm_pis, norm_pisp
from tensornorm.exchangeable import load_distribution
from tensornorm.tensor_core import SymmetricTensor, multi_indices


# ---------------------------------------------------------------------------
# references


def ref_poly_coeffs(yk, n):
    coef = np.zeros(n + 1)
    for k in range(n + 1):
        yv = yk[k]
        if yv == 0.0:
            continue
        for j in range(k + 1):
            coef[n - k + j] += yv * comb(k, j) * (-1) ** j
    return coef


def ref_roots_unit_interval(coef):
    deg = len(coef) - 1
    while deg > 0 and coef[deg] == 0.0:
        deg -= 1
    if deg <= 0:
        return []
    c = coef[:deg + 1]
    grid = np.linspace(0.0, 1.0, max(512, 64 * deg) + 1)
    vals = np.polynomial.polynomial.polyval(grid, c)
    roots = []
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(float(grid[i]))
            continue
        if a * b < 0.0:
            lo, hi = float(grid[i]), float(grid[i + 1])
            flo = a
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = float(np.polynomial.polynomial.polyval(mid, c))
                if fm == 0.0:
                    lo = hi = mid
                    break
                if (flo < 0) != (fm < 0):
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    if vals[-1] == 0.0:
        roots.append(1.0)
    return roots


def ref_pivot(self, j, row, u):
    # the row loop; it ignores the u it is given and recomputes it, as it used to
    u = self.binv @ self.A[:, j]
    piv = u[row]
    self.binv[row] /= piv
    for i in range(len(u)):
        if i != row and u[i] != 0.0:
            self.binv[i] -= u[i] * self.binv[row]
    self.basis[row] = j
    self.xb = self.binv @ self.b
    self.xb[(self.xb < 0) & (self.xb > -1e-9)] = 0.0
    self.pivots += 1
    if self.pivots % lp_engine._REFACTOR_EVERY == 0:
        self.refactor()


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# m = 2 pricing


def _random_coefs(seed):
    rng = random.Random(seed)
    deg = rng.randint(1, 17)
    if rng.random() < 0.5:
        # product of linear factors with roots in [0, 1]: many sign changes
        coef = np.ones(1)
        for _ in range(deg):
            coef = np.convolve(coef, [-rng.random(), 1.0])
        return coef * rng.uniform(-3, 3)
    return np.asarray([rng.uniform(-1, 1) for _ in range(deg + 1)])


@pytest.mark.parametrize("seed", range(60))
def test_roots_random_polynomials(seed):
    coef = _random_coefs(seed)
    ref = ref_roots_unit_interval(coef)
    assert same_bits(_roots_unit_interval(coef), ref)
    # the derivative is what the oracle actually isolates
    deriv = coef[1:] * np.arange(1, len(coef))
    assert same_bits(_roots_unit_interval(deriv), ref_roots_unit_interval(deriv))


@pytest.mark.parametrize("coef", [
    [-0.25, 1.0],                     # root on a point of the 512 grid
    [-3 / 1024, 1.0],                 # off-grid dyadic root, hit by the first midpoint
    [-3 / 1024 - 1 / 4096, 1.0],      # off-grid dyadic root, hit by the third midpoint
    [-3 / 1024, 1.0, 0.0, 0.0],       # trailing zero coefficients
    [1.0, -1.0],                      # root at 1
    [0.0, 1.0, -1.0],                 # roots at both ends
    [0.0, 0.0, 1.0],                  # double root at 0, no sign change
    [2.5],                            # constant
    [0.0, 0.0, 0.0],                  # zero polynomial
    [0.3, -2.0, 0.0],                 # degree 1 after trimming
    [1.0, -6.0, 11.0, -6.0],          # (1-u)(1-2u)(1-3u): roots 1/3, 1/2, 1
    [(0.5 - 1e-12) ** 2, -2 * (0.5 - 1e-12), 1.0],   # near-double root
])
def test_roots_edge_cases(coef):
    coef = np.asarray(coef, dtype=float)
    got = _roots_unit_interval(coef)
    assert same_bits(got, ref_roots_unit_interval(coef))
    assert all(isinstance(r, float) for r in got)


def test_edge_cases_hit_their_branches():
    # the cases above do reach the grid-zero, exact-bisection and endpoint paths
    assert ref_roots_unit_interval(np.asarray([-0.25, 1.0])) == [0.25]
    root = 3 / 1024 + 1 / 4096
    assert ref_roots_unit_interval(np.asarray([-root, 1.0])) == [root]
    assert ref_roots_unit_interval(np.asarray([1.0, -1.0])) == [1.0]


@pytest.mark.parametrize("seed", range(20))
def test_poly_coeffs(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 16)
    y = np.asarray([rng.uniform(-2, 2) if rng.random() < 0.8 else 0.0 for _ in range(n + 1)])
    assert same_bits(_poly_coeffs(y, n), ref_poly_coeffs(y, n))


# ---------------------------------------------------------------------------
# master LP


def _lp_instances():
    rng = random.Random(2024)
    out = []
    for _ in range(25):          # feasible: the target is a combination of columns
        d = rng.randint(2, 7)
        n = rng.randint(d, d + 10)
        cols = [[rng.uniform(-2, 2) for _ in range(d)] for _ in range(n)]
        coeff = [rng.uniform(-2, 2) if rng.random() < 0.5 else 0.0 for _ in range(n)]
        target = [sum(c * col[i] for c, col in zip(coeff, cols)) for i in range(d)]
        out.append((cols, target))
    for _ in range(4):           # master-sized: 12 to 17 rows, 35 to 41 pivots
        d = rng.randint(12, 17)
        cols = [[rng.uniform(-1, 1) for _ in range(d)] for _ in range(6 * d)]
        out.append((cols, [rng.uniform(-1, 1) for _ in range(d)]))
    for _ in range(10):          # infeasible: fewer columns than rows
        d = rng.randint(3, 6)
        cols = [[rng.uniform(-1, 1) for _ in range(d)] for _ in range(d - 1)]
        out.append((cols, [rng.uniform(-1, 1) for _ in range(d)]))
    # degenerate: duplicated rows and repeated columns
    out.append(([(1.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0)], (2.0, 2.0, 2.0)))
    for _ in range(5):
        d = rng.randint(3, 5)
        base = [[float(rng.randint(-1, 1)) for _ in range(d)] for _ in range(d + 3)]
        cols = [row[:-1] + row[:1] for row in base + base]
        out.append((cols, [sum(col[i] for col in cols[:3]) for i in range(d)]))
    return out


def _solve_both(monkeypatch, fn):
    new = fn()
    with monkeypatch.context() as mp:
        mp.setattr(lp_engine._Tableau, "pivot", ref_pivot)
        old = fn()
    return new, old


@pytest.mark.parametrize("case", range(len(_lp_instances())))
def test_solve_min_tv_matches_row_loop(monkeypatch, case):
    cols, target = _lp_instances()[case]
    new, old = _solve_both(monkeypatch, lambda: solve_min_tv(cols, target))
    assert new.status == old.status
    assert new.iterations == old.iterations
    assert same_bits(new.weights, old.weights)
    assert same_bits(new.dual, old.dual)
    assert same_bits(new.objective, old.objective)


def test_lp_instances_cover_every_status():
    statuses = {solve_min_tv(c, t).status for c, t in _lp_instances()}
    assert statuses == {"optimal", "infeasible"}


@pytest.mark.parametrize("case", range(len(_lp_instances())))
def test_bland_phases_match_row_loop(monkeypatch, case):
    # solve_min_tv turns to Bland's rule only after 10 d degenerate pivots,
    # which these instances never reach; here the first degenerate pivot does
    cols, target = _lp_instances()[case]
    V = np.asarray(cols).T
    d, n = V.shape
    sign = np.where(np.asarray(target) < 0, -1.0, 1.0)
    A = np.hstack([np.hstack([V, -V]) * sign[:, None], np.eye(d)])
    is_artificial = np.arange(A.shape[1]) >= 2 * n

    def run():
        tab = lp_engine._Tableau(A, np.abs(target))
        phases = [lp_engine._run_phase(tab, costs.astype(float), ~is_artificial,
                                       is_artificial, 1000, 0)
                  for costs in (is_artificial, ~is_artificial)]
        return phases, tab

    (phases_new, new), (phases_old, old) = _solve_both(monkeypatch, run)
    assert phases_new == phases_old
    assert new.pivots == old.pivots > 0
    assert same_bits(new.basis, old.basis)
    assert same_bits(new.binv, old.binv) and same_bits(new.xb, old.xb)


# ---------------------------------------------------------------------------
# whole solves with every reference patched in


def _assert_same_bounds(new, old):
    assert new.iterations == old.iterations
    assert new.converged is old.converged
    assert same_bits(new.lower, old.lower) and same_bits(new.upper, old.upper)
    assert same_bits(new.dual, old.dual)
    assert len(new.primal.terms) == len(old.primal.terms)
    for (wn, xn), (wo, xo) in zip(new.primal.terms, old.primal.terms):
        assert same_bits(wn, wo) and same_bits(xn, xo)
    assert new.primal_pairs == old.primal_pairs


def _patched(monkeypatch, fn):
    """(result, result with every reference patched in, calls per reference)."""
    new = fn()
    calls = {}

    def counted(name, ref):
        def wrapped(*args):
            calls[name] = calls.get(name, 0) + 1
            return ref(*args)
        return wrapped

    with monkeypatch.context() as mp:
        mp.setattr(lp_engine._Tableau, "pivot", counted("pivot", ref_pivot))
        mp.setattr(norm_solver, "_roots_unit_interval",
                   counted("roots", ref_roots_unit_interval))
        mp.setattr(norm_solver, "_poly_coeffs", counted("coeffs", ref_poly_coeffs))
        old = fn()
    return new, old, calls


def test_norm_pis_m2_whole_solve(monkeypatch):
    rng = random.Random("bitwise:pis:10")
    t = SymmetricTensor(2, 10, {i: rng.uniform(-1, 1) for i in multi_indices(2, 10)})
    new, old, calls = _patched(monkeypatch, lambda: norm_pis(t, l1(2)))
    assert new.iterations > 1 and calls["pivot"] and calls["roots"] and calls["coeffs"]
    _assert_same_bounds(new, old)


def test_norm_pisp_m3_whole_solve(monkeypatch):
    # the solve behind represent(d, "lp") for a random law on three states
    rng = random.Random("bitwise:law:m3")
    idx = multi_indices(3, 3)
    w = [rng.random() for _ in idx]
    total = math.fsum(w)
    d = load_distribution([(i, v / total) for i, v in zip(idx, w)], states=range(3), order=3)
    new, old, calls = _patched(monkeypatch, lambda: norm_pisp(d.tensor, l1(3)))
    assert new.iterations > 1 and calls["pivot"]
    _assert_same_bounds(new, old)
