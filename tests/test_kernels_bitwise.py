"""The kernels against the plain loops they replaced, bit for bit.

The m = 2 root isolation and the simplex pivot were rewritten for speed, then
the simplex selection loop (entering column, ratio test) too, and
the monomial evaluations of ``_PowerFamily`` (columns, the pricing grid, sign
factors, the polish value and gradient) were folded into one helper, and the
polish stopped computing a gradient it discards, all without changing a single
floating-point operation.  Later the copies of one computation were folded
into one home: the composition table (simplex lattice, exponent counts,
diagonal lookup, extendibility count classes), the signed-term merge
(polarization expansion, Chebyshev nodes), the power loop and the 2x2 trace
norm.  Then each point's monomials came from one power table, the polish
kept its direction across rejected steps, and the five grid starts were
polished in lockstep, one batched value and gradient per step, each row
stopping where it would alone.  The loop versions live on here as
references, and every comparison is on the bytes of the result (value and
type for Fractions), so a reordered sum or a lost sign of zero fails.
"""

import math
import random
import struct
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest

from tensornorm import exchangeable, lp_engine, norm_solver
from tensornorm._colgen import NormBounds, SolverOptions
from tensornorm.chebyshev import ChebDecomposition, optimal_decomposition_m2
from tensornorm.euclid2 import _matrix_entries, extreme_points, trace_norm_2x2
from tensornorm.lp_engine import solve_min_tv
from tensornorm.norm_solver import (_PowerFamily, _compositions, _poly_coeffs,
                                    _roots_unit_interval, _simplex_lattice, l1,
                                    norm_pis, norm_pisp)
from tensornorm.exchangeable import iid, kappa_nNm_bounds, load_distribution
from tensornorm.tensor_core import (SignedPowerCombination, SymmetricTensor, _as_vector,
                                    _canonical_sign, multi_indices, multiplicity,
                                    polarization_expand, power)


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


def ref_run_phase(tab, costs, is_artificial, max_iters, bland_after):
    # the selection loop: a candidate mask each iteration, every scan always run
    d = len(tab.xb)
    iters = 0
    degenerate = 0
    bland = False
    blocked: set[int] = set()
    while iters < max_iters:
        y = tab.binv.T @ costs[tab.basis]
        reduced = costs - y @ tab.A
        mask = ~is_artificial
        mask[tab.basis] = False
        for bj in blocked:
            mask[bj] = False
        candidates = (mask & (reduced < -lp_engine.REDUCED_COST_TOL)).nonzero()[0]
        if candidates.size == 0:
            return "optimal", iters
        if bland:
            j = int(candidates[0])
        else:
            j = int(candidates[reduced[candidates].argmin()])
        u = tab.binv @ tab.A[:, j]
        art_rows = (is_artificial[tab.basis] & (np.abs(u) > lp_engine._PIVOT_TOL)
                    & (tab.xb <= 1e-10)).nonzero()[0]
        if art_rows.size:
            row = int(art_rows[0])
            theta = 0.0
        else:
            pos = u > lp_engine._PIVOT_TOL
            if not pos.any():
                raise RuntimeError("unbounded simplex direction in a bounded program")
            ratios = np.divide(tab.xb, u, out=np.full(d, np.inf), where=pos)
            theta = float(ratios.min())
            ties = (ratios <= theta + 1e-12).nonzero()[0]
            art_ties = ties[is_artificial[tab.basis[ties]]]
            if art_ties.size:
                row = int(art_ties[0])
            elif bland:
                row = int(ties[tab.basis[ties].argmin()])
            else:
                row = int(ties[np.abs(u[ties]).argmax()])
        if abs(u[row]) < 1e-9:
            tab.refactor()
            blocked.add(j)
            iters += 1
            continue
        if theta <= 1e-12:
            degenerate += 1
            if degenerate > bland_after:
                bland = True
        tab.pivot(j, row, u)
        blocked.clear()
        iters += 1
    return "iteration-limit", iters


def ref_counts(indices, m):
    counts = np.zeros((len(indices), m), dtype=int)
    for r, idx in enumerate(indices):
        for i in idx:
            counts[r, i] += 1
    return counts


def ref_sign_factors(patterns, counts):
    return [np.prod(pat[None, :] ** counts, axis=1) for pat in patterns]


def ref_column(self, x):
    x = np.asarray(x, dtype=float)
    out = np.ones(len(self.indices))
    for c in range(self.m):
        col = self.counts[:, c]
        mask = col > 0
        out[mask] *= x[c] ** col[mask]
    return out


def ref_grid(m):
    res = norm_solver.GRID_RESOLUTION
    while comb(res + m - 1, m - 1) > norm_solver.GRID_BUDGET and res > 2:
        res -= 1
    return norm_solver._lattice_cached(m, res)


def ref_grid_cols(grid, counts):
    cols = np.ones((len(grid), len(counts)))
    for c in range(counts.shape[1]):
        cnt = counts[:, c]
        mask = cnt > 0
        cols[:, mask] *= grid[:, c][:, None] ** cnt[mask][None, :]
    return cols


def ref_poly_value_grad(self, x, y):
    mon = np.ones(len(self.indices))
    for c in range(self.m):
        cnt = self.counts[:, c]
        mask = cnt > 0
        mon[mask] *= x[c] ** cnt[mask]
    val = float(mon @ y)
    grad = np.zeros(self.m)
    for c in range(self.m):
        cnt = self.counts[:, c]
        mask = cnt > 0
        part = np.zeros(len(self.indices))
        sub = np.ones(mask.sum())
        for c2 in range(self.m):
            cnt2 = self.counts[mask, c2] - (1 if c2 == c else 0)
            pos = cnt2 > 0
            if pos.any():
                sub[pos] *= x[c2] ** cnt2[pos]
        part[mask] = cnt[mask] * sub
        grad[c] = float(part @ y)
    return val, grad


def ref_polish(self, x0, y, sign):
    x = np.asarray(x0, dtype=float).copy()
    f = sign * ref_poly_value_grad(self, x, y)[0]
    step = 0.25
    for _ in range(80):
        _, grad = ref_poly_value_grad(self, x, y)
        g = sign * grad
        g = g - g.mean()
        gnorm = float(np.linalg.norm(g))
        if gnorm < 1e-15:
            break
        cand = np.clip(x + step * g / gnorm, 0.0, None)
        s = cand.sum()
        if s <= 0:
            step *= 0.5
            continue
        cand /= s
        fc = sign * ref_poly_value_grad(self, cand, y)[0]
        if fc > f + 1e-17:
            x, f = cand, fc
            step = min(step * 1.6, 0.5)
        else:
            step *= 0.5
            if step < 1e-14:
                break
    return x, abs(f)


def ref_polish_rows(self, X0, y, signs):
    """ref_polish from each row of X0 alone, in ``_PowerFamily._polish``'s (X, |p|) shape."""
    rows = [ref_polish(self, x0, y, sign) for x0, sign in zip(X0, signs)]
    return np.asarray([x for x, _ in rows]), [v for _, v in rows]


def ref_simplex_lattice(m, resolution):
    pts = []
    def rec(prefix, rem, slots):
        if slots == 1:
            pts.append(prefix + [rem])
            return
        for v in range(rem + 1):
            rec(prefix + [v], rem - v, slots - 1)
    rec([], resolution, m)
    return np.asarray(pts, dtype=float) / resolution


def ref_bincount_counts(indices, m):
    return np.asarray([np.bincount(idx, minlength=m) for idx in indices])


def ref_compositions_desc(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in ref_compositions_desc(total - first, parts - 1):
            if rest and rest[0] > first:
                continue
            yield (first,) + rest


def ref_diagonal_candidate(self):
    if self.target is None:
        return None
    diag = np.empty(self.m)
    for i in range(self.m):
        pos = self.indices.index((i,) * self.n)
        diag[i] = self.target[pos]
    if not self.signed and np.any(diag < 0):
        return None
    roots = np.sign(diag) * np.abs(diag) ** (1.0 / self.n)
    if not np.all(np.isfinite(roots)):
        return None
    roots = np.round(roots, 12)
    scale = np.abs(roots).sum()
    if scale <= 0:
        return None
    x = roots / scale
    if self.signed and x[0] < 0:
        x = -x
    return tuple(x)


def ref_power(x, order, exact=False):
    vec = _as_vector(x, exact)
    entries = {}
    for idx in multi_indices(len(vec), order):
        v = vec[idx[0]]
        for i in idx[1:]:
            v = v * vec[i]
        if v != 0:
            entries[idx] = v
    return SymmetricTensor(len(vec), order, entries)


def ref_polarization_expand(vectors, exact=False):
    vecs = [_as_vector(v, exact) for v in vectors]
    n = len(vecs)
    m = len(vecs[0])
    denom = (2 ** n) * math.factorial(n)
    base = Fraction(1, denom) if exact else 1.0 / denom
    bucket = {}
    for eps in product((1, -1), repeat=n):
        sign = 1
        for e in eps:
            sign *= e
        vec = tuple(sum(e * x[c] for e, x in zip(eps, vecs)) for c in range(m))
        key, flip = _canonical_sign(vec)
        if key is None:
            continue
        w = sign * base * flip ** n
        bucket[key] = bucket.get(key, Fraction(0) if exact else 0.0) + w
    terms = tuple((w, v) for v, w in sorted(bucket.items()) if w != 0)
    return SignedPowerCombination(m, n, terms)


def ref_to_combination(dec):
    bucket = {}
    for w, node in zip(dec.coefficients, dec.nodes):
        bucket[node] = bucket.get(node, 0.0) + w
    terms = tuple((w, v) for v, w in sorted(bucket.items()) if w != 0.0)
    return SignedPowerCombination(2, dec.n, terms)


def ref_trace_norm_2x2(matrix):
    a, b, c = _matrix_entries(matrix)
    root = math.hypot(a - c, 2 * b)
    return abs((a + c + root) / 2) + abs((a + c - root) / 2)


def ref_extreme_points_halves(kind, resolution):
    # the separate pisp and pip loops
    pts, seen = [], set()

    def push(p):
        for q in (p, (-p[0], -p[1], -p[2])):
            key = tuple(round(x, 12) for x in q)
            if key not in seen:
                seen.add(key)
                pts.append(q)

    if kind == "pisp":
        for j in range(resolution + 1):
            s = math.pi * j / resolution
            push((1.0, math.sin(s), math.cos(s)))
    else:
        for j in range(resolution + 1):
            s = math.pi * j / resolution
            push((1.0, math.sin(s), math.cos(s)))
            push((abs(math.cos(s)), math.sin(s), math.cos(s)))
    return pts


def with_ref_tables(init):
    """``_PowerFamily.__init__`` followed by the reference counts, signs and grid."""
    def wrapped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.counts = ref_bincount_counts(self.indices, self.m)
        self.sign_factors = ref_sign_factors(self.patterns, self.counts)
        if self.m > 2:
            self._grid = ref_grid(self.m)
            self._grid_cols = ref_grid_cols(self._grid, self.counts)
    return wrapped


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_value(a, b) -> bool:
    """Floats by their bytes, everything else by type and value, containers elementwise."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same_value, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_value(a[k], b[k]) for k in a)
    if isinstance(a, SymmetricTensor):
        return (a.dim, a.order) == (b.dim, b.order) and same_value(a.entries, b.entries)
    if isinstance(a, SignedPowerCombination):
        return (a.dim, a.order) == (b.dim, b.order) and same_value(a.terms, b.terms)
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


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
    [-0.5, 0.0, 1.0],                 # bracket collapses onto lo: mid == lo
    [-0.2, 0.0, 1.0],                 # bracket collapses onto hi: mid == hi
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
    # no midpoint is an exact zero, so bisection ends on two adjacent doubles
    polyval = np.polynomial.polynomial.polyval
    c = [-0.5, 0.0, 1.0]
    r = ref_roots_unit_interval(np.asarray(c))[0]
    assert polyval(r, c) < 0 < polyval(np.nextafter(r, 1), c)     # r is lo
    c = [-0.2, 0.0, 1.0]
    r = ref_roots_unit_interval(np.asarray(c))[0]
    assert polyval(np.nextafter(r, 0), c) < 0 < polyval(r, c)     # r is hi


@pytest.mark.parametrize("seed", range(20))
def test_poly_coeffs(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 16)
    y = np.asarray([rng.uniform(-2, 2) if rng.random() < 0.8 else 0.0 for _ in range(n + 1)])
    assert same_bits(_poly_coeffs(y, n), ref_poly_coeffs(y, n))


# ---------------------------------------------------------------------------
# monomials of _PowerFamily

FAMILIES = [(2, 1), (2, 7), (3, 1), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 5), (5, 2),
            (5, 4)]


def _points(m, seed):
    """Seeded points on the simplex, with zero coordinates, signed and off the sphere."""
    rng = np.random.default_rng(seed)
    pts = [np.eye(m)[0], np.full(m, 1.0 / m)]
    for _ in range(6):
        x = rng.dirichlet(np.ones(m))
        pts.append(x)
        x = x.copy()
        x[rng.integers(m, size=rng.integers(1, m))] = 0.0
        pts.append(x / x.sum())
        pts.append(x * rng.choice((-1.0, 1.0), size=m))
        pts.append(rng.uniform(-3, 3, size=m))
    return pts


@pytest.mark.parametrize("m, n", FAMILIES)
def test_counts_and_sign_factors(m, n):
    fam = _PowerFamily(m, n, signed=True)
    counts = ref_counts(fam.indices, m)
    assert fam.counts.dtype == counts.dtype and same_bits(fam.counts, counts)
    ref = ref_sign_factors(fam.patterns, counts)
    assert len(fam.sign_factors) == len(ref) == 2 ** (m - 1)
    for got, want in zip(fam.sign_factors, ref):
        assert same_bits(got, want)


@pytest.mark.parametrize("m, n", FAMILIES)
def test_column_and_polish_value_grad(m, n):
    fam = _PowerFamily(m, n, signed=False)
    y = np.random.default_rng(m * 100 + n).uniform(-2, 2, size=len(fam.indices))
    points = _points(m, m * 100 + n)
    X = np.asarray(points)
    # equal bytes in another layout would pass the lines below, yet each row's
    # ddot with y would run another BLAS loop and sum in another order
    assert fam._terms(X, fam._take).flags.c_contiguous
    assert fam._terms(X, fam._grad_take).flags.c_contiguous
    values, grads = fam._values(X, y), fam._gradients(X, y)
    assert len(values) == len(grads) == len(points)
    for x, val, grad in zip(points, values, grads):
        assert same_bits(fam.column(x), ref_column(fam, x))
        assert same_bits(fam.column(tuple(x)), ref_column(fam, tuple(x)))
        ref_val, ref_g = ref_poly_value_grad(fam, x, y)
        assert type(val) is float and same_bits(val, ref_val)
        assert same_bits(grad, ref_g)


def _assert_polish_rows(fam, X0, y, signs):
    """_polish moves all rows together; each row must end as ref_polish from it alone."""
    X, F = fam._polish(X0, y, signs)
    assert X.shape == np.shape(X0) and len(F) == len(X0)
    for x0, sign, x, v in zip(X0, signs, X, F):
        ref_x, ref_v = ref_polish(fam, x0, y, sign)
        assert same_bits(x, ref_x) and type(v) is float and same_bits(v, ref_v)


@pytest.mark.parametrize("m, n", FAMILIES)
def test_polish(m, n):
    fam = _PowerFamily(m, n, signed=False)
    rng = np.random.default_rng(m * 1000 + n)
    X0 = np.asarray(_points(m, m * 1000 + n))
    for shift in (0, 1):   # every start under both signs
        y = rng.uniform(-2, 2, size=len(fam.indices))
        _assert_polish_rows(fam, X0, y, [(1.0, -1.0)[(j + shift) % 2] for j in range(len(X0))])


@pytest.mark.parametrize("m, n", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)])
def test_pricing_grid(m, n):
    fam = _PowerFamily(m, n, signed=False)
    fam._oracle_grid(np.ones(len(fam.indices)))
    assert fam._grid is ref_grid(m)
    ref = ref_grid_cols(fam._grid, fam.counts)
    assert same_bits(fam._grid_cols, ref)
    # equal bytes in another layout would pass the line above, yet the product
    # with y would run another BLAS kernel and sum in another order
    assert fam._grid_cols.flags.c_contiguous
    rng = np.random.default_rng(m * 10 + n)
    for _ in range(4):
        y = rng.uniform(-2, 2, size=len(fam.indices))
        assert same_bits(fam._grid_cols @ y, ref @ y)


@pytest.mark.parametrize("m, n", [f for f in FAMILIES if f[0] >= 3])
def test_polish_from_lattice_points(m, n):
    # _oracle_grid starts the polish at pricing-lattice points, which have exact zeros
    fam = _PowerFamily(m, n, signed=False)
    grid = ref_grid(m)
    rng = np.random.default_rng(m * 10000 + n)
    starts = [grid[0], grid[-1], grid[len(grid) // 2]]
    starts += [grid[i] for i in rng.integers(len(grid), size=6)]
    for shift in (0, 1):
        y = rng.uniform(-2, 2, size=len(fam.indices))
        _assert_polish_rows(fam, np.asarray(starts),
                            y, [(1.0, -1.0)[(j + shift) % 2] for j in range(len(starts))])


@pytest.mark.parametrize("m, n", [(2, 3), (3, 2), (4, 3)])
def test_poly_grad_where_the_top_power_overflows(m, n):
    # x_0^n is inf and x_0^(n-1) finite: every term with counts[:, c] = 0 must
    # stay an exact 0.0, not 0 * inf = nan
    fam = _PowerFamily(m, n, signed=False)
    y = np.random.default_rng(m * 10 + n).uniform(-2, 2, size=len(fam.indices))
    big = 2.0 ** (1023 / (n - 0.5))
    X = np.asarray([np.r_[big, np.full(m - 1, 0.5)], np.r_[-big, np.linspace(-1, 1, m - 1)]])
    with np.errstate(over="ignore"):
        grads = fam._gradients(X, y)
        for x, grad in zip(X, grads):
            assert same_bits(grad, ref_poly_value_grad(fam, x, y)[1])
    assert np.isfinite(grads).all()


def _ref_gradient_points(fam, x0, y, sign):
    """The points at which ref_polish from x0 takes its gradients, one per step.

    The reference passes each candidate once, to the value; the start and each
    accepted candidate it also passes to every gradient taken there.
    """
    module = sys.modules[__name__]
    args = []
    value_grad = module.ref_poly_value_grad

    def counted(self, x, y):
        args.append(x)
        return value_grad(self, x, y)

    module.ref_poly_value_grad = counted
    try:
        ref_polish(fam, x0, y, sign)
    finally:
        module.ref_poly_value_grad = value_grad
    seen = set()
    steps = []
    for a in args:
        if id(a) in seen:
            steps.append(a)
        seen.add(id(a))
    return steps


@pytest.mark.parametrize("m, n", [(3, 2), (3, 3), (3, 4), (4, 2)])
def test_polish_gradient_once_per_point(m, n, monkeypatch):
    # the reference takes the gradient on every step, also after a rejected one;
    # _polish takes it once per row at the start and once after each accepted step
    fam = _PowerFamily(m, n, signed=False)
    calls = []
    gradients = _PowerFamily._gradients

    def counted_grad(self, X, y):
        calls.append([x.tobytes() for x in X])
        return gradients(self, X, y)

    monkeypatch.setattr(_PowerFamily, "_gradients", counted_grad)
    grid = ref_grid(m)
    rng = np.random.default_rng(m * 100000 + n)
    X0 = np.asarray([grid[i] for i in rng.integers(len(grid), size=4)] + _points(m, m)[:4])
    repeats = 0
    for shift in (0, 1):
        y = rng.uniform(-2, 2, size=len(fam.indices))
        signs = [(1.0, -1.0)[(j + shift) % 2] for j in range(len(X0))]
        wanted, most_steps = [], 0
        for x0, sign in zip(X0, signs):
            steps = _ref_gradient_points(fam, x0, y, sign)
            points = list({id(a): a for a in steps}.values())
            repeats += len(steps) - len(points)
            most_steps = max(most_steps, len(steps))
            wanted.append([a.tobytes() for a in points])
            # alone, a row takes its gradients at the reference's distinct points, in order
            calls.clear()
            fam._polish(x0[None], y, [sign])
            assert [c for call in calls for c in call] == wanted[-1]
            assert all(len(call) == 1 for call in calls)
        # in lockstep, at most one batched call per step, each row at most once in it
        calls.clear()
        fam._polish(X0, y, signs)
        assert all(len(call) <= len(X0) for call in calls)
        got = Counter(c for call in calls for c in call)
        assert got == Counter(w for pts in wanted for w in pts)
        # every row takes its first gradient in the first call
        assert len(calls) <= min(most_steps, sum(map(len, wanted)) - len(X0) + 1)
    assert repeats > 0   # the reference did take gradients again at a point


def _ref_stop(fam, x0, y, sign):
    """(why, steps): where ref_polish from x0 stops, on a centred gradient below
    1e-15 ('gradient'), a step below 1e-14 ('step') or after POLISH_ITERS ('iters')."""
    steps = _ref_gradient_points(fam, x0, y, sign)
    g = sign * ref_poly_value_grad(fam, steps[-1], y)[1]
    g = g - g.mean()
    if float(np.linalg.norm(g)) < 1e-15:
        return "gradient", len(steps)
    return ("iters" if len(steps) == norm_solver.POLISH_ITERS else "step"), len(steps)


def test_polish_rows_stop_for_each_reason():
    # y the multiplicities makes p = (sum x)^3, whose centred gradient is 0; less
    # x_2^3 it is 0 only where x_2 = 0, so rows stop on the gradient at the start
    # or once they reach that face, on the step at a vertex, or after all steps
    m, n = 3, 3
    fam = _PowerFamily(m, n, signed=False)
    y = np.asarray([float(multiplicity(i)) for i in fam.indices])
    y[fam.indices.index((2, 2, 2))] -= 1.0
    grid = ref_grid(m)
    rng = np.random.default_rng(0)
    starts = [grid[0], grid[-1], grid[len(grid) // 2]]
    starts += [grid[i] for i in rng.integers(len(grid), size=6)] + _points(m, 1)[:8]
    X0 = np.asarray(starts * 2)
    signs = [1.0] * len(starts) + [-1.0] * len(starts)
    stops = [_ref_stop(fam, x0, y, sign) for x0, sign in zip(X0, signs)]
    why = {w for w, _ in stops}
    assert why == {"gradient", "step", "iters"}
    assert len({k for w, k in stops if w == "gradient"}) > 2
    assert len({k for w, k in stops if w == "step"}) > 2
    _assert_polish_rows(fam, X0, y, signs)


@pytest.mark.parametrize("m, n", [(3, 2), (3, 4), (4, 3), (5, 2)])
def test_polish_batch_equals_single_rows(m, n):
    # the five grid starts of _oracle_grid, polished together and one at a time
    fam = _PowerFamily(m, n, signed=False)
    grid = ref_grid(m)
    rng = np.random.default_rng(m * 7 + n)
    for _ in range(4):
        y = rng.uniform(-2, 2, size=len(fam.indices))
        vals = ref_grid_cols(grid, fam.counts) @ y
        top = np.argsort(-np.abs(vals))[:5]
        X0, signs = grid[top], [1.0 if v >= 0 else -1.0 for v in vals[top]]
        X, F = fam._polish(X0, y, signs)
        for i in range(5):
            x, v = fam._polish(X0[i:i + 1], y, signs[i:i + 1])
            assert same_bits(X[i], x[0]) and same_bits(F[i], v[0])


# ---------------------------------------------------------------------------
# one composition table


ORDERS = [(m, n) for m in range(1, 6) for n in range(1, 9)]


@pytest.mark.parametrize("m, n", ORDERS)
def test_compositions_are_the_lattice_and_the_counts(m, n):
    assert _compositions(m, n).dtype == ref_bincount_counts(multi_indices(m, n), m).dtype
    assert same_bits(_simplex_lattice(m, n), ref_simplex_lattice(m, n))
    fam = _PowerFamily(m, n, signed=False)
    counts = ref_bincount_counts(fam.indices, m)
    assert fam.counts.dtype == counts.dtype and same_bits(fam.counts, counts)
    assert same_bits(fam.counts, ref_counts(fam.indices, m))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_pricing_lattice(m):
    grid = ref_grid(m)
    res = round(1 / grid[grid > 0].min())
    assert same_bits(grid, ref_simplex_lattice(m, res))


def _targets(m, n, seed):
    """Power targets (positive, signed, with zeros and ties) and plain random ones."""
    rng = random.Random(seed)
    vecs = [np.full(m, 1.0 / m), np.eye(m)[-1], -np.eye(m)[0], np.zeros(m)]
    vecs += [np.asarray([rng.choice((0.0, 0.5, -0.5, rng.uniform(-2, 2))) for _ in range(m)])
             for _ in range(4)]
    targets = [np.asarray(power(v, n).vector()) for v in vecs]
    size = comb(m + n - 1, n)
    targets += [np.asarray([rng.uniform(-1, 1) for _ in range(size)]) for _ in range(3)]
    return targets


@pytest.mark.parametrize("m, n", ORDERS)
def test_diagonal_candidate(m, n):
    for signed in (False, True):
        for target in _targets(m, n, f"diag:{m}:{n}"):
            fam = _PowerFamily(m, n, signed=signed, target=target)
            assert same_value(fam._diagonal_candidate(), ref_diagonal_candidate(fam))


@pytest.mark.parametrize("N", range(1, 9))
def test_extendibility_count_classes(N, monkeypatch):
    walked = []

    def record(n, N, counts):
        walked.append(counts)
        return SymmetricTensor(len(counts), n, {})

    monkeypatch.setattr(exchangeable, "_pushforward_chi", record)
    monkeypatch.setattr(norm_solver, "norm_pisp",
                        lambda t, space, opts=None: NormBounds(0.0, 1.0, None, None, 0, True))
    for m in range(1, min(N, 5) + 1):
        walked.clear()
        kappa_nNm_bounds(m, N, m, exact=True)
        want = [list(c) for c in ref_compositions_desc(N, m)]
        if m > 1:
            want = want[1:]   # the one-colour class (N, 0, ...) is skipped
        assert same_value(walked, want)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3)])
def test_extendibility_maximum_over_every_class(n, m):
    # skipping the one-colour class keeps the maximum: its law has norm 1,
    # and any cap on the rounds keeps the upper end of (N - 1, 1, ...) above 1;
    # m = 3 solves are grid + polish, capped at two rounds to stay short
    opts = SolverOptions(max_rounds=2) if m == 3 else None
    for N in range(n, n + 4):
        best = None
        for counts in ref_compositions_desc(N, m):
            nb = norm_pisp(exchangeable._pushforward_chi(n, N, list(counts)), l1(m), opts)
            if best is None or nb.upper > best.upper:
                best = nb
        assert best.upper > 1.0
        _assert_same_bounds(kappa_nNm_bounds(n, N, m, exact=True, opts=opts).lp_value, best)


# ---------------------------------------------------------------------------
# one term merge, one power loop, one 2x2 trace norm


def _vectors(m, seed):
    """Seeded vectors with zero, repeated, cancelling and exactly representable entries."""
    rng = random.Random(seed)
    out = [(0.0,) * m, (1.5,) * m, tuple((-1.0) ** c * 0.5 for c in range(m)),
           tuple(float(c - m // 2) for c in range(m))]
    for _ in range(4):
        out.append(tuple(rng.choice((0.0, -0.0, 0.1, -0.1, 1 / 3, 2.0, rng.uniform(-2, 2)))
                         for _ in range(m)))
    return out


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("m, n", ORDERS)
def test_power(m, n, exact):
    for x in _vectors(m, f"power:{m}:{n}"):
        assert same_value(power(x, n, exact), ref_power(x, n, exact))


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("m", range(1, 5))
def test_polarization_expand(m, exact):
    pool = _vectors(m, f"polar:{m}")
    rng = random.Random(f"polar:{m}:{exact}")
    cases = [[pool[1], pool[1]], [pool[2], tuple(-v for v in pool[2])], [pool[0], pool[3]]]
    for n in range(1, 6):
        cases += [[rng.choice(pool) for _ in range(n)] for _ in range(4)]
    for vecs in cases:
        assert same_value(polarization_expand(vecs, exact), ref_polarization_expand(vecs, exact))


def _decompositions():
    rng = random.Random("cheb")
    out = []
    for n in range(1, 10):
        for a, b in [(1.0, -1.0), (-2.0, 2.0), (1.0, 0.0), (0.0, 0.0), (0.5, 0.25),
                     (1.0, -1e-13), (3.0, -1.0), (-1.0, 3.0)]:
            out.append(optimal_decomposition_m2(a, b, n))
        for _ in range(6):
            out.append(optimal_decomposition_m2(rng.uniform(-2, 2), rng.uniform(-2, 2), n))
    # repeated nodes whose weights add up, cancel, or are zero to begin with
    nodes = [(0.5, 0.5), (1.0, 0.0), (0.5, 0.5), (0.0, 1.0), (1.0, 0.0), (0.25, 0.75)]
    out.append(ChebDecomposition(3, 1.0, -1.0, [1.0, 2.0, -1.0, 0.0, -2.0, 0.1], nodes, 6.1))
    out.append(ChebDecomposition(2, 1.0, -1.0, [0.1, 0.2, 0.3, -0.0, 0.7, 1e-300],
                                 nodes, 1.3))
    return out


def test_to_combination():
    for dec in _decompositions():
        assert same_value(dec.to_combination(), ref_to_combination(dec))


def test_trace_norm_2x2():
    rng = random.Random("trace")
    special = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e-300, 1e300, 2.0 ** -1074]
    matrices = [[[a, b], [b, c]] for a in special[:5] for b in special[:5] for c in special]
    matrices += [[[a, b], [b, c]] for a, b, c in
                 ((rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(500))]
    matrices += [[[1.0, 0.5], [0.5 + 1e-12, -3.0]], [[2.0, 1e-310], [0.0, 2.0]]]
    for A in matrices:
        assert same_value(trace_norm_2x2(A), ref_trace_norm_2x2(A))


@pytest.mark.parametrize("kind", ["pisp", "pip"])
def test_extreme_points(kind):
    for resolution in range(4, 41):
        assert same_value(extreme_points(kind, resolution),
                          ref_extreme_points_halves(kind, resolution))


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
    return out + [TINY_PIVOT, ZERO_ARTIFICIAL_IN_PHASE_2, ARTIFICIAL_TIE, PIVOT_ELEMENT_TIE,
                  BLAND_TIE]


# the first entering column, 0, meets the pivot element 5e-10: it is blocked,
# column 3 enters, and then column 0 does
TINY_PIVOT = ([(5e-10, 1.0), (-1.0, 3e-10)], (1e-10, 1e-10))
# phase 1 ends with the artificials of rows 0 and 3 (columns 6 and 9) basic at
# level 0, and in phase 2 the entering column 1 takes the place of column 6
ZERO_ARTIFICIAL_IN_PHASE_2 = ([(0.0, -1.0, 1.0, 2.0), (-1.0, 2.0, 0.0, 1.0),
                               (0.0, -2.0, -1.0, -2.0)], (0.0, 1.0, 0.0, 0.0))
# the minimum ratio ties over two rows, and the row that leaves is not the
# first of them: an artificial (column 5) rather than column 2, and column 0,
# the larger pivot element, rather than column 4
ARTIFICIAL_TIE = ([(2.0, 0.0), (1.0, -1.0)], (-1.0, 1.0))
PIVOT_ELEMENT_TIE = ([(-1.0, 1.0), (-2.0, 0.0), (0.0, 1.0)], (0.0, 1.0))
# column 5 enters with a ratio tie between columns 3 and 1: Bland's rule lets
# column 1 leave (the lower index), Dantzig's column 3 (the larger pivot element)
BLAND_TIE = ([(-1.0, -1.0, -1.0), (0.0, -2.0, 1.0), (0.0, 0.0, -1.0)], (-2.0, 0.0, 2.0))


def _solve_both(monkeypatch, fn):
    new = fn()
    with monkeypatch.context() as mp:
        mp.setattr(lp_engine._Tableau, "pivot", ref_pivot)
        mp.setattr(lp_engine, "_run_phase", ref_run_phase)
        old = fn()
    return new, old


def _engine_log(monkeypatch, fn):
    """The phases, pivots and refactors of the engine during fn(), in order.

    A pivot is logged as (entering column, leaving column, rows whose ratio
    lies within 1e-12 of the minimum).
    """
    log = []
    pivot, refactor, run_phase = (lp_engine._Tableau.pivot, lp_engine._Tableau.refactor,
                                  lp_engine._run_phase)

    def logged_pivot(self, j, row, u):
        ratios = np.divide(self.xb, u, out=np.full(len(u), np.inf),
                           where=u > lp_engine._PIVOT_TOL)
        ties = int(np.count_nonzero(ratios <= ratios.min() + 1e-12))
        log.append(("pivot", j, int(self.basis[row]), ties))
        pivot(self, j, row, u)

    def logged_refactor(self):
        log.append(("refactor",))
        refactor(self)

    def logged_phase(*args):
        log.append(("phase",))
        return run_phase(*args)

    with monkeypatch.context() as mp:
        mp.setattr(lp_engine._Tableau, "pivot", logged_pivot)
        mp.setattr(lp_engine._Tableau, "refactor", logged_refactor)
        mp.setattr(lp_engine, "_run_phase", logged_phase)
        fn()
    return log


@pytest.mark.parametrize("case", range(len(_lp_instances())))
def test_solve_min_tv_matches_row_loop(monkeypatch, case):
    cols, target = _lp_instances()[case]
    new, old = _solve_both(monkeypatch, lambda: solve_min_tv(cols, target))
    assert new.status == old.status
    assert new.iterations == old.iterations
    assert same_bits(new.weights, old.weights)
    assert same_bits(new.dual, old.dual)
    assert same_bits(new.objective, old.objective)


def test_blocked_column_enters_after_the_next_pivot(monkeypatch):
    # the refactor that blocks column 0 keeps it out for one pivot only
    log = _engine_log(monkeypatch, lambda: solve_min_tv(*TINY_PIVOT))
    assert log == [("phase",), ("refactor",), ("pivot", 3, 4, 1), ("pivot", 0, 5, 1),
                   ("phase",)]


def test_zero_artificial_leaves_in_phase_2(monkeypatch):
    log = _engine_log(monkeypatch, lambda: solve_min_tv(*ZERO_ARTIFICIAL_IN_PHASE_2))
    assert log == [("phase",), ("pivot", 5, 8, 2), ("pivot", 3, 7, 1),
                   ("phase",), ("pivot", 1, 6, 1)]


@pytest.mark.parametrize("case, log", [
    (ARTIFICIAL_TIE, [("phase",), ("pivot", 2, 4, 1), ("pivot", 3, 5, 2), ("phase",)]),
    (PIVOT_ELEMENT_TIE, [("phase",), ("pivot", 4, 6, 1), ("pivot", 0, 7, 1), ("phase",),
                         ("pivot", 2, 0, 2)]),
])
def test_ratio_tie_leaves_off_its_first_row(monkeypatch, case, log):
    assert _engine_log(monkeypatch, lambda: solve_min_tv(*case)) == log


def test_nan_ratio_raises_as_in_the_row_loop(monkeypatch):
    # a nan basic level makes the minimum ratio nan, and no row ties with it
    def run():
        tab = lp_engine._Tableau(np.hstack([np.eye(2), np.eye(2)]), np.array([1.0, 1.0]))
        tab.xb[0] = np.nan
        costs = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            lp_engine._run_phase(tab, costs, np.arange(4) >= 2, 10, 10)
        return tab.pivots

    assert _solve_both(monkeypatch, run) == (0, 0)


@pytest.mark.parametrize("case", range(25, 29))
def test_periodic_refactor_matches_row_loop(monkeypatch, case):
    # master-sized instances take 35 to 41 pivots: refactor after every fourth
    monkeypatch.setattr(lp_engine, "_REFACTOR_EVERY", 4)
    cols, target = _lp_instances()[case]
    log = _engine_log(monkeypatch, lambda: solve_min_tv(cols, target))
    pivots = sum(e[0] == "pivot" for e in log)
    assert pivots >= 35 and log.count(("refactor",)) == pivots // 4
    new, old = _solve_both(monkeypatch, lambda: solve_min_tv(cols, target))
    assert new.status == old.status and new.iterations == old.iterations
    assert same_bits(new.weights, old.weights) and same_bits(new.dual, old.dual)


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
        phases = [lp_engine._run_phase(tab, costs.astype(float), is_artificial, 1000, 0)
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
        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return ref(*args, **kwargs)
        return wrapped

    with monkeypatch.context() as mp:
        mp.setattr(lp_engine._Tableau, "pivot", counted("pivot", ref_pivot))
        mp.setattr(lp_engine, "_run_phase", counted("phase", ref_run_phase))
        mp.setattr(norm_solver, "_roots_unit_interval",
                   counted("roots", ref_roots_unit_interval))
        mp.setattr(norm_solver, "_poly_coeffs", counted("coeffs", ref_poly_coeffs))
        mp.setattr(_PowerFamily, "__init__",
                   counted("tables", with_ref_tables(_PowerFamily.__init__)))
        mp.setattr(_PowerFamily, "column", counted("column", ref_column))
        mp.setattr(_PowerFamily, "_polish", counted("polish", ref_polish_rows))
        mp.setattr(_PowerFamily, "_diagonal_candidate",
                   counted("diagonal", ref_diagonal_candidate))
        mp.setattr(norm_solver, "_lattice_cached", counted("lattice", ref_simplex_lattice))
        old = fn()
    return new, old, calls


def test_norm_pis_m2_whole_solve(monkeypatch):
    rng = random.Random("bitwise:pis:10")
    t = SymmetricTensor(2, 10, {i: rng.uniform(-1, 1) for i in multi_indices(2, 10)})
    new, old, calls = _patched(monkeypatch, lambda: norm_pis(t, l1(2)))
    assert new.iterations > 1 and calls["pivot"] and calls["phase"]
    assert calls["roots"] and calls["coeffs"]
    _assert_same_bounds(new, old)


def test_norm_pisp_m2_ill_conditioned_whole_solve(monkeypatch):
    # the i.i.d. law's round-170 master is so ill-conditioned that basic
    # columns price at reduced costs as low as -2e-6; they must never enter
    d = iid((0.2, 0.8), 8)
    opts = SolverOptions(max_rounds=170)
    new, old, calls = _patched(monkeypatch, lambda: norm_pisp(d.tensor, l1(2), opts))
    assert new.iterations == 170 and calls["phase"]
    _assert_same_bounds(new, old)


def test_norm_pisp_m3_whole_solve(monkeypatch):
    # the solve behind represent(d, "lp") for a random law on three states
    rng = random.Random("bitwise:law:m3")
    idx = multi_indices(3, 3)
    w = [rng.random() for _ in idx]
    total = math.fsum(w)
    d = load_distribution([(i, v / total) for i, v in zip(idx, w)], states=range(3), order=3)
    new, old, calls = _patched(monkeypatch, lambda: norm_pisp(d.tensor, l1(3)))
    assert new.iterations > 1 and calls["pivot"] and calls["column"] and calls["polish"]
    assert calls["diagonal"] and calls["lattice"]
    _assert_same_bounds(new, old)


def test_norm_pis_m3_signed_whole_solve(monkeypatch):
    rng = random.Random("bitwise:pis:m3")
    t = SymmetricTensor(3, 3, {i: rng.uniform(-1, 1) for i in multi_indices(3, 3)})
    # four rounds of grid + polish pricing over all four sign patterns; a
    # converged solve takes about 50 rounds
    opts = SolverOptions(max_rounds=4)
    new, old, calls = _patched(monkeypatch, lambda: norm_pis(t, l1(3), opts))
    assert new.iterations == 4 and calls["tables"] and calls["polish"]
    _assert_same_bounds(new, old)


def test_norm_pisp_m4_whole_solve(monkeypatch):
    rng = random.Random("bitwise:pisp:m4")
    t = SymmetricTensor(4, 3, {i: rng.random() for i in multi_indices(4, 3)})
    opts = SolverOptions(max_rounds=10)   # of 37 to convergence
    new, old, calls = _patched(monkeypatch, lambda: norm_pisp(t, l1(4), opts))
    assert new.iterations == 10 and calls["tables"] and calls["polish"]
    _assert_same_bounds(new, old)

