"""Certified norms for symmetric tensors over l1^m and the Euclidean plane.

Four norms are computed, each returning a NormBounds bracket:

  norm_pi    -- decompositions into arbitrary elementary tensors;
  norm_pis   -- decompositions into n-th powers of arbitrary vectors;
  norm_pip   -- elementary tensors of coordinatewise-positive vectors;
  norm_pisp  -- n-th powers of coordinatewise-positive vectors.

Over l1^m the first and third have entrywise closed forms; the power-based
norms run column generation whose generators are powers of unit vectors
(the probability simplex for the positive cone, its signed copies for
norm_pis).  Pricing is exact for m = 2 (univariate polynomial on [0, 1])
and grid + projected-gradient polish for m >= 3.  The Euclidean 2x2 case
is delegated to the euclid2 gallery.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, product
from math import comb

import numpy as np

from . import euclid2
from ._colgen import PRICING_TOL, NormBounds, SolverOptions, run_column_generation
from .chebyshev import psi
from .tensor_core import SignedPowerCombination, SymmetricTensor, multi_indices, multiplicity


@dataclass(frozen=True)
class SpaceDescriptor:
    """Ground space: l1^m with the coordinatewise order, or the Euclidean plane."""

    family: str  # 'l1' | 'l2dim2'
    dim: int

    def __post_init__(self):
        if self.family not in ("l1", "l2dim2"):
            raise ValueError(f"unknown space family {self.family!r}")
        if self.family == "l2dim2" and self.dim != 2:
            raise ValueError("the Euclidean gallery is two-dimensional")
        if self.dim < 1:
            raise ValueError("dim must be positive")


def l1(m: int) -> SpaceDescriptor:
    return SpaceDescriptor("l1", m)


def l2dim2() -> SpaceDescriptor:
    return SpaceDescriptor("l2dim2", 2)


@dataclass
class PolarizationConstants:
    """Bracketed constants for order n over the given space."""

    n: int
    space: SpaceDescriptor
    kappa: NormBounds
    cssp: NormBounds
    gamma_reference: float       # 2^(n-1)
    classical_cs_lower: float    # n^n / n!


# ---------------------------------------------------------------------------
# pricing helpers

GRID_RESOLUTION = 64   # simplex pricing lattice for m >= 3
GRID_BUDGET = 30000    # cap on the size of the pricing and seed lattices
POLISH_ITERS = 80      # projected-gradient steps per grid start


def _monomials(x, counts) -> np.ndarray:
    """prod_c x[..., c] ** counts[:, c] for one point x or a batch of points.

    One coordinate's powers x_c^0..x_c^n at a time are gathered by exponent and
    multiplied, in coordinate order, into a C-ordered output (a gathered batch is
    Fortran-ordered, and its product with y sums in another order); x^0 = 1.0.
    """
    x = np.asarray(x, dtype=float)
    powers = np.arange(counts.max(initial=0) + 1)
    out = np.ones(x.shape[:-1] + (len(counts),))
    for c, k in enumerate(counts.T):
        out *= (x[..., c, None] ** powers)[..., k]
    return out


def _compositions(m: int, total: int) -> np.ndarray:
    """All m-tuples of non-negative integers summing to total, lexicographic.

    Reversed, the rows are the exponent counts of multi_indices(m, total).
    """
    rows = [([], total)]   # (prefix, remainder)
    for _ in range(m - 1):
        rows = [(row + [v], rem - v) for row, rem in rows for v in range(rem + 1)]
    return np.asarray([row + [rem] for row, rem in rows])


def _simplex_lattice(m: int, resolution: int) -> np.ndarray:
    """All points of the simplex with coordinates at multiples of 1/resolution."""
    return _compositions(m, resolution) / resolution


@lru_cache(maxsize=64)
def _lattice_cached(m: int, resolution: int):
    return _simplex_lattice(m, resolution)


def _poly_coeffs(yk: np.ndarray, n: int) -> np.ndarray:
    """Monomial coefficients of p(u) = sum_k y_k u^(n-k) (1-u)^k, lowest first."""
    coef = np.zeros(n + 1)
    for k in range(n + 1):
        # (1-u)^k = sum_j (-1)^j C(k, j) u^j; each entry gets one term per k
        coef[n - k:] += yk[k] * _signed_binomials(k)
    return coef


@lru_cache(maxsize=64)
def _signed_binomials(k: int) -> np.ndarray:
    return np.asarray([(-1) ** j * comb(k, j) for j in range(k + 1)], dtype=float)


@lru_cache(maxsize=64)
def _unit_grid(intervals: int) -> np.ndarray:
    grid = np.linspace(0.0, 1.0, intervals + 1)
    grid.flags.writeable = False   # one array serves every caller
    return grid


def _roots_unit_interval(coef: np.ndarray) -> list[float]:
    """Real roots in [0, 1]: sign changes on a 64*deg grid, then at most 80 bisection steps."""
    deg = len(coef) - 1
    while deg > 0 and coef[deg] == 0.0:
        deg -= 1
    if deg <= 0:
        return []
    c = coef[:deg + 1]
    grid = _unit_grid(max(512, 64 * deg))
    vals = np.polynomial.polynomial.polyval(grid, c)
    a, b = vals[:-1], vals[1:]
    # Horner in plain floats, step for step as numpy's polyval: same bits
    rev = c[::-1].tolist()
    lead, rest = rev[0], rev[1:]
    roots = []
    for i in np.flatnonzero((a == 0.0) | (a * b < 0.0)).tolist():
        flo = float(a[i])
        if flo == 0.0:
            roots.append(float(grid[i]))
            continue
        lo, hi = float(grid[i]), float(grid[i + 1])
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break  # adjacent doubles: every further step repeats this one
            fm = lead + mid * 0
            for ci in rest:
                fm = ci + fm * mid
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


def _max_abs_poly01(coef: np.ndarray) -> tuple[float, float]:
    """(argmax, max) of |p(u)| over [0, 1] via derivative root isolation."""
    deriv = coef[1:] * np.arange(1, len(coef))
    cands = [0.0, 1.0] + _roots_unit_interval(deriv)
    vals = np.abs(np.polynomial.polynomial.polyval(np.asarray(cands), coef))
    i = int(np.argmax(vals))
    return float(cands[i]), float(vals[i])


class _PowerFamily:
    """Generators x^(tensor n) with x on the l1 unit sphere (or its positive part)."""

    def __init__(self, m: int, n: int, signed: bool, target=None):
        self.m = m
        self.n = n
        self.signed = signed
        self.target = None if target is None else np.asarray(target, dtype=float)
        self.indices = multi_indices(m, n)
        self.counts = _compositions(m, n)[::-1]
        if signed:
            self.patterns = [np.asarray((1,) + eps, dtype=float)
                             for eps in product((1, -1), repeat=m - 1)]
        else:
            self.patterns = [np.ones(m)]
        # positions in a point's power table, entry c (n + 1) + k = x_c^k: the factors
        # of x^counts, and per c those of d/dx_c x^counts = counts[:, c] x^(counts - e_c),
        # all x^0 = 1.0 where counts[:, c] = 0, so that term is 0 * 1.0 = +0.0
        self._powers = np.arange(n + 1)
        base = (n + 1) * np.arange(m)[:, None]
        self._take = base + self.counts.T
        grad = self.counts.T[:, None] - np.eye(m, dtype=int)[:, :, None]
        self._grad_take = base[:, None] + np.where(self.counts.T > 0, grad, 0)
        self.sign_factors = [self.column(pat) for pat in self.patterns]
        self._grid = None
        self._grid_cols = None

    # -- column interface ---------------------------------------------------
    def column(self, x) -> np.ndarray:
        return self._products(x, self._take)

    def _products(self, x, take):
        # products over the first axis of take, in coordinate order, of x's power table
        table = np.asarray(x, dtype=float)[:, None] ** self._powers
        return np.multiply.reduce(table.take(take), axis=0)

    def primal(self, kept):
        terms = [(w, tuple(float(v) for v in p)) for p, w in kept]
        terms.sort(key=lambda t: t[1])
        return SignedPowerCombination(self.m, self.n, tuple(terms)), None

    # -- seeds ----------------------------------------------------------------
    def seeds(self) -> list:
        base = list(np.eye(self.m))
        for i, j in combinations(range(self.m), 2):
            e = np.zeros(self.m)
            e[i] = e[j] = 0.5
            base.append(e)
        base.append(np.full(self.m, 1.0 / self.m))
        if self.m == 2:
            for j in range(self.n + 1):
                c = math.cos(j * math.pi / (2 * self.n)) ** 2
                base.append(np.asarray([c, 1.0 - c]))
        lattice_res = self.n
        if comb(lattice_res + self.m - 1, self.m - 1) <= GRID_BUDGET:
            base.extend(_lattice_cached(self.m, lattice_res))
        out = []
        cand = self._diagonal_candidate()
        if cand is not None:
            out.append(cand)  # first, so deduplication keeps the clean point
        for pat in self.patterns:
            for x in base:
                out.append(tuple(pat * x))
        return out

    def _diagonal_candidate(self):
        # an exact power target x^(tensor n) is recovered from its diagonal
        if self.target is None:
            return None
        diag = self.target[(self.counts == self.n).argmax(axis=0)]
        if not self.signed and np.any(diag < 0):
            return None
        roots = np.sign(diag) * np.abs(diag) ** (1.0 / self.n)
        if not np.all(np.isfinite(roots)):
            return None
        roots = np.round(roots, 12)  # n-th roots of clean inputs carry ulp noise
        scale = np.abs(roots).sum()
        if scale <= 0:
            return None
        x = roots / scale
        if self.signed and x[0] < 0:
            x = -x
        return tuple(x)

    # -- pricing --------------------------------------------------------------
    def oracle(self, y) -> tuple[tuple, float, list]:
        y = np.asarray(y, dtype=float)
        best_x, best_v = None, -1.0
        extras: list[tuple] = []
        for pat, sign_factor in zip(self.patterns, self.sign_factors):
            yt = y * sign_factor
            if self.m == 2:
                u, v = _max_abs_poly01(_poly_coeffs(yt, self.n))
                x = np.asarray([u, 1.0 - u])
            else:
                x, v, more = self._oracle_grid(yt)
                extras.extend(tuple(pat * np.asarray(q)) for q in more)
            if v > best_v:
                best_v = v
                best_x = tuple(pat * x)
        return best_x, best_v, extras[:4]

    def _oracle_grid(self, y):
        if self._grid is None:
            res = GRID_RESOLUTION
            while comb(res + self.m - 1, self.m - 1) > GRID_BUDGET and res > 2:
                res -= 1
            self._grid = _lattice_cached(self.m, res)
            self._grid_cols = _monomials(self._grid, self.counts)
        vals = self._grid_cols @ y
        order = np.argsort(-np.abs(vals))
        best_x, best_v = None, -1.0
        extras = []
        for rank, gi in enumerate(order[:5]):
            x0 = self._grid[gi]
            x, v = self._polish(x0, y, 1.0 if vals[gi] >= 0 else -1.0)
            x = self._snap(x)
            if v > best_v:
                best_v, best_x = v, x
            elif rank > 0 and abs(vals[gi]) > 1.0 + PRICING_TOL:
                extras.append(tuple(x))
        return np.asarray(best_x), best_v, extras[:3]

    @staticmethod
    def _snap(x):
        # align polished points with the deduplication precision so repeated
        # convergence to one maximiser does not pile up near-parallel columns
        x = np.round(np.asarray(x, dtype=float), 12)
        s = np.abs(x).sum()
        return x / s if s > 0 else x

    def _poly_value(self, x, y):
        return float(self.column(x) @ y)

    def _poly_grad(self, x, y):
        # one full-length dot per coordinate, as the value's: (m, L) @ y sums otherwise
        parts = self.counts.T * self._products(x, self._grad_take)
        return np.asarray([float(part @ y) for part in parts])

    def _polish(self, x0, y, sign):
        x = np.asarray(x0, dtype=float).copy()
        f = sign * self._poly_value(x, y)
        step = 0.25
        g = None   # the ascent direction, kept until x moves
        for _ in range(POLISH_ITERS):
            if g is None:
                g = sign * self._poly_grad(x, y)
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
            fc = sign * self._poly_value(cand, y)
            if fc > f + 1e-17:
                x, f, g = cand, fc, None
                step = min(step * 1.6, 0.5)
            else:
                step *= 0.5
                if step < 1e-14:
                    break
        return x, abs(f)


def _block_table(parts: list, blocks: tuple, counts: np.ndarray) -> np.ndarray:
    """A[l, c]: coefficient of prod_i v_i^counts[c, i] in the monomial symmetric
    function m_{parts[l]}(x), for x with blocks[i] coordinates equal to v_i.

    A count vector of type lambda restricts to a count vector on each block,
    so the parts of lambda split into one sub-multiset mu_i per block; block i
    then holds k!/((k - len(mu_i))! prod mult(mu_i)!) count vectors of type mu_i.
    """
    col = {tuple(c): j for j, c in enumerate(counts.tolist())}
    table = np.zeros((len(parts), len(counts)))
    for row, lam in enumerate(parts):
        values = sorted(set(lam))
        # split[j][i]: parts of size values[j] placed on block i
        for split in product(*(_compositions(len(blocks), lam.count(v)).tolist()
                               for v in values)):
            weight = 1
            for i, k in enumerate(blocks):
                used = [s[i] for s in split]
                weight *= math.perm(k, sum(used))
                for a in used:
                    weight //= math.factorial(a)
            if weight:
                c = tuple(sum(v * s[i] for v, s in zip(values, split))
                          for i in range(len(blocks)))
                table[row, col[c]] += weight
    return table


class _OrbitPowerFamily:
    """Orbit sums of x^(tensor n), x on the positive part of the l1^N sphere.

    For a target invariant under every permutation of the N coordinates the
    master LP needs one row per partition lambda of n: row lambda of a column
    is the average of x^alpha over the multi-indices alpha of type lambda.
    Averaging a decomposition over the group keeps the target and does not
    raise the total variation, so the value is that of the full LP.  A
    parameter is an orbit's non-increasing representative; its column comes
    from its distinct values and their multiplicities.

    The dual functional is then a symmetric polynomial of degree n.  By the
    half-degree principle (Timofte 2003, Riener 2012) its extremes on the
    simplex lie at points with at most max(n // 2, 1) distinct non-zero
    coordinates, so pricing walks the block patterns k_1 <= ... <= k_r, with
    k_i coordinates at u_i / k_i and u on the r-simplex: r = 1 is a finite
    set of barycentres, and r >= 2 is the plain positive power oracle over
    l1^r on the pattern's coefficients (exact for r = 2, grid + polish for
    r >= 3).
    """

    def __init__(self, dim: int, n: int):
        self.dim = dim
        self.n = n
        self.parts, self.sizes = _orbit_rows(dim, n)
        self._tables: dict = {}   # blocks -> (column table over the parts, exponent counts)
        # barycentres of k coordinates, k = 1..dim, as columns over the parts
        self.barycentres = [tuple([1.0 / k] * k + [0.0] * (dim - k)) for k in range(1, dim + 1)]
        self._bary_cols = np.asarray([self.column(x) for x in self.barycentres])
        # pricing: per r >= 2 one l1^r oracle, per pattern the map from y to its
        # coefficients in u, where block i holds u_i / k_i
        self._pricing = []
        for r in range(2, min(max(n // 2, 1), dim) + 1):
            inner = _PowerFamily(r, n, signed=False)
            for blocks in _block_patterns(r, dim):
                table, counts = self._table(blocks)
                scale = np.prod(np.asarray(blocks, dtype=float) ** -counts, axis=1)
                self._pricing.append((blocks, inner, table * scale))

    # -- column interface ---------------------------------------------------
    def _table(self, blocks: tuple):
        """(T, counts): the column of a point with blocks[i] coordinates at v_i is
        T @ prod_i v_i^counts[:, i]; counts are those of _PowerFamily(len(blocks), n)."""
        if blocks not in self._tables:
            counts = _compositions(len(blocks), self.n)[::-1]
            table = _block_table(self.parts, blocks, counts) / self.sizes[:, None]
            self._tables[blocks] = table, counts
        return self._tables[blocks]

    def column(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        values, blocks = np.unique(x[x > 0], return_counts=True)
        table, counts = self._table(tuple(blocks.tolist()))
        return table @ _monomials(values, counts)

    def primal(self, kept):
        return SignedPowerCombination(self.dim, self.n, tuple((w, x) for x, w in kept)), None

    def seeds(self) -> list:
        return list(self.barycentres)

    # -- pricing --------------------------------------------------------------
    def oracle(self, y) -> tuple[tuple, float, list]:
        y = np.asarray(y, dtype=float)
        vals = np.abs(self._bary_cols @ y)
        found = [(float(v), x) for v, x in zip(vals, self.barycentres)]
        for blocks, inner, lift in self._pricing:
            u, v, _ = inner.oracle(y @ lift)
            point = [float(ui) / k for ui, k in zip(u, blocks) for _ in range(k)]
            point += [0.0] * (self.dim - len(point))
            found.append((v, tuple(sorted(point, reverse=True))))
        found.sort(key=lambda f: -f[0])
        best_v, best_x = found[0]
        extras = [x for v, x in found[1:5] if v > 1.0 + PRICING_TOL]
        return best_x, best_v, extras


def _orbit_rows(dim: int, n: int) -> tuple[list, np.ndarray]:
    """The partitions of n into at most dim parts, largest first, and the number of
    multi-indices of each type: the one-block table, dim! / ((dim - l)! prod_j m_j!)."""
    rows = _compositions(min(n, dim), n).tolist()
    parts = sorted({tuple(sorted(filter(None, row), reverse=True)) for row in rows}, reverse=True)
    return parts, _block_table(parts, (dim,), np.asarray([[n]]))[:, 0]


def _block_patterns(r: int, dim: int) -> list[tuple[int, ...]]:
    """Non-decreasing r-tuples of positive integers with sum at most dim."""
    out = [()]
    for _ in range(r):
        out = [p + (k,) for p in out for k in range(p[-1] if p else 1, dim + 1)]
    return [p for p in out if sum(p) <= dim]


def _arrangements(x: tuple) -> list[tuple]:
    """The distinct permutations of x, increasing: next-permutation steps from sorted(x)."""
    a = sorted(x)
    out = [tuple(a)]
    while True:
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])
        out.append(tuple(a))


def _full_shape(nb: NormBounds, dim: int, n: int) -> NormBounds:
    """``norm_pisp_invariant``'s result over l1^dim in ``norm_pisp``'s shape: each orbit
    point's distinct permutations share its weight, each row's dual its multi-indices."""
    if nb.primal is None:   # a failed master's [0, inf]
        return nb
    orbits = [(w, _arrangements(x)) for w, x in nb.primal.terms]
    terms = sorted(((w / len(o), p) for w, o in orbits for p in o), key=lambda t: t[1])
    parts, sizes = _orbit_rows(dim, n)
    row = dict(zip(parts, (np.asarray(nb.dual) / sizes).tolist()))
    dual = [row[tuple(sorted(Counter(i).values(), reverse=True))] for i in multi_indices(dim, n)]
    return replace(nb, primal=SignedPowerCombination(dim, n, tuple(terms)), dual=dual)


# ---------------------------------------------------------------------------
# norm operations


def _check_space(t: SymmetricTensor, space: SpaceDescriptor):
    if t.dim != space.dim:
        raise ValueError(f"tensor dim {t.dim} does not match space dim {space.dim}")
    if space.family == "l2dim2" and t.order != 2:
        raise ValueError("the Euclidean gallery supports order 2 only")


def _to_matrix(t: SymmetricTensor) -> list[list[float]]:
    a = float(t.entries.get((0, 0), 0.0))
    b = float(t.entries.get((0, 1), 0.0))
    c = float(t.entries.get((1, 1), 0.0))
    return [[a, b], [b, c]]


def norm_pi(t: SymmetricTensor, space: SpaceDescriptor) -> NormBounds:
    """Projective norm: entrywise l1 over l1^m, the trace norm over l2^2."""
    _check_space(t, space)
    if space.family == "l1":
        val = float(t.entrywise_l1())
        dual = [math.copysign(1.0, float(t.entries.get(i, 0.0))) * multiplicity(i)
                for i in multi_indices(t.dim, t.order)]
        return NormBounds(val, val, None, dual, 0, True)
    return euclid2.trace_norm_bounds(_to_matrix(t))


def norm_pisp(t: SymmetricTensor, space: SpaceDescriptor,
              opts: SolverOptions | None = None) -> NormBounds:
    """Positive symmetric norm via column generation over positive unit powers."""
    _check_space(t, space)
    if space.family == "l2dim2":
        return euclid2.half_circle_lp(_to_matrix(t), opts)
    fam = _PowerFamily(t.dim, t.order, signed=False, target=t.vector())
    return run_column_generation(t.vector(), fam, opts)


def norm_pis(t: SymmetricTensor, space: SpaceDescriptor,
             opts: SolverOptions | None = None) -> NormBounds:
    """Symmetric norm: signed unit powers by column generation (m <= 4); the trace norm on l2^2."""
    _check_space(t, space)
    if space.family == "l2dim2":
        return norm_pi(t, space)
    if t.dim > 4:
        raise ValueError("signed generation is limited to m <= 4 (2^m sign orthants)")
    fam = _PowerFamily(t.dim, t.order, signed=True, target=t.vector())
    return run_column_generation(t.vector(), fam, opts)


def norm_pisp_invariant(dim: int, n: int, target: dict,
                        opts: SolverOptions | None = None) -> NormBounds:
    """norm_pisp over l1^dim of an order-n target invariant under every permutation of
    the coordinates, given as {partition of n, largest part first: its types' entry}.

    A partition left out is 0; a key that is not a partition of n into at most dim parts
    raises ValueError.  One master row per partition, half-degree pricing (exact up to
    order 5, see ``_OrbitPowerFamily``).  The result is reduced: a primal term (w, x) is
    w times the orbit average of x^(tensor n), and the dual has one entry per partition.
    """
    fam = _OrbitPowerFamily(dim, n)
    bad = [lam for lam in target if lam not in fam.parts]
    if bad:
        raise ValueError(f"target key {bad[0]!r}: not a partition of {n} into at most {dim} parts")
    return run_column_generation([target.get(lam, 0.0) for lam in fam.parts], fam, opts)


def norm_pip(t: SymmetricTensor, space: SpaceDescriptor,
             opts: SolverOptions | None = None) -> NormBounds:
    """Positive projective norm: equals norm_pi on l1^m; wedge generation on l2^2."""
    _check_space(t, space)
    if space.family == "l1":
        return norm_pi(t, space)
    return euclid2.positive_wedge_lp(_to_matrix(t), opts)


def _basis_wedge(n: int) -> dict:   # e_1 v ... v e_n on its types, in wedge's bits
    return {(1,) * n: math.prod(1.0 / k for k in range(1, n + 1))}


@lru_cache(maxsize=32)
def _kappa_cached(n: int, opts: SolverOptions) -> NormBounds:
    nb = _full_shape(norm_pisp_invariant(n, n, _basis_wedge(n), opts), n, n)
    if nb.converged:
        from .exchangeable import uv_bound
        cs_lower = n ** n / math.factorial(n)
        if nb.lower < cs_lower - 1e-6 or nb.upper > uv_bound(n) + 1e-6:
            raise RuntimeError(
                f"certified bracket [{nb.lower}, {nb.upper}] escapes the analytic "
                f"envelope [{cs_lower}, {uv_bound(n)}] at order {n}")
    return nb


def kappa(n: int, opts: SolverOptions | None = None) -> NormBounds:
    """Bracket for the minimal mixing-measure constant at order n.

    Computes the positive symmetric norm of the symmetrised basis tensor
    e_1 v ... v e_n over l1^n with ``norm_pisp_invariant``, whose master
    has one row per partition of n (3, 5 and 7 rows for n = 3, 4, 5).  For
    n <= 5 pricing is exact (barycentres and the m = 2 root isolation), and
    the bracket closes on the polarization cost (1/n!) sum_k C(n, k) k^n:
    9, 85/3 and 275/3 for n = 3, 4, 5.  From n = 6 pricing is grid + polish
    and the lower end an estimate (see ``_colgen``).
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n == 1:
        one = SignedPowerCombination(1, 1, ((1.0, (1.0,)),))
        return NormBounds(1.0, 1.0, one, [1.0], 0, True)
    nb = _kappa_cached(n, opts or SolverOptions())
    return replace(nb, dual=None if nb.dual is None else list(nb.dual))


def cssp_l1(n: int) -> NormBounds:
    """The power-ratio constant sup psi(a, b) / (|a| + |b|)^n, exactly 2^(n-1).

    The upper end is the leading-coefficient bound psi(a, b) <= 2^(n-1)
    (|a| + |b|)^n; the lower end is its witness a = -b, where the integer
    psi(1, -1, n) = 2^(2n-1) gives the ratio 2^(2n-1) / 2^n exactly.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    upper = 2.0 ** (n - 1)   # OverflowError from n = 1025, before psi's exact sum
    return NormBounds(psi(1, -1, n) / 2 ** n, upper, None, None, 0, True)


def polarization_constants(n: int, opts: SolverOptions | None = None) -> PolarizationConstants:
    """Assemble the bracketed constants for l1^n at order n."""
    return PolarizationConstants(
        n=n,
        space=l1(n),
        kappa=kappa(n, opts),
        cssp=cssp_l1(n),
        gamma_reference=2.0 ** (n - 1),
        classical_cs_lower=n ** n / math.factorial(n),
    )
