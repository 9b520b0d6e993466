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
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb

import numpy as np

from . import euclid2
from ._colgen import PRICING_TOL, NormBounds, SolverOptions, run_column_generation
from .chebyshev import psi
from .tensor_core import (SignedPowerCombination, SymmetricTensor, multi_indices,
                          multiplicity, wedge)


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


def _simplex_lattice(m: int, resolution: int) -> np.ndarray:
    """All points of the simplex with coordinates at multiples of 1/resolution."""
    pts = []
    def rec(prefix, rem, slots):
        if slots == 1:
            pts.append(prefix + [rem])
            return
        for v in range(rem + 1):
            rec(prefix + [v], rem - v, slots - 1)
    rec([], resolution, m)
    return np.asarray(pts, dtype=float) / resolution


@lru_cache(maxsize=64)
def _lattice_cached(m: int, resolution: int):
    return _simplex_lattice(m, resolution)


def _poly_coeffs(yk: np.ndarray, n: int) -> np.ndarray:
    """Monomial coefficients of p(u) = sum_k y_k u^(n-k) (1-u)^k, lowest first."""
    coef = np.zeros(n + 1)
    for k in range(n + 1):
        yv = yk[k]
        if yv == 0.0:
            continue
        for j in range(k + 1):
            coef[n - k + j] += yv * comb(k, j) * (-1) ** j
    return coef


def _roots_unit_interval(coef: np.ndarray) -> list[float]:
    """Real roots in [0, 1] located by sign-change bisection on a fine grid."""
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


def _max_abs_poly01(coef: np.ndarray) -> tuple[float, float]:
    """(argmax, max) of |p(u)| over [0, 1] via derivative root isolation."""
    deriv = coef[1:] * np.arange(1, len(coef))
    cands = [0.0, 1.0] + _roots_unit_interval(deriv)
    vals = np.abs(np.polynomial.polynomial.polyval(np.asarray(cands), coef))
    i = int(np.argmax(vals))
    return float(cands[i]), float(vals[i])


class _PowerFamily:
    """Generators x^(tensor n) with x on the l1 unit sphere (or its positive part)."""

    def __init__(self, m: int, n: int, signed: bool, target=None,
                 symmetrize: bool = False):
        self.m = m
        self.n = n
        self.signed = signed
        self.target = None if target is None else np.asarray(target, dtype=float)
        self.symmetrize = symmetrize  # permutation-invariant targets share orbits
        self.indices = multi_indices(m, n)
        counts = np.zeros((len(self.indices), m), dtype=int)
        for r, idx in enumerate(self.indices):
            for i in idx:
                counts[r, i] += 1
        self.counts = counts
        if signed:
            self.patterns = [np.asarray((1,) + eps, dtype=float)
                             for eps in product((1, -1), repeat=m - 1)]
        else:
            self.patterns = [np.ones(m)]
        self._grid = None
        self._grid_cols = None

    # -- column interface ---------------------------------------------------
    def key(self, x) -> tuple:
        return tuple(round(float(v), 12) for v in x)

    def column(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.ones(len(self.indices))
        for c in range(self.m):
            col = self.counts[:, c]
            mask = col > 0
            out[mask] *= x[c] ** col[mask]
        return out

    def primal(self, params, weights, prune):
        terms = []
        for p, w in zip(params, weights):
            if abs(w) > prune:
                terms.append((float(w), tuple(float(v) for v in p)))
        terms.sort(key=lambda t: t[1])
        return SignedPowerCombination(self.m, self.n, tuple(terms)), None

    # -- seeds ----------------------------------------------------------------
    def seeds(self) -> list:
        base: list[np.ndarray] = []
        for i in range(self.m):
            e = np.zeros(self.m)
            e[i] = 1.0
            base.append(e)
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
        diag = np.empty(self.m)
        for i in range(self.m):
            pos = self.indices.index((i,) * self.n)
            diag[i] = self.target[pos]
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
        for pat in self.patterns:
            sign_factor = np.prod(pat[None, :] ** self.counts, axis=1)
            yt = y * sign_factor
            if self.m == 2:
                u, v = self._oracle_m2(yt)
                x = np.asarray([u, 1.0 - u])
            else:
                x, v, more = self._oracle_grid(yt)
                extras.extend(tuple(pat * np.asarray(q)) for q in more)
            if v > best_v:
                best_v = v
                best_x = tuple(pat * x)
        extras = extras[:4]
        if self.symmetrize and best_x is not None:
            extras.extend(set(permutations(best_x)))
        return best_x, best_v, extras

    def _oracle_m2(self, y) -> tuple[float, float]:
        coef = _poly_coeffs(y, self.n)
        return _max_abs_poly01(coef)

    def _oracle_grid(self, y):
        if self._grid is None:
            res = GRID_RESOLUTION
            while comb(res + self.m - 1, self.m - 1) > GRID_BUDGET and res > 2:
                res -= 1
            self._grid = _lattice_cached(self.m, res)
            cols = np.ones((len(self._grid), len(self.indices)))
            for c in range(self.m):
                cnt = self.counts[:, c]
                mask = cnt > 0
                cols[:, mask] *= self._grid[:, c][:, None] ** cnt[mask][None, :]
            self._grid_cols = cols
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

    def _poly_value_grad(self, x, y):
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

    def _polish(self, x0, y, sign, iters: int = 80):
        x = np.asarray(x0, dtype=float).copy()
        val, _ = self._poly_value_grad(x, y)
        f = sign * val
        step = 0.25
        for _ in range(iters):
            _, grad = self._poly_value_grad(x, y)
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
            fc = sign * self._poly_value_grad(cand, y)[0]
            if fc > f + 1e-17:
                x, f = cand, fc
                step = min(step * 1.6, 0.5)
            else:
                step *= 0.5
                if step < 1e-14:
                    break
        return x, abs(f)


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
    """Symmetric norm via column generation over signed unit powers (m <= 4)."""
    _check_space(t, space)
    if space.family == "l2dim2":
        return euclid2.full_circle_lp(_to_matrix(t), opts)
    if t.dim > 4:
        raise ValueError("signed generation is limited to m <= 4 (2^m sign orthants)")
    fam = _PowerFamily(t.dim, t.order, signed=True, target=t.vector())
    return run_column_generation(t.vector(), fam, opts)


def norm_pip(t: SymmetricTensor, space: SpaceDescriptor,
             opts: SolverOptions | None = None) -> NormBounds:
    """Positive projective norm: equals norm_pi on l1^m; wedge generation on l2^2."""
    _check_space(t, space)
    if space.family == "l1":
        return norm_pi(t, space)
    return euclid2.positive_wedge_lp(_to_matrix(t), opts)


@lru_cache(maxsize=32)
def _kappa_cached(n: int, opts: SolverOptions) -> NormBounds:
    basis = [tuple(1.0 if j == i else 0.0 for j in range(n)) for i in range(n)]
    target = wedge(basis)
    fam = _PowerFamily(n, n, signed=False, target=target.vector(), symmetrize=True)
    nb = run_column_generation(target.vector(), fam, opts)
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
    e_1 v ... v e_n over l1^n.  Values for n >= 3 are open; only certified
    brackets are reported.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n == 1:
        one = SignedPowerCombination(1, 1, ((1.0, (1.0,)),))
        return NormBounds(1.0, 1.0, one, [1.0], 0, True)
    return _kappa_cached(n, opts or SolverOptions())


def cssp_l1(n: int, grid_size: int = 4096) -> NormBounds:
    """Bracket for the power-ratio constant sup psi(a, b) / (|a| + |b|)^n.

    The lower end is a maximisation of the closed form over the circle grid
    (cos theta, -sin theta); the upper end is the leading-coefficient bound
    2^(n-1) (|a| + |b|)^n, attained at a = -b.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if grid_size % 2:
        grid_size += 1  # keep theta = pi/4 on the grid
    best = 0.0
    for i in range(grid_size + 1):
        theta = (math.pi / 2) * i / grid_size
        a, b = math.cos(theta), -math.sin(theta)
        denom = (abs(a) + abs(b)) ** n
        if denom == 0.0:
            continue
        best = max(best, psi(a, b, n) / denom)
    upper = 2.0 ** (n - 1)
    return NormBounds(min(best, upper), upper, None, None, grid_size, True)


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
