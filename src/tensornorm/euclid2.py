"""Worked 2x2 Euclidean gallery: closed-form norms and LP cross-checks.

Symmetric 2x2 matrices are treated as order-2 tensors over the Euclidean
plane with the coordinatewise order.  In the coordinates (u, v, w) with
A = [[u+w, v], [v, u-w]] / 2 the unit balls of the three norms are convex
hulls of explicit circles and arcs, which gives closed forms on the w = 0
plane and exact extreme-point parametrisations.  The projective and the
symmetric projective norm are the trace norm, exact with its spectral
witness.  Column generation over the positive quarter circle (powers) and
over pairs of positive unit vectors (wedges) provides certified brackets
for arbitrary matrices; the trigonometric pricing problems are solved in
closed form.  NaN or infinite entries raise ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._colgen import NormBounds, SolverOptions, run_column_generation
from .tensor_core import SignedPowerCombination, check_finite

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class UVWCoords:
    u: float
    v: float
    w: float

    def to_matrix(self) -> list[list[float]]:
        return [[(self.u + self.w) / 2, self.v / 2],
                [self.v / 2, (self.u - self.w) / 2]]

    @staticmethod
    def from_matrix(matrix) -> "UVWCoords":
        a, b, c = _matrix_entries(matrix)
        return UVWCoords(a + c, 2 * b, a - c)


def _matrix_entries(matrix) -> tuple[float, float, float]:
    a = float(matrix[0][0])
    b = float(matrix[0][1])
    b2 = float(matrix[1][0])
    c = float(matrix[1][1])
    check_finite(a, b, b2, c)
    scale = max(1.0, abs(a), abs(b), abs(c))
    if abs(b - b2) > 1e-9 * scale:
        raise ValueError("matrix must be symmetric")
    return a, b, c


def trace_norm_2x2(matrix) -> float:
    """|lambda_1| + |lambda_2| through the closed 2x2 eigenvalue formula."""
    return trace_norm_bounds(matrix).upper


def trace_norm_bounds(matrix) -> NormBounds:
    """Trace norm as a closed bracket with the spectral decomposition witness."""
    a, b, c = _matrix_entries(matrix)
    root = math.hypot(a - c, 2 * b)
    lam1, lam2 = (a + c + root) / 2, (a + c - root) / 2
    if root < 1e-300:
        vecs = [(1.0, 0.0), (0.0, 1.0)]
    else:
        # eigenvector for lam1; the other is its rotation by pi/2
        if abs(b) > 1e-300:
            v1 = (b, lam1 - a)
        else:
            v1 = (1.0, 0.0) if a >= c else (0.0, 1.0)
        norm1 = math.hypot(*v1)
        v1 = (v1[0] / norm1, v1[1] / norm1)
        vecs = [v1, (-v1[1], v1[0])]
    terms = tuple((lam, v) for lam, v in zip((lam1, lam2), vecs) if lam != 0.0)
    primal = SignedPowerCombination(2, 2, terms)
    val = abs(lam1) + abs(lam2)
    s1, s2 = math.copysign(1.0, lam1), math.copysign(1.0, lam2)
    u1, u2 = vecs
    dual = [s1 * u1[0] * u1[0] + s2 * u2[0] * u2[0],
            2 * (s1 * u1[0] * u1[1] + s2 * u2[0] * u2[1]),
            s1 * u1[1] * u1[1] + s2 * u2[1] * u2[1]]
    return NormBounds(val, val, primal, dual, 0, True)


def norms_ab(a: float, b: float) -> tuple[float, float, float]:
    """Closed norms (plain, positive-power, positive-wedge) of [[a, b], [b, a]].

    Raises OverflowError where a norm exceeds the largest double.
    """
    check_finite(a, b)
    pi_val = 2 * max(abs(a), abs(b))
    pisp_val = 2 * max(abs(a), abs(a - 2 * b))
    pip_val = 2 * max(abs(a), abs(b), abs(a - b))
    if not math.isfinite(pisp_val + pip_val):   # pi_val <= pip_val
        raise OverflowError("norm exceeds the largest double")
    return pi_val, pisp_val, pip_val


def norm_pi_uvw(u: float, v: float, w: float) -> float:
    """Plain norm in (u, v, w) coordinates: the cylinder max(|u|, hypot(v, w))."""
    check_finite(u, v, w)
    return max(abs(u), math.hypot(v, w))


# ---------------------------------------------------------------------------
# trigonometric pricing


def _sinusoid_candidates(alpha: float, beta: float, lo: float, hi: float) -> list[float]:
    """Angles where K + alpha cos(t) + beta sin(t) can attain extrema on [lo, hi]."""
    cands = [lo, hi]
    phi = math.atan2(beta, alpha)
    for branch in (phi, phi + math.pi):
        for shift in (-2 * math.pi, 0.0, 2 * math.pi):
            t = branch + shift
            if lo - 1e-15 <= t <= hi + 1e-15:
                cands.append(min(max(t, lo), hi))
    return cands


class _ArcPowerFamily:
    """Generators (cos t, sin t)^(tensor 2) for t in [0, pi/2]."""

    def column(self, t) -> np.ndarray:
        c, s = math.cos(t), math.sin(t)
        return np.asarray([c * c, c * s, s * s])

    def seeds(self) -> list[float]:
        return [_HALF_PI * j / 8 for j in range(9)]

    def oracle(self, y):
        y = np.asarray(y, dtype=float)
        k = (y[0] + y[2]) / 2
        alpha = (y[0] - y[2]) / 2
        beta = y[1] / 2
        best_t, best_v = 0.0, -1.0
        for theta in _sinusoid_candidates(alpha, beta, 0.0, math.pi):
            val = abs(k + alpha * math.cos(theta) + beta * math.sin(theta))
            if val > best_v:
                best_v, best_t = val, theta / 2
        return best_t, best_v, []

    def primal(self, kept):
        terms = [(w, (math.cos(t), math.sin(t))) for t, w in kept]
        terms.sort(key=lambda term: term[1])
        return SignedPowerCombination(2, 2, tuple(terms)), None


class _WedgePairFamily:
    """Generators u_s v u_t for positive unit vectors u_s, u_t, s <= t in [0, pi/2]."""

    def column(self, st) -> np.ndarray:
        s, t = st
        return np.asarray([math.cos(s) * math.cos(t),
                           0.5 * math.sin(s + t),
                           math.sin(s) * math.sin(t)])

    def seeds(self) -> list[tuple[float, float]]:
        pts = [j * math.pi / 8 for j in range(5)]
        return [(s, t) for i, s in enumerate(pts) for t in pts[i:]]

    def oracle(self, y):
        y = np.asarray(y, dtype=float)
        a = (y[0] + y[2]) / 2
        b = (y[0] - y[2]) / 2
        c = y[1] / 2
        cands: list[tuple[float, float]] = []
        # interior critical points sit on the diagonal s = t
        sigma0 = math.atan2(c, b)
        for sigma in (sigma0, sigma0 + math.pi, sigma0 - math.pi):
            if -1e-15 <= sigma <= math.pi + 1e-15:
                half = min(max(sigma / 2, 0.0), _HALF_PI)
                cands.append((half, half))
        # edges s = 0 and s = pi/2 (the family is symmetric in (s, t))
        for t in _sinusoid_candidates(a + b, c, 0.0, _HALF_PI):
            cands.append((0.0, t))
        for t in _sinusoid_candidates(c, a - b, 0.0, _HALF_PI):
            # f(pi/2, t) = (a - b) sin t + c cos t
            cands.append((t, _HALF_PI))
        best, best_v = (0.0, 0.0), -1.0
        for s, t in cands:
            val = abs(a * math.cos(s - t) + b * math.cos(s + t) + c * math.sin(s + t))
            if val > best_v:
                best_v = val
                best = (min(s, t), max(s, t))
        return best, best_v, []

    def primal(self, kept):
        pairs = [(w, (math.cos(s), math.sin(s)), (math.cos(t), math.sin(t)))
                 for (s, t), w in kept]
        pairs.sort(key=lambda p: (p[1], p[2]))
        return None, pairs


def half_circle_lp(matrix, opts: SolverOptions | None = None) -> NormBounds:
    """Certified bracket for the positive-power norm of a symmetric 2x2 matrix."""
    a, b, c = _matrix_entries(matrix)
    return run_column_generation([a, b, c], _ArcPowerFamily(), opts)


# The power norm over the whole circle is the trace norm, in closed form; the name
# stays while bench/tracer.py wraps it.
full_circle_lp = trace_norm_bounds


def positive_wedge_lp(matrix, opts: SolverOptions | None = None) -> NormBounds:
    """Certified bracket for the positive-wedge norm of a symmetric 2x2 matrix."""
    a, b, c = _matrix_entries(matrix)
    return run_column_generation([a, b, c], _WedgePairFamily(), opts)


def extreme_points(kind: str, resolution: int = 64) -> list[tuple[float, float, float]]:
    """Sampled extreme points of the chosen unit ball in (u, v, w) coordinates."""
    if resolution < 4:
        raise ValueError("resolution must be at least 4")
    pts: list[tuple[float, float, float]] = []
    seen: set = set()

    def push(p):
        for q in (p, (-p[0], -p[1], -p[2])):
            key = tuple(round(x, 12) for x in q)
            if key not in seen:
                seen.add(key)
                pts.append(q)

    if kind == "pi":
        for j in range(resolution):
            s = 2 * math.pi * j / resolution
            push((1.0, math.sin(s), math.cos(s)))
    elif kind in ("pisp", "pip"):
        for j in range(resolution + 1):
            s = math.pi * j / resolution
            push((1.0, math.sin(s), math.cos(s)))
            if kind == "pip":
                push((abs(math.cos(s)), math.sin(s), math.cos(s)))
    else:
        raise ValueError(f"unknown ball kind {kind!r}")
    return pts


def constants_l2(opts: SolverOptions | None = None) -> dict:
    """Plane constants with a numeric verification sweep.

    Returns the closed values {csp: 3, cssp: 3, cpsp: 2, cp_squared: 2}
    together with sampled maxima of the corresponding norm ratios.
    """
    samples = 24
    max_lo = 0.0
    max_hi = 0.0
    for j in range(2 * samples):
        s = 2 * math.pi * j / (2 * samples)
        A = UVWCoords(1.0, math.sin(s), math.cos(s)).to_matrix()
        nb = half_circle_lp(A, opts)
        max_lo = max(max_lo, nb.lower)
        max_hi = max(max_hi, nb.upper)
    ratio_pp = cp_sq = 0.0
    for j in range(4 * samples + 1):
        phi = 2 * math.pi * j / (4 * samples)
        a, b = math.cos(phi), math.sin(phi)
        _, pisp_v, pip_v = norms_ab(a, b)
        if pip_v > 0:
            ratio_pp = max(ratio_pp, pisp_v / pip_v)
        cp_sq = max(cp_sq, (abs(a) + abs(b)) ** 2)
    return {
        "csp": 3.0,
        "cssp": 3.0,
        "cpsp": 2.0,
        "cp_squared": 2.0,
        "verified": {
            "csp_sample_bracket": [max_lo, max_hi],
            "cpsp_sample_max": ratio_pp,
            "cp_squared_sample_max": cp_sq,
        },
    }
