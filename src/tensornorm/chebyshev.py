"""Closed forms for positive power decompositions of (a, b) over l1^2.

For a 2-vector with mixed signs, the minimal total variation of a signed
decomposition of (a, b)^(tensor n) into powers of probability vectors has
a Chebyshev-polynomial closed form, attained on the nodes
(cos^2(j pi / 2n), sin^2(j pi / 2n)).  This module evaluates the norm
psi(a, b), produces the optimal node weights, and carries the exact
binomial-ratio lower bounds used for two-state exchangeable laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .tensor_core import SignedPowerCombination, check_finite

_DEGENERATE_REL = 1e-12


def chebyshev_T(k: int, x):
    """Chebyshev polynomial of the first kind by the three-term recurrence."""
    if k < 0:
        raise ValueError("degree must be non-negative")
    prev, cur = 1, x
    if k == 0:
        return prev * 1
    for _ in range(k - 1):
        prev, cur = cur, 2 * x * cur - prev
    return cur


def psi_mixed(a, b, n: int):
    """sum_r C(2n, 2r) a^(n-r) b^r for a, b >= 0.

    Equals ((sqrt a + sqrt b)^(2n) + (sqrt a - sqrt b)^(2n)) / 2 but stays
    within the arithmetic of the inputs, so it is exact on rationals.
    """
    return sum(comb(2 * n, 2 * r) * a ** (n - r) * b ** r for r in range(n + 1))


def psi(a, b, n: int):
    """Minimal decomposition cost of (a, b)^(tensor n) over l1^2.

    (|a| + |b|)^n when a and b share a sign; the Chebyshev extrapolation
    value for mixed signs.  Even in a global sign flip and homogeneous of
    degree n.  Fraction inputs give an exact Fraction back.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    check_finite(a, b)
    p, q = abs(a), abs(b)
    if (a >= 0 and b >= 0) or (a <= 0 and b <= 0):
        return (p + q) ** n
    return psi_mixed(p, q, n)


def cheb_coefficients(a, b, n: int) -> list[float]:
    """Interpolation weights c_j, j = 0..2n-1, for evaluation outside [-1, 1].

    With A = max(|a|, |b|), B = min(|a|, |b|) and xi = (A + B) / (A - B),
    the weights satisfy p(xi) = sum_j c_j p(cos(j pi / n)) for every
    polynomial of degree <= n, with c_{2n-j} = c_j, sum_j c_j = 1, signs
    alternating as (-1)^j, and sum_j |c_j| (A - B)^n = psi(A, -B).
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    check_finite(a, b)
    A, B = max(abs(a), abs(b)), min(abs(a), abs(b))
    if A == 0:
        raise ValueError("zero vector has no interpolation weights")
    if B <= _DEGENERATE_REL * A:
        out = [0.0] * (2 * n)
        out[0] = 1.0
        return out
    if A - B <= _DEGENERATE_REL * A:
        raise ValueError("equal magnitudes: the optimal weights follow the "
                         "alternating-node limit; use optimal_decomposition_m2")
    y = math.acosh((A + B) / (A - B))
    sinh_ny, sinh_y, cosh_y = math.sinh(n * y), math.sinh(y), math.cosh(y)
    out = []
    for j in range(2 * n):
        denom = cosh_y - math.cos(j * math.pi / n)
        out.append((-1) ** j * sinh_ny * sinh_y / (2 * n * denom))
    return out


@dataclass
class ChebDecomposition:
    """Optimal signed decomposition of (a, b)^(tensor n) on probability nodes."""

    n: int
    a: float
    b: float
    coefficients: list[float]            # scaled weights, one per stored node
    nodes: list[tuple[float, float]]     # probability 2-vectors
    total_variation: float

    def to_combination(self) -> SignedPowerCombination:
        """Merge repeated nodes into a SignedPowerCombination."""
        return SignedPowerCombination(2, self.n, tuple(zip(self.coefficients, self.nodes))).merged()

    def evaluate_entries(self) -> np.ndarray:
        """Entries of sum_j w_j node_j^(tensor n) at the n+1 index classes.

        Accumulated in extended precision so the reported residual reflects
        the stored decomposition rather than summation noise.
        """
        w = np.asarray(self.coefficients, dtype=np.longdouble)
        x0 = np.asarray([nd[0] for nd in self.nodes], dtype=np.longdouble)
        x1 = np.asarray([nd[1] for nd in self.nodes], dtype=np.longdouble)
        ks = np.arange(self.n + 1)
        vals = (x0[:, None] ** (self.n - ks[None, :])) * (x1[:, None] ** ks[None, :])
        return (w[:, None] * vals).sum(axis=0)

    def reconstruction_residual(self) -> float:
        """Max deviation of the decomposition from (a, b)^(tensor n)."""
        a = np.longdouble(self.a)
        b = np.longdouble(self.b)
        ks = np.arange(self.n + 1)
        want = a ** (self.n - ks) * b ** ks
        return float(np.abs(self.evaluate_entries() - want).max())


def _cheb_nodes(n: int, swapped: bool) -> list[tuple[float, float]]:
    # nodes for j and 2n - j coincide; build the first half and mirror it so
    # equal nodes are bitwise equal and merge exactly
    half = []
    for j in range(n + 1):
        x = math.cos(j * math.pi / n)
        c = (1.0 + x) / 2.0
        s = (1.0 - x) / 2.0
        half.append((s, c) if swapped else (c, s))
    nodes = list(half)
    for j in range(n + 1, 2 * n):
        nodes.append(half[2 * n - j])
    return nodes


def optimal_decomposition_m2(a, b, n: int) -> ChebDecomposition:
    """Minimal-cost decomposition of (a, b)^(tensor n) into probability powers.

    Same-sign vectors give the single-term decomposition; mixed signs give
    the alternating-weight node decomposition whose total variation equals
    psi(a, b, n).
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    a = float(a)
    b = float(b)
    check_finite(a, b)
    p, q = abs(a), abs(b)
    if p == 0.0 and q == 0.0:
        return ChebDecomposition(n, a, b, [], [], 0.0)
    mixed = (a > 0 > b) or (b > 0 > a)
    if not mixed or min(p, q) <= _DEGENERATE_REL * max(p, q):
        total = (p + q) ** n
        # the dominant coordinate fixes the global sign of the power
        lead = a if p >= q else b
        sign = 1.0 if lead >= 0 else -1.0
        node = (p / (p + q), q / (p + q))
        return ChebDecomposition(n, a, b, [sign ** n * total], [node], total)

    A, B = max(p, q), min(p, q)
    swapped = q > p
    lead = b if swapped else a       # the coordinate of magnitude A
    flip = (-1.0) ** n if lead < 0 else 1.0
    nodes = _cheb_nodes(n, swapped)
    if A - B <= _DEGENERATE_REL * A:
        scale = A ** n * 2.0 ** (2 * n - 1) / (2 * n)
        weights = [flip * scale * (-1) ** j for j in range(2 * n)]
    else:
        cj = cheb_coefficients(A, B, n)
        scale = (A - B) ** n
        weights = [flip * scale * c for c in cj]
    tv = math.fsum(abs(w) for w in weights)
    return ChebDecomposition(n, float(a), float(b), weights, nodes, tv)


def binary_lower_bound(n: int, j: int) -> Fraction:
    """Exact lower bound C(2n, 2j) / C(n, j) for the j-th two-state marginal."""
    if not 0 <= j <= n:
        raise ValueError(f"j must lie in 0..{n}")
    return Fraction(comb(2 * n, 2 * j), comb(n, j))


def binary_lower_bound_max(n: int) -> Fraction:
    """The optimised form: the bound at j = floor(n / 2)."""
    return binary_lower_bound(n, n // 2)
