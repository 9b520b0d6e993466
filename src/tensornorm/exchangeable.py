"""Signed mixture representations of finitely exchangeable distributions.

An exchangeable law on S^n for finite S is a positive symmetric tensor of
total mass one.  Every such law is a signed mixture of i.i.d. laws
nu^(x n); this module finds minimal-total-variation mixing measures (via
the positive-power column generation), evaluates the universal bounds on
the required total variation, and covers the sampling-without-replacement
family together with its extendibility bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import comb, factorial, perm

from . import norm_solver
from ._colgen import PRUNE_TOL, NormBounds, SolverOptions
from .chebyshev import binary_lower_bound_max, psi_mixed
from .tensor_core import (SignedPowerCombination, SymmetricTensor, multi_indices,
                          multiplicity, power, pushforward)


@dataclass(frozen=True)
class ExchangeableDistribution:
    """Symmetric probability tensor on S^n with opaque state labels."""

    states: tuple
    order: int
    tensor: SymmetricTensor

    @property
    def num_states(self) -> int:
        return len(self.states)

    def to_json_dict(self) -> dict:
        out = self.tensor.to_json_dict()
        out["states"] = list(self.states)
        return out


@dataclass
class SignedMixingMeasure:
    """Finitely supported signed measure on probability vectors."""

    atoms: list[tuple[float, tuple]]
    total_variation: float
    converged: bool = True

    def weight_sum(self) -> float:
        return math.fsum(w for w, _ in self.atoms)

    def evaluate(self, order: int, dim: int) -> SymmetricTensor:
        comb_ = SignedPowerCombination(dim, order, tuple(self.atoms))
        return comb_.evaluate()

    def to_json_dict(self) -> dict:
        return {"atoms": [{"w": w, "nu": list(nu)} for w, nu in self.atoms],
                "tv": self.total_variation}


@dataclass
class ExtendibilityBounds:
    n: int
    N: int
    m: int | None
    lower: float
    upper: float
    lp_value: NormBounds | None = None


def load_distribution(atoms, states=None, order: int | None = None) -> ExchangeableDistribution:
    """Build a distribution from (index-tuple, probability) atoms.

    Each atom's probability is spread uniformly over the orderings of its
    index tuple, which symmetrises arbitrary input.  The order, given or the
    length of the first atom's index, must be a positive int, and states a
    list or other iterable.  Indices must be integers; probabilities must be
    finite, non-negative and sum to one within 1e-9.
    """
    atoms = [(tuple(_state_index(i) for i in idx), float(p)) for idx, p in atoms]
    if not atoms:
        raise ValueError("at least one atom is required")
    if order is None:
        order = len(atoms[0][0])
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    if states is None:
        states = range(max(max(idx) for idx, _ in atoms) + 1)
    try:
        states = tuple(states)
    except TypeError:
        raise ValueError(f"states must be a list, got {states!r}") from None
    m = len(states)
    total = 0.0
    entries: dict = {}
    for idx, p in atoms:
        if len(idx) != order:
            raise ValueError(f"atom index {idx} has length {len(idx)}, expected {order}")
        if any(not 0 <= i < m for i in idx):
            raise ValueError(f"atom index {idx} out of range for {m} states")
        if not math.isfinite(p):
            raise ValueError(f"non-finite probability {p}")
        if p < -1e-15:
            raise ValueError(f"negative probability {p}")
        key = tuple(sorted(idx))
        entries[key] = entries.get(key, 0.0) + p / multiplicity(key)
        total += p
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    return ExchangeableDistribution(states, order, SymmetricTensor(m, order, entries))


def _state_index(i) -> int:
    """An atom index entry as an int; 1.0 is accepted, 0.9, NaN and "1" are not."""
    try:
        if int(i) == i:
            return int(i)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"atom index entry {i!r} is not an integer")


def iid(nu, order: int) -> ExchangeableDistribution:
    """The law of order i.i.d. draws from the probability vector nu."""
    nu = tuple(float(v) for v in nu)
    if not all(math.isfinite(v) and v >= 0 for v in nu) or abs(sum(nu) - 1.0) > 1e-9:
        raise ValueError("nu must be a probability vector")
    return ExchangeableDistribution(tuple(range(len(nu))), order, power(nu, order))


def mu_binary(n: int, j: int) -> ExchangeableDistribution:
    """Uniformly ordered word of j zeros and n - j ones on states {0, 1}."""
    if not 0 <= j <= n:
        raise ValueError(f"j must lie in 0..{n}")
    idx = tuple([0] * j + [1] * (n - j))
    return ExchangeableDistribution((0, 1), n,
                                    SymmetricTensor(2, n, {idx: 1.0 / comb(n, j)}))


def _one_draw(n: int, N: int) -> float:
    """1 / (N)_n, divided out one factor at a time: one ordered draw of n of N states."""
    return reduce(lambda value, k: value / k, range(N, N - n, -1), 1.0)


def chi_nN(n: int, N: int) -> ExchangeableDistribution:
    """n draws without replacement from N equally likely states."""
    if not 1 <= n <= N:
        raise ValueError("need 1 <= n <= N")
    entries = dict.fromkeys(combinations(range(N), n), _one_draw(n, N))
    return ExchangeableDistribution(tuple(range(N)), n, SymmetricTensor(N, n, entries))


# ---------------------------------------------------------------------------
# representations


@lru_cache(maxsize=16)
def _master_decomposition(n: int) -> SignedPowerCombination:
    """The symmetrised basis tensor e_1 v ... v e_n as probability powers.

    The polarization identity x_1...x_n = (1/n!) sum_S (-1)^(n-|S|)
    (sum_{i in S} x_i)^n, with each subset sum written as |S| times the
    barycentre of S, puts the weight (-1)^(n-k) k^n / n! on the barycentre
    of every k-subset of the basis.  The 2^n - 1 terms are exact Fractions,
    with total variation (1/n!) sum_k C(n, k) k^n.
    """
    terms = []
    for k in range(1, n + 1):
        weight = Fraction((-1) ** (n - k) * k ** n, factorial(n))
        for subset in combinations(range(n), k):
            terms.append((weight, tuple(Fraction(int(i in subset), k) for i in range(n))))
    return SignedPowerCombination(n, n, tuple(terms))


def represent(d: ExchangeableDistribution, method: str = "lp",
              opts: SolverOptions | None = None) -> SignedMixingMeasure:
    """Represent d as a signed mixture of i.i.d. laws.

    method='lp' minimises the total variation by column generation and is
    optimal up to the certified gap.  method='constructive' writes each
    atom of d, the symmetrised tensor of its word of states, through the
    polarization identity: the master decomposition of e_1 v ... v e_n is
    pushed through the map from word positions to states.  It reads no
    solver options and is generally not optimal.
    """
    m = d.num_states
    if method == "lp":
        nb = norm_solver.norm_pisp(d.tensor, norm_solver.l1(m), opts)
        measure = _merged_measure(nb.primal or SignedPowerCombination(m, d.order, ()))
        measure.converged = nb.converged
        return measure
    if method == "constructive":
        master = _master_decomposition(d.order)
        atoms = []
        for idx, p in d.tensor.entries.items():
            weight = float(p) * multiplicity(idx)
            if weight == 0.0:
                continue
            positions = [[int(s == state) for s in idx] for state in range(m)]
            # barycentres d/k with k <= n: equal as floats exactly when equal as Fractions,
            # and floats merge several times faster
            atoms += [(weight * a, tuple(map(float, nu)))
                      for a, nu in pushforward(positions, master).terms]
        return _merged_measure(SignedPowerCombination(m, d.order, tuple(atoms)))
    raise ValueError(f"unknown method {method!r}")


def _merged_measure(comb_: SignedPowerCombination) -> SignedMixingMeasure:
    """The merged terms of comb_, float weights and atoms, whose weight exceeds PRUNE_TOL."""
    merged = [(w, nu) for w, nu in comb_.merged().terms if abs(w) > PRUNE_TOL]
    return SignedMixingMeasure(merged, math.fsum(abs(w) for w, _ in merged))


def verify_representation(d: ExchangeableDistribution,
                          measure: SignedMixingMeasure) -> dict:
    """Residual, weight-sum deviation, and total variation of a candidate."""
    residual = measure.evaluate(d.order, d.num_states).residual_inf(d.tensor)
    return {
        "residual": residual,
        "weight_sum": measure.weight_sum(),
        "weight_sum_dev": abs(measure.weight_sum() - 1.0),
        "tv": measure.total_variation,
    }


# ---------------------------------------------------------------------------
# universal bounds


def uv_bound(n: int) -> float:
    """Sharpened upper bound on the order-n mixing constant.

    Averages the exact two-state decomposition cost over the sign classes
    of the power expansion:  (1 / (2^(n+1) n!)) *
    sum_k C(n, k) ((sqrt k + sqrt(n-k))^(2n) + (sqrt k - sqrt(n-k))^(2n)).
    Evaluated in exact rational arithmetic.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    total = sum(comb(n, k) * psi_mixed(k, n - k, n) for k in range(n + 1))
    value = Fraction(total, 2 ** n * factorial(n))
    if n <= 12:
        crude = Fraction(2 ** (n - 1) * n ** n, factorial(n))
        assert value <= crude, "sharpened bound exceeded the crude envelope"
    return float(value)


def kappa_bounds(n: int) -> tuple[float, float, float]:
    """(best lower, sharpened upper, crude upper) for the mixing constant."""
    if n < 1:
        raise ValueError("order must be >= 1")
    crude_lower = n ** n / factorial(n)
    lower = max(crude_lower, float(binary_lower_bound_max(n)))
    crude_upper = 2 ** (n - 1) * n ** n / factorial(n)
    return lower, uv_bound(n), crude_upper


def kappa_nN_bounds(n: int, N: int, exact: bool = False,
                    opts: SolverOptions | None = None) -> ExtendibilityBounds:
    """Bounds on the mixing constant for N-extendible laws of order n.

    upper: 1 + [n(n-1) / (2N - n(n-1))] (K + 1) with K the sharpened order-n
    upper bound, capped by K itself (monotone in N); lower:
    exp((n-1) / (2 ceil(N/n))).  exact=True also solves the without-replacement
    law over l1^N with ``norm_pisp_invariant`` (a row per partition of n, pricing
    exact for n <= 5): lp_value has one primal term per orbit, the orbit average
    of x^(tensor n), and one dual entry per partition, and is [0, inf] once
    1/(N)_n nears 1e-9 (from chi_5,62).
    """
    if not 1 <= n <= N:
        raise ValueError("need 1 <= n <= N")
    K = uv_bound(n)
    pairs = n * (n - 1)
    if 2 * N > pairs:
        upper = min(1.0 + pairs / (2 * N - pairs) * (K + 1.0), K)
    else:
        upper = K
    lower = math.exp((n - 1) / (2 * math.ceil(N / n)))
    lp_value = None
    if exact:
        lp_value = norm_solver.norm_pisp_invariant(N, n, {(1,) * n: _one_draw(n, N)}, opts)
    return ExtendibilityBounds(n, N, None, lower, upper, lp_value)


def _pushforward_chi(n: int, N: int, counts) -> SymmetricTensor:
    """Law of n draws without replacement from a pool with the given counts.

    Each entry is an integer count of ordered draws over (N)_n, rounded once.
    """
    m, ordered = len(counts), perm(N, n)
    entries: dict = {}
    for idx in multi_indices(m, n):
        draws = math.prod(perm(c, idx.count(s)) for s, c in enumerate(counts))
        if draws:
            entries[idx] = draws / ordered
    return SymmetricTensor(m, n, entries)


def kappa_nNm_bounds(n: int, N: int, m: int, exact: bool = False,
                     opts: SolverOptions | None = None) -> ExtendibilityBounds:
    """Bounds for N-extendible laws of order n on m states.

    upper: 1 + K 2 m n / N with K the sharpened order-n upper bound;
    lower: exp((m-1) / (2 ceil(N/n))).  exact=True maximises the LP value
    over the state-count classes of the conditioning word (practical for
    N <= 12, m <= 3).  For m > 1 it skips the one-colour class (N, 0, ...),
    whose i.i.d. law has norm 1, below the law of (N - 1, 1, 0, ...).
    """
    if not (N >= n >= m >= 1):
        raise ValueError("need N >= n >= m >= 1")
    K = uv_bound(n)
    upper = 1.0 + K * 2.0 * m * n / N
    lower = math.exp((m - 1) / (2 * math.ceil(N / n)))
    lp_value = None
    if exact:
        for counts in norm_solver._compositions(m, N)[::-1].tolist()[int(m > 1):]:
            if counts != sorted(counts, reverse=True):
                continue  # one count vector per class: the non-increasing one
            nb = norm_solver.norm_pisp(_pushforward_chi(n, N, counts), norm_solver.l1(m), opts)
            if lp_value is None or nb.upper > lp_value.upper:
                lp_value = nb
    return ExtendibilityBounds(n, N, m, lower, upper, lp_value)


def partition_log_slack(parts, t: float) -> float:
    """Slack of the partition log-inequality used in the extendibility lower bound.

    For positive integer parts n_1..n_m summing to n and t in [0, 1), or t in
    [0, 1] when every part is 1:

        sum_k sum_{i<n_k} log(1 - t i / n_k) - sum_{i<n} log(1 - t i / n)
            - (m - 1) t / 2

    The returned value is non-negative.
    """
    parts = [int(p) for p in parts]
    if not parts or any(p < 1 for p in parts):
        raise ValueError("parts must be positive integers")
    n = sum(parts)
    m = len(parts)
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1], and below 1 when any part exceeds 1")
    if t == 1.0 and any(p >= 2 for p in parts):
        raise ValueError("t = 1 is rejected when any part exceeds 1")
    first = math.fsum(math.log1p(-t * i / p) for p in parts for i in range(p))
    second = math.fsum(math.log1p(-t * i / n) for i in range(n))
    return first - second - (m - 1) * t / 2
