"""Symmetric-tensor arithmetic over R^m with sparse multiset storage.

An order-n symmetric tensor is stored by its non-decreasing multi-indices
(i1 <= ... <= in), one slot per index class, so memory is C(m+n-1, n)
instead of m**n.  The value stored for an index class is the common value
of the full tensor on every ordering of that class; sums over the full
tensor weight each class by its multinomial multiplicity.

Every operation exists in two arithmetic flavours selected per call:
double precision (default) and exact rationals (``exact=True``), the
latter meant for small sizes where reconstruction identities are exact
statements.  All values are immutable after construction and all
operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Sequence


def multi_indices(dim: int, order: int) -> list[tuple[int, ...]]:
    """All non-decreasing multi-indices of the given order, lexicographic."""
    return list(combinations_with_replacement(range(dim), order))


def multiplicity(idx: Sequence[int]) -> int:
    """Number of distinct orderings of a multi-index (multinomial count)."""
    counts: dict[int, int] = {}
    for i in idx:
        counts[i] = counts.get(i, 0) + 1
    out = math.factorial(len(idx))
    for c in counts.values():
        out //= math.factorial(c)
    return out


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


def _as_vector(x, exact: bool) -> tuple:
    if exact:
        return tuple(Fraction(v) for v in x)
    return tuple(float(v) for v in x)


def _zero(exact: bool):
    return Fraction(0) if exact else 0.0


def check_finite(*values) -> None:
    """Raise ValueError on a float NaN or infinity; ints and Fractions pass as they are."""
    for v in values:
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"expected finite numbers, got {v!r}")


def vector_norm(x: Sequence, p: float = 1):
    """l_p norm; p may be any real >= 1 or math.inf.  Exact for p in {1, inf}."""
    if p == 1:
        return sum(abs(v) for v in x)
    if p == math.inf:
        return max((abs(v) for v in x), default=0)
    if p < 1:
        raise ValueError(f"norm exponent must be >= 1, got {p}")
    return float(sum(abs(float(v)) ** p for v in x)) ** (1.0 / p)


@dataclass(frozen=True)
class SymmetricTensor:
    """Order-n symmetric tensor over R^m, stored by non-decreasing index."""

    dim: int
    order: int
    entries: dict

    def __post_init__(self):
        if self.dim < 1 or self.order < 1:
            raise ValueError("dim and order must be positive")
        for idx in self.entries:
            if len(idx) != self.order:
                raise ValueError(f"index {idx} has wrong length")
            if any(not 0 <= i < self.dim for i in idx):
                raise ValueError(f"index {idx} out of range for dim {self.dim}")
            if any(idx[k] > idx[k + 1] for k in range(len(idx) - 1)):
                raise ValueError(f"index {idx} is not non-decreasing")
        check_finite(*self.entries.values())

    def value(self, idx: Sequence[int]):
        """Full-tensor value at any ordering of idx."""
        return self.entries.get(tuple(sorted(idx)), 0)

    def entrywise_l1(self):
        """Sum over the full tensor of absolute values (multiplicity-weighted)."""
        vals = [multiplicity(i) * abs(v) for i, v in self.entries.items()]
        if any(isinstance(v, Fraction) for v in vals):
            return sum(vals, Fraction(0))
        return math.fsum(vals)

    def vector(self) -> list[float]:
        """Entry values in multi_indices(dim, order) lexicographic order."""
        return [float(self.entries.get(i, 0)) for i in multi_indices(self.dim, self.order)]

    def scaled(self, c) -> "SymmetricTensor":
        return SymmetricTensor(self.dim, self.order,
                               {i: c * v for i, v in self.entries.items()})

    def residual_inf(self, other: "SymmetricTensor") -> float:
        """Max absolute entry difference (sup norm over the full tensor)."""
        if (self.dim, self.order) != (other.dim, other.order):
            raise ValueError("shape mismatch")
        keys = set(self.entries) | set(other.entries)
        return max((abs(float(self.entries.get(k, 0)) - float(other.entries.get(k, 0)))
                    for k in keys), default=0.0)

    def to_json_dict(self) -> dict:
        items = sorted(self.entries.items())
        return {"dim": self.dim, "order": self.order,
                "entries": [{"idx": list(i), "v": float(v)} for i, v in items if v != 0]}

    @staticmethod
    def from_json_dict(d: dict) -> "SymmetricTensor":
        entries = {tuple(e["idx"]): float(e["v"]) for e in d["entries"]}
        return SymmetricTensor(int(d["dim"]), int(d["order"]), entries)


@dataclass(frozen=True)
class SignedPowerCombination:
    """Finite combination sum_k a_k x_k^(tensor n) of vector powers."""

    dim: int
    order: int
    terms: tuple

    def __post_init__(self):
        for a, x in self.terms:
            if len(x) != self.dim:
                raise ValueError("term vector has wrong dimension")

    def evaluate(self, exact: bool = False) -> SymmetricTensor:
        """The symmetric tensor sum_k a_k x_k^(tensor n)."""
        acc: dict = {}
        for a, x in self.terms:
            if exact:
                a = Fraction(a)
                x = tuple(Fraction(v) for v in x)
            for idx in multi_indices(self.dim, self.order):
                prod_ = a
                for i in idx:
                    prod_ = prod_ * x[i]
                if prod_ != 0:
                    acc[idx] = acc.get(idx, _zero(exact)) + prod_
        acc = {i: v for i, v in acc.items() if v != 0}
        return SymmetricTensor(self.dim, self.order, acc)

    def cost(self, p: float = 1):
        """Total weight sum_k |a_k| * ||x_k||_p ** order."""
        parts = [abs(a) * vector_norm(x, p) ** self.order for a, x in self.terms]
        if any(isinstance(v, Fraction) for v in parts):
            return sum(parts, Fraction(0))
        return math.fsum(float(v) for v in parts)

    def merged(self) -> "SignedPowerCombination":
        """Combine terms whose vectors agree up to the sign ambiguity of powers."""
        bucket: dict = {}
        for a, x in self.terms:
            key, flip = _canonical_sign(x)
            if key is None:
                continue
            a = a * flip ** self.order
            bucket[key] = bucket.get(key, 0) + a
        terms = tuple((w, v) for v, w in sorted(bucket.items()) if w != 0)
        return SignedPowerCombination(self.dim, self.order, terms)

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "order": self.order,
                "terms": [{"w": float(a), "x": [float(v) for v in x]} for a, x in self.terms]}

    @staticmethod
    def from_json_dict(d: dict) -> "SignedPowerCombination":
        terms = tuple((float(t["w"]), tuple(float(v) for v in t["x"])) for t in d["terms"])
        return SignedPowerCombination(int(d["dim"]), int(d["order"]), terms)


def _canonical_sign(x):
    """(canonical vector, flip sign) with first non-zero coordinate positive."""
    for v in x:
        if v > 0:
            return tuple(x), 1
        if v < 0:
            return tuple(-u for u in x), -1
    return None, 1


@dataclass(frozen=True)
class PosNegSplit:
    """Disjoint decomposition x = positive_part - negative_part."""

    positive_part: tuple
    negative_part: tuple
    plus_norm: float


def power(x: Sequence, order: int, exact: bool = False) -> SymmetricTensor:
    """The tensor power x^(tensor n): entry at (i1..in) is prod x_{i_j}."""
    if order < 1:
        raise ValueError("order must be >= 1")
    vec = _as_vector(x, exact)
    return SignedPowerCombination(len(vec), order, ((1, vec),)).evaluate(exact)


def wedge(vectors: Sequence[Sequence], exact: bool = False) -> SymmetricTensor:
    """Symmetrized elementary tensor of the given vectors.

    Equals the average over all orderings of x_1 (x) ... (x) x_n, built
    iteratively through the commutative symmetric product.
    """
    if not vectors:
        raise ValueError("wedge needs at least one vector")
    vecs = [_as_vector(v, exact) for v in vectors]
    m = len(vecs[0])
    if any(len(v) != m for v in vecs):
        raise ValueError("all vectors must share the same dimension")
    acc: dict = {(): Fraction(1) if exact else 1.0}
    for k, x in enumerate(vecs):
        inv = Fraction(1, k + 1) if exact else 1.0 / (k + 1)
        nxt: dict = {}
        for idx, val in acc.items():
            for c in range(m):
                if x[c] == 0:
                    continue
                jdx = tuple(sorted(idx + (c,)))
                # scatter weight: new count of c in jdx, divided by the new order
                coeff = (idx.count(c) + 1) * inv
                nxt[jdx] = nxt.get(jdx, _zero(exact)) + val * x[c] * coeff
        acc = nxt
    acc = {i: v for i, v in acc.items() if v != 0}
    return SymmetricTensor(m, len(vecs), acc)


def entrywise_l1(t: SymmetricTensor):
    """Entrywise l1 norm of the full tensor (the projective norm over l1^m)."""
    return t.entrywise_l1()


def polarization_expand(vectors: Sequence[Sequence], exact: bool = False) -> SignedPowerCombination:
    """Expand a symmetrized elementary tensor into 2^n signed vector powers.

    Weights are eps_1...eps_n / (2^n n!) on the vectors sum_i eps_i x_i;
    terms whose vectors coincide up to sign are merged and zero vectors
    dropped, so evaluate() reproduces wedge(vectors).
    """
    vecs = [_as_vector(v, exact) for v in vectors]
    n = len(vecs)
    m = len(vecs[0])
    if any(len(v) != m for v in vecs):
        raise ValueError("all vectors must share the same dimension")
    denom = (2 ** n) * math.factorial(n)
    base = Fraction(1, denom) if exact else 1.0 / denom
    terms = []
    for eps in product((1, -1), repeat=n):
        sign = 1
        for e in eps:
            sign *= e
        vec = tuple(sum(e * x[c] for e, x in zip(eps, vecs)) for c in range(m))
        terms.append((sign * base, vec))
    return SignedPowerCombination(m, n, tuple(terms)).merged()


def pos_neg_split(x: Sequence, p: float = 1) -> PosNegSplit:
    """Coordinatewise split x = x+ - x- with plus_norm = ||x+||_p + ||x-||_p."""
    xs = tuple(x)
    pos = tuple(v if v > 0 else 0 * v for v in xs)
    neg = tuple(-v if v < 0 else 0 * v for v in xs)
    return PosNegSplit(pos, neg, vector_norm(pos, p) + vector_norm(neg, p))


def vandermonde_decomposition(x: Sequence, order: int, nodes: Sequence | None = None,
                              exact: bool = False) -> SignedPowerCombination:
    """Decompose x^(tensor n) into powers of coordinatewise-positive vectors.

    Splits x = y - z and returns the terms (lam_k, y + t_k z) over the given
    nodes t_k, default 0..n.  The weights solve sum_k lam_k (t_k + 1)^j =
    [j == 0] for j = 0..n; they are the Lagrange basis at 0 on the points
    t + 1, in closed form lam_k = prod_{i != k} (t_i + 1) / (t_i - t_k).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if nodes is None:
        nodes = tuple(range(order + 1))
    nodes = _as_vector(nodes, exact)
    if len(nodes) != order + 1:
        raise ValueError(f"need exactly {order + 1} nodes")
    if len(set(nodes)) != len(nodes):
        raise ValueError("repeated nodes make the interpolation system singular")
    if any(t < 0 for t in nodes):
        raise ValueError("nodes must be non-negative")
    vec = _as_vector(x, exact)
    split = pos_neg_split(vec, p=1)
    y, z = split.positive_part, split.negative_part
    lam = [math.prod((ti + 1) / (ti - tk) for i, ti in enumerate(nodes) if i != k)
           for k, tk in enumerate(nodes)]
    if all(v == 0 for v in z):
        total = sum(lam, _zero(exact))
        return SignedPowerCombination(len(vec), order, ((total, y),))
    terms = tuple((lam[k], tuple(yv + nodes[k] * zv for yv, zv in zip(y, z)))
                  for k in range(order + 1))
    return SignedPowerCombination(len(vec), order, terms)


def vandermonde_node_bound(nodes: Sequence, weights: Sequence):
    """The guaranteed cost factor sum_k |lam_k| max(1, t_k)^n of a node system."""
    n = len(nodes) - 1
    return sum(abs(w) * max(1, t) ** n for w, t in zip(weights, nodes))


def pushforward(matrix: Sequence[Sequence], comb: SignedPowerCombination) -> SignedPowerCombination:
    """Apply a coordinatewise non-negative linear map termwise: (a, x) -> (a, Mx)."""
    rows = [tuple(r) for r in matrix]
    if any(len(r) != comb.dim for r in rows):
        raise ValueError("matrix column count must equal the combination dimension")
    if any(v < 0 for r in rows for v in r):
        raise ValueError("pushforward requires a coordinatewise non-negative matrix")
    terms = tuple((a, tuple(sum(r[c] * x[c] for c in range(comb.dim)) for r in rows))
                  for a, x in comb.terms)
    return SignedPowerCombination(len(rows), comb.order, terms)


def tensor_pushforward(matrix: Sequence[Sequence], t: SymmetricTensor) -> SymmetricTensor:
    """Apply M^(tensor n) to a symmetric tensor directly."""
    rows = [tuple(float(v) for v in r) for r in matrix]
    if any(len(r) != t.dim for r in rows):
        raise ValueError("matrix column count must equal the tensor dimension")
    m_out = len(rows)
    out: dict = {}
    nonzero = [(i, float(v)) for i, v in t.entries.items() if v != 0]
    for jdx in multi_indices(m_out, t.order):
        s = 0.0
        for idx, val in nonzero:
            acc = 0.0
            for ordering in _arrangements(idx):
                p = 1.0
                for jk, ok in zip(jdx, ordering):
                    p *= rows[jk][ok]
                acc += p
            s += val * acc
        if s != 0.0:
            out[jdx] = s
    return SymmetricTensor(m_out, t.order, out)

