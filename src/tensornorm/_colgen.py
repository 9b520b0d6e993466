"""Generic column generation for certified norm brackets.

A *generator family* supplies candidate vectors (or vector pairs) whose
columns the master LP may combine, plus a pricing oracle that maximises
|<y, column(p)>| over the whole continuous family.  Each solve yields

  upper  -- the LP objective, the cost of an explicit decomposition;
  lower  -- (target . y) / max(M, 1), where M is the oracle maximum of the
            dual functional; dividing by M makes the functional feasible
            for the continuum problem.  The bound is a certificate only
            where the oracle is exact: m = 2 and the euclid2 families.  For
            m >= 3 the oracle is grid + polish, M can fall short of the true
            maximum, and ``lower`` is an estimate, not a certificate.

While the master LP is infeasible the oracle prices its Farkas
certificate until the target enters the span.  Iteration stops once the
pricing violation and the implied bracket gap are both below tolerance,
when the oracle adds no new column, or after ``max_rounds`` rounds
(``converged`` is then False and the last bracket is returned).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp_engine
from .tensor_core import SignedPowerCombination


PRICING_TOL = 1e-7   # admissible dual violation max|p_y| - 1
PRUNE_TOL = 1e-10    # primal weights of at most this size are dropped


@dataclass(frozen=True)
class SolverOptions:
    """What a caller may set; PRICING_TOL, PRUNE_TOL and the grid are fixed."""

    tol: float = 1e-7            # absolute bracket-gap target
    max_rounds: int = 200


@dataclass
class NormBounds:
    """Certified interval for a norm value with primal/dual witnesses."""

    lower: float
    upper: float
    primal: SignedPowerCombination | None
    dual: list[float] | None
    iterations: int
    converged: bool
    primal_pairs: list[tuple[float, tuple, tuple]] | None = None

    def contains(self, value: float, tol: float = 0.0) -> bool:
        return self.lower - tol <= value <= self.upper + tol

    def gap(self) -> float:
        return self.upper - self.lower

    def to_json_dict(self) -> dict:
        out = {
            "lower": self.lower,
            "upper": self.upper,
            "converged": self.converged,
            "iterations": self.iterations,
            "primal": self.primal.to_json_dict()["terms"] if self.primal else None,
            "dual": list(self.dual) if self.dual is not None else None,
        }
        if self.primal_pairs is not None:
            out["primal_pairs"] = [{"w": w, "x1": list(x1), "x2": list(x2)}
                                   for w, x1, x2 in self.primal_pairs]
        return out


def run_column_generation(target, family, opts: SolverOptions | None = None) -> NormBounds:
    opts = opts or SolverOptions()
    target = np.asarray(target, dtype=float)
    params: list = []
    keys: set = set()
    cols: list = []

    def add(p) -> bool:
        k = family.key(p)
        if k in keys:
            return False
        keys.add(k)
        params.append(p)
        cols.append(family.column(p))
        return True

    for p in family.seeds():
        add(p)

    sol = None
    rounds = 0
    converged = False
    while rounds < opts.max_rounds:
        rounds += 1
        sol = lp_engine.solve_min_tv(cols, target)
        # sol.dual is the Farkas certificate when the master is infeasible
        p_star, oracle_max, extras = family.oracle(sol.dual)
        if sol.status == "infeasible":
            if oracle_max <= 1e-12:
                break
        else:
            violation = oracle_max - 1.0
            gap = max(0.0, sol.objective * violation)
            if violation <= PRICING_TOL and gap <= opts.tol:
                converged = True
                break
        added = add(p_star)
        for q in extras:
            added = add(q) or added
        if not added:
            break  # dual-degenerate stall: maximiser already priced in

    if sol is None or sol.status == "infeasible":
        return NormBounds(0.0, math.inf, None, None, rounds, False, None)

    upper = sol.objective
    scale = max(oracle_max, 1.0)
    lower = min(float(target @ sol.dual) / scale, upper)
    dual_scaled = (np.asarray(sol.dual) / scale).tolist()
    primal, pairs = family.primal(params, sol.weights, PRUNE_TOL)
    return NormBounds(lower, upper, primal, dual_scaled, rounds, converged, pairs)
