"""Dense total-variation-minimising linear program.

Given columns v_1..v_N and a target t, solve

    minimise   sum_k |a_k|   subject to   sum_k a_k v_k = t

via the split a = a+ - a- and a two-phase dense revised simplex on
min 1.(a+ + a-) s.t. [V, -V](a+; a-) = t, a+- >= 0.  Solutions carry the
dual vector y, which at optimality is a certificate: |v_k . y| <= 1 for
every column and t . y equals the objective.  Infeasible systems return
a Farkas certificate y with t . y > 0 and v_k . y <= 0 for all k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-9
REDUCED_COST_TOL = 1e-9
_PIVOT_TOL = 1e-11
_REFACTOR_EVERY = 256


@dataclass
class LPSolution:
    weights: np.ndarray      # signed weights a_k, length N
    objective: float         # sum |a_k| (math.inf when no feasible point was found)
    dual: np.ndarray         # length-d dual vector / Farkas certificate
    status: str              # 'optimal' | 'infeasible' | 'iteration-limit' | 'singular-basis'
    iterations: int = 0      # simplex iterations (pivots done, for a singular basis)


class _Tableau:
    """Revised simplex state with an explicitly maintained basis inverse."""

    def __init__(self, A, b):
        self.A = A
        self.AT = np.ascontiguousarray(A.T)   # entering columns as contiguous rows
        self.b = b
        d = A.shape[0]
        self.basis = np.arange(A.shape[1] - d, A.shape[1])  # artificials
        self.binv = np.eye(d)
        self.xb = b.copy()
        self.pivots = 0

    def refactor(self):
        """Recompute the basis inverse; raises LinAlgError on a singular basis."""
        self.binv = np.linalg.solve(self.A[:, self.basis], np.eye(len(self.basis)))
        self.xb = self.binv @ self.b
        self.xb[np.abs(self.xb) < 1e-13] = 0.0

    def pivot(self, j, row, u):
        """Enter column j at ``row``; u is binv @ A[:, j]."""
        self.binv[row] /= u[row]
        # rank-1 update; rows with u == 0 are skipped so their zeros keep sign
        update = u != 0
        update[row] = False
        np.subtract(self.binv, u[:, None] * self.binv[row], out=self.binv, where=update[:, None])
        self.basis[row] = j
        self.xb = self.binv @ self.b
        if not self.xb.min() >= 0:   # a nan minimum clamps too
            self.xb[(self.xb < 0) & (self.xb > -1e-9)] = 0.0
        self.pivots += 1
        if self.pivots % _REFACTOR_EVERY == 0:
            self.refactor()


def _run_phase(tab: _Tableau, costs, is_artificial, max_iters, bland_after):
    """Iterate to optimality of the given cost vector.  Returns (status, iters)."""
    # the costs, +inf on columns that may not enter: artificial, basic, blocked
    enterable = np.where(is_artificial, np.inf, costs)
    pen = enterable.copy()
    pen[tab.basis] = np.inf
    basic_costs = costs[tab.basis]
    art_basic = is_artificial[tab.basis]
    n_art_basic = int(np.count_nonzero(art_basic))
    no_ratio = np.full(len(tab.xb), np.inf)
    iters = 0
    degenerate = 0
    bland = False
    blocked: list[int] = []  # columns whose pivots were numerically unusable
    while iters < max_iters:
        y = tab.binv.T @ basic_costs
        reduced = pen - y @ tab.A
        if bland:
            j = int((reduced < -REDUCED_COST_TOL).argmax())
        else:
            j = int(reduced.argmin())
        if not reduced[j] < -REDUCED_COST_TOL:
            return "optimal", iters
        u = tab.binv @ tab.AT[j]
        art_rows = ()
        if n_art_basic:
            zero_art = art_basic & (tab.xb <= 1e-10)
            if np.count_nonzero(zero_art):
                art_rows = (zero_art & (np.abs(u) > _PIVOT_TOL)).nonzero()[0]
        if len(art_rows):
            # a zero-valued artificial touched by the entering column must leave
            row = int(art_rows[0])
            theta = 0.0
        else:
            pos = u > _PIVOT_TOL
            ratios = np.divide(tab.xb, u, out=no_ratio.copy(), where=pos)
            row = int(ratios.argmin())
            theta = float(ratios[row])
            if theta == math.inf and not np.count_nonzero(pos):
                raise RuntimeError("unbounded simplex direction in a bounded program")
            ties = (ratios <= theta + 1e-12).nonzero()[0]
            if len(ties) != 1:   # several rows tie, or none (theta nan: the tie rule raises)
                art_ties = ties[art_basic[ties]]
                if len(art_ties):
                    row = int(art_ties[0])
                elif bland:
                    row = int(ties[tab.basis[ties].argmin()])
                else:
                    row = int(ties[np.abs(u[ties]).argmax()])
        if abs(u[row]) < 1e-9:
            # pivot too small to be trustworthy: rebuild the inverse and
            # set the column aside until the basis changes
            tab.refactor()
            blocked.append(j)
            pen[j] = np.inf
            iters += 1
            continue
        if theta <= 1e-12:
            degenerate += 1
            if degenerate > bland_after:
                bland = True
        leaving = tab.basis[row]
        tab.pivot(j, row, u)
        pen[j], pen[leaving] = np.inf, enterable[leaving]
        basic_costs[row] = costs[j]
        n_art_basic -= bool(art_basic[row])
        art_basic[row] = False
        for bj in blocked:
            pen[bj] = enterable[bj]
        blocked.clear()
        iters += 1
    return "iteration-limit", iters


def solve_min_tv(columns, target, max_iters: int | None = None) -> LPSolution:
    """Minimise sum |a_k| subject to sum a_k v_k = target."""
    cols = np.asarray(columns, dtype=float)
    if cols.ndim != 2 or cols.shape[0] == 0:
        raise ValueError("at least one column of equal dimension is required")
    V = cols.T
    d, n_cols = V.shape
    b0 = np.asarray(target, dtype=float)
    if b0.shape != (d,):
        raise ValueError(f"target dimension {b0.shape} does not match columns ({d},)")
    if not (np.isfinite(cols).all() and np.isfinite(b0).all()):
        raise ValueError("columns and target must be finite")
    if not np.any(b0):
        return LPSolution(np.zeros(n_cols), 0.0, np.zeros(d), "optimal", 0)

    sign = np.where(b0 < 0, -1.0, 1.0)
    A_real = np.hstack([V, -V]) * sign[:, None]
    A = np.hstack([A_real, np.eye(d)])
    b = b0 * sign
    n_real = 2 * n_cols
    is_artificial = np.zeros(A.shape[1], dtype=bool)
    is_artificial[n_real:] = True
    if max_iters is None:
        max_iters = max(2000, 40 * (d + n_cols))
    bland_after = 10 * d

    tab = _Tableau(A, b)

    def run_phase(costs):
        try:
            return _run_phase(tab, costs, is_artificial, max_iters, bland_after)
        except np.linalg.LinAlgError:
            return "singular-basis", tab.pivots   # the basis inverse cannot be rebuilt

    c1 = np.concatenate([np.zeros(n_real), np.ones(d)])
    status, it1 = run_phase(c1)
    if status != "optimal":
        # artificials are still basic, so no weights reconstruct the target yet
        return LPSolution(np.zeros(n_cols), math.inf, np.zeros(d), status, it1)
    art_level = float(sum(tab.xb[tab.basis >= n_real].tolist()))
    if art_level > FEASIBILITY_TOL * max(1.0, float(np.abs(b).max())):
        y = tab.binv.T @ c1[tab.basis]
        farkas = sign * y
        return LPSolution(np.zeros(n_cols), math.inf, farkas, "infeasible", it1)

    c2 = np.concatenate([np.ones(n_real), np.zeros(d)])
    status2, it2 = run_phase(c2)
    if status2 == "singular-basis":
        return LPSolution(np.zeros(n_cols), math.inf, np.zeros(d), status2, it2)

    x = np.zeros(A.shape[1])
    x[tab.basis] = tab.xb
    weights = x[:n_cols] - x[n_cols:n_real]
    y = sign * (tab.binv.T @ c2[tab.basis])
    objective = float(np.abs(weights).sum())
    return LPSolution(weights, objective, y, status2, it1 + it2)


def verify_solution(columns, target, sol: LPSolution, tol: float = 1e-7) -> dict:
    """Recompute residual, dual feasibility, duality gap and slackness checks."""
    V = np.asarray(columns, dtype=float).T
    t = np.asarray(target, dtype=float)
    y = np.asarray(sol.dual, dtype=float)
    if sol.status == "infeasible":
        col_dual = V.T @ y
        ok = float(t @ y) > tol and float(col_dual.max(initial=-math.inf)) <= tol
        return {"status": sol.status, "farkas_ok": bool(ok), "all_ok": bool(ok)}

    a = np.asarray(sol.weights, dtype=float)
    residual = float(np.abs(V @ a - t).max())
    col_dual = np.abs(V.T @ y)
    dual_feas = float(col_dual.max())
    objective = float(np.abs(a).sum())
    gap = abs(objective - float(t @ y))
    active = np.abs(a) > 1e-9
    slack = float(np.abs(col_dual[active] - 1.0).max()) if active.any() else 0.0
    checks = {
        "residual": residual,
        "feasible": residual <= tol,
        "max_abs_col_dual": dual_feas,
        "dual_feasible": dual_feas <= 1.0 + tol,
        "duality_gap": gap,
        "gap_ok": gap <= tol * max(1.0, objective),
        "complementary_slackness": slack,
        "complementary_ok": slack <= 10 * tol,
        "status": sol.status,
    }
    checks["all_ok"] = bool(checks["feasible"] and checks["dual_feasible"]
                            and checks["gap_ok"] and checks["complementary_ok"])
    return checks
