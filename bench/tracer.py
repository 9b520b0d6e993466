"""Layer spans recorded by wrapping tensornorm's layer entry points.

The wrappers live here, in the benchmark, not in the library.  They are
installed for traced sweeps only and removed afterwards, so an untraced
sweep runs the library exactly as shipped; ``untouched`` lets the caller
check that.

A span covers one call into a layer.  Its duration is added to the layer's
inclusive time and, minus the time of the spans it encloses, to the layer's
self time.  A call into a layer that is already open on the stack (such as
``constants_l2`` calling ``half_circle_lp``) opens no second span.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self, tn):
        """``tn`` maps module names to the imported tensornorm modules."""
        self.time: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(float)
        self.lp_cols_max = 0
        self._stack: list[list] = []    # [layer, seconds spent in child spans]
        self._targets = _targets(tn, self)
        self._originals = [getattr(owner, attr) for owner, attr, _, _ in self._targets]

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        for (owner, attr, layer, hook), orig in zip(self._targets, self._originals):
            setattr(owner, attr, self._wrap(orig, layer, hook))

    def uninstall(self) -> None:
        for (owner, attr, _, _), orig in zip(self._targets, self._originals):
            setattr(owner, attr, orig)

    def untouched(self) -> bool:
        """True when every wrapped entry point is the library's own object."""
        return all(getattr(owner, attr) is orig
                   for (owner, attr, _, _), orig in zip(self._targets, self._originals))

    # -- spans ----------------------------------------------------------------
    def _wrap(self, fn, layer, hook):
        stack = self._stack

        def wrapped(*args, **kwargs):
            name = layer(args) if callable(layer) else layer
            if any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                self.time[name] += dur
                self.self_time[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(args, result)
            return result

        return wrapped

    # -- count hooks ----------------------------------------------------------
    def on_lp(self, args, sol) -> None:
        cols = len(args[0])
        self.count["lp.calls"] += 1
        self.count["lp.pivots"] += sol.iterations
        self.count["lp.cols"] += cols
        self.count["lp.infeasible"] += sol.status == "infeasible"
        self.lp_cols_max = max(self.lp_cols_max, cols)

    def on_colgen(self, args, nb) -> None:
        self.count["colgen.solves"] += 1
        self.count["colgen.rounds"] += nb.iterations
        self.count["colgen.converged"] += bool(nb.converged)

    def on_power_oracle(self, args, result) -> None:
        fam = args[0]
        self.count["oracle.calls"] += 1
        if fam.m != 2:
            # the grid block evaluates every monomial at every grid point,
            # once per sign pattern
            self.count["oracle.grid_madds"] += (len(fam._grid) * len(fam.indices)
                                                * len(fam.patterns))


def _targets(tn, tracer: Tracer) -> list[tuple]:
    """(owner, attribute, layer, count hook) for every wrapped entry point."""
    lp, ns, e2, ex, cli = (tn["lp_engine"], tn["norm_solver"], tn["euclid2"],
                           tn["exchangeable"], tn["cli"])

    def power_layer(args):
        return "oracle_exact" if args[0].m == 2 else "oracle_grid"

    out = [
        (lp, "solve_min_tv", "lp_engine", tracer.on_lp),
        # run_column_generation under the names the two pricing modules bound
        (ns, "run_column_generation", "colgen", tracer.on_colgen),
        (e2, "run_column_generation", "colgen", tracer.on_colgen),
        # each generator family's oracle, looked up on the class by _colgen
        (ns._PowerFamily, "oracle", power_layer, tracer.on_power_oracle),
        (e2._ArcPowerFamily, "oracle", "oracle_euclid2", None),
        (e2._WedgePairFamily, "oracle", "oracle_euclid2", None),
        (ex, "represent", "represent", None),
        (ex, "kappa_nN_bounds", "extend", None),
        (ex, "kappa_nNm_bounds", "extend", None),
        (cli, "main", "cli", None),
        # closed forms, under the names their callers bound them to
        (cli, "psi", "chebyshev", None),
        (cli, "optimal_decomposition_m2", "chebyshev", None),
        (ns, "psi", "chebyshev", None),
        (ex, "psi_mixed", "chebyshev", None),
        (ex, "binary_lower_bound_max", "chebyshev", None),
    ]
    for name in ("constants_l2", "half_circle_lp", "full_circle_lp", "positive_wedge_lp",
                 "trace_norm_bounds", "norms_ab", "extreme_points"):
        out.append((e2, name, "euclid2", None))
    return out
