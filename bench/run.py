"""Benchmark of tensornorm's certified-bracket pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  Workloads (see workloads.py and README.md):

  two_state      library solves on l1^2: the master LP and exact pricing
  simplex        represent() for m >= 3: grid + polish pricing
  symmetric_cli  in-process CLI commands on permutation-invariant targets

Every workload is a closed loop: one caller, one operation at a time, BLAS
fixed to one thread.  With ``--trace 0`` the loop runs whole cycles of
sweeps (see workloads.py) until the operations have taken S seconds and
reports the end-to-end metrics.
With ``--trace 1`` it runs a fixed number of sweeps, derived from S, each
once untraced and once traced, and reports per-layer metrics per sweep.
Each operation is checked outside its timed region.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
RECORD = BENCH / "record.json"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2          # keep out of tuning; later claims must also hold here
SETUP_PROBES = 9
TAIL_BEYOND = 10           # samples a tail percentile must leave above it
BRACKET_SHIFT = 1e-3       # self-test: shift, times magnitude, a check must catch
# seconds per sweep at this benchmark's first commit (2 cores); only used to
# turn --seconds into a fixed number of traced sweeps, so counts repeat exactly
NOMINAL_SWEEP_S = {"two_state": 1.5, "simplex": 3.9, "symmetric_cli": 7.5}


def _import_library():
    if not (SRC / "tensornorm" / "__init__.py").is_file():
        sys.exit(f"error: no tensornorm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tensornorm
    if not Path(tensornorm.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: tensornorm imported from {tensornorm.__file__}, not {SRC}")
    import workloads
    return workloads


def load_record(workload: str) -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))[workload]


def probe_setup(workload: str, seed: int) -> None:
    """Child process: time import plus input generation, print seconds."""
    record = load_record(workload)
    t0 = time.perf_counter()
    wl_mod = _import_library()
    wl_mod.Workload(workload, seed, WORKDIR, record)
    print(repr(time.perf_counter() - t0))


def measure_setup(workload: str, seed: int) -> list[float]:
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe-setup",
                              "--workload", workload, "--seed", str(seed)],
                             cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest nearest-rank percentile leaving TAIL_BEYOND samples above it."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    return 50, statistics.median(xs)


class Runner:
    def __init__(self, wl_mod, workload: str, seed: int, record: dict):
        self.wl = wl_mod
        self.work = wl_mod.Workload(workload, seed, WORKDIR, record)
        self.work.write_files()
        self.record = record
        self.tracer = Tracer(wl_mod.MODULES)
        self.results = []           # (slot key, entry, seconds, outcome)
        self.check_s_traced = 0.0   # certificate re-checks after traced operations
        self.wrapper_leaks = 0

    def run_sweep(self, r: int, traced: bool) -> float:
        """Run sweep r; return the seconds its operations took."""
        if traced:
            self.tracer.install()
        elif not self.tracer.untouched():
            self.wrapper_leaks += 1
        spent = 0.0
        try:
            for slot, entry, inp in self.work.sweep(r):
                t0 = time.perf_counter()
                try:
                    raw = self.wl.call(slot, inp)
                    error = None
                except Exception as exc:   # an operation that raises is a failed op
                    raw, error = None, f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                spent += dt
                c0 = time.perf_counter()
                if error is None:
                    out = self.wl.check(slot, inp, raw)
                    if out.brackets or not out.failures:
                        stored = self.record.get(slot.key, {}).get(str(entry), {})
                        out.failures += self.wl.stored_failures(out.brackets,
                                                                stored.get("brackets"))
                else:
                    out = self.wl.Outcome(converged=False, failures=[error])
                if traced:
                    self.check_s_traced += time.perf_counter() - c0
                self.results.append((slot.key, entry, dt, out))
        finally:
            if traced:
                self.tracer.uninstall()
        if not traced and not self.tracer.untouched():
            self.wrapper_leaks += 1
        return spent

    def self_test(self) -> list[str]:
        """The checkers must catch a flipped witness weight and a shifted bracket."""
        problems = []
        if self.wrapper_leaks:
            problems.append(f"wrappers present in {self.wrapper_leaks} untraced sweeps")
        wit = next((w for *_, out in self.results for w in out.witnesses
                    if len(w.terms) > 1), None)
        if wit is None:
            problems.append("no witness to self-test")
        else:
            size = [abs(w) * max(abs(v) for v in x) ** wit.n for w, x in wit.terms]
            k = size.index(max(size))
            terms = list(wit.terms)
            terms[k] = (-terms[k][0], terms[k][1])
            flipped = self.wl.Witness(wit.m, wit.n, terms, wit.target, wit.upper, wit.law)
            if not self.wl.witness_failures(flipped):
                problems.append("witness with a flipped weight passed its check")
        candidates = [(b, self.record[key][str(entry)]["brackets"][i])
                      for key, entry, _, out in self.results if not out.failures
                      for i, b in enumerate(out.brackets)]
        if not candidates:
            problems.append("no bracket to self-test")
        else:
            def width(c):
                (lo, hi), (slo, shi) = c
                return max(hi - lo, shi - slo) / max(1.0, abs(hi))
            b, s = min(candidates, key=width)
            shift = BRACKET_SHIFT * max(1.0, abs(b[1]))
            if self.wl.overlaps((b[0] + shift, b[1] + shift), s):
                problems.append("bracket shifted by 1e-3 passed its check")
        return problems


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, sweeps: int, setup: list[float]) -> tuple[dict, list[str]]:
    recs = runner.results
    secs = [dt for _, _, dt, _ in recs]
    failed = sum(bool(out.failures) for *_, out in recs)
    unconverged = sum(not out.failures and not out.converged for *_, out in recs)
    p, tail_s = tail(secs)
    n = len(recs)
    metrics = {
        "ops_per_s": _metric(n / sum(secs), "1/s"),
        "op_p50_ms": _metric(1e3 * statistics.median(secs), "ms"),
        "op_tail_ms": _metric(1e3 * tail_s, "ms"),
        "converged_frac": _metric((n - failed - unconverged) / n, "frac"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"ops: {n} over {sweeps} sweeps of {len(runner.work.slots)}, {sum(secs):.3f} s timed",
        f"op_tail_ms is p{p} of {n} samples",
        f"failed_frac {failed / n!r} frac ({failed} of {n})",
        f"unconverged_frac {unconverged / n!r} frac ({unconverged} of {n}, not failures)",
        f"setup_s is the median of {len(setup)} probes: {', '.join(f'{s:.4f}' for s in setup)}",
    ]
    return metrics, notes


def per_layer(runner: Runner, sweeps: int, plain_s: float, traced_s: float) -> dict:
    tr = runner.tracer
    c, t, st = tr.count, tr.time, tr.self_time

    def per_sweep(v):
        return v / sweeps

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "lp_engine.calls": _metric(per_sweep(c["lp.calls"]), "calls/sweep"),
        "lp_engine.s": _metric(per_sweep(t["lp_engine"]), "s/sweep"),
        "lp_engine.pivots": _metric(per_sweep(c["lp.pivots"]), "pivots/sweep"),
        "lp_engine.pivots_per_call": _metric(ratio(c["lp.pivots"], c["lp.calls"]), "pivots/call"),
        "lp_engine.cols_mean": _metric(ratio(c["lp.cols"], c["lp.calls"]), "cols/call"),
        "lp_engine.cols_max": _metric(tr.lp_cols_max, "cols"),
        "lp_engine.infeasible_calls": _metric(per_sweep(c["lp.infeasible"]), "calls/sweep"),
        "norm_solver.oracle_calls": _metric(per_sweep(c["oracle.calls"]), "calls/sweep"),
        "norm_solver.oracle_exact_s": _metric(per_sweep(t["oracle_exact"]), "s/sweep"),
        "norm_solver.oracle_grid_s": _metric(per_sweep(t["oracle_grid"]), "s/sweep"),
        "norm_solver.grid_madds": _metric(per_sweep(c["oracle.grid_madds"]), "madds/sweep"),
        "colgen.solves": _metric(per_sweep(c["colgen.solves"]), "solves/sweep"),
        "colgen.rounds": _metric(per_sweep(c["colgen.rounds"]), "rounds/sweep"),
        "colgen.rounds_per_solve": _metric(ratio(c["colgen.rounds"], c["colgen.solves"]),
                                           "rounds/solve"),
        "colgen.converged_ratio": _metric(ratio(c["colgen.converged"], c["colgen.solves"]),
                                          "frac"),
        "colgen.self_s": _metric(per_sweep(st["colgen"]), "s/sweep"),
        "exchangeable.represent_s": _metric(per_sweep(t["represent"]), "s/sweep"),
        "exchangeable.extend_s": _metric(per_sweep(t["extend"]), "s/sweep"),
        "euclid2.s": _metric(per_sweep(t["euclid2"]), "s/sweep"),
        "chebyshev.s": _metric(per_sweep(t["chebyshev"]), "s/sweep"),
        "cli.self_s": _metric(per_sweep(st["cli"]), "s/sweep"),
        "tensor_core.check_s": _metric(per_sweep(runner.check_s_traced), "s/sweep"),
        "trace_overhead_frac": _metric(traced_s / plain_s - 1.0, "frac"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(NOMINAL_SWEEP_S))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0

    wl_mod = _import_library()
    record = load_record(args.workload)
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    try:
        runner = Runner(wl_mod, args.workload, args.seed, record)
        if args.trace:
            sweeps = max(1, round(args.seconds / (2 * NOMINAL_SWEEP_S[args.workload])))
            plain_s = traced_s = 0.0
            for r in range(sweeps):
                # alternate which pass goes first, so drift falls on both sides
                for traced in ((False, True) if r % 2 == 0 else (True, False)):
                    spent = runner.run_sweep(r, traced)
                    if traced:
                        traced_s += spent
                    else:
                        plain_s += spent
            metrics = per_layer(runner, sweeps, plain_s, traced_s)
            notes = [f"per-layer values are per sweep of {len(runner.work.slots)} ops, "
                     f"over {sweeps} traced sweeps"]
        else:
            sweeps = spent = 0
            while spent < args.seconds:
                for _ in range(runner.work.cycle):
                    spent += runner.run_sweep(sweeps, traced=False)
                    sweeps += 1
            metrics, notes = end_to_end(runner, sweeps, setup)
        problems = runner.self_test()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    recs = runner.results
    failed = [(key, entry, out.failures) for key, entry, _, out in recs if out.failures]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"blas_threads={BLAS_THREADS} nproc={os.cpu_count()} python={sys.version.split()[0]}")
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for key, entry, fails in failed[:20]:
        print(f"FAILED {key}#{entry}: {'; '.join(fails)}")
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}")
    result = {"correct": not failed and not problems, "attempted": len(recs),
              "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
