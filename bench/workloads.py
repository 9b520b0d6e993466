"""Workload inputs, the timed operations and their correctness checks.

A workload is a list of slots; a slot is one kind of operation at one input
size.  A sweep runs every slot once, in order.  Each slot draws its inputs
from a fixed pool: entry j is generated from the workload, the slot and j
alone, and its bracket and solve time are on record in record.json.  The
run's seed only picks the order in which each slot walks its pool, so every
seed sees different inputs and every input it can see has a recorded
bracket.

Solve times within a pool differ up to a thousandfold (some random laws are
positive mixtures and finish in the first round), so a plain random walk
would make a run's speed depend mostly on which inputs it drew.  The walk
is stratified instead: the pool is cut, by recorded solve time, into strata
of STRATUM entries, and every run of consecutive sweeps visits the strata
in turn, in a seeded order, with a seeded choice inside each stratum.  A
run measures whole cycles of sweeps, one cycle visiting every stratum of
every slot once.

The library is called through module attributes (``exchangeable.represent``
rather than a name bound at import), so that traced sweeps see the
benchmark's wrappers and untraced sweeps see the library as shipped.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np

from tensornorm import cli, euclid2, exchangeable, lp_engine, norm_solver
from tensornorm._colgen import SolverOptions
from tensornorm.chebyshev import psi
from tensornorm.tensor_core import SymmetricTensor, power

MODULES = {"lp_engine": lp_engine, "norm_solver": norm_solver, "euclid2": euclid2,
           "exchangeable": exchangeable, "cli": cli}

SOLVE_TOL = SolverOptions().tol     # widening of a stored bracket, times its magnitude
WITNESS_TOL = 1e-8                  # reconstruction and total-variation checks
REFERENCE_TOL = 1e-9                # closed-form reference inside the bracket
ENVELOPE_TOL = 1e-6                 # the library's own kappa envelope tolerance
STRATUM = 4                         # pool entries of similar solve time per stratum


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Slot:
    key: str
    kind: str
    params: dict
    pool: int          # number of distinct inputs on record


def _slots(name: str) -> list[Slot]:
    if name == "two_state":
        return [Slot(f"{kind}-n{n}", kind, {"m": 2, "n": n}, 64)
                for n in (4, 6, 8, 10, 12, 16) for kind in ("power", "law", "signed")]
    if name == "simplex":
        return [Slot(f"law-m{m}-n{n}", "law", {"m": m, "n": n}, 32)
                for m, n in ((3, 2), (3, 3), (3, 4), (4, 2))]
    if name == "symmetric_cli":
        return [
            Slot("kappa-n3", "kappa", {"argv": ["kappa", "--n", "3"], "n": 3}, 1),
            Slot("kappa-n4", "kappa", {"argv": ["kappa", "--n", "4"], "n": 4}, 1),
            Slot("constants-n3", "constants", {"argv": ["constants", "--n", "3"], "n": 3}, 1),
            Slot("extend-n2", "extend", {"argv": ["extend-bounds", "--n", "2", "--N", "2..5",
                                                  "--exact"]}, 1),
            Slot("extend-n4-m2", "extend", {"argv": ["extend-bounds", "--n", "4", "--m", "2",
                                                     "--N", "4..8", "--exact"]}, 1),
            Slot("represent-constructive", "represent", {"m": 3, "n": 3}, 16),
            Slot("constants-l2", "constants_l2", {"argv": ["constants", "--space", "l2"]}, 1),
            Slot("euclid2-halfcircle", "halfcircle", {}, 16),
            Slot("decompose", "decompose", {"n": 7}, 16),
        ]
    raise KeyError(name)


WORKLOADS = ("two_state", "simplex", "symmetric_cli")


def index_array(m: int, n: int) -> np.ndarray:
    """Non-decreasing multi-indices in the library's lexicographic order."""
    return np.asarray(list(combinations_with_replacement(range(m), n)), dtype=int).reshape(-1, n)


def _multiplicity(idx) -> int:
    out = math.factorial(len(idx))
    for c in set(idx):
        out //= math.factorial(list(idx).count(c))
    return out


def _random_law(rng: random.Random, m: int, n: int) -> dict:
    """Uniform random weights on the multiset classes, normalised to mass one."""
    idx = [tuple(int(v) for v in row) for row in index_array(m, n)]
    w = [rng.random() for _ in idx]
    total = math.fsum(w)
    probs = [v / total for v in w]
    target = np.asarray([p / _multiplicity(i) for i, p in zip(idx, probs)])
    return {"m": m, "n": n, "atoms": list(zip(idx, probs)), "target": target}


def make_input(workload: str, slot: Slot, entry: int, workdir: Path) -> dict:
    rng = random.Random(f"{workload}:{slot.key}:{entry}")
    p = slot.params
    if slot.kind == "power":
        a, b = rng.uniform(0.2, 1.0), -rng.uniform(0.2, 1.0)
        if rng.random() < 0.5:
            a, b = b, a
        n = p["n"]
        target = np.prod(np.asarray([a, b])[index_array(2, n)], axis=1)
        return {"m": 2, "n": n, "a": a, "b": b, "tensor": power((a, b), n), "target": target}
    if slot.kind == "signed":
        n = p["n"]
        idx = index_array(2, n)
        target = np.asarray([rng.uniform(-1.0, 1.0) for _ in idx])
        entries = {tuple(int(v) for v in i): float(t) for i, t in zip(idx, target)}
        return {"m": 2, "n": n, "tensor": SymmetricTensor(2, n, entries), "target": target}
    if slot.kind == "law":
        law = _random_law(rng, p["m"], p["n"])
        law["dist"] = exchangeable.load_distribution(law["atoms"], states=range(p["m"]),
                                                     order=p["n"])
        return law
    if slot.kind == "represent":
        law = _random_law(rng, p["m"], p["n"])
        law["path"] = workdir / f"represent-{entry}.json"
        law["text"] = json.dumps({"states": list(range(p["m"])), "order": p["n"],
                                  "atoms": [{"idx": list(i), "p": pr} for i, pr in law["atoms"]]})
        law["argv"] = ["represent", "--input", str(law["path"]), "--method", "constructive"]
        return law
    if slot.kind == "halfcircle":
        a00, a01, a11 = (rng.uniform(-1.0, 1.0) for _ in range(3))
        return {"target": np.asarray([a00, a01, a11]),
                "argv": ["euclid2", "--what", "halfcircle",
                         f"--matrix={a00!r},{a01!r},{a11!r}"]}
    if slot.kind == "decompose":
        a, b = rng.uniform(0.2, 1.0), -rng.uniform(0.2, 1.0)
        return {"a": a, "b": b, "n": p["n"],
                "argv": ["decompose", f"--a={a!r}", f"--b={b!r}", "--n", str(p["n"])]}
    return dict(p)   # fixed CLI commands


def _walk(slot: Slot, seed: int, record: dict) -> list[int]:
    """The order in which a seed visits a slot's pool; see the module docstring."""
    rng = random.Random(f"order:{seed}:{slot.key}")

    def shuffled(items):
        keys = [rng.random() for _ in items]
        return [items[i] for i in sorted(range(len(items)), key=keys.__getitem__)]

    by_cost = sorted(range(slot.pool), key=lambda j: record.get(str(j), {}).get("seconds", 0.0))
    strata = [shuffled(by_cost[i:i + STRATUM]) for i in range(0, slot.pool, STRATUM)]
    visit = shuffled(strata)
    return [stratum[k] for k in range(STRATUM) for stratum in visit if k < len(stratum)]


class Workload:
    """The slots of one workload, their input pools and a seed's walk through them."""

    def __init__(self, name: str, seed: int, workdir: Path, record: dict):
        """``record`` is the workload's part of record.json (empty: natural order)."""
        self.slots = _slots(name)
        self.pools = [[make_input(name, s, j, workdir) for j in range(s.pool)]
                      for s in self.slots]
        self.orders = [_walk(s, seed, record.get(s.key, {})) for s in self.slots]
        self.cycle = max(math.ceil(s.pool / STRATUM) for s in self.slots)

    def write_files(self) -> None:
        for pool in self.pools:
            for inp in pool:
                if "path" in inp:
                    inp["path"].parent.mkdir(parents=True, exist_ok=True)
                    inp["path"].write_text(inp["text"], encoding="utf-8")

    def sweep(self, r: int):
        """(slot, pool entry, input) for every slot of sweep r."""
        for s, pool, order in zip(self.slots, self.pools, self.orders):
            j = order[r % s.pool]
            yield s, j, pool[j]


# ---------------------------------------------------------------------------
# timed operations


def clear_caches() -> None:
    """Drop the library's memoised solves, as a fresh process would start."""
    norm_solver._kappa_cached.cache_clear()
    exchangeable._master_decomposition.cache_clear()
    norm_solver._lattice_cached.cache_clear()


def call(slot: Slot, inp: dict):
    """The timed operation: one library solve or one CLI command."""
    if slot.kind == "power":
        return norm_solver.norm_pisp(inp["tensor"], norm_solver.l1(2))
    if slot.kind == "signed":
        return norm_solver.norm_pis(inp["tensor"], norm_solver.l1(2))
    if slot.kind == "law":
        return exchangeable.represent(inp["dist"], "lp")
    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(inp["argv"])
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# checks (outside the timed region)


@dataclass
class Witness:
    """A decomposition sum_k w_k x_k^(tensor n) that should equal target."""

    m: int
    n: int
    terms: list                  # [(w, x)]
    target: np.ndarray
    upper: float | None = None   # bracket upper end its total variation must equal
    law: bool = False            # a mixing measure, whose mass must be one


@dataclass
class Outcome:
    brackets: list = field(default_factory=list)    # [(lower, upper)]
    converged: bool = True
    witnesses: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def witness_failures(wit: Witness) -> list[str]:
    if not wit.terms:
        return ["empty witness"]
    w = np.asarray([t[0] for t in wit.terms], dtype=float)
    x = np.asarray([t[1] for t in wit.terms], dtype=float).reshape(len(w), wit.m)
    cols = np.prod(x[:, index_array(wit.m, wit.n)], axis=2)
    residual = float(np.abs(w @ cols - wit.target).max())
    # rounding in a sum of large signed terms grows with their size
    size = float(np.abs(w) @ np.abs(x).max(axis=1) ** wit.n)
    scale = max(1.0, float(np.abs(wit.target).max()), size)
    out = []
    if residual > WITNESS_TOL * scale:
        out.append(f"witness residual {residual:.3g} at magnitude {scale:.3g}")
    if wit.law:
        # the mass adds up all m^n entries of the full tensor
        mass = math.fsum(w)
        if abs(mass - 1.0) > WITNESS_TOL * max(1.0, math.fsum(np.abs(w))):
            out.append(f"mixing measure mass {mass!r}")
    if wit.upper is not None:
        tv = math.fsum(np.abs(w))
        if abs(tv - wit.upper) > WITNESS_TOL * max(1.0, abs(wit.upper)):
            out.append(f"witness total variation {tv!r} != upper {wit.upper!r}")
    return out


def overlaps(bracket, stored) -> bool:
    """A bracket still overlaps its stored one, widened by the solve tolerance."""
    lo, hi = bracket
    slo, shi = stored
    widen = SOLVE_TOL * max(1.0, abs(slo), abs(shi))
    return lo <= shi + widen and hi >= slo - widen


def stored_failures(brackets, stored) -> list[str]:
    if stored is None:
        return ["no stored bracket"]
    if len(brackets) != len(stored):
        return [f"{len(brackets)} brackets against {len(stored)} on record"]
    return [f"bracket [{b[0]!r}, {b[1]!r}] misses stored [{s[0]!r}, {s[1]!r}]"
            for b, s in zip(brackets, stored) if not overlaps(b, s)]


def _power_witness(nb, inp) -> Witness:
    terms = list(nb.primal.terms) if nb.primal is not None else []
    return Witness(2, inp["n"], terms, inp["target"], upper=nb.upper)


def _wedge_target(n: int) -> np.ndarray:
    idx = index_array(n, n)
    return np.where((idx == np.arange(n)).all(axis=1), 1.0 / math.factorial(n), 0.0)


def _kappa_failures(nb: dict, n: int) -> list[str]:
    lo = n ** n / math.factorial(n)
    hi = exchangeable.uv_bound(n)
    if nb["lower"] < lo - ENVELOPE_TOL or nb["upper"] > hi + ENVELOPE_TOL:
        return [f"kappa({n}) bracket [{nb['lower']!r}, {nb['upper']!r}] "
                f"outside [{lo!r}, {hi!r}]"]
    return []


def _kappa_witness(nb: dict, n: int) -> Witness:
    terms = [(t["w"], t["x"]) for t in nb["primal"] or []]
    return Witness(n, n, terms, _wedge_target(n), upper=nb["upper"])


def inspect(slot: Slot, inp: dict, raw) -> Outcome:
    """Turn an operation's output into brackets, witnesses and failed checks."""
    if slot.kind in ("power", "signed"):
        nb = raw
        out = Outcome([(nb.lower, nb.upper)], bool(nb.converged),
                      [_power_witness(nb, inp)])
        if slot.kind == "power":
            ref = psi(inp["a"], inp["b"], inp["n"])
            widen = REFERENCE_TOL * max(1.0, abs(ref))
            if not nb.lower - widen <= ref <= nb.upper + widen:
                out.failures.append(f"psi {ref!r} outside [{nb.lower!r}, {nb.upper!r}]")
        return out
    if slot.kind == "law":
        tv = raw.total_variation
        return Outcome([(tv, tv)], bool(raw.converged),
                       [Witness(inp["m"], inp["n"], raw.atoms, inp["target"], law=True)])

    code, stdout, stderr = raw
    if code not in (0, 3):
        return Outcome(converged=False,
                       failures=[f"exit code {code}: {stderr.strip()[:200]}"])
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return Outcome(converged=False, failures=[f"stdout is not JSON: {exc}"])
    out = Outcome(converged=code == 0)
    if slot.kind == "kappa":
        n = slot.params["n"]
        out.brackets = [(payload["lower"], payload["upper"])]
        out.failures += _kappa_failures(payload, n)
        out.witnesses.append(_kappa_witness(payload, n))
    elif slot.kind == "constants":
        n = slot.params["n"]
        kb = payload["kappa"]
        out.brackets = [(kb["lower"], kb["upper"])]
        out.failures += _kappa_failures(kb, n)
        out.witnesses.append(_kappa_witness(kb, n))
    elif slot.kind == "extend":
        cols = payload["columns"]
        lo_i, hi_i = cols.index("exact_lower"), cols.index("exact_upper")
        out.brackets = [(row[lo_i], row[hi_i]) for row in payload["rows"]]
        out.failures += [f"empty bracket [{lo!r}, {hi!r}]" for lo, hi in out.brackets
                         if lo > hi + SOLVE_TOL * max(1.0, abs(hi))]
    elif slot.kind == "represent":
        atoms = [(a["w"], a["nu"]) for a in payload["atoms"]]
        out.brackets = [(payload["tv"], payload["tv"])]
        out.witnesses.append(Witness(inp["m"], inp["n"], atoms, inp["target"], law=True))
    elif slot.kind == "constants_l2":
        lo, hi = payload["verified"]["csp_sample_bracket"]
        out.brackets = [(lo, hi)]
        if hi > payload["csp"] + ENVELOPE_TOL:
            out.failures.append(f"sampled csp {hi!r} above its closed value")
    elif slot.kind == "halfcircle":
        out.brackets = [(payload["lower"], payload["upper"])]
        terms = [(t["w"], t["x"]) for t in payload["primal"] or []]
        out.witnesses.append(Witness(2, 2, terms, inp["target"], upper=payload["upper"]))
    elif slot.kind == "decompose":
        tv = payload["tv"]
        out.brackets = [(tv, tv)]
        terms = list(zip(payload["weights"], payload["nodes"]))
        target = np.prod(np.asarray([inp["a"], inp["b"]])[index_array(2, inp["n"])], axis=1)
        out.witnesses.append(Witness(2, inp["n"], terms, target, upper=tv))
        ref = psi(inp["a"], inp["b"], inp["n"])
        if abs(tv - ref) > REFERENCE_TOL * max(1.0, abs(ref)):
            out.failures.append(f"decomposition cost {tv!r} != psi {ref!r}")
    return out


def check(slot: Slot, inp: dict, raw) -> Outcome:
    """The checks of one operation that need no record; see stored_failures."""
    try:
        out = inspect(slot, inp, raw)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return Outcome(converged=False, failures=[f"malformed result: {exc!r}"])
    for wit in out.witnesses:
        out.failures += witness_failures(wit)
    return out
