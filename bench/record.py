"""Record the bracket and solve time of every pool input into record.json.

    python3 bench/record.py [WORKLOAD ...]

Run from the root of a source checkout, on an otherwise idle machine.
Each input of each slot's pool is solved once and checked.  Its brackets
are stored under workload, slot and pool entry, and run.py counts an
operation as failed when its bracket no longer overlaps the stored one.
For represent(..., "lp") the stored bracket is the certified [lower, upper]
of the underlying norm_pisp solve, which the mixing measure's total
variation must fall inside.  The solve time only sorts a pool into strata
(see workloads.py).  Re-record only in a change that redefines the
benchmark, never in one that claims a gain.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run


def record(wl_mod, name: str) -> dict:
    work = wl_mod.Workload(name, run.DEFAULT_SEED, run.WORKDIR, {})
    work.write_files()
    out = {}
    for slot, pool in zip(work.slots, work.pools):
        entries = {}
        for j, inp in enumerate(pool):
            t0 = time.perf_counter()
            raw = wl_mod.call(slot, inp)
            seconds = time.perf_counter() - t0
            res = wl_mod.check(slot, inp, raw)
            if res.failures:
                raise SystemExit(f"{name} {slot.key}#{j} fails its checks: {res.failures}")
            brackets = [list(b) for b in res.brackets]
            if slot.kind == "law":
                ns = wl_mod.norm_solver
                nb = ns.norm_pisp(inp["dist"].tensor, ns.l1(inp["m"]))
                brackets = [[nb.lower, nb.upper]]
            entries[str(j)] = {"brackets": brackets, "seconds": round(seconds, 4)}
        out[slot.key] = entries
        print(f"{name} {slot.key}: {len(pool)} entries", flush=True)
    return out


def main(names) -> int:
    wl_mod = run._import_library()
    store = json.loads(run.RECORD.read_text()) if run.RECORD.exists() else {}
    try:
        for name in names or wl_mod.WORKLOADS:
            store[name] = record(wl_mod, name)
    finally:
        shutil.rmtree(run.WORKDIR, ignore_errors=True)
    run.RECORD.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
