"""Dump every benchmark pool result of a checkout, bit for bit.

    python3 tools/bitdump.py CHECKOUT OUT.json
    python3 tools/bitdump.py --cli CHECKOUT OUT.json
    python3 tools/bitdump.py --lp CHECKOUT OUT.json
    python3 tools/bitdump.py --diff OLD.json NEW.json

Imports ``tensornorm`` from ``CHECKOUT/src`` and the inputs and operations
from ``CHECKOUT/bench/workloads.py``, both unchanged, and runs every pool
entry of the ``two_state``, ``simplex`` and ``symmetric_cli`` workloads once.
Each result is written with every float as its hex form, together with the
CLI exit codes, stdout and stderr, as JSON with sorted keys.  Two checkouts
compute the same bits exactly when their dumps are equal byte for byte:

    python3 tools/bitdump.py OLD old.json
    python3 tools/bitdump.py NEW new.json
    cmp old.json new.json

One checkout takes about 2.5 minutes on 2 cores.

With ``--cli`` it runs a fixed battery of 122 command lines through
``tensornorm.cli.main`` instead (every subcommand in every ``--format``,
rational ``psi``, runs that exit 3, ``--output``, negative numbers,
permutation-invariant solves off the benchmark pools (up to chi_4,48 on
l1^48), count classes on m states, the order-8 constants and rejected
input).  It records each command's exit code and stdout, the file
``--output`` wrote, and stderr where the exit code is 0 or 3; the wording
of a rejection on stderr is not recorded.  An uncaught exception is recorded as exit 1, the code the
process would exit with.  It touches nothing but ``cli.main``, so any two
checkouts compare with one ``cmp``, in about 6 seconds each on 2 cores,
most of it ``extend-bounds --n 3 --m 3 --N 3..6 --exact``.  Checkouts that
expand the orbit results to the full shape take about 11 seconds, most of it
``extend-bounds --n 4 --N 48 --exact``; those that solve the
permutation-invariant commands over the full l1^N master, without orbit
reduction, take far longer.

With ``--lp`` it runs one seed-1 cycle of each workload instead, in the order
``bench/run.py`` walks it, with ``lp_engine.solve_min_tv`` wrapped, and
records every master LP: its rows, columns, status, iterations and one
sha256 over the bytes of its weights, dual and objective, keyed by workload,
sweep, slot, pool entry and the master's place within the operation.  Two
checkouts whose LP engines agree bit for bit on these masters give dumps
equal under ``cmp``, in about 20 seconds each on 2 cores.

With ``--diff`` it compares two dumps of any kind.  For each workload
(``cli`` for a battery) it prints how many entries differ, and for each
differing entry its key and the largest relative move of any bracket end
in it: a field named ``lower``, ``upper``, ``total_variation`` or ``tv``
(or ending so, as ``exact_upper``) or a two-element ``..._bracket``, also
inside JSON on stdout and in the rows of a table.  An entry whose bracket
ends all kept their bits differs elsewhere (round counts, atoms, text).
It exits 1 when any entry differs and 0 when the dumps hold the same
entries with the same bits.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # as the benchmark runs: one BLAS thread

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

WORKLOADS = ("two_state", "simplex", "symmetric_cli")


def _import_tensornorm(checkout: Path):
    sys.path.insert(0, str(checkout / "src"))
    import tensornorm
    if Path(tensornorm.__file__).resolve().parent != (checkout / "src" / "tensornorm").resolve():
        raise SystemExit(f"imported tensornorm from {tensornorm.__file__}, not {checkout}/src")
    return tensornorm


def _load_workloads(checkout: Path):
    _import_tensornorm(checkout)
    path = checkout / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def plain(obj):
    """obj as JSON data: floats as hex, Fractions tagged, dataclasses by field."""
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, Fraction):
        return {"fraction": str(obj)}
    if isinstance(obj, np.ndarray):
        return {"dtype": str(obj.dtype), "values": plain(obj.tolist())}
    if dataclasses.is_dataclass(obj):
        fields = {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        return {"type": type(obj).__name__, "fields": fields}
    if isinstance(obj, dict):
        return {repr(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    raise TypeError(f"cannot dump {type(obj)!r}")


def dump(checkout: Path) -> dict:
    workloads = _load_workloads(checkout)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            wl = workloads.Workload(name, 1, Path(tmp) / name, {})
            wl.write_files()
            for slot, pool in zip(wl.slots, wl.pools):
                for j, inp in enumerate(pool):
                    out[f"{name}/{slot.key}/{j}"] = plain(workloads.call(slot, inp))
            print(f"{name}: {sum(len(p) for p in wl.pools)} entries", file=sys.stderr)
    return out


def dump_lp(checkout: Path) -> dict:
    workloads = _load_workloads(checkout)
    lp_engine = importlib.import_module("tensornorm.lp_engine")
    record = json.loads((checkout / "bench" / "record.json").read_text(encoding="utf-8"))
    solve, masters = lp_engine.solve_min_tv, []

    def recorded(columns, target, *args, **kwargs):
        sol = solve(columns, target, *args, **kwargs)
        digest = hashlib.sha256()
        for part in (sol.weights, sol.dual, sol.objective):
            digest.update(np.asarray(part, dtype=float).tobytes())
        masters.append({"rows": len(target), "columns": len(columns), "status": sol.status,
                        "iterations": sol.iterations, "sha256": digest.hexdigest()})
        return sol

    out = {}
    lp_engine.solve_min_tv = recorded
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name in WORKLOADS:
                wl = workloads.Workload(name, 1, Path(tmp) / name, record[name])
                wl.write_files()
                n_masters = len(out)
                for r in range(wl.cycle):
                    for slot, j, inp in wl.sweep(r):
                        masters.clear()
                        workloads.call(slot, inp)
                        out.update((f"{name}/{r}/{slot.key}/{j}/{k}", m)
                                   for k, m in enumerate(masters))
                print(f"{name}: {len(out) - n_masters} masters", file=sys.stderr)
    finally:
        lp_engine.solve_min_tv = solve
    return out


# {dir} is a scratch directory that holds the laws below; {out} is a file in it
LAWS = {
    "coin.json": {"order": 2, "states": [0, 1],
                  "atoms": [{"idx": [0, 0], "p": 0.25}, {"idx": [0, 1], "p": 0.5},
                            {"idx": [1, 1], "p": 0.25}]},
    "order5.json": {"order": 5, "states": [0, 1],
                    "atoms": [{"idx": [0, 1, 1, 1, 1], "p": 0.5},
                              {"idx": [0, 0, 1, 1, 1], "p": 0.3},
                              {"idx": [1, 1, 1, 1, 1], "p": 0.2}]},
    # rejected: states not a list, order not a positive int, an empty index
    "states5.json": {"states": 5, "atoms": [{"idx": [0, 1], "p": 1.0}]},
    "order2.0.json": {"order": 2.0, "atoms": [{"idx": [0, 1], "p": 1.0}]},
    "order-str.json": {"order": "2", "atoms": [{"idx": [0, 1], "p": 1.0}]},
    "empty-idx.json": {"atoms": [{"idx": [], "p": 1.0}]},
}
FORMATS = ("json", "csv", "table")
CLI_EACH_FORMAT = [
    ["psi", "--a", "1", "--b", "-1", "--n", "3"],
    ["psi", "--a", "2", "--b", "3", "--n", "2"],
    ["psi", "--a", "1.5", "--b", "-0.5", "--n", "2", "--arithmetic", "rational"],
    ["psi", "--a", "0.25", "--b", "-0.5", "--n", "1", "--arithmetic", "rational"],
    ["decompose", "--a", "2", "--b", "-1", "--n", "2"],
    ["decompose", "--a", "0.7", "--b", "-0.3", "--n", "5"],
    ["kappa", "--n", "2"],
    ["kappa", "--n", "3"],
    ["kappa", "--n", "3", "--max-iters", "2"],
    ["kappa", "--n", "5", "--max-iters", "2"],                  # exit 3
    ["constants", "--n", "2"],
    ["constants", "--n", "3", "--max-iters", "2"],
    ["constants", "--n", "5", "--max-iters", "2"],              # exit 3
    ["constants", "--space", "l2"],
    ["represent", "--input", "{dir}/coin.json"],
    ["represent", "--input", "{dir}/coin.json", "--method", "constructive"],
    ["represent", "--input", "{dir}/order5.json", "--method", "constructive"],
    ["chi", "--n", "2", "--N", "3"],
    ["extend-bounds", "--n", "2", "--N", "2..4"],
    ["extend-bounds", "--n", "2", "--N", "3..4", "--exact", "--max-iters", "1"],
    ["extend-bounds", "--n", "5", "--N", "5..6", "--exact", "--max-iters", "1"],  # exit 3
    ["extend-bounds", "--n", "3", "--m", "2", "--N", "3..4", "--exact"],
    ["euclid2", "--what", "norms", "--a", "1", "--b", "-1"],
    ["euclid2", "--what", "points", "--kind", "pip", "--resolution", "8"],
    ["euclid2", "--what", "halfcircle", "--matrix", "0,1,0"],
]
CLI_ONCE = [
    ["psi", "--a", "2", "--b", "-1", "--n", "2", "--output", "{out}"],
    ["kappa", "--n", "2", "--format", "table", "--output", "{out}"],
    ["extend-bounds", "--n", "2", "--N", "2..3", "--format", "csv", "--output", "{out}"],
    ["kappa", "--n", "4", "--max-iters", "1", "--output", "{out}"],
    ["kappa", "--n", "5", "--max-iters", "1", "--output", "{out}"],       # exit 3
    # permutation-invariant solves off the benchmark pools
    ["kappa", "--n", "5"],
    ["extend-bounds", "--n", "4", "--N", "4..8", "--exact"],
    ["extend-bounds", "--n", "3", "--N", "3..20", "--exact"],
    ["extend-bounds", "--n", "5", "--N", "8", "--exact"],
    ["extend-bounds", "--n", "3", "--N", "96", "--exact"],   # large N on the orbit master
    ["extend-bounds", "--n", "4", "--N", "48", "--exact"],
    # count classes on m states, and the power-ratio constant at order 8
    ["extend-bounds", "--n", "4", "--m", "2", "--N", "4..8", "--exact"],
    ["extend-bounds", "--n", "3", "--m", "3", "--N", "3..6", "--exact"],
    ["constants", "--n", "8"],
    # negative numbers in exponent notation are values
    ["psi", "--a", "-1e5", "--b", "1", "--n", "2"],
    ["euclid2", "--what", "norms", "--a", "1", "--b", "-1e308"],
    ["euclid2", "--what", "halfcircle", "--matrix", "-0.5,0.1,0.2"],
    ["euclid2", "--what", "halfcircle", "--matrix=-0.5,0.1,0.2"],
    # rejected input: exit 2
    ["psi", "--a", "1", "--b", "1", "--n", "0"],
    ["decompose", "--a", "1", "--b", "-1", "--n", "0"],
    ["kappa", "--n", "0"],
    ["kappa", "--n", "x"],
    ["kappa", "--n", "2", "--tol", "nan"],
    ["kappa", "--n", "2", "--max-iters", "-1"],
    ["constants", "--n", "0"],
    ["constants", "--space", "l2", "--n", "0"],
    ["chi", "--n", "3", "--N", "2"],
    ["extend-bounds", "--n", "3", "--m", "4", "--N", "4"],
    ["extend-bounds", "--n", "2", "--N", "5..3"],
    ["extend-bounds", "--n", "2", "--N", "5.."],
    ["extend-bounds", "--n", "2", "--N", "x"],
    ["euclid2", "--what", "points", "--kind", "pip", "--resolution", "2"],
    ["euclid2", "--what", "halfcircle"],
    ["euclid2", "--what", "halfcircle", "--matrix", "1,2"],
    ["euclid2", "--what", "halfcircle", "--matrix", "nan,0,0"],
    ["represent", "--input", "{dir}/missing.json"],
    ["represent", "--input", "{dir}/missing.json", "--output", "{out}"],
    ["represent", "--input", "{dir}/states5.json"],
    ["represent", "--input", "{dir}/order2.0.json"],
    ["represent", "--input", "{dir}/order-str.json"],
    ["represent", "--input", "{dir}/empty-idx.json"],
    ["kappa", "--n", "2", "--output", "{dir}/missing/out.txt"],
    ["kappa", "--n", "2", "--seed", "1"],
    ["psi", "--a", "-x", "--b", "1", "--n", "2"],
    ["psi", "--a", "1e200", "--b", "-1", "--n", "2"],
    ["psi", "--a", "1e308", "--b", "1", "--n", "2"],
    ["decompose", "--a", "1e200", "--b", "-1", "--n", "3"],
]


def dump_cli(checkout: Path) -> dict:
    _import_tensornorm(checkout)
    cli = importlib.import_module("tensornorm.cli")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, law in LAWS.items():
            (Path(tmp) / name).write_text(json.dumps(law), encoding="utf-8")
        target = Path(tmp) / "out.txt"
        each = [argv + ["--format", fmt] for argv in CLI_EACH_FORMAT for fmt in FORMATS]
        for argv in each + CLI_ONCE:
            target.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main([a.format(dir=tmp, out=target) for a in argv])
                except Exception:  # a traceback: the process would exit 1
                    code = 1
            record = {"exit": code, "stdout": stdout.getvalue()}
            if code in (0, 3):
                record["stderr"] = stderr.getvalue()
            if target.exists():
                record["output"] = target.read_text(encoding="utf-8")
            out[" ".join(argv)] = record
    return out


BRACKET_ENDS = ("lower", "upper", "total_variation", "tv")


def _number(value):
    """A dumped float (its hex form) or a JSON number as a float, else None."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        with contextlib.suppress(ValueError):
            return float.fromhex(value)
    return None


def bracket_ends(entry, path="") -> dict:
    """{path: float} for every bracket end in a dumped entry."""
    if isinstance(entry, str) and entry[:1] in "{[":
        with contextlib.suppress(ValueError):   # CLI stdout in --format json
            return bracket_ends(json.loads(entry), path)
    out = {}
    if isinstance(entry, dict):
        if isinstance(entry.get("columns"), list) and isinstance(entry.get("rows"), list):
            entry = dict(entry, rows=[dict(zip(entry["columns"], row))
                                      for row in entry["rows"]])
        for key, value in entry.items():
            if key.endswith("bracket") and isinstance(value, list) and len(value) == 2:
                value = dict(zip(("lower", "upper"), value))
            if key.endswith(BRACKET_ENDS) and _number(value) is not None:
                out[f"{path}/{key}"] = _number(value)
            else:
                out.update(bracket_ends(value, f"{path}/{key}"))
    elif isinstance(entry, list):
        for i, value in enumerate(entry):
            out.update(bracket_ends(value, f"{path}/{i}"))
    return out


def largest_move(old, new) -> tuple[float, str]:
    """(relative move, path) of the bracket end that moved most; (0.0, '') if none did."""
    a, b = bracket_ends(old), bracket_ends(new)
    best = (0.0, "")
    for path in sorted(a.keys() & b.keys()):
        x, y = a[path], b[path]
        if x.hex() != y.hex():
            move = abs(y - x) / abs(x) if x else math.inf
            best = max(best, (math.inf if math.isnan(move) else move, path))
    return best


def diff(old: dict, new: dict) -> int:
    """Print the entries of two dumps that differ, by workload; 1 if any does."""
    groups: dict = {}
    for key in sorted(old.keys() | new.keys()):
        head = key.split("/", 1)[0]
        groups.setdefault(head if head in WORKLOADS else "cli", []).append(key)
    differs = 0
    for group, keys in groups.items():
        moved = [k for k in keys if k not in old or k not in new or old[k] != new[k]]
        differs += len(moved)
        print(f"{group}: {len(moved)} of {len(keys)} entries differ")
        for key in moved:
            if key not in old or key not in new:
                print(f"  {key}: only in {'NEW' if key in new else 'OLD'}")
                continue
            move, path = largest_move(old[key], new[key])
            print(f"  {key}: " + (f"{move:.2e} relative, at {path}" if path
                                  else "no bracket end moved"))
    return 1 if differs else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    mode = argv[0] if argv[:1] in (["--cli"], ["--lp"], ["--diff"]) else None
    argv = argv[1:] if mode else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    if mode == "--diff":
        return diff(*(json.loads(Path(a).read_text(encoding="utf-8")) for a in argv))
    checkout, target = Path(argv[0]).resolve(), Path(argv[1])
    result = {None: dump, "--cli": dump_cli, "--lp": dump_lp}[mode](checkout)
    target.write_text(json.dumps(result, sort_keys=True, indent=0) + "\n", encoding="utf-8")
    print(f"{len(result)} entries -> {target}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
