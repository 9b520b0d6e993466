"""Dump every benchmark pool result of a checkout, bit for bit.

    python3 tools/bitdump.py CHECKOUT OUT.json

Imports ``tensornorm`` from ``CHECKOUT/src`` and the inputs and operations
from ``CHECKOUT/bench/workloads.py``, both unchanged, and runs every pool
entry of the ``two_state``, ``simplex`` and ``symmetric_cli`` workloads once.
Each result is written with every float as its hex form, together with the
CLI exit codes, stdout and stderr, as JSON with sorted keys.  Two checkouts
compute the same bits exactly when their dumps are equal byte for byte:

    python3 tools/bitdump.py OLD old.json
    python3 tools/bitdump.py NEW new.json
    cmp old.json new.json

One checkout takes about 4.5 minutes on 2 cores.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # as the benchmark runs: one BLAS thread

import dataclasses  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

WORKLOADS = ("two_state", "simplex", "symmetric_cli")


def _load_workloads(checkout: Path):
    sys.path.insert(0, str(checkout / "src"))
    import tensornorm
    if Path(tensornorm.__file__).resolve().parent != (checkout / "src" / "tensornorm").resolve():
        raise SystemExit(f"imported tensornorm from {tensornorm.__file__}, not {checkout}/src")
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    checkout, target = Path(argv[0]).resolve(), Path(argv[1])
    result = dump(checkout)
    target.write_text(json.dumps(result, sort_keys=True, indent=0) + "\n", encoding="utf-8")
    print(f"{len(result)} entries -> {target}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
