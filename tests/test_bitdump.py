"""``tools/bitdump.py``: ``--diff`` (which entries of two dumps differ, and by how
much) and ``--lp`` (the size, status and bits of every master LP)."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from tensornorm.lp_engine import solve_min_tv

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bitdump.py"


def _law(tv: float) -> dict:
    return {"type": "SignedMixingMeasure",
            "fields": {"atoms": [], "converged": True, "total_variation": tv.hex()}}


def _extend(upper: float) -> list:
    table = {"columns": ["N", "lower", "exact_upper"], "rows": [[4, 1.5, upper]]}
    return [0, json.dumps(table), ""]


OLD = {
    "simplex/law-m3-n2/0": _law(1.5),
    "simplex/law-m3-n2/1": _law(2.0),
    "symmetric_cli/extend-n4/0": _extend(2.0),
    "symmetric_cli/kappa-n3/0": [0, "{}", ""],
    "two_state/power-n4/0": {"type": "NormBounds",
                             "fields": {"lower": (1.0).hex(), "upper": (1.0).hex(),
                                        "iterations": 3}},
}


def _diff(tmp_path, old, new):
    paths = []
    for name, dump in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(dump), encoding="utf-8")
    return subprocess.run([sys.executable, str(TOOL), "--diff", *map(str, paths)],
                          capture_output=True, text=True, timeout=60)


def test_equal_dumps_exit_0(tmp_path):
    done = _diff(tmp_path, OLD, OLD)
    assert done.returncode == 0
    assert done.stdout.splitlines() == ["simplex: 0 of 2 entries differ",
                                        "symmetric_cli: 0 of 2 entries differ",
                                        "two_state: 0 of 1 entries differ"]


def test_moved_entries_are_listed(tmp_path):
    new = json.loads(json.dumps(OLD))
    new["simplex/law-m3-n2/1"] = _law(2.0 * (1 - 7e-6))
    new["symmetric_cli/extend-n4/0"] = _extend(2.0000001)
    new["two_state/power-n4/0"]["fields"]["iterations"] = 4
    del new["symmetric_cli/kappa-n3/0"]
    done = _diff(tmp_path, OLD, new)
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "simplex: 1 of 2 entries differ",
        "  simplex/law-m3-n2/1: 7.00e-06 relative, at /fields/total_variation",
        "symmetric_cli: 2 of 2 entries differ",
        "  symmetric_cli/extend-n4/0: 5.00e-08 relative, at /1/rows/0/exact_upper",
        "  symmetric_cli/kappa-n3/0: only in OLD",
        "two_state: 1 of 1 entries differ",
        "  two_state/power-n4/0: no bracket end moved",
    ]


def test_cli_battery_dumps_group_as_cli(tmp_path):
    old = {"kappa --n 2 --format json": {"exit": 0, "stdout": '{"lower": 3, "upper": 3}'}}
    new = {"kappa --n 2 --format json": {"exit": 0, "stdout": '{"lower": 3, "upper": 3.5}'}}
    done = _diff(tmp_path, old, new)
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "cli: 1 of 1 entries differ",
        "  kappa --n 2 --format json: 1.67e-01 relative, at /stdout/upper"]


def test_diff_needs_two_dumps(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(OLD), encoding="utf-8")
    done = subprocess.run([sys.executable, str(TOOL), "--diff", str(path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""


# one optimal and one infeasible master, each solved by a workload of a
# hand-made checkout through lp_engine
MASTERS = {"two_state": ([(1.0, 0.0), (1.0, 1.0), (0.0, -2.0)], (2.0, -1.0)),
           "simplex": ([(1.0, 1.0)], (1.0, -1.0))}
FAKE_WORKLOADS = f'''
from tensornorm import lp_engine

MASTERS = {MASTERS!r}


class Slot:
    key = "master"


class Workload:
    def __init__(self, name, seed, workdir, record):
        self.name, self.cycle = name, 1

    def write_files(self):
        pass

    def sweep(self, r):
        if self.name in MASTERS:
            yield Slot(), 0, MASTERS[self.name]


def call(slot, master):
    return lp_engine.solve_min_tv(*master)
'''


def test_lp_dump_records_each_master(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "bench").mkdir(parents=True)
    (checkout / "src").symlink_to(TOOL.parent.parent / "src")
    (checkout / "bench" / "workloads.py").write_text(FAKE_WORKLOADS, encoding="utf-8")
    record = {name: {} for name in ("two_state", "simplex", "symmetric_cli")}
    (checkout / "bench" / "record.json").write_text(json.dumps(record), encoding="utf-8")
    out = tmp_path / "lp.json"
    done = subprocess.run([sys.executable, str(TOOL), "--lp", str(checkout), str(out)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    dump = json.loads(out.read_text(encoding="utf-8"))

    want = {}
    for key, (cols, target) in MASTERS.items():
        sol = solve_min_tv(cols, target)
        digest = hashlib.sha256(sol.weights.tobytes() + sol.dual.tobytes()
                                + np.float64(sol.objective).tobytes())
        want[f"{key}/0/master/0/0"] = {"rows": 2, "columns": len(cols), "status": sol.status,
                                       "iterations": sol.iterations,
                                       "sha256": digest.hexdigest()}
    assert dump == want
    assert [v["status"] for v in dump.values()] == ["infeasible", "optimal"]

    moved = json.loads(json.dumps(dump))
    moved["two_state/0/master/0/0"]["sha256"] = "0" * 64
    done = _diff(tmp_path, dump, moved)
    assert done.returncode == 1
    assert done.stdout.splitlines() == ["simplex: 0 of 1 entries differ",
                                        "two_state: 1 of 1 entries differ",
                                        "  two_state/0/master/0/0: no bracket end moved"]
