"""``tools/bitdump.py --diff``: which entries of two dumps differ, and by how much."""

import json
import subprocess
import sys
from pathlib import Path

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
