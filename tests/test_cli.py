import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tensornorm import cli

CMD = [sys.executable, "-m", "tensornorm.cli"]
# the child must import the package this test process imported
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])


def run_cli(*args, stdin=None, env=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, full_env.get("PYTHONPATH")) if p)
    if env:
        full_env.update(env)
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          input=stdin, env=full_env)


COIN = json.dumps({"order": 2, "states": [0, 1],
                   "atoms": [{"idx": [0, 0], "p": 0.25},
                             {"idx": [0, 1], "p": 0.5},
                             {"idx": [1, 1], "p": 0.25}]})


class TestPsi:
    def test_closed_form_value(self):
        r = run_cli("psi", "--a", "1", "--b", "-1", "--n", "3")
        assert r.returncode == 0
        assert r.stdout.strip() == "32"

    def test_rational_mode(self):
        # sum_r C(4, 2r) (3/2)^(2-r) (1/2)^r = 9/4 + 9/2 + 1/4 = 7
        r = run_cli("psi", "--a", "1.5", "--b", "-0.5", "--n", "2",
                    "--arithmetic", "rational")
        assert r.returncode == 0
        assert r.stdout.strip() == '"7"'
        # a case with a non-integer value: psi(1/2, -1/2, 2) = 2^3 / 4 = 2
        r = run_cli("psi", "--a", "0.25", "--b", "-0.5", "--n", "1",
                    "--arithmetic", "rational")
        assert r.stdout.strip() == '"3/4"'

    def test_rejects_bad_order(self):
        r = run_cli("psi", "--a", "1", "--b", "1", "--n", "0")
        assert r.returncode == 2
        assert "error" in r.stderr


class TestKappa:
    def test_order_two_json(self):
        r = run_cli("kappa", "--n", "2")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["lower"] == pytest.approx(3.0, abs=1e-9)
        assert payload["upper"] == pytest.approx(3.0, abs=1e-9)
        assert payload["converged"] is True
        assert len(payload["primal"]) == 3

    def test_non_converged_exit_code(self):
        r = run_cli("kappa", "--n", "4", "--max-iters", "1")
        assert r.returncode == 3
        payload = json.loads(r.stdout)
        assert payload["converged"] is False

    def test_env_override_wins(self):
        r = run_cli("kappa", "--n", "4", "--max-iters", "200",
                    env={"TENSORNORM_MAX_ITERS": "1"})
        assert r.returncode == 3


class TestRepresent:
    def test_iid_coin_single_atom(self):
        r = run_cli("represent", "--input", "-", stdin=COIN)
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["tv"] == pytest.approx(1.0, abs=1e-8)
        assert len(payload["atoms"]) == 1
        assert payload["atoms"][0]["nu"] == pytest.approx([0.5, 0.5])
        assert payload["residual"] <= 1e-9

    def test_malformed_json_is_line_anchored(self):
        r = run_cli("represent", "--input", "-", stdin="{\n  broken\n}")
        assert r.returncode == 2
        assert "input:2:" in r.stderr

    def test_missing_file(self):
        r = run_cli("represent", "--input", "/nonexistent/x.json")
        assert r.returncode == 2


class TestChi:
    def test_chi_23(self):
        r = run_cli("chi", "--n", "2", "--N", "3")
        payload = json.loads(r.stdout)
        assert payload["dim"] == 3 and payload["order"] == 2
        assert len(payload["entries"]) == 3
        for e in payload["entries"]:
            assert e["v"] == pytest.approx(1 / 6)

    def test_invalid(self):
        assert run_cli("chi", "--n", "3", "--N", "2").returncode == 2


class TestExtendBounds:
    def test_range_json(self):
        r = run_cli("extend-bounds", "--n", "2", "--N", "2..4")
        payload = json.loads(r.stdout)
        assert [row[1] for row in payload["rows"]] == [2, 3, 4]
        # upper at N=3 is exactly 3
        assert payload["rows"][1][4] == pytest.approx(3.0)

    def test_csv_matches_json(self):
        j = json.loads(run_cli("extend-bounds", "--n", "2", "--N", "3").stdout)
        c = run_cli("extend-bounds", "--n", "2", "--N", "3", "--format", "csv").stdout
        lines = c.strip().splitlines()
        assert lines[0] == "n,N,m,lower,upper,exact_lower,exact_upper"
        cells = lines[1].split(",")
        assert float(cells[3]) == pytest.approx(j["rows"][0][3])
        assert float(cells[4]) == pytest.approx(j["rows"][0][4])

    def test_bad_range(self):
        assert run_cli("extend-bounds", "--n", "2", "--N", "5..3").returncode == 2


class TestEuclid2:
    def test_norms(self):
        r = run_cli("euclid2", "--what", "norms", "--a", "1", "--b", "-1")
        payload = json.loads(r.stdout)
        assert (payload["pi"], payload["pisp"], payload["pip"]) == (2, 6, 4)

    def test_points_csv(self):
        r = run_cli("euclid2", "--what", "points", "--kind", "pip",
                    "--resolution", "8", "--format", "csv")
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "u,v,w"
        assert len(lines) > 16

    def test_halfcircle(self):
        r = run_cli("euclid2", "--what", "halfcircle", "--matrix", "0,1,0")
        payload = json.loads(r.stdout)
        assert payload["lower"] == pytest.approx(4.0, abs=1e-8)


class TestDeterminism:
    def test_byte_identical_runs(self):
        a = run_cli("kappa", "--n", "3").stdout
        b = run_cli("kappa", "--n", "3").stdout
        assert a == b

    def test_constants_deterministic(self):
        a = run_cli("constants", "--n", "2").stdout
        b = run_cli("constants", "--n", "2").stdout
        assert a == b and json.loads(a)["kappa"]["upper"] == pytest.approx(3.0)

    def test_output_file(self, tmp_path):
        path = tmp_path / "out.json"
        r = run_cli("psi", "--a", "2", "--b", "-1", "--n", "2",
                    "--output", str(path))
        assert r.returncode == 0
        assert path.read_text().strip() == "17"


SUBCOMMANDS = {
    "psi": ["--a", "1", "--b", "-1", "--n", "2"],
    "decompose": ["--a", "2", "--b", "-1", "--n", "2"],
    "kappa": ["--n", "2"],
    "constants": ["--n", "2"],
    "represent": ["--input", None],
    "chi": ["--n", "2", "--N", "3"],
    "extend-bounds": ["--n", "2", "--N", "2"],
    "euclid2": ["--what", "norms", "--a", "1", "--b", "-1"],
}
SOLVER_COMMANDS = {"kappa", "constants", "represent", "extend-bounds", "euclid2"}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_flags_only_where_read(command, tmp_path, capsys):
    coin = tmp_path / "coin.json"
    coin.write_text(COIN)
    argv = [command] + [str(coin) if a is None else a for a in SUBCOMMANDS[command]]
    out = tmp_path / "out.txt"
    assert cli.main(argv + ["--format", "csv", "--output", str(out)]) == 0
    assert out.read_text()
    assert cli.main(argv + ["--seed", "1"]) == 2
    solver = cli.main(argv + ["--tol", "1e-7", "--max-iters", "200"])
    assert solver == (0 if command in SOLVER_COMMANDS else 2)
    rational = cli.main(argv + ["--arithmetic", "rational"])
    assert rational == (0 if command == "psi" else 2)
    capsys.readouterr()
