import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tensornorm import cli

CMD = [sys.executable, "-m", "tensornorm.cli"]
# the child must import the package this test process imported
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])


def run_cli(*args, stdin=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, full_env.get("PYTHONPATH")) if p)
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
        # kappa(5) takes 15 rounds; kappa(3) and kappa(4) converge in round 1
        r = run_cli("kappa", "--n", "5", "--max-iters", "1")
        assert r.returncode == 3
        payload = json.loads(r.stdout)
        assert payload["converged"] is False


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

    def test_constants_only_under_constants(self, capsys):
        # the plane constants have one command: constants --space l2
        assert cli.main(["euclid2", "--what", "constants"]) == 2
        assert cli.main(["constants", "--space", "l2"]) == 0
        assert json.loads(capsys.readouterr().out)["csp"] == 3


class TestNonFiniteInput:
    """Non-finite and non-integral input stops at the boundary with exit 2."""

    @pytest.mark.parametrize("argv", [
        ["psi", "--a", "inf", "--b", "-1", "--n", "2", "--arithmetic", "rational"],
        ["psi", "--a", "1", "--b", "nan", "--n", "2"],
        ["decompose", "--a", "nan", "--b", "-1", "--n", "3"],
        ["decompose", "--a", "1", "--b", "-inf", "--n", "3"],
        ["euclid2", "--what", "norms", "--a", "nan"],
        ["euclid2", "--what", "halfcircle", "--matrix", "nan,0,0"],
        ["euclid2", "--what", "halfcircle", "--matrix", "inf,0,0"],
        ["euclid2", "--what", "halfcircle", "--matrix", "1,-inf,0"],
        ["kappa", "--n", "2", "--tol", "nan"],
        ["kappa", "--n", "2", "--tol", "inf"],
        ["kappa", "--n", "2", "--tol", "-1"],
        ["kappa", "--n", "2", "--max-iters", "-5"],
        ["kappa", "--n", "2", "--max-iters", "1.5"],
        ["psi", "--a", "1", "--b", "-1", "--n", "0"],
        ["decompose", "--a", "1", "--b", "-1", "--n", "0"],
        ["kappa", "--n", "0"],
        ["constants", "--n", "0"],
        ["constants", "--space", "l2", "--n", "0"],
    ], ids=" ".join)
    def test_rejected_with_exit_2(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err and captured.out == ""

    @pytest.mark.parametrize("atoms, states", [
        ([{"idx": [0, 0], "p": float("nan")}, {"idx": [0, 1], "p": 1.0}], None),
        ([{"idx": [0, 1], "p": float("inf")}], [0, 1]),
        ([{"idx": [0.9, 1.2], "p": 1.0}], [0, 1]),
        ([{"idx": [0.9, 1.2], "p": 1.0}], None),
        ([{"idx": [0, float("nan")], "p": 1.0}], [0, 1]),
    ])
    def test_bad_distribution_rejected(self, atoms, states, tmp_path, capsys):
        payload = {"order": 2, "atoms": atoms}
        if states is not None:
            payload["states"] = states
        path = tmp_path / "law.json"
        path.write_text(json.dumps(payload))   # NaN and Infinity as Python's json writes them
        assert cli.main(["represent", "--input", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_boundary_values_still_accepted(self, capsys):
        # a zero tolerance and a zero round cap are valid requests
        assert cli.main(["kappa", "--n", "2", "--tol", "0"]) == 0
        assert cli.main(["kappa", "--n", "2", "--max-iters", "0"]) == 3
        assert cli.main(["psi", "--a", "-0", "--b", "1e308", "--n", "1"]) == 0
        capsys.readouterr()


class TestOutOfRange:
    """A finite input whose result exceeds a double ends in exit 2, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["psi", "--a", "1e200", "--b", "-1", "--n", "2"],
        ["psi", "--a", "1e308", "--b", "1", "--n", "2"],
        ["decompose", "--a", "1e200", "--b", "-1", "--n", "3"],
        ["euclid2", "--what", "norms", "--a", "1", "--b", "-1e308"],
    ], ids=" ".join)
    def test_exit_2(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: result out of range\n")


class TestRejectedInputText:
    """A ValueError from any command prints only `error: <message>` and exits 2."""

    @pytest.mark.parametrize("argv, err", [
        (["euclid2", "--what", "points", "--kind", "pip", "--resolution", "2"],
         "error: resolution must be at least 4\n"),
        (["extend-bounds", "--n", "3", "--m", "4", "--N", "4"],
         "error: need N >= n >= m >= 1\n"),
        (["represent", "--input", "{law}"], "error: input:1:1: Expecting value\n"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_exact_text(self, argv, err, tmp_path, capsys):
        law = tmp_path / "law.json"
        law.write_text("not json")
        assert cli.main([a.format(law=law) for a in argv]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)

    def test_library_value_error_in_any_command(self, monkeypatch, capsys):
        # kappa has no handler of its own; numpy's LinAlgError is a ValueError
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli.norm_solver, "kappa", singular)
        assert cli.main(["kappa", "--n", "3"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: Singular matrix\n")


class TestNegativeNumbers:
    """Negative values in exponent or leading-dot notation are values, not options."""

    def test_exponent_notation(self, capsys):
        assert cli.main(["psi", "--a", "-1e5", "--b", "1", "--n", "2"]) == 0
        assert capsys.readouterr().out == "10000600001\n"
        assert cli.main(["euclid2", "--what", "norms", "--a", "1", "--b", "-1e300"]) == 0
        assert json.loads(capsys.readouterr().out)["b"] == -1e300

    def test_matrix_needs_no_equals_sign(self, capsys):
        assert cli.main(["euclid2", "--what", "halfcircle", "--matrix", "-0.5,0.1,0.2"]) == 0
        spaced = capsys.readouterr().out
        assert cli.main(["euclid2", "--what", "halfcircle", "--matrix=-0.5,0.1,0.2"]) == 0
        assert capsys.readouterr().out == spaced

    def test_words_are_still_options(self, capsys):
        assert cli.main(["psi", "--a", "-x", "--b", "1", "--n", "2"]) == 2
        assert "expected one argument" in capsys.readouterr().err


KAPPA2_TABLE = ('converged: true\ndual:\n  - -1\n  - 6\n  - -1\niterations: 1\nlower: 3\n'
                'primal:\n  - {"w":-0.5,"x":[0,1]}\n  - {"w":2,"x":[0.5,0.5]}\n'
                '  - {"w":-0.5,"x":[1,0]}\nupper: 3\n')


class TestFormats:
    """The exact bytes of each output format, for a scalar, a dict and a table."""

    @pytest.mark.parametrize("argv, fmt, want", [
        (["psi", "--a", "1", "--b", "-1", "--n", "3"], "table", "32\n"),
        (["psi", "--a", "1", "--b", "-1", "--n", "3"], "csv", "value\n32\n"),
        (["kappa", "--n", "2"], "table", KAPPA2_TABLE),
        (["kappa", "--n", "2"], "csv",
         'converged,dual,iterations,lower,primal,upper\n'
         'true,[-1;6;-1],1,3,[{"w":-0.5;"x":[0;1]};{"w":2;"x":[0.5;0.5]};'
         '{"w":-0.5;"x":[1;0]}],3\n'),
        (["extend-bounds", "--n", "2", "--N", "2..3"], "table",
         "n\tN\tm\tlower\tupper\texact_lower\texact_upper\n"
         "2\t2\t\t1.6487212707001282\t3\t\t\n2\t3\t\t1.2840254166877414\t3\t\t\n"),
        (["extend-bounds", "--n", "2", "--N", "2..3"], "csv",
         "n,N,m,lower,upper,exact_lower,exact_upper\n"
         "2,2,,1.6487212707001282,3,,\n2,3,,1.2840254166877414,3,,\n"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_exact_bytes(self, argv, fmt, want, capsys):
        assert cli.main(argv + ["--format", fmt]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (want, "")

    def test_output_file_table(self, tmp_path, capsys):
        path = tmp_path / "kappa.txt"
        assert cli.main(["kappa", "--n", "2", "--format", "table", "--output", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == KAPPA2_TABLE
        assert capsys.readouterr().out == ""

    def test_unconverged_payload_still_printed(self, capsys):
        assert cli.main(["kappa", "--n", "5", "--max-iters", "2"]) == 3
        out = capsys.readouterr().out
        assert out.startswith('{"converged":false,') and out.endswith("}\n")
        assert json.loads(out)["iterations"] == 2


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


class TestOutputFile:
    """--output is written only when there is a payload: exit 0 or 3."""

    @pytest.mark.parametrize("argv", [
        ["represent", "--input", "{dir}/missing.json"],
        ["euclid2", "--what", "halfcircle"],
        ["kappa", "--n", "0"],
    ], ids=" ".join)
    def test_rejected_command_keeps_the_file(self, argv, tmp_path, capsys):
        path = tmp_path / "out.json"
        path.write_text("keep me")
        argv = [a.format(dir=tmp_path) for a in argv] + ["--output", str(path)]
        assert cli.main(argv) == 2
        assert path.read_text() == "keep me"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, code", [
        (["kappa", "--n", "2"], 0),
        (["kappa", "--n", "5", "--max-iters", "2"], 3),
    ])
    def test_payload_replaces_the_file(self, argv, code, tmp_path, capsys):
        assert cli.main(argv) == code
        want = capsys.readouterr().out
        path = tmp_path / "out.json"
        path.write_text("old content, longer than nothing")
        assert cli.main(argv + ["--output", str(path)]) == code
        assert path.read_text(encoding="utf-8") == want
        assert capsys.readouterr().out == ""

    def test_unopenable_path_exits_2(self, tmp_path, capsys):
        argv = ["kappa", "--n", "2", "--output", str(tmp_path / "missing" / "out.json")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot open output: ")

    def test_failed_write_exits_2(self, monkeypatch, tmp_path, capsys):
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullDisk(), raising=False)
        assert cli.main(["kappa", "--n", "2", "--output", str(tmp_path / "out.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot open output: [Errno 28] No space left on device\n"


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
