"""Command-line front end with deterministic machine-readable output.

Exit codes: 0 success, 2 rejected input (any ValueError a command raises),
3 result computed but not converged (the result is still printed).  JSON
output is byte-stable: keys are sorted and floats carry 17 significant
digits.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import euclid2, exchangeable, norm_solver
from ._colgen import SolverOptions
from .chebyshev import optimal_decomposition_m2, psi


# ---------------------------------------------------------------------------
# deterministic serialisation


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _dumps(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_dumps(v)}" for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialise {type(obj)!r}")


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in sorted(obj.items()):
            yield from _flatten(v, f"{prefix}{k}.")
    else:
        yield prefix[:-1], _dumps(obj)


def _is_rows(obj) -> bool:
    return isinstance(obj, dict) and "rows" in obj and "columns" in obj


def _rows(obj, sep: str) -> str:
    """A rows/columns payload as one header line and one line per row."""
    lines = [sep.join(obj["columns"])]
    lines += [sep.join(_dumps(v).strip('"') for v in row) for row in obj["rows"]]
    return "\n".join(lines) + "\n"


def _to_csv(obj) -> str:
    if _is_rows(obj):
        return _rows(obj, ",")
    if isinstance(obj, dict):
        pairs = list(_flatten(obj))
        head = ",".join(k for k, _ in pairs)
        vals = ",".join(v.replace(",", ";") for _, v in pairs)
        return head + "\n" + vals + "\n"
    return "value\n" + _dumps(obj) + "\n"


def _to_table(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if _is_rows(obj):
        return _rows(obj, "\t")
    if isinstance(obj, dict):
        out = []
        for k, v in sorted(obj.items()):
            if isinstance(v, (dict, list, tuple)):
                out.append(f"{pad}{k}:")
                out.append(_to_table(v, indent + 1).rstrip("\n"))
            else:
                out.append(f"{pad}{k}: {_dumps(v).strip(chr(34))}")
        return "\n".join(out) + "\n"
    if isinstance(obj, (list, tuple)):
        return "\n".join(f"{pad}- {_dumps(v)}" for v in obj) + "\n"
    return f"{pad}{_dumps(obj).strip(chr(34))}\n"


_RENDER = {"json": lambda obj: _dumps(obj) + "\n", "csv": _to_csv, "table": _to_table}


# ---------------------------------------------------------------------------
# command implementations: args -> (payload, converged)


def _options(args) -> SolverOptions:
    return SolverOptions(tol=args.tol, max_rounds=args.max_iters)


def _cmd_psi(args):
    a, b = args.a, args.b
    if args.arithmetic == "rational":
        a, b = Fraction(str(a)), Fraction(str(b))
    return psi(a, b, args.n), True


def _cmd_decompose(args):
    dec = optimal_decomposition_m2(args.a, args.b, args.n)
    return {
        "a": dec.a, "b": dec.b, "n": dec.n,
        "weights": list(dec.coefficients),
        "nodes": [list(nd) for nd in dec.nodes],
        "tv": dec.total_variation,
        "residual": dec.reconstruction_residual(),
    }, True


def _cmd_kappa(args):
    nb = norm_solver.kappa(args.n, _options(args))
    return nb.to_json_dict(), nb.converged


def _cmd_constants(args):
    if args.space == "l2":
        return euclid2.constants_l2(_options(args)), True
    pc = norm_solver.polarization_constants(args.n, _options(args))
    return {
        "n": pc.n,
        "kappa": pc.kappa.to_json_dict(),
        "cssp": pc.cssp.to_json_dict(),
        "gamma_reference": pc.gamma_reference,
        "classical_cs_lower": pc.classical_cs_lower,
    }, pc.kappa.converged


def _read_distribution(path: str):
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read input: {exc}")
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"input:{exc.lineno}:{exc.colno}: {exc.msg}")
    try:
        atoms = [(tuple(a["idx"]), float(a["p"])) for a in payload["atoms"]]
        states = payload.get("states")
        order = payload.get("order")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed distribution JSON: {exc}")
    return exchangeable.load_distribution(atoms, states=states, order=order)


def _cmd_represent(args):
    d = _read_distribution(args.input)
    measure = exchangeable.represent(d, method=args.method, opts=_options(args))
    report = exchangeable.verify_representation(d, measure)
    payload = measure.to_json_dict()
    payload["residual"] = report["residual"]
    payload["weight_sum"] = report["weight_sum"]
    payload["converged"] = measure.converged
    return payload, measure.converged


def _cmd_chi(args):
    return exchangeable.chi_nN(args.n, args.N).to_json_dict(), True


def _cmd_extend_bounds(args):
    rows = []
    converged = True
    for N in args.N:
        if args.m is None:
            eb = exchangeable.kappa_nN_bounds(args.n, N, exact=args.exact, opts=_options(args))
        else:
            eb = exchangeable.kappa_nNm_bounds(args.n, N, args.m,
                                               exact=args.exact, opts=_options(args))
        row = [eb.n, eb.N, eb.m if eb.m is not None else "", eb.lower, eb.upper]
        if eb.lp_value is not None:
            row.extend([eb.lp_value.lower, eb.lp_value.upper])
            converged = converged and eb.lp_value.converged
        else:
            row.extend(["", ""])
        rows.append(row)
    return {"columns": ["n", "N", "m", "lower", "upper", "exact_lower", "exact_upper"],
            "rows": rows}, converged


def _cmd_euclid2(args):
    if args.what == "norms":
        pi_v, pisp_v, pip_v = euclid2.norms_ab(args.a, args.b)
        return {"a": args.a, "b": args.b, "pi": pi_v, "pisp": pisp_v, "pip": pip_v}, True
    if args.what == "points":
        pts = euclid2.extreme_points(args.kind, args.resolution)
        return {"columns": ["u", "v", "w"], "rows": [list(p) for p in pts]}, True
    if args.matrix is None:
        raise ValueError("--matrix is required for halfcircle")
    nb = euclid2.half_circle_lp(args.matrix, _options(args))
    return nb.to_json_dict(), nb.converged


# ---------------------------------------------------------------------------
# parser


def _number(kind, minimum=-math.inf):
    """argparse type: kind(text), finite and >= minimum, or exit 2."""
    def parse(text: str):
        value = kind(text)
        if not (-math.inf < value < math.inf and value >= minimum):
            bound = "" if minimum == -math.inf else f" >= {minimum}"
            raise argparse.ArgumentTypeError(f"expected a finite number{bound}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type: "invalid float value"
    return parse


def _parse_range(text: str) -> list[int]:
    """argparse type for --N: a single integer or an inclusive range lo..hi."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad range {text!r}")
        if hi_i < lo_i:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    try:
        return [int(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}")


def _parse_matrix(text: str):
    """argparse type for --matrix: 'a00,a01,a11' as a symmetric 2x2 matrix."""
    try:
        a, b, c = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expects 'a00,a01,a11'")
    if not all(map(math.isfinite, (a, b, c))):
        raise argparse.ArgumentTypeError(f"entries must be finite numbers, got {text!r}")
    return [[a, b], [b, c]]


def _add_output(sub):
    sub.add_argument("--format", choices=("json", "csv", "table"), default="json")
    sub.add_argument("--output", default=None)


def _add_solver(sub):
    _add_output(sub)
    sub.add_argument("--tol", type=_number(float, 0), default=1e-7)
    sub.add_argument("--max-iters", type=_number(int, 0), default=200)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads -1e5 and -.5 as numbers, not as options.

    argparse takes only -12 and -1.5 for negative numbers; subparsers
    inherit this class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="tensornorm",
                description="positive symmetric tensor norms, "
                            "decompositions and mixing measures")
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("psi", help="closed-form decomposition cost of (a, b)")
    s.add_argument("--a", type=_number(float), required=True)
    s.add_argument("--b", type=_number(float), required=True)
    s.add_argument("--n", type=_number(int, 1), required=True)
    s.add_argument("--arithmetic", choices=("float", "rational"), default="float")
    _add_output(s)
    s.set_defaults(fn=_cmd_psi)

    s = subs.add_parser("decompose", help="optimal two-state node decomposition")
    s.add_argument("--a", type=_number(float), required=True)
    s.add_argument("--b", type=_number(float), required=True)
    s.add_argument("--n", type=_number(int, 1), required=True)
    _add_output(s)
    s.set_defaults(fn=_cmd_decompose)

    s = subs.add_parser("kappa", help="bracket for the order-n mixing constant")
    s.add_argument("--n", type=_number(int, 1), required=True)
    _add_solver(s)
    s.set_defaults(fn=_cmd_kappa)

    s = subs.add_parser("constants", help="polarization constants")
    s.add_argument("--n", type=_number(int, 1), default=2)
    s.add_argument("--space", choices=("l1", "l2"), default="l1")
    _add_solver(s)
    s.set_defaults(fn=_cmd_constants)

    s = subs.add_parser("represent", help="signed mixing measure for a distribution")
    s.add_argument("--input", required=True, help="distribution JSON file, or - for stdin")
    s.add_argument("--method", choices=("lp", "constructive"), default="lp")
    _add_solver(s)
    s.set_defaults(fn=_cmd_represent)

    s = subs.add_parser("chi", help="n draws without replacement from N states")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--N", type=int, required=True)
    _add_output(s)
    s.set_defaults(fn=_cmd_chi)

    s = subs.add_parser("extend-bounds", help="extendibility bound table")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--N", type=_parse_range, required=True, help="single value or lo..hi")
    s.add_argument("--m", type=int, default=None)
    s.add_argument("--exact", action="store_true")
    _add_solver(s)
    s.set_defaults(fn=_cmd_extend_bounds)

    s = subs.add_parser("euclid2", help="Euclidean 2x2 gallery")
    s.add_argument("--what", choices=("norms", "points", "halfcircle"), required=True)
    s.add_argument("--a", type=_number(float), default=0.0)
    s.add_argument("--b", type=_number(float), default=0.0)
    s.add_argument("--kind", choices=("pi", "pisp", "pip"), default="pisp")
    s.add_argument("--resolution", type=int, default=64)
    s.add_argument("--matrix", type=_parse_matrix, default=None)
    _add_solver(s)
    s.set_defaults(fn=_cmd_euclid2)

    return p


def main(argv=None) -> int:
    """Run one command; its payload is the only thing written to the output."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        sink = open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: cannot open output: {exc}", file=sys.stderr)
        return 2
    with sink as out:
        try:
            payload, converged = args.fn(args)
        except ValueError as exc:   # rejected input
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OverflowError:
            # float ** in the closed forms raises where the result exceeds a double
            print("error: result out of range", file=sys.stderr)
            return 2
        out.write(_RENDER[args.format](payload))
    return 0 if converged else 3


if __name__ == "__main__":
    sys.exit(main())
