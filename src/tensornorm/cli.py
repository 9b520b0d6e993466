"""Command-line front end with deterministic machine-readable output.

Exit codes: 0 success, 2 validation error, 3 result computed but not
converged (the result is still printed).  JSON output is byte-stable:
keys are sorted and floats carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import euclid2, exchangeable, norm_solver
from ._colgen import SolverOptions
from .chebyshev import optimal_decomposition_m2, psi

ENV_MAX_ITERS = "TENSORNORM_MAX_ITERS"


class ValidationError(Exception):
    pass


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


def _to_csv(obj) -> str:
    if isinstance(obj, dict) and "rows" in obj and "columns" in obj:
        lines = [",".join(obj["columns"])]
        for row in obj["rows"]:
            lines.append(",".join(_dumps(v).strip('"') for v in row))
        return "\n".join(lines) + "\n"
    if isinstance(obj, dict):
        pairs = list(_flatten(obj))
        head = ",".join(k for k, _ in pairs)
        vals = ",".join(v.replace(",", ";") for _, v in pairs)
        return head + "\n" + vals + "\n"
    return "value\n" + _dumps(obj) + "\n"


def _to_table(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict) and "rows" in obj and "columns" in obj:
        lines = ["\t".join(obj["columns"])]
        for row in obj["rows"]:
            lines.append("\t".join(_dumps(v).strip('"') for v in row))
        return "\n".join(lines) + "\n"
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


def _emit(obj, fmt: str, out) -> None:
    if fmt == "json":
        out.write(_dumps(obj) + "\n")
    elif fmt == "csv":
        out.write(_to_csv(obj))
    else:
        out.write(_to_table(obj))


# ---------------------------------------------------------------------------
# command implementations


def _options(args) -> SolverOptions:
    max_iters = args.max_iters
    env = os.environ.get(ENV_MAX_ITERS)
    if env is not None:
        try:
            max_iters = int(env)
        except ValueError:
            raise ValidationError(f"{ENV_MAX_ITERS} must be an integer, got {env!r}")
    return SolverOptions(tol=args.tol, max_rounds=max_iters)


def _cmd_psi(args, out) -> int:
    if args.n < 1:
        raise ValidationError("--n must be >= 1")
    if args.arithmetic == "rational":
        a = Fraction(str(args.a))
        b = Fraction(str(args.b))
        value = psi(a, b, args.n)
    else:
        value = psi(args.a, args.b, args.n)
    _emit(value, args.format, out)
    return 0


def _cmd_decompose(args, out) -> int:
    if args.n < 1:
        raise ValidationError("--n must be >= 1")
    dec = optimal_decomposition_m2(args.a, args.b, args.n)
    payload = {
        "a": dec.a, "b": dec.b, "n": dec.n,
        "weights": list(dec.coefficients),
        "nodes": [list(nd) for nd in dec.nodes],
        "tv": dec.total_variation,
        "residual": dec.reconstruction_residual(),
    }
    _emit(payload, args.format, out)
    return 0


def _cmd_kappa(args, out) -> int:
    if args.n < 1:
        raise ValidationError("--n must be >= 1")
    nb = norm_solver.kappa(args.n, _options(args))
    _emit(nb.to_json_dict(), args.format, out)
    return 0 if nb.converged else 3


def _cmd_constants(args, out) -> int:
    if args.space == "l2":
        payload = euclid2.constants_l2(_options(args))
        _emit(payload, args.format, out)
        return 0
    if args.n < 1:
        raise ValidationError("--n must be >= 1")
    pc = norm_solver.polarization_constants(args.n, _options(args))
    payload = {
        "n": pc.n,
        "kappa": pc.kappa.to_json_dict(),
        "cssp": pc.cssp.to_json_dict(),
        "gamma_reference": pc.gamma_reference,
        "classical_cs_lower": pc.classical_cs_lower,
    }
    _emit(payload, args.format, out)
    return 0 if pc.kappa.converged else 3


def _read_distribution(path: str):
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read input: {exc}")
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"input:{exc.lineno}:{exc.colno}: {exc.msg}")
    try:
        atoms = [(tuple(a["idx"]), float(a["p"])) for a in payload["atoms"]]
        states = payload.get("states")
        order = payload.get("order")
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed distribution JSON: {exc}")
    try:
        return exchangeable.load_distribution(atoms, states=states, order=order)
    except ValueError as exc:
        raise ValidationError(str(exc))


def _cmd_represent(args, out) -> int:
    d = _read_distribution(args.input)
    measure = exchangeable.represent(d, method=args.method, opts=_options(args))
    report = exchangeable.verify_representation(d, measure)
    payload = measure.to_json_dict()
    payload["residual"] = report["residual"]
    payload["weight_sum"] = report["weight_sum"]
    payload["converged"] = measure.converged
    _emit(payload, args.format, out)
    return 0 if measure.converged else 3


def _cmd_chi(args, out) -> int:
    try:
        d = exchangeable.chi_nN(args.n, args.N)
    except ValueError as exc:
        raise ValidationError(str(exc))
    _emit(d.to_json_dict(), args.format, out)
    return 0


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise ValidationError(f"bad range {text!r}")
        if hi_i < lo_i:
            raise ValidationError(f"empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    try:
        return [int(text)]
    except ValueError:
        raise ValidationError(f"bad integer {text!r}")


def _cmd_extend_bounds(args, out) -> int:
    rows = []
    all_converged = True
    for N in _parse_range(args.N):
        try:
            if args.m is None:
                eb = exchangeable.kappa_nN_bounds(args.n, N, exact=args.exact,
                                                  opts=_options(args))
            else:
                eb = exchangeable.kappa_nNm_bounds(args.n, N, args.m,
                                                   exact=args.exact, opts=_options(args))
        except ValueError as exc:
            raise ValidationError(str(exc))
        row = [eb.n, eb.N, eb.m if eb.m is not None else "", eb.lower, eb.upper]
        if eb.lp_value is not None:
            row.extend([eb.lp_value.lower, eb.lp_value.upper])
            all_converged = all_converged and eb.lp_value.converged
        else:
            row.extend(["", ""])
        rows.append(row)
    payload = {"columns": ["n", "N", "m", "lower", "upper", "exact_lower", "exact_upper"],
               "rows": rows}
    _emit(payload, args.format, out)
    return 0 if all_converged else 3


def _parse_matrix(text: str):
    try:
        a, b, c = (float(v) for v in text.split(","))
    except ValueError:
        raise ValidationError("--matrix expects 'a00,a01,a11'")
    return [[a, b], [b, c]]


def _cmd_euclid2(args, out) -> int:
    opts = _options(args)
    if args.what == "norms":
        pi_v, pisp_v, pip_v = euclid2.norms_ab(args.a, args.b)
        _emit({"a": args.a, "b": args.b, "pi": pi_v, "pisp": pisp_v, "pip": pip_v},
              args.format, out)
        return 0
    if args.what == "constants":
        _emit(euclid2.constants_l2(opts), args.format, out)
        return 0
    if args.what == "points":
        try:
            pts = euclid2.extreme_points(args.kind, args.resolution)
        except ValueError as exc:
            raise ValidationError(str(exc))
        payload = {"columns": ["u", "v", "w"], "rows": [list(p) for p in pts]}
        _emit(payload, args.format, out)
        return 0
    if args.what == "halfcircle":
        if args.matrix is None:
            raise ValidationError("--matrix is required for halfcircle")
        nb = euclid2.half_circle_lp(_parse_matrix(args.matrix), opts)
        _emit(nb.to_json_dict(), args.format, out)
        return 0 if nb.converged else 3
    raise ValidationError(f"unknown euclid2 action {args.what!r}")


# ---------------------------------------------------------------------------
# parser


def _add_output(sub):
    sub.add_argument("--format", choices=("json", "csv", "table"), default="json")
    sub.add_argument("--output", default=None)


def _add_solver(sub):
    _add_output(sub)
    sub.add_argument("--tol", type=float, default=1e-7)
    sub.add_argument("--max-iters", type=int, default=200)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tensornorm",
                                description="positive symmetric tensor norms, "
                                            "decompositions and mixing measures")
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("psi", help="closed-form decomposition cost of (a, b)")
    s.add_argument("--a", type=float, required=True)
    s.add_argument("--b", type=float, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--arithmetic", choices=("float", "rational"), default="float")
    _add_output(s)
    s.set_defaults(fn=_cmd_psi)

    s = subs.add_parser("decompose", help="optimal two-state node decomposition")
    s.add_argument("--a", type=float, required=True)
    s.add_argument("--b", type=float, required=True)
    s.add_argument("--n", type=int, required=True)
    _add_output(s)
    s.set_defaults(fn=_cmd_decompose)

    s = subs.add_parser("kappa", help="bracket for the order-n mixing constant")
    s.add_argument("--n", type=int, required=True)
    _add_solver(s)
    s.set_defaults(fn=_cmd_kappa)

    s = subs.add_parser("constants", help="polarization constants")
    s.add_argument("--n", type=int, default=2)
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
    s.add_argument("--N", type=str, required=True, help="single value or lo..hi")
    s.add_argument("--m", type=int, default=None)
    s.add_argument("--exact", action="store_true")
    _add_solver(s)
    s.set_defaults(fn=_cmd_extend_bounds)

    s = subs.add_parser("euclid2", help="Euclidean 2x2 gallery")
    s.add_argument("--what", choices=("norms", "constants", "points", "halfcircle"),
                   required=True)
    s.add_argument("--a", type=float, default=0.0)
    s.add_argument("--b", type=float, default=0.0)
    s.add_argument("--kind", choices=("pi", "pisp", "pip"), default="pisp")
    s.add_argument("--resolution", type=int, default=64)
    s.add_argument("--matrix", type=str, default=None)
    _add_solver(s)
    s.set_defaults(fn=_cmd_euclid2)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    out = sys.stdout
    close = False
    if args.output:
        try:
            out = open(args.output, "w", encoding="utf-8")
            close = True
        except OSError as exc:
            print(f"error: cannot open output: {exc}", file=sys.stderr)
            return 2
    try:
        return args.fn(args, out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if close:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
