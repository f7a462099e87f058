"""Command-line front end.

Subcommands cover the library surface: `bracket` and `flow` print
symbolic results, `hierarchy` generates (and optionally verifies) the
commuting family, `classify` names the membership class of a frame
field, and `simulate` runs the grid solver and writes CSV files plus a
JSON run report.

Flow pairs on the command line are comma-separated expressions; frame
fields are semicolon-separated (f;h;g;l).  Exit codes: 0 success,
2 parse error (also argparse's own usage errors), 3 not exact,
4 verification failure, 5 numeric blow-up, 1 anything else (unbound
parameters, unknown or misused symbols, derivative-order cap, bad
files).  The environment variable NULLFLOW_MAX_ORDER caps the derivative
order (default 12).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import diffalg
from .diffalg import DiffAlgError, NonZeroConstantTerm, NotExact, lie_bracket_flows, order_of
from .expr import ParseError, parse_field, parse_flow, render
from .hierarchy import commute_check, generate, seed, verify_reference_forms
from .nullcurve import LocalVectorField, classify


def _fmt(args) -> str:
    return "latex" if args.latex else "plain"


def _cmd_bracket(args) -> int:
    first = parse_flow(args.first)
    second = parse_flow(args.second)
    print(render(lie_bracket_flows(first, second), _fmt(args)))
    return 0


def _cmd_flow(args) -> int:
    entry = seed(args.seed, args.const)
    print(render(entry.flow, _fmt(args)))
    return 0


def _cmd_hierarchy(args) -> int:
    entries = generate(args.upto, args.constants)
    fmt = _fmt(args)
    for entry in entries:
        print("V%d field:" % entry.index)
        for name, comp in zip("fhgl", entry.field.components()):
            print("  %s = %s" % (name, render(comp, fmt)))
        print("V%d flow:" % entry.index)
        print("  k1_t = %s" % render(entry.flow.p1, fmt))
        print("  k2_t = %s" % render(entry.flow.p2, fmt))
    if not args.verify:
        return 0
    report = verify_reference_forms(entries)
    for check in report["checks"]:
        if check["ok"]:
            print("reference V%d %s: ok" % (check["index"], check["component"]))
        else:
            print(
                "reference V%d %s: FAIL (difference: %s)"
                % (check["index"], check["component"], check["difference"])
            )
    ok = report["ok"]
    orders = [max(map(order_of, entry.flow.components())) for entry in entries]
    for i, left in enumerate(entries):
        for j, right in enumerate(entries[i + 1 :], i + 1):
            if orders[i] + orders[j] > diffalg.MAX_ORDER:
                continue
            good = commute_check(left, right)
            print(
                "commute [V%d, V%d]: %s"
                % (left.index, right.index, "ok" if good else "FAIL")
            )
            ok = ok and good
    return 0 if ok else 4


def _cmd_classify(args) -> int:
    print(classify(LocalVectorField(*parse_field(args.field))))
    return 0


def _profiles(args, length: float):
    import numpy as np

    amp, amp2 = args.amplitude, args.k2_amplitude
    if args.profile == "soliton":
        if amp < 0:
            raise ValueError("--amplitude must be nonnegative for a soliton, got %r" % (amp,))
        width = math.sqrt(args.a * amp) / 2.0
        k1 = lambda s: amp / np.cosh(width * (s - length / 2)) ** 2
        k2 = lambda s: amp2 * np.sin(2 * np.pi * s / length)
    elif args.profile == "sine":
        k1 = lambda s: amp * np.sin(2 * np.pi * s / length)
        k2 = lambda s: amp2 * np.cos(2 * np.pi * s / length)
    else:
        k1, k2 = float(amp), float(amp2)
    return k1, k2


def _check_out(out: str) -> None:
    """Refuse, before any work, an --out that cannot become a directory."""
    if not out:
        raise ValueError("--out is empty; name the directory to write")
    existing = out
    while not os.path.lexists(existing):  # as typed: "file/.." does not exist
        existing = os.path.dirname(existing) or "."
    if existing == out and not os.path.isdir(existing):
        raise ValueError("--out %s exists and is not a directory" % (out,))
    if not os.path.isdir(existing):
        raise ValueError("--out %s lies below %s, which is not a directory" % (out, existing))


def _cmd_simulate(args) -> int:
    import numpy as np

    from . import numsim

    _check_out(args.out)
    params = {}
    for binding in args.param:
        name, sep, value = binding.partition("=")
        if not sep or not name:
            raise ValueError("--param expects NAME=VALUE, got %r" % (binding,))
        if name in params:
            raise ValueError("--param %s is given more than once" % (name,))
        try:
            params[name] = float(value)
        except ValueError as exc:
            raise ValueError("--param %s: %s" % (binding, exc)) from None
    if args.profile is None:
        args.profile = "soliton" if args.flow == "nlie" else "sine"
    length = args.length if args.length else (
        60.0 if args.profile == "soliton" else 2 * math.pi
    )
    config = numsim.SimConfig(
        domain_length=length,
        grid_points=args.n,
        dt=args.dt,
        t_end=args.t_end,
        a=args.a,
        eps1=args.eps1,
        eps2=args.eps2,
        derivative_stencil=args.stencil,
        output_stride=args.stride,
    )
    k1, k2 = _profiles(args, length)

    if args.flow == "file":
        if not args.flow_file:
            raise ValueError("--flow file requires --flow-file")
        with open(args.flow_file) as fh:
            flow = parse_flow(fh.read().strip())
    else:
        entry = seed(1 if args.flow == "nlie" else 0)
        flow = entry.flow
        params.setdefault(entry.constants_used[0], 1.0)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # every numeric exit is checked
            times, states, path, report = numsim.run_flow(
                config, flow, params, k1, k2, reconstruct=args.reconstruct or args.flow == "nlie"
            )
    except numsim.BlowUp as exc:
        print("blow-up: %s" % exc, file=sys.stderr)
        return 5
    os.makedirs(args.out, exist_ok=True)
    written = []
    for variable in ("k1", "k2"):
        target = os.path.join(args.out, "%s.csv" % variable)
        numsim.write_curvature_csv(target, config, times, states, variable)
        written.append(target)
    if path is not None:
        target = os.path.join(args.out, "path_final.csv")
        numsim.write_path_csv(target, path)
        written.append(target)
    target = os.path.join(args.out, "report.json")
    numsim.write_report_json(target, report)
    written.append(target)
    print("wrote %s" % ", ".join(written))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullflow",
        description="Differential-polynomial curvature flows of null curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="Lie bracket of two flow pairs")
    p.add_argument("first", help="flow pair, e.g. \"b*k1', b*k2'\"")
    p.add_argument("second", help="flow pair")
    p.add_argument("--latex", action="store_true")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("flow", help="curvature flow of a seed field")
    p.add_argument("--seed", type=int, choices=(0, 1), required=True)
    p.add_argument("--const", default=None, help="scale symbol (default b or c)")
    p.add_argument("--latex", action="store_true")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("hierarchy", help="generate entries 0..N")
    p.add_argument("--upto", type=int, default=3)
    p.add_argument("--constants", choices=("fresh", "zero"), default="fresh")
    p.add_argument("--verify", action="store_true",
                   help="check V0..V3 against reference forms and commute every pair "
                        "whose flow orders sum to at most the order cap; exit 4 on failure")
    p.add_argument("--latex", action="store_true")
    p.set_defaults(func=_cmd_hierarchy)

    p = sub.add_parser("classify", help="membership class of a frame field")
    p.add_argument("field", help="semicolon-separated components f;h;g;l")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("simulate", help="evolve curvatures and write CSV/JSON")
    p.add_argument("--flow", choices=("nlie", "translation", "file"), default="nlie")
    p.add_argument("--flow-file", default=None,
                   help="file holding a flow pair (for --flow file)")
    p.add_argument("--n", type=int, default=512, help="grid points")
    p.add_argument("--dt", type=float, default=0.0,
                   help="time step (0: stability bound)")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--length", type=float, default=0.0,
                   help="domain length (0: profile default)")
    p.add_argument("--profile", choices=("soliton", "sine", "constant"), default=None)
    p.add_argument("--amplitude", type=float, default=0.5)
    p.add_argument("--k2-amplitude", type=float, default=0.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--eps1", type=int, choices=(-1, 1), default=1)
    p.add_argument("--eps2", type=int, choices=(-1, 1), default=1)
    p.add_argument("--stencil", choices=("central4", "central6"), default="central4")
    p.add_argument("--stride", type=int, default=0,
                   help="save every Nth step (0: first and last)")
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                   help="bind a flow parameter, repeatable")
    p.add_argument("--reconstruct", action="store_true",
                   help="reconstruct every saved state (nlie always does)")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except (NotExact, NonZeroConstantTerm) as exc:
        print("not exact: %s" % exc, file=sys.stderr)
        return 3
    except (DiffAlgError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
