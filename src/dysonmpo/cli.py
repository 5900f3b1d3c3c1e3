"""Command-line interface: build-mpo, integrate, bench."""

import argparse
import math
import re
import sys

from . import modelfile
from .bench import (METHODS, BracketCache, EvolutionConfig, build_step_mpo,
                    records_to_csv, run_benchmark, step_table)


class _Parser(argparse.ArgumentParser):
    """Argument parser that reads ``-inf``, ``-nan`` and ``-1e-3`` as
    values, as argparse reads ``-1``, so that the value checks name them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(inf(inity)?|nan|(\d+\.?\d*|\.\d+)(e[-+]?\d+)?)$",
            re.IGNORECASE)


def _at_least_one(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _at_least_zero(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _step_size(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _list_of(item):
    """Argument type of a comma-separated list of `item` entries."""
    def parse(text):
        try:
            return tuple(item(entry) for entry in text.split(","))
        except ValueError as exc:  # int() or float() naming the entry
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _add_common(p):
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--t0", type=_finite, default=0.0)
    p.add_argument("--t", type=_finite, default=0.125)


def cmd_build_mpo(args):
    ham = modelfile.load(args.model)
    table = step_table(BracketCache(ham), args.method, args.t0, args.t,
                       args.order)
    mpo, report = build_step_mpo(ham, table, args.order, qr_tol=args.qr_tol,
                                 compress=not args.no_compress)
    print(f"method={args.method} order={args.order} interval=[{args.t0}, {args.t}]")
    print(f"bond dimension: {mpo.bond_dimension}")
    levels = mpo.levels
    if report is not None:
        # a bulk MPO has no level labels; name the row-compressed levels
        print(f"row-compressed bond dimension: {report.bond_dimension_after}")
        levels = report.kept_levels
    print("levels: " + " ".join(repr(l) for l in levels))
    if args.report and report is not None:
        print(report.to_text())
    return 0


def cmd_integrate(args):
    ham = modelfile.load(args.model)
    table = BracketCache(ham).table(args.t0, args.t, args.max_order)
    print("channels,real,imag")
    for key in sorted(table.values, key=lambda k: (len(k), k)):
        v = table.values[key]
        print(f"{' '.join(key)},{v.real:.15g},{v.imag:.15g}")
    return 0


def cmd_bench(args):
    ham = modelfile.load(args.model)
    config = EvolutionConfig(
        n_sites=args.sites,
        t0=args.t0,
        t_final=args.t,
        method=args.method,
        d_max=args.dmax,
        oracle_substeps=args.substeps,
        qr_tol=args.qr_tol,
        self_reference=args.self_reference,
        seed=args.seed,
        orders=args.orders,
        dts=args.dts,
    )
    records = run_benchmark(ham, config)
    text = records_to_csv(records, seed=args.seed)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(records)} records)")
    else:
        sys.stdout.write(text)
    return 0


def build_parser():
    parser = _Parser(
        prog="dysonmpo",
        description="MPO encodings of time-evolution operators for 1D chains")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-mpo", help="build one evolution MPO")
    _add_common(p)
    p.add_argument("--method", choices=METHODS, default="dyson")
    p.add_argument("--order", type=_at_least_one, default=2)
    p.add_argument("--no-compress", action="store_true")
    p.add_argument("--report", action="store_true",
                   help="print the compression report")
    p.add_argument("--qr-tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_build_mpo)

    p = sub.add_parser("integrate", help="print a bracket table as CSV")
    _add_common(p)
    p.add_argument("--max-order", type=_at_least_one, default=2)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("bench", help="error-scaling benchmark")
    _add_common(p)
    p.add_argument("--method", choices=METHODS, default="dyson")
    p.add_argument("--orders", type=_list_of(_at_least_one),
                   default="1,2,3,4")
    p.add_argument("--dts", type=_list_of(_step_size),
                   default="0.25,0.125,0.0625")
    p.add_argument("--sites", type=_at_least_one, default=8)
    p.add_argument("--dmax", type=_at_least_one, default=64)
    p.add_argument("--substeps", type=_at_least_one, default=4000)
    p.add_argument("--qr-tol", type=float, default=1e-12)
    p.add_argument("--self-reference", action="store_true")
    p.add_argument("--seed", type=_at_least_zero, default=0)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_bench, t=1.0)
    return parser


def main(argv=None):
    """Run the command of `argv`; an input the library rejects with
    `ValueError` ends the run as an argparse error does (exit code 2)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
