"""Command-line surface: validate, events, simulate, calibrate, optimize.

Exit codes are stable and scripted against:

    0  success (condition warnings included); calibration status identified
    1  usage or config/trace parse error
    2  mandatory placement condition failed, or infeasible optimisation
    3  calibration status no_match: no matching sequence
    4  calibration status ambiguous

Config paths are tried as given first; if not found and CABLECAL_CONFIG_DIR
is set, the file is looked up there as well.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ConfigError, LoadedConfig, dump_design, load_config
from .designer import InfeasibleRecipe
from .events import enumerate_events, format_event_csv, rectify
from .identify import Status, run_trace
from .model import validate_design
from .optimize import format_trail_csv, search
from .simulate import EncoderModel, format_trace_csv, parse_trace_csv, simulate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONDITION = 2
EXIT_NO_MATCH = 3
EXIT_AMBIGUOUS = 4

EXIT_FOR_STATUS = {
    Status.IDENTIFIED: EXIT_OK,
    Status.NO_MATCH: EXIT_NO_MATCH,
    Status.AMBIGUOUS: EXIT_AMBIGUOUS,
}

CONFIG_DIR_ENV = "CABLECAL_CONFIG_DIR"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; route through our own code instead.
    def error(self, message):
        raise _UsageError(message)


def _resolve_config(path: str) -> Path:
    candidate = Path(path)
    if candidate.exists():
        return candidate
    base = os.environ.get(CONFIG_DIR_ENV)
    if base:
        fallback = Path(base) / path
        if fallback.exists():
            return fallback
    return candidate  # load_config reports the missing file


def _load(path: str) -> LoadedConfig:
    return load_config(_resolve_config(path))


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_validate(args) -> int:
    loaded = _load(args.config)
    report = validate_design(loaded.design, loaded.geom_tol)
    soft = report.soft_failures
    for cond in report:
        verdict = "PASS" if cond.passed else ("WARN" if cond.name in soft else "FAIL")
        print(f"{cond.name}  {verdict:4}  {cond.detail}")
    if not report.hard_pass:
        print("result: FAIL (mandatory condition violated)")
        return EXIT_CONDITION
    if soft:
        print(f"result: PASS with warnings ({', '.join(soft)})")
    else:
        print("result: PASS")
    return EXIT_OK


def _cmd_events(args) -> int:
    loaded = _load(args.config)
    table = enumerate_events(loaded.design)
    if not args.raw:
        table = rectify(table)
    _write_output(format_event_csv(table, precision=args.precision), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    loaded = _load(args.config)
    encoder = EncoderModel(
        scale=args.scale, offset=args.offset, noise_sd=args.noise, seed=args.seed
    )
    trace = simulate(loaded.design, encoder, args.start, args.stop)
    _write_output(format_trace_csv(trace), args.out)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    loaded = _load(args.config)
    try:
        trace = parse_trace_csv(Path(args.trace).read_text())
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{args.trace}: {exc}") from None
    tolerance = args.tolerance if args.tolerance is not None else loaded.gap_tol
    result = run_trace(loaded.design, trace, tolerance)
    for line in result.lines():
        print(line)
    return EXIT_FOR_STATUS[result.status]


def _cmd_optimize(args) -> int:
    # A recipe whose given ordering is infeasible may still have feasible
    # permutations, so defer design construction to the search itself.
    loaded = load_config(_resolve_config(args.config), require_design=False)
    if loaded.recipe is None:
        raise ConfigError(f"{args.config}: optimize needs a [recipe] config")
    try:
        result = search(
            loaded.recipe, budget=args.budget, seed=args.seed, tolerance=loaded.gap_tol
        )
    except InfeasibleRecipe as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_CONDITION
    _write_output(dump_design(result.design, loaded.geom_tol, loaded.gap_tol), args.out)
    _write_output(format_trail_csv(result.trail), args.report)
    sc = result.score
    print(
        f"best: mean_gap={sc.mean_gap:.3f} std_gap={sc.std_gap:.3f} "
        f"worst_stroke={sc.worst_stroke:.3f} unidentifiable={sc.unidentifiable_starts}",
        file=sys.stderr,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cablecal", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the placement conditions of a design")
    p.add_argument("config")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("events", help="enumerate the design's detection events as CSV")
    p.add_argument("config")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--raw", action="store_true", help="keep simultaneous events")
    group.add_argument(
        "--rectified", dest="raw", action="store_false", help="one event per instant (default)"
    )
    p.set_defaults(raw=False)
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--precision", choices=("table", "full"), default="table")
    p.set_defaults(func=_cmd_events)

    p = sub.add_parser("simulate", help="produce a synthetic detection trace")
    p.add_argument("config")
    p.add_argument("--start", type=float, required=True, help="free length at drive start")
    p.add_argument("--stop", type=float, required=True, help="free length at drive end")
    p.add_argument("--scale", type=float, default=1.0, help="encoder scale error")
    p.add_argument("--offset", type=float, default=0.0, help="encoder register offset")
    p.add_argument("--noise", type=float, default=0.0, help="per-reading jitter sd")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", help="identify the cable length from a trace")
    p.add_argument("config")
    p.add_argument("--trace", required=True, help="trace CSV to replay")
    p.add_argument("--tolerance", type=float, default=None, help="gap match tolerance")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("optimize", help="search pool orderings for a better layout")
    p.add_argument("config")
    p.add_argument("--budget", type=int, default=1000, help="max design evaluations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="winning design config (default: stdout)")
    p.add_argument("--report", default=None, help="improvement trail CSV file")
    p.set_defaults(func=_cmd_optimize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
