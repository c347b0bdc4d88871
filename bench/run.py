"""cablecal benchmark: one workload per run, closed loop, one process, one thread.

    python3 bench/run.py --workload optimize-climb --seed 0 --seconds 25 --trace 0

Runs CLI commands in-process through ``cablecal.cli.main`` for ``--seconds``
seconds (whole passes; an optimize pass is one command, a calibrate pass one
replay of every trace), checks their outputs, and prints a human-readable
report followed by one JSON line.  With ``--trace 0`` the JSON line carries
the end-to-end metrics; with ``--trace 1`` the run measures half its time
untraced and half traced and carries the per-layer metrics, including the
tracing overhead.  See bench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
MODULES = ("cli", "config", "designer", "events", "identify", "model", "optimize", "presets", "simulate")
SETUP_REPS = 5

# The host's speed drifts by tens of percent within minutes.  A fixed
# pure-Python loop is timed next to the commands, and the end-to-end times
# are scaled by NOMINAL_REFERENCE_S over its measured time, so runs made
# while the host is busy or idle compare.  The report lines keep raw times.
NOMINAL_REFERENCE_S = 0.0007  # a typical unit on the 2-vCPU x86_64 host used to define the benchmark, Python 3.11

# name, unit, better
END_TO_END = (
    ("command_ms_p50", "ms", "lower"),
    ("trusted_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
DERIVED = (
    ("optimize.evals_per_s", "1/s", "higher"),
    ("optimize.revisit_ratio", "ratio", "lower"),
    ("optimize.feasible_ratio", "ratio", "higher"),
    ("events.enumerate_per_eval", "count", "lower"),
    ("events.stroke_table_events_mean", "count", "lower"),
    ("identify.table_build_s", "s", "lower"),
    ("identify.detections_used_mean", "count", "lower"),
    ("identify.stroke_m_mean", "m", "lower"),
    ("identify.unsure_ratio", "ratio", "lower"),
    ("calibrate.faulty_share", "ratio", "lower"),
    ("calibrate.clean.wrong_ratio", "ratio", "lower"),
    ("calibrate.clean.unsure_ratio", "ratio", "lower"),
    ("calibrate.faulty.wrong_ratio", "ratio", "lower"),
    ("calibrate.faulty.unsure_ratio", "ratio", "lower"),
    ("bench.traced_passes", "count", "higher"),
)
PER_LAYER = (
    tuple(
        (f"{fn}.{stat}", unit, "lower")
        for fn in tracing.FUNCTIONS
        for stat, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))
    )
    + DERIVED
    + tuple(
        (f"overhead.{name}", unit, "higher" if better == "higher" else "lower")
        for name, unit, better in END_TO_END
    )
)


class SetupError(Exception):
    """The package cannot be imported from this checkout."""


def import_package() -> SimpleNamespace:
    """Import every cablecal module afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "cablecal" or n.startswith("cablecal.")]:
        del sys.modules[name]
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    try:
        api = SimpleNamespace(**{m: importlib.import_module(f"cablecal.{m}") for m in MODULES})
    except ImportError as exc:
        raise SetupError(f"cannot import cablecal from {SOURCE}: {exc}") from None
    if not Path(api.cli.__file__).resolve().is_relative_to(SOURCE):
        raise SetupError(f"cablecal was imported from {api.cli.__file__}, not from {SOURCE}")
    return api


def call(api, argv: list[str]):
    """Run one CLI command in-process; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = api.cli.main(argv)
        except Exception as exc:  # a crash fails this command, not the run
            rc = exc
            elapsed = time.perf_counter() - t0
            traceback.print_exc()
        else:
            elapsed = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), elapsed


def _reference_unit() -> float:
    acc = 0.0
    slots = [0.0] * 64
    for i in range(3000):
        x = (i * 0.618034) % 1.0
        slots[i & 63] = x
        acc += x if i % 3 else -x
    return acc + max(slots)


def reference_s(units: int = 10) -> float:
    """Seconds per unit of the reference loop: the host's current speed."""
    t0 = time.perf_counter()
    for _ in range(units):
        _reference_unit()
    return (time.perf_counter() - t0) / units


def set_up(workload, workdir: Path, tracer, request: int):
    """One set-up: import the package, write the inputs, warm up.

    Spans recorded meanwhile carry ``request`` (negative, so set-up work is
    told apart from commands).  Returns the package and the raw and scaled
    set-up seconds.
    """
    before = reference_s()
    t0 = time.perf_counter()
    api = import_package()
    if tracer is not None:
        tracer.request = request
        tracer.install()
    try:
        workload.prepare(api, workdir, lambda argv: call(api, argv))
    finally:
        if tracer is not None:
            tracer.uninstall()
    elapsed = time.perf_counter() - t0
    return api, elapsed, elapsed * NOMINAL_REFERENCE_S / ((before + reference_s()) / 2)


def timed_loop(api, workload, seconds: float, tracer) -> workloads.Phase:
    """Closed loop: each command starts when the previous one has returned.

    Runs whole passes for about ``seconds``, at least one.

    The reference loop runs before the first command and after every
    ``workload.reference_every`` commands; each command is scaled by the mean
    of the two samples around it.
    """
    phase = workloads.Phase(traced=tracer is not None)
    references = [reference_s(workload.reference_units)]
    segments = []
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        while True:
            for argv, key in workload.pass_commands():
                if tracer is not None:
                    tracer.request = len(phase.durations)  # commands count from 0
                rc, out, err, elapsed = call(api, argv)
                phase.durations.append(elapsed)
                segments.append(len(references) - 1)
                workload.record(phase, key, rc, out, err)
                if len(segments) % workload.reference_every == 0:
                    references.append(reference_s(workload.reference_units))
            phase.passes += 1
            # Stop once less than half a pass is left: another pass would
            # overrun by more than stopping now falls short.
            spent = time.perf_counter() - start
            if seconds - spent <= spent / phase.passes / 2:
                break
        if len(segments) % workload.reference_every:
            references.append(reference_s(workload.reference_units))
        phase.peak_rss_mb = peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.uninstall()
    phase.references = references
    phase.scaled = [
        elapsed * NOMINAL_REFERENCE_S / ((references[s] + references[s + 1]) / 2)
        for elapsed, s in zip(phase.durations, segments)
    ]
    return phase


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(phase: workloads.Phase, setup_times: list[float]) -> dict[str, float]:
    return {
        "command_ms_p50": statistics.median(phase.scaled) * 1000.0,
        "trusted_ratio": 1.0 - phase.failed_ratio(),
        "peak_rss_mb": phase.peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(tracer, reps: int, phase: workloads.Phase,
              untraced: dict[str, float], traced: dict[str, float]) -> dict[str, float]:
    """Layer totals per pass (one set-up plus one pass of timed work) and
    derived shares, all from the traced half of the run."""
    spans = tracer.spans
    totals = tracing.layer_totals(spans, lambda request: request < 0)  # True: set-up
    metrics: dict[str, float] = {}
    for fn in tracing.FUNCTIONS:
        in_setup = totals.get((fn, True), (0, 0.0, 0.0))
        in_commands = totals.get((fn, False), (0, 0.0, 0.0))
        for stat, setup_value, command_value in zip(("calls", "total_s", "self_s"), in_setup, in_commands):
            metrics[f"{fn}.{stat}"] = setup_value / reps + command_value / phase.passes

    evaluations = search_s = 0.0
    orderings: dict[int, list] = {}
    builds = feasible = enumerations = 0
    table_build_s = 0.0
    stroke_tables, results = [], []
    for index, span in enumerate(spans):
        if span.request < 0:
            continue  # derived shares describe the timed commands, not the warm-up
        if span.name == "optimize.search":
            evaluations += span.note or 0
            search_s += span.duration
        elif span.name == "designer.build_design":
            search = tracing.ancestor(spans, index, "optimize.search")
            if search >= 0:
                builds += 1
                if span.note is not None:
                    orderings.setdefault(search, []).append(span.note[0])
                    feasible += span.note[1]
        elif span.name in ("events.enumerate_events", "events.rectify"):
            if span.parent >= 0 and spans[span.parent].name == "identify.run_trace":
                table_build_s += span.duration
            if span.name == "events.enumerate_events" and tracing.ancestor(spans, index, "optimize.search") >= 0:
                enumerations += 1
        elif span.name == "events.stroke_profile":
            stroke_tables.append(span.note)
        elif span.name == "identify.run_trace" and span.note is not None:
            results.append(span.note)
    revisits = sum(len(seen) - len(set(seen)) for seen in orderings.values())
    metrics.update({
        "optimize.evals_per_s": _ratio(evaluations, search_s),
        "optimize.revisit_ratio": _ratio(revisits, evaluations),
        "optimize.feasible_ratio": _ratio(feasible, builds),
        "events.enumerate_per_eval": _ratio(enumerations, feasible),
        "events.stroke_table_events_mean": _mean(stroke_tables),
        "identify.table_build_s": table_build_s / phase.passes,
        "identify.detections_used_mean": _mean([used for _, used, _ in results]),
        "identify.stroke_m_mean": _mean([stroke for _, _, stroke in results if stroke is not None]),
        "identify.unsure_ratio": _ratio(sum(s in ("ambiguous", "no_match") for s, _, _ in results), len(results)),
        "bench.traced_passes": phase.passes,
    })
    metrics.update({name: value for name, (value, _) in phase.shares().items()})
    for name, _, _ in END_TO_END:
        metrics[f"overhead.{name}"] = traced[name] - untraced[name]
    return metrics


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(name: str, phase: workloads.Phase, e2e: dict[str, float], raw_setup: list[float]) -> None:
    """The user-facing numbers of one phase, as measured (not scaled), each
    with its unit and sample count."""
    n = len(phase.durations)
    durations = sorted(phase.durations)
    lines = [
        ("setup_s", statistics.median(raw_setup), "s", len(raw_setup)),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", 1),
        ("failed_ratio", phase.failed_ratio(), "ratio", phase.commands()),
        ("reference_ms", statistics.median(phase.references) * 1000.0, "ms", len(phase.references)),
    ]
    if name.startswith("optimize"):
        lines.append(("optimize_s_p50", statistics.median(durations), "s", n))
    else:
        p99 = statistics.quantiles(durations, n=100)[98] if n >= 2 else durations[0]
        lines += [
            ("calibrate_ms_p50", statistics.median(durations) * 1000.0, "ms", n),
            ("calibrate_ms_p99", p99 * 1000.0, "ms", n),
            ("calibrations_per_s", n / sum(durations), "1/s", n),
        ]
        lines += [(metric, value, "ratio", count) for metric, (value, count) in phase.shares().items()]
    tag = "traced" if phase.traced else "untraced"
    for metric, value, unit, count in lines:
        print(f"[{name} {tag}] {metric} = {value!r} {unit} (n={count})")


def run(args) -> int:
    workload = workloads.make(args.workload, args.seed, args.smoke)
    reps = 1 if args.smoke else SETUP_REPS
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        raw_setup, setup_times = [], []
        for _ in range(reps):
            api, raw, scaled = set_up(workload, workdir, None, request=-1)
            raw_setup.append(raw)
            setup_times.append(scaled)
        seconds = args.seconds / 2 if args.trace else args.seconds
        phases = [timed_loop(api, workload, seconds, None)]

        if args.trace:
            tracer = tracing.Tracer()
            traced_raw_setup, traced_setup_times = [], []
            for rep in range(reps):
                api, raw, scaled = set_up(workload, workdir, tracer, request=-1 - rep)
                traced_raw_setup.append(raw)
                traced_setup_times.append(scaled)
            phases.append(timed_loop(api, workload, seconds, tracer))
            if tracer.missing:
                print(f"warning: layer functions not found: {', '.join(tracer.missing)}", file=sys.stderr)

        for phase in phases:  # output checks, outside the timed loops
            workload.check(api, phase)
        untraced = metrics = end_to_end(phases[0], setup_times)
        if args.trace:
            traced = end_to_end(phases[1], traced_setup_times)
            metrics = per_layer(tracer, reps, phases[1], untraced, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    report(args.workload, phases[0], untraced, raw_setup)
    if args.trace:
        report(args.workload, phases[1], traced, traced_raw_setup)
    for problem in [p for phase in phases for p in phase.problems]:
        print(f"check failed: {problem}", file=sys.stderr)
    errors = sum(phase.outcomes("error") for phase in phases)
    attempted = sum(phase.commands() for phase in phases)
    correct = errors == 0
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "setup_reps": reps,
        "commands": [len(phase.durations) for phase in phases],
        "passes": [phase.passes for phase in phases],
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    spec = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": errors,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in spec},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, one set-up (for the smoke test)")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
