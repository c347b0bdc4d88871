"""Synthetic winding traces from ground-truth physics plus an imperfect encoder.

The drum encoder integrates rotation times an assumed radius, so its scale
is uncertain and its register starts at an arbitrary offset.  The simulator
produces the detection instants analytically from the design and corrupts
only the encoder readings: scale error, offset and per-reading Gaussian
jitter drawn from a seeded Mersenne Twister (MT19937, Python's ``random``),
so traces are reproducible bit-for-bit across platforms.
"""

from __future__ import annotations

import bisect
import math
import operator
import random
from dataclasses import dataclass
from typing import NamedTuple

from .events import _csv_lines, _read_csv_rows, enumerate_events, rectify
from .model import GEOM_TOL, CalibrationDesign

TRACE_CSV_HEADER = "t,encoder_reading,truth_rho,truth_i,truth_j"
# The header of a hardware log, which has no truth columns.
TRACE_CSV_SHORT_HEADER = "t,encoder_reading"


def _finite(x: float | None) -> bool:
    """True when x is unknown (None) or a finite number."""
    return x is None or math.isfinite(x)


@dataclass(frozen=True)
class EncoderModel:
    """Incremental drum encoder with unknown scale and start offset.

    scale     multiplier on true wound length (unknown effective radius)
    offset    register value at the start of the drive
    noise_sd  standard deviation of per-reading jitter, metres
    seed      jitter stream seed
    """

    scale: float = 1.0
    offset: float = 0.0
    noise_sd: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.scale, self.offset, self.noise_sd))):
            raise ValueError(
                f"encoder values must be finite, got scale={self.scale} "
                f"offset={self.offset} noise_sd={self.noise_sd}"
            )
        if self.scale <= 0:
            raise ValueError(f"encoder scale must be positive, got {self.scale}")
        if self.noise_sd < 0:
            raise ValueError(f"noise_sd must be non-negative, got {self.noise_sd}")


class TraceRecord(NamedTuple):
    """One detection: time, encoder register, and ground truth when known.

    Imported hardware logs lack the truth columns, hence the Nones.
    """

    t: float
    reading: float
    truth_rho: float | None = None
    truth_i: int | None = None
    truth_j: int | None = None


class TraceRecordError(ValueError):
    """A trace record breaks a rule of :class:`ObservationTrace`.

    ``index`` is the record's 0-based position in the trace and ``reason``
    the rule it breaks, worded to follow the record's line number in a
    trace file.
    """

    def __init__(self, message: str, index: int, reason: str) -> None:
        super().__init__(message)
        self.index = index
        self.reason = reason


_TIMES_INCREASE = "trace times must strictly increase"
_TRUTHS_DECREASE = "truth lengths must strictly decrease while winding"


def _check_records(records: tuple[TraceRecord, ...]) -> None:
    """Finite values, increasing times and, where two successive truth
    lengths are known, decreasing truth lengths: raises a
    :class:`TraceRecordError` naming the first record that breaks one.

    Every record's values are checked before any record is compared with
    the one before it, and the comparisons run pair by pair, times before
    truths.
    """
    for n, r in enumerate(records):
        if not (math.isfinite(r.t) and math.isfinite(r.reading) and _finite(r.truth_rho)):
            got = f"got t={r.t} reading={r.reading} truth_rho={r.truth_rho}"
            raise TraceRecordError(
                f"trace record {n + 1} must be finite, {got}", n, f"values must be finite, {got}"
            )
    for n, (a, b) in enumerate(zip(records, records[1:]), start=1):
        if b.t <= a.t:
            raise TraceRecordError(_TIMES_INCREASE, n, _TIMES_INCREASE)
        if a.truth_rho is not None and b.truth_rho is not None and b.truth_rho >= a.truth_rho:
            raise TraceRecordError(_TRUTHS_DECREASE, n, _TRUTHS_DECREASE)


@dataclass(frozen=True)
class ObservationTrace:
    """Detections from one continuous winding drive.

    A record with a non-finite value, a time not after the one before, or a
    known truth length not below the known one before raises a
    :class:`TraceRecordError` that names the record.
    """

    records: tuple[TraceRecord, ...]
    start_rho: float | None
    stop_rho: float | None

    def __post_init__(self) -> None:
        if not (_finite(self.start_rho) and _finite(self.stop_rho)):
            raise ValueError(
                f"trace start_rho and stop_rho must be finite, got "
                f"{self.start_rho} and {self.stop_rho}"
            )
        _check_records(self.records)

    @property
    def count(self) -> int:
        return len(self.records)


def simulate(
    design: CalibrationDesign,
    encoder: EncoderModel,
    start_rho: float,
    stop_rho: float,
) -> ObservationTrace:
    """Wind from start_rho down to stop_rho and record every detection.

    Events are the design's rectified detections whose free length lies in
    [stop_rho, start_rho]; simultaneous truth events collapse to the single
    rectified survivor, since one physical instant yields one record.  The
    encoder register reads ``offset + scale * wound + jitter``, each jitter
    ``+0.0`` at ``noise_sd = 0``.  Equal start and stop produce an empty
    trace.  Deterministic for a given seed.

    Records are built from the ``(i, j, rho)`` columns of the design's one
    rectified table (:func:`~cablecal.events.rectify`), without event rows.
    """
    g = design.geometry
    if not (g.b - GEOM_TOL <= stop_rho <= start_rho <= g.rho_max + GEOM_TOL):
        raise ValueError(
            f"need b <= stop_rho <= start_rho <= rho_max, got "
            f"stop={stop_rho}, start={start_rho} (b={g.b}, rho_max={g.rho_max})"
        )
    if abs(start_rho - stop_rho) <= GEOM_TOL:
        return ObservationTrace((), start_rho, stop_rho)

    table = rectify(enumerate_events(design))
    marks, sensors, rhos = table.marks, table.sensors, table.rho_values
    # Lengths fall down the table, so the window is one run of it.
    first = bisect.bisect_left(rhos, -(start_rho + GEOM_TOL), key=operator.neg)
    last = bisect.bisect_right(rhos, -(stop_rho - GEOM_TOL), key=operator.neg)
    truths = rhos[first:last]
    wounds = [start_rho - rho for rho in truths]
    gauss, sd = random.Random(encoder.seed).gauss, encoder.noise_sd
    jitters = [gauss(0.0, sd) for _ in wounds]
    v, offset, scale = g.v, encoder.offset, encoder.scale
    records = tuple([
        tuple.__new__(TraceRecord, (wound / v, offset + scale * wound + jitter, rho, i, j))
        for wound, jitter, rho, i, j in zip(wounds, jitters, truths, marks[first:last], sensors[first:last])
    ])
    return ObservationTrace(records, start_rho, stop_rho)


def format_trace_csv(trace: ObservationTrace) -> str:
    """Render a trace as CSV with a metadata comment line.

    Floats use shortest round-trip formatting so re-parsing reproduces the
    trace exactly; truth columns are left empty when unknown.
    """
    lines = []
    meta = []
    if trace.start_rho is not None:
        meta.append(f"start_rho={trace.start_rho!r}")
    if trace.stop_rho is not None:
        meta.append(f"stop_rho={trace.stop_rho!r}")
    lines.append("# " + " ".join(meta))
    lines.append(TRACE_CSV_HEADER)
    for r in trace.records:
        truth_rho = "" if r.truth_rho is None else repr(r.truth_rho)
        truth_i = "" if r.truth_i is None else str(r.truth_i)
        truth_j = "" if r.truth_j is None else str(r.truth_j)
        lines.append(f"{r.t!r},{r.reading!r},{truth_rho},{truth_i},{truth_j}")
    return "\n".join(lines) + "\n"


def parse_trace_csv(text: str) -> ObservationTrace:
    """Parse CSV produced by :func:`format_trace_csv`, or a hardware log.

    The metadata comment is optional (hardware logs will not have it); the
    drive window is then unknown, and calibration fits no encoder correction.
    A log may also be headed ``t,encoder_reading`` alone; its truths are None.
    One leading byte-order mark is ignored.
    """
    window: dict[str, float] = {}
    lines = _csv_lines(text.removeprefix("\ufeff"))
    if lines and lines[0][1].lstrip().startswith("#"):
        lineno, comment = lines.pop(0)
        for token in comment.lstrip()[1:].split():
            key, _, value = token.partition("=")
            if key in ("start_rho", "stop_rho"):
                try:
                    window[key] = float(value)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {key}: {exc}") from None
                if not math.isfinite(window[key]):
                    raise ValueError(f"line {lineno}: {key} must be finite, got {value}")
    readers = {TRACE_CSV_HEADER: _trace_record, TRACE_CSV_SHORT_HEADER: _log_record}
    records = _read_csv_rows(lines, readers)
    try:
        return ObservationTrace(tuple(records), window.get("start_rho"), window.get("stop_rho"))
    except TraceRecordError as exc:
        # lines[0] is the header, so record k is on lines[k + 1].
        raise ValueError(f"line {lines[exc.index + 1][0]}: {exc.reason}") from None


def _trace_record(parts: list[str]) -> TraceRecord:
    # Values are checked for finiteness once, by ObservationTrace.
    t, reading, truth_rho, truth_i, truth_j = parts
    return tuple.__new__(TraceRecord, (
        float(t),
        float(reading),
        float(truth_rho) if truth_rho else None,
        int(truth_i) if truth_i else None,
        int(truth_j) if truth_j else None,
    ))


def _log_record(parts: list[str]) -> TraceRecord:
    t, reading = parts
    return tuple.__new__(TraceRecord, (float(t), float(reading), None, None, None))
