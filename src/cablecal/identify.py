"""Online cable-length identification by candidate elimination.

The first detection says nothing about where on the cable we are.  Every
further detection contributes one observed length gap; table positions whose
gap run disagrees are eliminated.  A single survivor identifies the event
sequence and therefore the absolute cable length; an empty survivor set
signals a sensor fault or a design/trace mismatch.  Elimination is the only
way to a length: a drive that ends with several survivors is ambiguous,
however far it wound after its last detection.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .events import advance, enumerate_events, left_sum, rectify
from .model import DEFAULT_GAP_TOLERANCE, GEOM_TOL, CalibrationDesign, check_tolerance
from .simulate import ObservationTrace


class Status(str, enum.Enum):
    """Identification outcome; the value is what ``calibrate`` prints."""

    AMBIGUOUS = "ambiguous"
    IDENTIFIED = "identified"
    NO_MATCH = "no_match"


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of replaying one observation trace against a design."""

    status: Status
    rho: float | None
    stroke: float | None
    candidate_history: tuple[int, ...]
    corrector_scale: float | None = None
    corrector_offset: float | None = None

    @property
    def detections_used(self) -> int:
        return len(self.candidate_history)

    def lines(self) -> list[str]:
        history = " -> ".join(str(c) for c in self.candidate_history) or "-"
        out = [
            f"status: {self.status.value}",
            f"rho: {self.rho:.2f}" if self.rho is not None else "rho: -",
            f"detections_used: {self.detections_used}",
            f"stroke: {self.stroke:.2f}" if self.stroke is not None else "stroke: -",
            f"candidate_history: {history}",
        ]
        if self.corrector_scale is not None:
            out.append(f"corrector_scale: {self.corrector_scale:.6f}")
            out.append(f"corrector_offset: {self.corrector_offset:.6f}")
        return out


def fit_encoder(
    start_rho: float, samples: list[tuple[float, float]]
) -> tuple[float, float] | None:
    """Least-squares encoder correction ``(scale, offset)`` from identified lengths.

    Each sample pairs a true length (the setpoint) with the raw register
    (the measurement).  The register model ``reading = scale * (start_rho -
    rho) + offset`` is fitted; it needs two or more distinct wound lengths
    ``start_rho - rho`` as computed, and None is returned otherwise.  A
    start so far above the samples that those all round to one value
    gives no fit, as a drive without a start does, and so do lengths whose
    sums leave the float range or give a scale or offset that is not finite.
    """
    xs = [start_rho - rho for rho, _ in samples]
    if len(set(xs)) < 2:
        return None
    ys = [reading for _, reading in samples]
    n = len(xs)
    mx = left_sum(xs) / n
    my = left_sum(ys) / n
    try:
        sxx = left_sum((x - mx) ** 2 for x in xs)
        scale = left_sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    except (OverflowError, ZeroDivisionError):  # squares above or all below the float range
        return None
    offset = my - scale * mx
    # An overflowed sum is infinite and leaves sxx or the scale not finite.
    if not all(map(math.isfinite, (sxx, scale, offset))):
        return None
    return scale, offset


def run_trace(
    design: CalibrationDesign,
    trace: ObservationTrace,
    tolerance: float = DEFAULT_GAP_TOLERANCE,
) -> CalibrationResult:
    """Replay a trace: eliminate candidates gap by gap, then close the loop.

    The first record arms the identifier; each further record contributes
    the encoder-measured gap.  On identification every record maps back to
    a table event, all of them feed the encoder fit, and the stroke
    is the table length wound from the first to the identifying detection.
    A trace that ends with more than one candidate left, or with no
    detection at all, is ambiguous and carries no length.  The status rests
    on the encoder readings alone: neither the truth columns nor the drive's
    stop length are read, and its start length only anchors the encoder fit.
    The tolerance is checked even when the trace has no detection to match.
    A start above the design's ``rho_max`` cannot be wound from, and a
    detection on a design of fewer than 2 events cannot be identified; both
    are a ValueError.  An online caller takes the same step per detection:
    ``events.advance(current, table.match_mask(gap, tolerance))``.
    """
    check_tolerance("gap", tolerance)
    rho_max = design.geometry.rho_max
    if trace.start_rho is not None and trace.start_rho > rho_max + GEOM_TOL:
        raise ValueError(f"trace start_rho={trace.start_rho} lies above rho_max={rho_max}")
    table = rectify(enumerate_events(design))
    records = trace.records
    if not records:
        return CalibrationResult(Status.AMBIGUOUS, None, None, ())
    if table.count < 2:
        raise ValueError("identification needs a table with at least 2 events")
    # Bit q of current stands for event q + 1 as the drive's position; the
    # first detection leaves every event possible.  Fold one advance per
    # gap until at most one event is left (identified or no_match).
    current = (1 << table.count) - 1
    history = [table.count]
    for prev, rec in zip(records, records[1:]):
        current = advance(current, table.match_mask(rec.reading - prev.reading, tolerance))
        history.append(current.bit_count())
        if current & (current - 1) == 0:
            break
    if not current:
        return CalibrationResult(Status.NO_MATCH, None, None, tuple(history))
    if current & (current - 1):
        return CalibrationResult(Status.AMBIGUOUS, None, None, tuple(history))

    here = current.bit_length()
    rhos = table.rho_values
    rho = rhos[here - 1]
    first = here - (len(history) - 1)  # the first record's event
    stroke = rhos[first - 1] - rho

    fit = None
    if trace.start_rho is not None:
        samples = [(length, r.reading) for length, r in zip(rhos[first - 1 :], records)]
        fit = fit_encoder(trace.start_rho, samples)
    scale, offset = fit or (None, None)

    return CalibrationResult(Status.IDENTIFIED, rho, stroke, tuple(history), scale, offset)
