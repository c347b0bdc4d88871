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
import functools
from dataclasses import dataclass, replace

from .events import EventTable, advance, enumerate_events, left_sum, rectify
from .model import DEFAULT_GAP_TOLERANCE, CalibrationDesign, check_gap_tolerance
from .simulate import ObservationTrace


class Status(str, enum.Enum):
    """Identification outcome; the value is what ``calibrate`` prints."""

    AMBIGUOUS = "ambiguous"
    IDENTIFIED = "identified"
    NO_MATCH = "no_match"


@dataclass(frozen=True)
class IdentifierState:
    """Candidate set after some number of observed gaps.

    A state holds only the table, the tolerance, the observed gaps and
    ``current``: a bitmask in which bit q stands for the 1-based event
    q + 1 of the rectified table as the drive's current position.  The
    status is read from it: no candidate is no_match, one event is
    identified, more are ambiguous.
    """

    table: EventTable
    tolerance: float
    observed: tuple[float, ...]
    current: int

    @property
    def candidate_count(self) -> int:
        return self.current.bit_count()

    @property
    def status(self) -> Status:
        if not self.current:
            return Status.NO_MATCH
        return Status.IDENTIFIED if self.candidate_count == 1 else Status.AMBIGUOUS

    @property
    def identified_index(self) -> int | None:
        if self.status is not Status.IDENTIFIED:
            return None
        return self.current.bit_length()

    @property
    def identified_rho(self) -> float | None:
        here = self.identified_index
        return None if here is None else self.table.events[here - 1].rho

    @property
    def terminal(self) -> bool:
        return self.status in (Status.IDENTIFIED, Status.NO_MATCH)


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


def start(table: EventTable, tolerance: float = DEFAULT_GAP_TOLERANCE) -> IdentifierState:
    """State right after the first detection: every table position is possible."""
    if not table.rectified:
        raise ValueError("identifier needs a rectified event table")
    if table.count < 2:
        raise ValueError("identification needs a table with at least 2 events")
    check_gap_tolerance(tolerance)
    return IdentifierState(
        table=table,
        tolerance=tolerance,
        observed=(),
        current=(1 << table.count) - 1,
    )


def observe(state: IdentifierState, gap: float) -> IdentifierState:
    """Fold one measured gap into the candidates; their count only shrinks."""
    if state.status is not Status.AMBIGUOUS:
        raise ValueError(f"cannot observe on a {state.status.value} state")
    current = advance(state.current, state.table.match_mask(gap, state.tolerance))
    return replace(state, observed=state.observed + (gap,), current=current)


@dataclass(frozen=True)
class ClosedLoopCorrector:
    """Least-squares encoder correction from identified lengths.

    Each identified detection pairs a true length (the setpoint) with the
    raw register (the measurement).  With two or more samples at distinct
    lengths the register model ``reading = scale * (start_rho - rho) +
    offset`` is fitted, after which raw readings convert back to corrected
    lengths.
    """

    start_rho: float
    samples: tuple[tuple[float, float], ...] = ()

    @functools.cached_property
    def _fit(self) -> tuple[float, float] | None:
        distinct = {rho for rho, _ in self.samples}
        if len(distinct) < 2:
            return None
        xs = [self.start_rho - rho for rho, _ in self.samples]
        ys = [reading for _, reading in self.samples]
        n = len(xs)
        mx = left_sum(xs) / n
        my = left_sum(ys) / n
        sxx = left_sum((x - mx) ** 2 for x in xs)
        sxy = left_sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        scale = sxy / sxx
        offset = my - scale * mx
        return scale, offset

    @property
    def scale(self) -> float | None:
        fit = self._fit
        return fit[0] if fit else None

    @property
    def offset(self) -> float | None:
        fit = self._fit
        return fit[1] if fit else None

    def corrected_length(self, reading: float) -> float:
        fit = self._fit
        if fit is None:
            raise ValueError("corrector needs two samples at distinct lengths")
        scale, offset = fit
        return self.start_rho - (reading - offset) / scale


def corrector_update(
    corrector: ClosedLoopCorrector, identified_rho: float, raw_reading: float
) -> ClosedLoopCorrector:
    """Append one (setpoint, measurement) sample; the fit refreshes lazily."""
    return replace(corrector, samples=corrector.samples + ((identified_rho, raw_reading),))


def run_trace(
    design: CalibrationDesign,
    trace: ObservationTrace,
    tolerance: float = DEFAULT_GAP_TOLERANCE,
) -> CalibrationResult:
    """Replay a trace: eliminate candidates gap by gap, then close the loop.

    The first record arms the identifier; each further record contributes
    the encoder-measured gap.  On identification every record maps back to
    a table event, all of them feed the encoder corrector, and the stroke
    is the table length wound from the first to the identifying detection.
    A trace that ends with more than one candidate left, or with no
    detection at all, is ambiguous and carries no length.  The status rests
    on the encoder readings alone: neither the truth columns nor the drive's
    stop length are read, and its start length only anchors the corrector.
    The tolerance is checked even when the trace has no detection to match.
    """
    check_gap_tolerance(tolerance)
    table = rectify(enumerate_events(design))
    records = trace.records
    if not records:
        return CalibrationResult(Status.AMBIGUOUS, None, None, ())
    state = start(table, tolerance)
    history = [state.candidate_count]
    for prev, rec in zip(records, records[1:]):
        state = observe(state, rec.reading - prev.reading)
        history.append(state.candidate_count)
        if state.terminal:
            break
    status = state.status
    if status is not Status.IDENTIFIED:
        return CalibrationResult(status, None, None, tuple(history))

    first = state.identified_index - len(state.observed)
    stroke = table.events[first - 1].rho - state.identified_rho

    scale = offset = None
    if trace.start_rho is not None:
        samples = tuple((e.rho, r.reading) for e, r in zip(table.events[first - 1 :], records))
        corrector = ClosedLoopCorrector(trace.start_rho, samples)
        scale, offset = corrector.scale, corrector.offset

    return CalibrationResult(status, state.identified_rho, stroke, tuple(history), scale, offset)
