"""Detection-event enumeration, simultaneity rectification and gap analysis.

Winding the cable at constant speed from full extension sweeps every mark
past every sensor.  Each meeting is an event pinning the free length to
``rho = ||BM_i|| - (h - ||OS_j||)`` at time ``t = (l_max - ||BM_i|| -
||OS_j||) / v``.  Two different pairs can meet at the same instant; the
rectification rule keeps exactly one of them so that every instant maps to a
unique event.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass

from .model import DEFAULT_GAP_TOLERANCE, GEOM_TOL, CalibrationDesign, check_gap_tolerance

EVENT_CSV_HEADER = "t,i,j,rho,delta_rho"


@dataclass(frozen=True)
class Event:
    """Detection of mark i by sensor j at time t, free length rho."""

    t: float
    i: int
    j: int
    rho: float


@dataclass(frozen=True)
class EventTable:
    """Time-ordered detection events with derived length gaps.

    A raw table may hold simultaneous events.  ``rectified`` is read from
    the events: no two events share an instant, i.e. every time exceeds the
    one before by more than ``GEOM_TOL``.
    """

    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.events, self.events[1:]):
            if b.t < a.t - GEOM_TOL:
                raise ValueError("events must be time-ordered")

    @property
    def count(self) -> int:
        return len(self.events)

    @functools.cached_property
    def rectified(self) -> bool:
        return all(b.t > a.t + GEOM_TOL for a, b in zip(self.events, self.events[1:]))

    @functools.cached_property
    def gaps(self) -> tuple[float, ...]:
        """Length wound between consecutive detections (count - 1 values).

        Computed once per table; the cache is not a field, so it stays out
        of equality, hashing and repr.
        """
        return tuple(a.rho - b.rho for a, b in zip(self.events, self.events[1:]))

    @property
    def rho_values(self) -> tuple[float, ...]:
        return tuple(e.rho for e in self.events)


@dataclass(frozen=True)
class DeltaStats:
    """Mean and spread of the wound length between successive detections."""

    mean: float
    std: float
    count: int


@dataclass(frozen=True)
class StartStroke:
    """Identification cost when winding starts at one rectified event.

    k is the number of detections after the first needed before the observed
    gap sequence matches a single position in the table; stroke is the cable
    wound over those k detections.  Both are None when no suffix of the table
    ever becomes unique from this start.
    """

    start: int
    k: int | None
    stroke: float | None

    @property
    def identifiable(self) -> bool:
        return self.k is not None


@dataclass(frozen=True)
class StrokeProfile:
    """Per-start identification strokes plus worst-case and mean summaries."""

    entries: tuple[StartStroke, ...]

    @property
    def worst_stroke(self) -> float | None:
        return max((e.stroke for e in self.entries if e.stroke is not None), default=None)

    @property
    def mean_stroke(self) -> float | None:
        strokes = [e.stroke for e in self.entries if e.stroke is not None]
        return sum(strokes) / len(strokes) if strokes else None

    @property
    def unidentifiable_starts(self) -> int:
        return sum(1 for e in self.entries if not e.identifiable)

    def entry(self, start: int) -> StartStroke:
        return self.entries[start - 1]


def detection_time(design: CalibrationDesign, i: int, j: int) -> float:
    """Instant at which mark i meets sensor j when winding from full extension.

    Negative values mean the pair would only meet while unwinding; callers
    filter to the winding window.
    """
    g = design.geometry
    return (g.l_max - design.marks.position(i) - design.sensors.height(j)) / g.v


def enumerate_events(design: CalibrationDesign) -> EventTable:
    """All physically reachable mark/sensor meetings, sorted by time.

    Pairs with negative detection time or non-positive free length are
    excluded (the cable starts at full extension and the platform cannot
    pass the support).  Simultaneous events are kept; ties are ordered by
    ascending mark index then descending sensor index for stable output.
    """
    found: list[Event] = []
    for i in range(1, design.marks.count + 1):
        for j in range(1, design.sensors.count + 1):
            t = detection_time(design, i, j)
            rho = design.rho_at(i, j)
            if t >= -GEOM_TOL and rho > GEOM_TOL:
                found.append(Event(t, i, j, rho))
    found.sort(key=lambda e: (e.t, e.i, -e.j))
    return EventTable(tuple(found))


def rectify(table: EventTable) -> EventTable:
    """Resolve simultaneous detections so each instant maps to one event.

    An event no more than ``GEOM_TOL`` after the one before it shares that
    event's instant, so a chain of such events forms one group.  Within a
    group the survivor is the pair minimising the index ratio i/j; on a
    ratio tie the smaller mark index wins.  This keeps the detection closest
    to the support, i.e. the shortest stroke.  Successive groups lie more
    than ``GEOM_TOL`` apart, so the result is always rectified, and
    rectifying a rectified table is a no-op.
    """
    survivors: list[Event] = []
    group: list[Event] = []
    for event in table.events:
        if group and event.t > group[-1].t + GEOM_TOL:
            survivors.append(min(group, key=lambda e: (e.i / e.j, e.i)))
            group = []
        group.append(event)
    if group:
        survivors.append(min(group, key=lambda e: (e.i / e.j, e.i)))
    return EventTable(tuple(survivors))


def delta_stats(table: EventTable) -> DeltaStats:
    """Mean and spread of the gaps of a rectified table.

    The mean divides the gap sum by count - 1 (the number of gaps); the
    spread divides the squared deviations by count - 2.  Both denominators
    are part of the toolkit's contract, so downstream numbers stay
    reproducible.
    """
    if not table.rectified:
        raise ValueError("delta_stats needs a rectified table")
    n = table.count
    if n < 3:
        raise ValueError(f"need at least 3 events for gap statistics, got {n}")
    gaps = table.gaps
    mean = sum(gaps) / (n - 1)
    var = sum((g - mean) ** 2 for g in gaps) / (n - 2)
    return DeltaStats(mean=mean, std=math.sqrt(var), count=n)


def surviving_starts(
    gaps: tuple[float, ...], candidates: frozenset[int], m: int, gap: float, tolerance: float
) -> frozenset[int]:
    """The 1-based candidate starts whose m-th table gap exists and matches
    ``gap`` within ``tolerance``.

    This is the one elimination rule: ``identify.observe`` folds measured
    gaps through it and :func:`stroke_profile` folds the table's own gaps.
    """
    last = len(gaps) - m + 1  # the last start that still has an m-th gap
    return frozenset(
        p for p in candidates if p <= last and abs(gaps[p + m - 2] - gap) <= tolerance
    )


def stroke_profile(
    table: EventTable, tolerance: float = DEFAULT_GAP_TOLERANCE
) -> StrokeProfile:
    """How much cable each starting position must wind before it is unique.

    The profile is the identifier's elimination replayed on the table's own
    gaps: from the full candidate set, start p folds g_p, g_{p+1}, ...
    through :func:`surviving_starts`, and k counts the gaps until p alone
    survives, as on a clean ``calibrate`` drive.  Starts whose gaps run out
    first (including the final event, which has none) are flagged rather
    than scored.

    The elimination is a function of the gaps folded so far, so starts that
    share a gap prefix hold the same candidates and share one
    :func:`surviving_starts` call per step: groups of starts are replayed
    together and split where their next gaps differ.
    """
    if not table.rectified:
        raise ValueError("stroke_profile needs a rectified table")
    check_gap_tolerance(tolerance)
    gaps = table.gaps
    everyone = range(1, table.count + 1)
    entries = [StartStroke(p, None, None) for p in everyone]
    # (starts sharing their first k - 1 gaps, the candidates those gaps leave, k)
    pending = [(everyone, frozenset(everyone), 1)]
    while pending:
        starts, candidates, k = pending.pop()
        by_gap: dict[float, list[int]] = {}
        for p in starts:
            if p + k - 1 <= len(gaps):
                by_gap.setdefault(gaps[p + k - 2], []).append(p)
        for gap, group in by_gap.items():
            survivors = surviving_starts(gaps, candidates, k, gap, tolerance)
            if len(survivors) == 1:
                # Every start survives its own gaps, so the group is that start.
                (p,) = group
                entries[p - 1] = StartStroke(p, k, sum(gaps[p - 1 : p - 1 + k]))
            else:
                pending.append((group, survivors, k + 1))
    return StrokeProfile(tuple(entries))


def format_event_csv(table: EventTable, precision: str = "table") -> str:
    """Render a table as CSV: ``t,i,j,rho,delta_rho`` with the gap column
    empty on the first row.

    ``table`` precision fixes two decimals to match the printed layout
    tables; ``full`` emits shortest round-trip floats.
    """
    if precision not in ("table", "full"):
        raise ValueError(f"precision must be 'table' or 'full', got {precision!r}")

    def num(x: float) -> str:
        return f"{x:.2f}" if precision == "table" else repr(x)

    lines = [EVENT_CSV_HEADER]
    prev_rho: float | None = None
    for e in table.events:
        delta = "" if prev_rho is None else num(prev_rho - e.rho)
        lines.append(f"{num(e.t)},{e.i},{e.j},{num(e.rho)},{delta}")
        prev_rho = e.rho
    return "\n".join(lines) + "\n"


def parse_event_csv(text: str) -> EventTable:
    """Parse CSV produced by :func:`format_event_csv`.

    The gap column is derived data and is ignored on input.
    """
    lines = [ln for ln in io.StringIO(text).read().splitlines() if ln.strip()]
    if not lines or lines[0].strip() != EVENT_CSV_HEADER:
        raise ValueError(f"expected header {EVENT_CSV_HEADER!r}")
    parsed: list[Event] = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"line {lineno}: expected 5 columns, got {len(parts)}")
        try:
            parsed.append(
                Event(float(parts[0]), int(parts[1]), int(parts[2]), float(parts[3]))
            )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return EventTable(tuple(parsed))
