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
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

from .model import DEFAULT_GAP_TOLERANCE, GEOM_TOL, CalibrationDesign, check_gap_tolerance

EVENT_CSV_HEADER = "t,i,j,rho,delta_rho"


class Event(NamedTuple):
    """Detection of mark i by sensor j at time t, free length rho.

    A row record: an immutable tuple of its fields, cheap to build by the
    thousand, that compares equal to the plain tuple ``(t, i, j, rho)``.
    """

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

    Gap matching works on bitmasks, where bit q stands for ``gaps[q]``:
    ``gap_positions`` indexes the gaps by value and :meth:`match_mask`
    collects the gaps that match a given one, caching one mask per
    tolerance and own gap value.  Like ``rho_values`` and ``gaps``, both are
    computed on first use and are not fields, so they stay out of equality,
    hashing and repr.
    """

    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.events, self.events[1:]):
            if not b.t >= a.t - GEOM_TOL:  # a nan time fails too
                raise ValueError("events must be time-ordered")

    @property
    def count(self) -> int:
        return len(self.events)

    @functools.cached_property
    def rectified(self) -> bool:
        return all(b.t > a.t + GEOM_TOL for a, b in zip(self.events, self.events[1:]))

    @functools.cached_property
    def rho_values(self) -> tuple[float, ...]:
        return tuple(map(operator.attrgetter("rho"), self.events))

    @functools.cached_property
    def gaps(self) -> tuple[float, ...]:
        """Length wound between consecutive detections (count - 1 values)."""
        rhos = self.rho_values
        return tuple(map(operator.sub, rhos, rhos[1:]))

    @functools.cached_property
    def gap_positions(self) -> dict[float, int]:
        """Each distinct gap value -> the bitmask of the q with ``gaps[q]`` equal to it."""
        positions: dict[float, int] = {}
        for q, gap in enumerate(self.gaps):
            positions[gap] = positions.get(gap, 0) | 1 << q
        return positions

    @functools.cached_property
    def _match_masks(self) -> dict[float, dict[float, int]]:
        return {}

    def match_mask(self, gap: float, tolerance: float) -> int:
        """Bitmask of the q with ``abs(gaps[q] - gap) <= tolerance``.

        Masks for the table's own gap values are cached per tolerance; a
        measured gap is rarely one of them, so caching only these keeps the
        cache as small as the set of distinct gaps.  Every entry is a pure
        function of its keys, so concurrent fills write equal values.
        """
        masks = self._match_masks.get(tolerance)
        if masks is None:
            masks = self._match_masks[tolerance] = {}
        mask = masks.get(gap)
        if mask is None:
            positions = self.gap_positions
            mask = 0
            for value, bits in positions.items():
                if abs(value - gap) <= tolerance:
                    mask |= bits
            if gap in positions:
                masks[gap] = mask
        return mask


@dataclass(frozen=True)
class DeltaStats:
    """Mean and spread of the wound length between successive detections."""

    mean: float
    std: float
    count: int


class StartStroke(NamedTuple):
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
        return left_sum(strokes) / len(strokes) if strokes else None

    @property
    def unidentifiable_starts(self) -> int:
        return sum(1 for e in self.entries if not e.identifiable)

    def entry(self, start: int) -> StartStroke:
        """The entry of 1-based start ``start``."""
        if not 1 <= start <= len(self.entries):
            raise IndexError(f"start {start} out of range 1..{len(self.entries)}")
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
    g = design.geometry
    l_max, h, v = g.l_max, g.h, g.v
    heights = tuple(enumerate(design.sensors.heights, start=1))
    # (t, i, -j, rho): the tuple order is the table order, and (i, j) is unique.
    found: list[tuple[float, int, int, float]] = []
    for i, position in enumerate(design.marks.positions, start=1):
        for j, height in heights:
            # The expressions of detection_time and CalibrationDesign.rho_at.
            t = (l_max - position - height) / v
            rho = position - (h - height)
            if t >= -GEOM_TOL and rho > GEOM_TOL:
                found.append((t, i, -j, rho))
    found.sort()
    return EventTable(tuple([Event(t, i, -j, rho) for t, i, j, rho in found]))


def _rank(event: Event) -> tuple[float, int]:
    return event.i / event.j, event.i


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
    events = table.events
    n = len(events)
    survivors: list[Event] = []
    first = 0  # index of the current group's first event
    for k in range(1, n + 1):
        if k == n or events[k].t > events[k - 1].t + GEOM_TOL:  # the group ends at k
            survivors.append(events[first] if k - first == 1 else min(events[first:k], key=_rank))
            first = k
    return EventTable(tuple(survivors))


def left_sum(values: Iterable[float]) -> float:
    """Sum in iteration order with plain float additions.

    This is what ``sum`` computes up to Python 3.11; from 3.12 ``sum``
    compensates float rounding, which moves results in the last digits.
    Reported numbers go through this helper so they do not depend on the
    interpreter.
    """
    return functools.reduce(operator.add, values, 0)


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
    mean = left_sum(gaps) / (n - 1)
    var = left_sum((g - mean) ** 2 for g in gaps) / (n - 2)
    return DeltaStats(mean=mean, std=math.sqrt(var), count=n)


def surviving_starts(
    table: EventTable, candidates: int, m: int, gap: float, tolerance: float
) -> int:
    """The candidate starts whose m-th table gap exists and matches ``gap``
    within ``tolerance``.

    Start sets are bitmasks: bit p - 1 stands for the 1-based start p.  The
    m-th gap of start p is ``gaps[p + m - 2]``, so shifting the match mask
    down by m - 1 lines it up with bit p - 1; starts with fewer than m gaps
    meet no bit.  This is the one elimination rule: ``identify.observe``
    folds measured gaps through it and :func:`stroke_profile` folds the
    table's own gaps.
    """
    return candidates & (table.match_mask(gap, tolerance) >> (m - 1))


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
    :func:`surviving_starts` call per step: groups of starts, as bitmasks,
    are replayed together and split by the exact value of their next gap.
    A group's members also share the length their common gaps wind, so each
    step adds its gap to that once, and a stroke is its start's gaps added
    left to right.
    """
    if not table.rectified:
        raise ValueError("stroke_profile needs a rectified table")
    check_gap_tolerance(tolerance)
    gaps = table.gaps
    positions = table.gap_positions
    everyone = (1 << table.count) - 1
    identified: dict[int, StartStroke] = {}
    # (starts sharing their first k - 1 gaps, the candidates those gaps leave,
    # k, the length those gaps wind)
    pending = [(everyone, everyone, 1, 0)]
    while pending:
        group, candidates, k, wound = pending.pop()
        rest = group & ((1 << (len(gaps) - k + 1)) - 1)  # the starts with a k-th gap
        while rest:
            gap = gaps[(rest & -rest).bit_length() + k - 2]  # the lowest start's k-th gap
            subgroup = rest & (positions[gap] >> (k - 1))
            rest ^= subgroup
            survivors = surviving_starts(table, candidates, k, gap, tolerance)
            stroke = wound + gap
            if survivors & (survivors - 1) == 0:
                # Every start survives its own gaps, so the subgroup is that start.
                p = survivors.bit_length()
                identified[p] = StartStroke(p, k, stroke)
            else:
                pending.append((subgroup, survivors, k + 1, stroke))
    return StrokeProfile(
        tuple(identified.get(p) or StartStroke(p, None, None) for p in range(1, table.count + 1))
    )


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

    The gap column is derived data and is ignored on input.  Times and
    lengths must be finite and mark and sensor indices at least 1.
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
            event = Event(float(parts[0]), int(parts[1]), int(parts[2]), float(parts[3]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not (math.isfinite(event.t) and math.isfinite(event.rho)):
            raise ValueError(
                f"line {lineno}: t and rho must be finite, got t={event.t} rho={event.rho}"
            )
        if event.i < 1 or event.j < 1:
            raise ValueError(f"line {lineno}: indices start at 1, got i={event.i} j={event.j}")
        parsed.append(event)
    return EventTable(tuple(parsed))
