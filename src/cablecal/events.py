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
import math
import operator
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from typing import NamedTuple, TypeVar

from .model import DEFAULT_GAP_TOLERANCE, GEOM_TOL, CalibrationDesign, check_gap_tolerance

EVENT_CSV_HEADER = "t,i,j,rho,delta_rho"

_Row = TypeVar("_Row")


class Event(NamedTuple):
    """Detection of mark i by sensor j at time t, free length rho.

    A row record: an immutable tuple of its fields, cheap to build by the
    thousand, that compares equal to the plain tuple ``(t, i, j, rho)``.
    """

    t: float
    i: int
    j: int
    rho: float


_time = operator.itemgetter(0)  # an event's t
_rho = operator.itemgetter(3)  # an event's rho
# A row record from its finished tuple, as the record's own __new__ makes
# it, without the call through that.
_new_row = tuple.__new__
_wound = operator.itemgetter(3)  # a stroke_profile group's wound length


def _new_instants(times: tuple[float, ...]) -> Iterator[bool]:
    """For each time after the first, whether it lies more than ``GEOM_TOL``
    after the one before it, i.e. does not share that event's instant."""
    return map(operator.gt, times[1:], map(operator.add, times, repeat(GEOM_TOL)))


@dataclass(frozen=True)
class EventTable:
    """Time-ordered detection events with derived length gaps.

    A raw table may hold simultaneous events.  ``rectified`` is read from
    the events: no two events share an instant, i.e. every time exceeds the
    one before by more than ``GEOM_TOL``.

    Gap matching works on bitmasks, where bit q stands for ``gaps[q]``:
    ``gap_positions`` indexes the gaps by value and :meth:`match_mask`
    collects the gaps that match a given one.  The ``times`` and
    ``rho_values`` columns are filled at construction, and ``gaps`` and the
    index on first use.  None of them is a field, so they stay out of
    equality, hashing and repr.  The checks on a table compare whole
    columns.
    """

    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        # Every table's checks read both columns.
        times = tuple(map(_time, self.events))
        rhos = tuple(map(_rho, self.events))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "rho_values", rhos)
        # A time may lie up to GEOM_TOL before the one before it; a nan fails.
        if not all(map(operator.ge, times[1:], map(operator.sub, times, repeat(GEOM_TOL)))):
            raise ValueError("events must be time-ordered")
        # Ordered times are finite when the first and last are.
        if times and not (math.isfinite(times[0]) and math.isfinite(times[-1])):
            raise ValueError("event times must be finite")
        if not all(map(math.isfinite, rhos)):
            raise ValueError("event lengths must be finite")

    @property
    def count(self) -> int:
        return len(self.events)

    @functools.cached_property
    def rectified(self) -> bool:
        return all(_new_instants(self.times))

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

    def match_mask(self, gap: float, tolerance: float) -> int:
        """Bitmask of the q with ``abs(gaps[q] - gap) <= tolerance``."""
        mask = 0
        for value, bits in self.gap_positions.items():
            if abs(value - gap) <= tolerance:
                mask |= bits
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


def _reach(
    positions: tuple[float, ...],
    top_down: tuple[tuple[int, float], ...],
    l_max: float,
    h: float,
    v: float,
) -> list[tuple[tuple[int, float], ...]]:
    """Each mark's reachable sensors, top-down, as ``top_down`` lists them.

    A pair is reachable when ``t >= -GEOM_TOL`` and ``rho > GEOM_TOL``.
    Down the marks t rises and rho falls, and float rounding keeps both
    monotone, so the marks that reach a sensor form one run: from the
    first whose t reaches to the last whose rho does.  Each run's ends are
    found by testing inward from the ends of the marks, so a design whose
    every pair reaches tests two pairs per sensor.  Between the run ends the
    reachable sensors stay the same, and each stretch of marks shares one
    tuple of them.
    """
    marks = len(positions)
    runs = []  # per sensor, top-down: (the first index of its marks, their end)
    for _, height in top_down:
        first, end = 0, marks
        while first < marks and (l_max - positions[first] - height) / v < -GEOM_TOL:
            first += 1
        while end > first and positions[end - 1] - (h - height) <= GEOM_TOL:
            end -= 1
        runs.append((first, end))
    cuts = sorted({0, marks}.union(*runs))
    reach: list[tuple[tuple[int, float], ...]] = []
    for low, high in zip(cuts, cuts[1:]):
        sensors = tuple(sensor for sensor, (first, end) in zip(top_down, runs) if first <= low < end)
        reach += [sensors] * (high - low)
    return reach


def enumerate_events(design: CalibrationDesign) -> EventTable:
    """All physically reachable mark/sensor meetings, sorted by time.

    Pairs with negative detection time or non-positive free length are
    excluded (the cable starts at full extension and the platform cannot
    pass the support).  Simultaneous events are kept; ties are ordered by
    ascending mark index then descending sensor index for stable output.
    """
    g = design.geometry
    l_max, h, v = g.l_max, g.h, g.v
    positions = design.marks.positions
    top_down = tuple(enumerate(design.sensors.heights, start=1))[::-1]
    # Marks in index order and each mark's sensors top-down, so a stable
    # sort on time alone leaves ties by ascending i, then descending j.
    rows = [
        # The expressions of detection_time and CalibrationDesign.rho_at.
        ((l_max - position - height) / v, i, j, position - (h - height))
        for i, position, sensors in zip(count(1), positions, _reach(positions, top_down, l_max, h, v))
        for j, height in sensors
    ]
    rows.sort(key=_time)
    return EventTable(tuple(map(_new_row, repeat(Event), rows)))


def _survivors(events: tuple[Event, ...], times: tuple[float, ...]) -> list[Event]:
    """One grouping pass of :func:`rectify`: the survivor of each group.

    The first event of a group minimising ``(i / j, i)`` survives.  The
    comparison runs field by field, and a one-event group is not ranked.
    """
    survivors = []
    first = 0
    for last in chain(compress(range(1, len(events)), _new_instants(times)), (len(events),)):
        survivor = events[first]
        if last - first > 1:
            _, mark, sensor, _ = survivor
            ratio = mark / sensor
            for event in events[first + 1 : last]:
                _, i, j, _ = event
                if (rank := i / j) < ratio or rank == ratio and i < mark:
                    survivor, ratio, mark = event, rank, i
        survivors.append(survivor)
        first = last
    return survivors


def rectify(table: EventTable) -> EventTable:
    """Resolve simultaneous detections so each instant maps to one event.

    An event no more than ``GEOM_TOL`` after the one before it shares that
    event's instant, so a chain of such events forms one group.  Within a
    group the survivor is the pair minimising the index ratio i/j; on a
    ratio tie the smaller mark index wins.  This keeps the detection closest
    to the support, i.e. the shortest stroke.

    Every table :class:`EventTable` accepts comes back rectified.  When the
    times never fall, every survivor lies within its group and successive
    groups lie more than ``GEOM_TOL`` apart, so one pass rectifies; tables
    from :func:`enumerate_events` are sorted and take one.  A table whose
    times dip by less than ``GEOM_TOL`` can leave two survivors sharing an
    instant, and the grouping repeats on the survivors until none do.
    Rectifying a rectified table is a no-op.
    """
    events, times = table.events, table.times
    if not events:
        return table
    while True:
        survivors = _survivors(events, times)
        if list(times) == sorted(times):  # in order, so one pass rectified them
            return EventTable(tuple(survivors))
        events, times = survivors, tuple(map(_time, survivors))


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
    var = left_sum(map(pow, map(operator.sub, gaps, repeat(mean)), repeat(2))) / (n - 2)
    return DeltaStats(mean=mean, std=math.sqrt(var), count=n)


def advance(current: int, match: int) -> int:
    """The events the drive may be at after one more gap, given ``match``.

    ``match`` is an :meth:`EventTable.match_mask`: bit q is set when
    ``gaps[q]`` matches the observed gap.  Event sets are bitmasks too: bit
    q stands for the 1-based event q + 1 as the drive's current position.
    A current event survives when its next table gap matches, and the drive
    moves on to the event after it; the last event has no gap.  This is the
    one elimination rule: ``identify.run_trace`` folds measured gaps through
    it, as an online caller does one detection at a time, and
    :func:`stroke_profile` folds the table's own gaps.
    """
    return (current & match) << 1


def stroke_profile(
    table: EventTable,
    tolerance: float = DEFAULT_GAP_TOLERANCE,
    limit: tuple[int, float] | None = None,
) -> StrokeProfile | None:
    """How much cable each starting position must wind before it is unique.

    The profile is the identifier's elimination replayed on the table's own
    gaps: from the full candidate set, start p folds g_p, g_{p+1}, ...
    through :func:`advance`, and k counts the gaps until a single current
    event survives, as on a clean ``calibrate`` drive.  Starts whose gaps
    run out first (including the final event, which has none) are flagged
    rather than scored.

    The elimination is a function of the gaps folded so far, so starts that
    share a gap prefix hold the same candidates and share one
    :func:`advance` call per step: groups of starts are replayed together,
    held as the mask of their current events, and split by the exact value
    of their next gap.  A group's members also share the length their
    common gaps wind, so each step adds its gap to that once, and a stroke
    is its start's gaps added left to right.  Every gap value is folded at
    k = 1, so its match mask is taken once, up front.  The walk is
    deepest-first; with a limit, the groups a split yields are walked
    longest-wound first, so a long stroke shows early.

    With a ``limit`` ``(u, w)`` the walk returns None as soon as it proves
    that the profile's ``(unidentifiable_starts, worst_stroke)``, with no
    stroke read as infinite, is lexicographically above the limit.  Gaps
    are positive, so the starts flagged so far and the length any group
    has wound are lower bounds on the final pair: it is proved once more
    than u starts are flagged, or u are and a group has wound more than w.
    A profile it does return is exact, and may still lie above the limit.
    """
    if not table.rectified:
        raise ValueError("stroke_profile needs a rectified table")
    check_gap_tolerance(tolerance)
    gaps = table.gaps
    # Each gap value -> (the events whose next gap it is, the gaps matching it)
    splits = {
        gap: (bits, table.match_mask(gap, tolerance)) for gap, bits in table.gap_positions.items()
    }
    everyone = (1 << table.count) - 1
    has_next = everyone >> 1  # the events with a next gap
    ends = has_next ^ (has_next >> 1)  # the event whose next gap is the last
    # Without a limit, one that no profile lies above.
    most, longest = limit or (table.count, math.inf)
    flagged = min(table.count, 1)  # the final event has no gap
    identified: dict[int, tuple[int, int, float]] = {}  # p -> (p, k, stroke)
    # (those of the current events of starts sharing their first k - 1 gaps
    # that have a next gap, the candidates those gaps leave, k, the length
    # those gaps wind)
    pending = [(has_next, everyone, 1, 0)]
    while pending:
        rest, current, k, wound = pending.pop()
        split = len(pending)
        while rest:
            gap = gaps[(rest & -rest).bit_length() - 1]  # the lowest event's next gap
            bits, match = splits[gap]
            subgroup = rest & bits
            rest ^= subgroup
            after = advance(current, match)
            stroke = wound + gap
            if after & (after - 1) == 0:
                # Every start survives its own gaps, so the subgroup is that start.
                p = after.bit_length() - k
                identified[p] = (p, k, stroke)
            else:
                if subgroup & ends:  # its start's gaps run out here
                    flagged += 1
                    if flagged > most:
                        return None
                    subgroup ^= ends
                    if not subgroup:
                        continue
                pending.append((subgroup << 1, after, k + 1, stroke))
            if stroke > longest and flagged >= most:
                return None
        if limit and len(pending) - split > 1:
            pending[split:] = sorted(pending[split:], key=_wound)
    return StrokeProfile(tuple([
        tuple.__new__(StartStroke, identified.get(p) or (p, None, None))
        for p in range(1, table.count + 1)
    ]))


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


def _csv_lines(text: str) -> list[tuple[int, str]]:
    """The non-blank lines of a CSV document, each with its 1-based line number."""
    return [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]


def _read_csv_rows(
    lines: list[tuple[int, str]], readers: dict[str, Callable[[list[str]], _Row]]
) -> list[_Row]:
    """Read the rows under a header from numbered lines (see :func:`_csv_lines`).

    The first line must be one of the headers that key ``readers``.  Every
    later line must have as many columns as that header and is read by its
    reader; a ``ValueError`` the reader raises names the line's number in
    the document.
    """
    header = lines[0][1].strip() if lines else None
    if header not in readers:
        raise ValueError(f"expected header {' or '.join(map(repr, readers))}")
    read_row = readers[header]
    columns = header.count(",") + 1
    rows: list[_Row] = []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != columns:
            raise ValueError(f"line {lineno}: expected {columns} columns, got {len(parts)}")
        try:
            rows.append(read_row(parts))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return rows


def _event_row(parts: list[str]) -> Event:
    event = Event(float(parts[0]), int(parts[1]), int(parts[2]), float(parts[3]))
    if not (math.isfinite(event.t) and math.isfinite(event.rho)):
        raise ValueError(f"t and rho must be finite, got t={event.t} rho={event.rho}")
    if event.i < 1 or event.j < 1:
        raise ValueError(f"indices start at 1, got i={event.i} j={event.j}")
    return event


def parse_event_csv(text: str) -> EventTable:
    """Parse CSV produced by :func:`format_event_csv`.

    The gap column is derived data and is ignored on input.  Times and
    lengths must be finite and mark and sensor indices at least 1.
    """
    return EventTable(tuple(_read_csv_rows(_csv_lines(text), {EVENT_CSV_HEADER: _event_row})))
