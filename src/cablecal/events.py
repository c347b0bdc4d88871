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
# A row record from its finished tuple, as the record's own __new__ makes
# it, without the call through that.
_new_row = tuple.__new__
_wound = operator.itemgetter(3)  # a stroke_profile group's wound length
_stroke = operator.itemgetter(2)  # an identified start's stroke


def _new_instants(times: tuple[float, ...]) -> Iterator[bool]:
    """For each time after the first, whether it lies more than ``GEOM_TOL``
    after the one before it, i.e. does not share that event's instant."""
    return map(operator.gt, times[1:], map(operator.add, times, repeat(GEOM_TOL)))


def _check_finite(columns: tuple[tuple, ...]) -> None:
    times, _, _, rhos = columns
    # Ordered times without a nan are finite when the first and last are.
    if times and not (math.isfinite(times[0]) and math.isfinite(times[-1])):
        raise ValueError("event times must be finite")
    if not all(map(math.isfinite, rhos)):
        raise ValueError("event lengths must be finite")


@dataclass(frozen=True)
class EventTable:
    """Time-ordered detection events with derived length gaps.

    A raw table may hold simultaneous events.  ``rectified`` is read from
    the events: no two events share an instant, i.e. every time exceeds the
    one before by more than ``GEOM_TOL``.

    Gap matching works on bitmasks, where bit q stands for ``gaps[q]``:
    ``gap_positions`` indexes the gaps by value and :meth:`match_mask`
    collects the gaps that match a given one.  A table holds its events as
    columns: ``times``, ``rho_values`` and the mark and sensor indices are
    set at construction, and ``gaps`` and the index on first use.  The
    tables :func:`enumerate_events` and :func:`rectify` return are built
    from their columns, and their ``events`` rows are built on first read
    (by ``==``, ``hash`` and ``repr`` too).  None of the columns is a
    field, so they stay out of equality, hashing and repr.  The checks on
    a table compare whole columns.
    """

    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        columns = tuple(zip(*self.events)) or ((),) * 4
        times = columns[0]
        # A time may lie up to GEOM_TOL before the one before it; a nan fails.
        if not all(map(operator.ge, times[1:], map(operator.sub, times, repeat(GEOM_TOL)))):
            raise ValueError("events must be time-ordered")
        _check_finite(columns)
        vars(self).update(times=times, rho_values=columns[3], _columns=columns)

    @classmethod
    def _from_columns(cls, columns: tuple[tuple, ...], rectified: bool = False) -> EventTable:
        """A table of checked ``(t, i, j, rho)`` columns whose rows are built
        on first read; ``rectified`` says the table is known to be."""
        table = object.__new__(cls)
        vars(table).update(times=columns[0], rho_values=columns[3], _columns=columns)
        if rectified:
            vars(table)["rectified"] = True
        return table

    def __getattr__(self, name: str) -> tuple[Event, ...]:
        # Reached only for names the instance lacks: the rows of a table
        # built from columns, until they are first read.
        if name != "events":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        events = tuple(map(_new_row, repeat(Event), zip(*vars(self)["_columns"])))
        vars(self)["events"] = events
        return events

    @property
    def count(self) -> int:
        return len(self.times)

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
    """Per-start identification strokes plus worst-case and mean summaries.

    The profiles :func:`stroke_profile` returns are built from its walk's
    identified starts: ``worst_stroke`` and ``unidentifiable_starts`` are
    set from them, and the ``entries`` are built on first read (by ``==``,
    ``hash`` and ``repr`` too), as an :class:`EventTable`'s rows are.
    """

    entries: tuple[StartStroke, ...]

    @classmethod
    def _from_walk(cls, identified: dict[int, tuple[int, int, float]], count: int) -> StrokeProfile:
        """The profile of a table of ``count`` events whose identified
        starts ``identified`` maps to their ``(start, k, stroke)``; other
        keys are no start and are left out."""
        profile = object.__new__(cls)
        # The strokes in start order, as the entries hold them.
        strokes = list(map(_stroke, filter(None, map(identified.get, range(1, count + 1)))))
        vars(profile).update(
            worst_stroke=max(strokes, default=None),
            unidentifiable_starts=count - len(strokes),
            _walk=(identified, count),
        )
        return profile

    def __getattr__(self, name: str) -> tuple[StartStroke, ...]:
        # Reached only for names the instance lacks: the entries of a
        # profile built from its walk, until they are first read.
        if name != "entries":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        identified, count = vars(self)["_walk"]
        entries = tuple([
            _new_row(StartStroke, identified.get(p) or (p, None, None)) for p in range(1, count + 1)
        ])
        vars(self)["entries"] = entries
        return entries

    @functools.cached_property
    def worst_stroke(self) -> float | None:
        return max((e.stroke for e in self.entries if e.stroke is not None), default=None)

    @property
    def mean_stroke(self) -> float | None:
        strokes = [e.stroke for e in self.entries if e.stroke is not None]
        return left_sum(strokes) / len(strokes) if strokes else None

    @functools.cached_property
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

    A pair is reachable when ``t >= -GEOM_TOL`` and ``rho > GEOM_TOL``: the
    cable starts at full extension and the platform cannot pass the
    support.  Simultaneous events are kept; ties are ordered by ascending
    mark index then descending sensor index for stable output.
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
        for i, position in zip(count(1), positions)
        for j, height in top_down
    ]
    # Down the marks and down the sensors t rises and rho falls, and float
    # rounding keeps both monotone, so when the first row (the earliest
    # meeting) and the last (the shortest length) reach, every row does.
    if rows[0][0] < -GEOM_TOL or rows[-1][3] <= GEOM_TOL:
        rows = [row for row in rows if row[0] >= -GEOM_TOL and row[3] > GEOM_TOL]
    rows.sort(key=_time)
    columns = tuple(zip(*rows)) or ((),) * 4
    # The sort leaves the times in order, and from finite designs none is a nan.
    _check_finite(columns)
    return EventTable._from_columns(columns)


def _survivors(
    times: tuple[float, ...], marks: tuple[int, ...], sensors: tuple[int, ...]
) -> list[int]:
    """One grouping pass of :func:`rectify` over a table's columns: the
    index of each group's survivor.

    The first event of a group minimising ``(i / j, i)`` survives.  The
    comparison runs field by field, and a one-event group is not ranked.
    """
    survivors = []
    first = 0
    for last in chain(compress(range(1, len(times)), _new_instants(times)), (len(times),)):
        survivor = first
        if last - first > 1:
            mark = marks[first]
            ratio = mark / sensors[first]
            for k in range(first + 1, last):
                i = marks[k]
                if (rank := i / sensors[k]) < ratio or rank == ratio and i < mark:
                    survivor, ratio, mark = k, rank, i
        survivors.append(survivor)
        first = last
    return survivors


def _gather(columns: tuple[tuple, ...], keep: list[int]) -> tuple[tuple, ...]:
    """Each column's entries at the indices ``keep`` lists, in that order."""
    if len(keep) == 1:  # itemgetter would return the entry itself
        return tuple((column[keep[0]],) for column in columns)
    return tuple(map(operator.itemgetter(*keep), columns))


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
    Rectifying a rectified table is a no-op.  The result is built from the
    survivors' columns and known to be rectified.
    """
    if not table.times:
        return table
    columns = table._columns
    while True:
        times = columns[0]
        columns = _gather(columns, _survivors(*columns[:3]))
        if list(times) == sorted(times):  # in order, so one pass rectified them
            return EventTable._from_columns(columns, rectified=True)


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

    A group whose candidates are exactly its own current events, all with
    the same next gap, steps in place: it moves each event on by one and
    adds the gap to its wound length, without a split or an
    :func:`advance` call.  That is what :func:`advance` would return, since
    an event always matches its own next gap, so every candidate survives,
    and no other event is a candidate.  On periodic tables most steps are
    such steps.  A group takes the usual path when one of its events has
    the table's last gap next, since that start is flagged on this step,
    or a next gap that matches nothing, not even itself.

    With a ``limit`` ``(u, w)`` the walk returns None as soon as it proves
    that the profile's ``(unidentifiable_starts, worst_stroke)``, with no
    stroke read as infinite, is lexicographically above the limit.  The
    starts flagged so far are a lower bound on the final count, and, when
    no gap is negative, the length any group has wound is one on its
    starts' strokes: it is proved once more than u starts are flagged, or
    u are and a group has wound more than w.  A negative gap winds a group
    back, so on a table with one the walk bounds by flagged starts alone.
    The bound is checked after every step, in-place steps included, so the
    walk stops where a step-by-step one would.  A profile it does return
    is exact, and may still lie above the limit.
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
    # The events a group may not step in place from: that one, and any whose
    # next gap matches no gap, not even itself (an overflowed, infinite one).
    stops = ends
    for bits, match in splits.values():
        if not bits & match:
            stops |= bits
    # Without a limit, one that no profile lies above.
    most, longest = limit or (table.count, math.inf)
    if limit and min(splits, default=0) < 0:  # wound lengths can fall, so they bound nothing
        longest = math.inf
    flagged = min(table.count, 1)  # the final event has no gap
    # p -> (p, k, stroke); a group whose next gap matches nothing, not even
    # itself, leaves no candidate and lands on a p below 1.
    identified: dict[int, tuple[int, int, float]] = {}
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
            if subgroup == current and not subgroup & stops:
                # The candidates are the group's own events, all of which
                # match their shared next gap, so advance would shift them.
                rest = current = subgroup << 1
                k += 1
                wound += gap
                if wound > longest and flagged >= most:
                    return None
                continue
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
    return StrokeProfile._from_walk(identified, table.count)


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
