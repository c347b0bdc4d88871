"""Detection-event enumeration, simultaneity rectification and gap analysis.

Winding the cable at constant speed from full extension sweeps every mark
past every sensor.  Each meeting is an event pinning the free length to
``rho = ||BM_i|| - (h - ||OS_j||)``, reached at time ``t = (rho_max - rho) /
v``.  Two different pairs can meet at the same length; the rectification
rule keeps exactly one of them so that every detected length maps to a
unique event.

Each cache holds a pure function of the object it is kept on, in its
instance dict, out of ``==``, ``hash`` and ``repr``; threads racing to
fill one compute equal values.  A design's ``_raw_table``: C5, ``score``,
``run_trace`` and ``simulate`` all read the one table
:func:`enumerate_events` builds, and ``_table_builders``, a
``WeakValueDictionary`` from the values a table is built from to the
design that built it, hands it to an equal design alive at the same time
(each rotation of an exhaustive search's ordering).  A raw table's
``_rectified``: :func:`rectify` groups its lengths once, and every caller
on a design, C5 included, reads that one rectified table.  A table's
``times``, ``events``, ``rectified``, ``gaps`` and ``gap_positions``, on
first read: a search reads only columns, gaps and their index.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
import weakref
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from typing import NamedTuple, TypeVar

from .model import DEFAULT_GAP_TOLERANCE, GEOM_TOL, CalibrationDesign, check_tolerance

EVENT_CSV_HEADER = "t,i,j,rho,delta_rho"

_Row = TypeVar("_Row")


class Event(NamedTuple):
    """Detection of mark i by sensor j at time t, free length rho: an
    immutable tuple of its fields, cheap to build by the thousand, that
    compares equal to the plain tuple ``(t, i, j, rho)``."""

    t: float
    i: int
    j: int
    rho: float


_length = operator.itemgetter(2)  # an (i, j, rho) row's rho
_stroke = operator.itemgetter(2)  # an identified start's stroke

# Coincident lengths of the presets scaled by 1e200 come out of
# ``rho_at``'s subtractions at most an ulp of the longest apart, distinct
# ones more than 1e13 ulps.
_ROUNDING_ULPS = 4


def _allowance(longest: float) -> float:
    """The grouping allowance of lengths computed from lengths up to
    ``longest``: ``GEOM_TOL``, or where larger (at huge lengths)
    :data:`_ROUNDING_ULPS` ulps of it, their rounding, as ``model._slack``
    allows C1 and C3."""
    return max(GEOM_TOL, _ROUNDING_ULPS * math.ulp(longest))


def _new_lengths(table: EventTable) -> Iterator[bool]:
    """For each length after the first, whether it lies more than the
    table's grouping allowance below the one before it, i.e. is not
    detected with that event."""
    rhos = table.rho_values
    return map(operator.gt, map(operator.sub, rhos, rhos[1:]), repeat(table._allowance))


class EventTable:
    """Detection events in winding order with derived length gaps.

    A table holds what a winding detects: its times never fall and are
    finite, its lengths never rise and are finite within a finite spread,
    so every gap of it or of a table of some of its rows is finite and not
    negative, and its mark and sensor indices start at 1.  It is rectified
    when no two events are detected together: every gap exceeds its
    grouping allowance (:func:`_new_lengths`).  ``gap_positions`` indexes
    the gaps by value as bitmasks, bit q for ``gaps[q]``, from which
    :meth:`match_mask` collects the gaps that match a given one.

    A table is its ``marks``, ``sensors`` and ``rho_values`` columns plus a
    ``times`` column or the winding's clock ``(rho_max, v)``, from which
    ``times`` derives on first read, as :func:`detection_time` does.
    ``EventTable(events)`` checks the rows, comparing whole columns, and
    keeps their columns, times included; :func:`enumerate_events` builds a
    clocked table.  The ``events`` rows are built from the columns on first
    read; ``==`` and ``hash`` read them and the grouping allowance, ``repr``
    the rows alone.  Rows cannot carry a design's ``h``, so a table built
    from them groups by its own longest length: it equals its clocked twin
    where the two allowances agree, as below 2**21 m, where both are
    ``GEOM_TOL``.
    """

    def __init__(self, events: Iterable[tuple[float, int, int, float]]) -> None:
        times, marks, sensors, rhos = tuple(zip(*events)) or ((),) * 4
        if not all(map(operator.le, times, times[1:])):  # a nan fails too
            raise ValueError("events must be time-ordered")
        if not all(map(math.isfinite, times)):
            raise ValueError("event times must be finite")
        if rhos and not (all(map(math.isfinite, rhos)) and math.isfinite(max(rhos) - min(rhos))):
            raise ValueError("event lengths must be finite, with a finite spread")
        if not all(map(operator.ge, rhos, rhos[1:])):
            raise ValueError("event lengths must never rise")
        if marks and min(min(marks), min(sensors)) < 1:
            raise ValueError("mark and sensor indices start at 1")
        allowance = _allowance(max(map(abs, rhos), default=0.0))
        vars(self).update(vars(self._from_columns((marks, sensors, rhos, times), None, allowance)))

    @classmethod
    def _from_columns(
        cls, columns: tuple[tuple, ...], clock: tuple | None, allowance: float, rectified: bool = False
    ) -> EventTable:
        """A table of checked ``(i, j, rho)`` columns, and times where there is
        no ``clock``, with its grouping ``allowance``; maybe known ``rectified``."""
        table = object.__new__(cls)
        vars(table).update(
            marks=columns[0], sensors=columns[1], rho_values=columns[2],
            _columns=columns, _clock=clock, _allowance=allowance,
        )
        if clock is None:
            vars(table)["times"] = columns[3]
        if rectified:
            vars(table)["rectified"] = True
        return table

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._allowance == other._allowance and self.events == other.events

    def __hash__(self) -> int:
        return hash((self._allowance, self.events))

    def __repr__(self) -> str:
        return f"EventTable(events={self.events!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to EventTable.{name}: tables are immutable")

    @functools.cached_property
    def events(self) -> tuple[Event, ...]:
        """The rows ``(t, i, j, rho)``, built from the columns."""
        return tuple(map(Event._make, zip(self.times, self.marks, self.sensors, self.rho_values)))

    @functools.cached_property
    def times(self) -> tuple[float, ...]:
        """When each event is detected, read from the clock, as
        :func:`detection_time` derives it, where no times were given."""
        rho_max, v = self._clock
        return tuple([(rho_max - rho) / v for rho in self.rho_values])

    @property
    def count(self) -> int:
        return len(self.rho_values)

    @functools.cached_property
    def rectified(self) -> bool:
        return all(_new_lengths(self))

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
    """Identification cost when winding starts at one rectified event: the
    k detections after the first that make the observed gap sequence match
    a single position in the table, and the stroke between the start's
    event and the one k detections on.  Both are None when no suffix of the
    table ever becomes unique from this start."""

    start: int
    k: int | None
    stroke: float | None

    @property
    def identifiable(self) -> bool:
        return self.k is not None


@dataclass(frozen=True, repr=False)
class StrokeProfile:
    """What :func:`stroke_profile` found, and the summaries read from it.

    ``count`` is the table's number of starts and ``identified`` holds the
    ``(start, k, stroke)`` of each identifiable start, in start order.
    ``==`` and ``hash`` compare these two fields, which fix the per-start
    ``entries``; those are built on first read (by ``repr`` too), as an
    :class:`EventTable`'s rows are.
    """

    count: int
    identified: tuple[tuple[int, int, float], ...]

    def __repr__(self) -> str:
        return f"StrokeProfile(entries={self.entries!r})"

    @functools.cached_property
    def entries(self) -> tuple[StartStroke, ...]:
        """One :class:`StartStroke` per start, unidentifiable ones included."""
        found = {row[0]: row for row in self.identified}
        return tuple([StartStroke._make(found.get(p) or (p, None, None)) for p in range(1, self.count + 1)])

    @property
    def worst_stroke(self) -> float | None:
        return max(map(_stroke, self.identified), default=None)

    @property
    def mean_stroke(self) -> float | None:
        n = len(self.identified)
        return left_sum(map(_stroke, self.identified)) / n if n else None

    @property
    def unidentifiable_starts(self) -> int:
        return self.count - len(self.identified)

    def entry(self, start: int) -> StartStroke:
        """The entry of 1-based start ``start``."""
        if not 1 <= start <= self.count:
            raise IndexError(f"start {start} out of range 1..{self.count}")
        return self.entries[start - 1]


def detection_time(design: CalibrationDesign, i: int, j: int) -> float:
    """Instant at which winding from full extension brings mark i to sensor j.

    Negative values mean the pair would only meet while unwinding; callers
    filter to the winding window.
    """
    g = design.geometry
    return (g.rho_max - design.rho_at(i, j)) / g.v


def enumerate_events(design: CalibrationDesign) -> EventTable:
    """All physically reachable mark/sensor meetings, longest length first.

    A pair is reachable when ``rho_max - rho >= -GEOM_TOL`` and ``rho >
    GEOM_TOL``: the cable starts at full extension and the platform cannot
    pass the support.  The table holds the ``(i, j, rho)`` columns and the
    winding's clock, so its times never fall, and a grouping allowance sized
    from the longer of ``h`` and the longest length, from both of which each
    length is computed.  Simultaneous events are kept; ties are ordered by
    ascending mark index then descending sensor index for stable output.
    The table is kept on the design and shared through ``_table_builders``
    with equal designs alive at the same time (see the module docstring).
    """
    if (table := vars(design).get("_raw_table")) is not None:
        return table
    g = design.geometry
    rho_max, h = g.rho_max, g.h
    positions, heights = design.marks.positions, design.sensors.heights
    key = (rho_max, h, g.v, heights, positions)  # every value the table is built from
    if (builder := _table_builders.get(key)) is not None:
        table = vars(design)["_raw_table"] = vars(builder)["_raw_table"]
        return table
    top_down = tuple(enumerate(heights, start=1))[::-1]
    # Marks in index order and each mark's sensors top-down, so a stable
    # sort on length alone leaves ties by ascending i, then descending j.
    rows = [
        (i, j, position - (h - height))  # the expression of CalibrationDesign.rho_at
        for i, position in zip(count(1), positions)
        for j, height in top_down
    ]
    # Down the marks and down the sensors rho falls, monotone under rounding,
    # so when the first row (the longest) and the last (the shortest) reach, every row does.
    if rho_max - rows[0][2] < -GEOM_TOL or rows[-1][2] <= GEOM_TOL:
        rows = [row for row in rows if rho_max - row[2] >= -GEOM_TOL and row[2] > GEOM_TOL]
    rows.sort(key=_length, reverse=True)
    columns = tuple(zip(*rows)) or ((),) * 3
    # Sorted lengths leave the times in order, each finite as RobotGeometry bounds
    # them; every length is finite and above GEOM_TOL, so their spread is finite.
    allowance = _allowance(max(h, rows[0][2]) if rows else h)  # rows[0] is the longest
    table = vars(design)["_raw_table"] = EventTable._from_columns(columns, (rho_max, g.v), allowance)
    # Registered once its table is set, for an equal design to read.
    _table_builders[key] = design
    return table


# The design that built each raw table, held weakly, by the values it is built from.
_table_builders: weakref.WeakValueDictionary[tuple, CalibrationDesign] = weakref.WeakValueDictionary()


def rectify(table: EventTable) -> EventTable:
    """Resolve simultaneous detections so each length maps to one event.

    An event whose length lies within the grouping allowance
    (:func:`_new_lengths`) below the one before it is detected with that
    event, so a chain of such events forms one group.  Within a group the
    first event minimising the index ratio i/j survives, on a tie the
    smaller mark index: the detection closest to the support, i.e. the
    shortest stroke.  Lengths never rise, so each survivor lies within its
    group and the survivors of successive groups lie more than the
    allowance apart: one pass rectifies any table, and a rectified table
    rectifies to an equal one.  The result holds the survivors' columns,
    given times included, with the table's clock and allowance; it is kept
    on the table, and threads racing a first call get one table.
    """
    if (rectified := vars(table).get("_rectified")) is not None:
        return rectified
    if not table.rho_values:
        return table
    marks, sensors = table.marks, table.sensors
    starts = [0, *compress(range(1, table.count), _new_lengths(table))]  # each group's first event
    keep = []
    for first, last in zip(starts, chain(starts[1:], (table.count,))):
        survivor = first  # the rank (i / j, i) compares field by field
        if last - first > 1:
            mark = marks[first]
            ratio = mark / sensors[first]
            for k in range(first + 1, last):
                i = marks[k]
                if (rank := i / sensors[k]) < ratio or rank == ratio and i < mark:
                    survivor, ratio, mark = k, rank, i
        keep.append(survivor)
    # itemgetter returns the entry itself, not a tuple, for one index.
    gather = operator.itemgetter(*keep) if len(keep) > 1 else lambda column: (column[keep[0]],)
    columns = tuple(map(gather, table._columns))
    rectified = EventTable._from_columns(columns, table._clock, table._allowance, rectified=True)
    return vars(table).setdefault("_rectified", rectified)


def left_sum(values: Iterable[float]) -> float:
    """Sum in iteration order with plain float additions, as ``sum`` does up
    to Python 3.11; from 3.12 ``sum`` compensates float rounding, which
    moves results in the last digits.  Reported numbers go through this
    helper so they do not depend on the interpreter."""
    return functools.reduce(operator.add, values, 0)


def delta_stats(table: EventTable) -> DeltaStats:
    """Mean and spread of the gaps of a rectified table.

    The mean divides the gap sum by count - 1 (the number of gaps); the
    spread divides the squared deviations by count - 2.  Both denominators
    are part of the toolkit's contract, so downstream numbers stay
    reproducible.  Gaps whose squared deviations sum past the float range
    have no statistics, a ValueError.
    """
    if not table.rectified:
        raise ValueError("delta_stats needs a rectified table")
    n = table.count
    if n < 3:
        raise ValueError(f"need at least 3 events for gap statistics, got {n}")
    gaps = table.gaps
    mean = left_sum(gaps) / (n - 1)
    try:
        var = left_sum(map(pow, map(operator.sub, gaps, repeat(mean)), repeat(2))) / (n - 2)
    except OverflowError:  # a square past the float range
        var = math.inf
    if var == math.inf:
        raise ValueError(f"the gap statistics of {n} events overflow the float range")
    return DeltaStats(mean=mean, std=math.sqrt(var), count=n)


def advance(current: int, match: int) -> int:
    """The events the drive may be at after one more gap, given ``match``.

    ``match`` is an :meth:`EventTable.match_mask`; event sets are bitmasks
    too, bit q for the 1-based event q + 1 as the drive's current position.
    A current event survives when its next table gap matches, and the drive
    moves on to the event after it; the last event has no gap.  This is the
    one elimination rule: ``identify.run_trace`` folds measured gaps through
    it, one detection at a time, and :func:`stroke_profile`'s walk folds the
    table's own gaps.
    """
    return (current & match) << 1


def stroke_profile(table: EventTable, tolerance: float = DEFAULT_GAP_TOLERANCE) -> StrokeProfile:
    """How much cable each starting position must wind before it is unique.

    The profile is the identifier's elimination replayed on the table's own
    gaps: from the full candidate set, start p folds g_p, g_{p+1}, ...
    through :func:`advance`, and k counts the gaps until a single current
    event survives, as on a clean ``calibrate`` drive.  Starts whose gaps
    run out first, the final event among them, are unidentifiable.  The
    stroke is ``rho_p - rho_{p+k}``, as ``identify.run_trace`` measures it.
    When matching is an equivalence on the gap values, a suffix sort reads
    every k (:func:`_sorted_starts`); otherwise, as at a coarse tolerance,
    folding each start's gaps does (:func:`_walk_starts`), to the same rows.
    """
    if not table.rectified:
        raise ValueError("stroke_profile needs a rectified table")
    check_tolerance("gap", tolerance)
    symbols = _gap_symbols(table.gaps, tolerance)
    rows = _walk_starts(table, tolerance) if symbols is None else _sorted_starts(symbols, table.rho_values)
    return StrokeProfile(table.count, rows)


def _gap_symbols(gaps: tuple[float, ...], tolerance: float) -> str | None:
    """The gaps written one character per class of matching values, then a
    ``"\\0"`` for no gap; None when matching is no equivalence on them.

    Sorted, the distinct values start a new class wherever one exceeds the
    one before by more than ``tolerance``, and matching is an equivalence
    exactly when no class spans more: for sorted ``a <= b``, ``b - a`` is
    the ``abs(a - b)`` that :meth:`EventTable.match_mask` compares.
    Classes are ``chr(1)`` on, so any number up to ``sys.maxunicode`` fits.
    """
    values = sorted(set(gaps))
    if len(values) > sys.maxunicode:
        return None
    symbol: dict[float, str] = {}
    classes = 0
    first = previous = -math.inf
    for value in values:
        if value - previous > tolerance:
            first = value
            classes += 1
        elif value - first > tolerance:
            return None
        symbol[value] = chr(classes)
        previous = value
    return "".join(map(symbol.__getitem__, gaps)) + "\0"


def _sorted_starts(symbols: str, rhos: tuple[float, ...]) -> tuple[tuple[int, int, float], ...]:
    """The ``(start, k, stroke)`` of each identifiable start, in start
    order, from a table's :func:`_gap_symbols` and lengths ``rhos``.

    Start p is unique after k gaps exactly when no other start's gaps begin
    with its first k classes.  So k is one more than the longest prefix
    suffix p shares with another suffix, which is the one it shares with a
    neighbour in sorted order, and p is identifiable when k fits in its
    gaps.  Kasai et al.'s pass (CPM 2001) finds each neighbour's prefix in
    linear time and keeps the longer as the suffix's reach; the ``"\\0"``,
    found only at the end, stops each comparison.  The stroke is
    ``rhos[p - 1] - rhos[p - 1 + k]``, as :func:`stroke_profile` defines it.
    """
    n = len(symbols)
    order = _suffix_order(symbols)
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r
    # Each suffix but the final event's ("\0" alone, ranked first) meets the
    # one ranked just before it once; reach[i] is the longer prefix i shares.
    reach = [0] * n
    h = 0
    for i in range(n - 1):
        j = order[rank[i] - 1]
        while symbols[i + h] == symbols[j + h]:
            h += 1
        if reach[i] < h:
            reach[i] = h
        if reach[j] < h:
            reach[j] = h
        h -= h > 0
    return tuple([
        (i + 1, k, rhos[i] - rhos[i + k])
        for i, shared in enumerate(reach[:-1])
        if (k := shared + 1) < n - i  # k fits in its n - 1 - i gaps
    ])


# The most characters the suffix sort's first round holds as slices: it
# sorts whole suffixes of texts up to 2,048 characters.
_SLICED = 1 << 22


def _suffix_order(text: str) -> list[int]:
    """The start of each suffix of ``text``, in sorted order, by prefix
    doubling (Manber and Myers, SIAM J. Comput. 1993): a round sorts the
    suffixes by their first h characters and ranks them, and the next sorts
    by pairs of ranks, the first 2h.  The first round sorts slices of
    ``_SLICED // len(text)`` characters; a round whose ranks all differ is
    the last."""
    n = len(text)
    h = max(1, _SLICED // n)
    keys = [text[i : i + h] for i in range(n)]
    while True:
        order = sorted(range(n), key=keys.__getitem__)
        if h >= n:
            return order
        rank = [0] * (n + h)  # past the end ranks first
        r, previous = 0, None
        for i in order:
            r += keys[i] != previous
            rank[i], previous = r, keys[i]
        if r == n:
            return order
        keys = list(zip(rank, rank[h:]))
        h *= 2


def _walk_starts(table: EventTable, tolerance: float) -> tuple[tuple[int, int, float], ...]:
    """:func:`_sorted_starts`'s rows, found by folding each start's gaps
    through :func:`advance` from the full candidate set, as ``run_trace``
    folds a drive's, until one current event is left.  Each gap value's
    match mask is taken once, up front."""
    matches = {gap: table.match_mask(gap, tolerance) for gap in table.gap_positions}
    masks = tuple(map(matches.__getitem__, table.gaps))  # each gap's matches, in table order
    rhos = table.rho_values
    everyone = (1 << table.count) - 1
    rows = []
    for p in range(1, table.count):
        current = everyone
        for k, match in enumerate(masks[p - 1 :], start=1):
            current = advance(current, match)
            if current & (current - 1) == 0:
                rows.append((p, k, rhos[p - 1] - rhos[p - 1 + k]))
                break
    return tuple(rows)


def format_event_csv(table: EventTable, precision: str = "table") -> str:
    """Render a table as CSV: ``t,i,j,rho,delta_rho`` with the gap column
    empty on the first row.  ``table`` precision fixes two decimals to match
    the printed layout tables; ``full`` emits shortest round-trip floats."""
    if precision not in ("table", "full"):
        raise ValueError(f"precision must be 'table' or 'full', got {precision!r}")
    num = "{:.2f}".format if precision == "table" else repr
    lines = [EVENT_CSV_HEADER]
    for e, delta in zip(table.events, chain(("",), map(num, table.gaps))):
        lines.append(f"{num(e.t)},{e.i},{e.j},{num(e.rho)},{delta}")
    return "\n".join(lines) + "\n"


def _csv_lines(text: str) -> list[tuple[int, str]]:
    """The non-blank lines of a CSV document, each with its 1-based line number."""
    return [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]


def _read_csv_rows(lines: list[tuple[int, str]], readers: dict[str, Callable[[list[str]], _Row]]) -> list[_Row]:
    """Read the rows under a header from numbered lines (see :func:`_csv_lines`).
    The first line must be one of the headers that key ``readers``; every
    later line must have as many columns and is read by its reader, and a
    ``ValueError`` the reader raises names the line's number."""
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
    """Parse CSV produced by :func:`format_event_csv` into a table of its
    columns.  The gap column is derived data and is ignored on input.  Times
    and lengths must be finite and mark and sensor indices at least 1.  The
    CSV carries no ``h``, so the table groups by its own longest length
    (see :class:`EventTable`)."""
    return EventTable(_read_csv_rows(_csv_lines(text), {EVENT_CSV_HEADER: _event_row}))
