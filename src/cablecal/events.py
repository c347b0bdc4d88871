"""Detection-event enumeration, simultaneity rectification and gap analysis.

Winding the cable at constant speed from full extension sweeps every mark
past every sensor.  Each meeting is an event pinning the free length to
``rho = ||BM_i|| - (h - ||OS_j||)``, reached at time ``t = (rho_max - rho) /
v``.  Two different pairs can meet at the same length; the rectification
rule keeps exactly one of them so that every detected length maps to a
unique event.
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
    """Detection of mark i by sensor j at time t, free length rho.

    A row record: an immutable tuple of its fields, cheap to build by the
    thousand, that compares equal to the plain tuple ``(t, i, j, rho)``.
    """

    t: float
    i: int
    j: int
    rho: float


_length = operator.itemgetter(2)  # an (i, j, rho) row's rho
# A row record from its finished tuple, as the record's own __new__ makes
# it, without the call through that.
_new_row = tuple.__new__
_stroke = operator.itemgetter(2)  # an identified start's stroke


# Coincident lengths of the presets scaled by 1e200 come out of
# ``rho_at``'s subtractions at most an ulp of the longest apart, distinct
# ones more than 1e13 ulps.
_ROUNDING_ULPS = 4


def _new_lengths(rhos: tuple[float, ...]) -> Iterator[bool]:
    """For each length after the first, whether it lies more than the
    grouping allowance below the one before it, i.e. is not detected with
    that event.  The allowance is ``GEOM_TOL``, or where larger (at huge
    lengths) :data:`_ROUNDING_ULPS` ulps of the longest length, which is
    the first or the last: rounding, as ``model._slack`` allows C1 and C3."""
    longest = max(abs(rhos[0]), abs(rhos[-1])) if rhos else 0.0
    allowance = max(GEOM_TOL, _ROUNDING_ULPS * math.ulp(longest))
    return map(operator.gt, map(operator.sub, rhos, rhos[1:]), repeat(allowance))


@dataclass(frozen=True)
class EventTable:
    """Detection events in winding order with derived length gaps.

    A table holds what a winding detects: its times never fall and are
    finite, its lengths never rise and are finite within a finite spread,
    so every gap of it or of a table of some of its rows is finite and not
    negative, and its mark and sensor indices start at 1.  A raw table may
    hold simultaneous events.  ``rectified`` is read from the lengths: no
    two events are detected together, i.e. every gap exceeds the grouping
    allowance (:func:`_new_lengths`), ``GEOM_TOL`` at all but huge lengths.

    Gap matching works on bitmasks, where bit q stands for ``gaps[q]``:
    ``gap_positions`` indexes the gaps by value and :meth:`match_mask`
    collects the gaps that match a given one.  A table holds its events as
    columns: the mark and sensor indices and ``rho_values`` are set at
    construction, and ``gaps`` and the index on first use.  A table is of
    one of two kinds.  One built from rows holds the ``times`` it was
    given, and its ``_clock`` is None.  One that :func:`enumerate_events`
    builds, or :func:`rectify` from such a table, holds the winding's
    ``(rho_max, v)`` as its ``_clock`` and derives ``times`` from it on
    first read, as :func:`detection_time` does; its ``events`` rows are
    built on first read (by ``==``, ``hash`` and ``repr`` too).  None of
    the columns is a field, so they stay out of equality, hashing and
    repr.  The checks on a table compare whole columns.
    """

    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        times, marks, sensors, rhos = tuple(zip(*self.events)) or ((),) * 4
        if not all(map(operator.le, times, times[1:])):  # a nan fails too
            raise ValueError("events must be time-ordered")
        # Ordered times without a nan are finite when the first and last are.
        if times and not (math.isfinite(times[0]) and math.isfinite(times[-1])):
            raise ValueError("event times must be finite")
        if rhos and not (all(map(math.isfinite, rhos)) and math.isfinite(max(rhos) - min(rhos))):
            raise ValueError("event lengths must be finite, with a finite spread")
        if not all(map(operator.ge, rhos, rhos[1:])):
            raise ValueError("event lengths must never rise")
        if marks and min(min(marks), min(sensors)) < 1:
            raise ValueError("mark and sensor indices start at 1")
        vars(self).update(times=times, rho_values=rhos, _columns=(marks, sensors, rhos), _clock=None)

    @classmethod
    def _from_columns(
        cls, columns: tuple[tuple, ...], clock: tuple[float, float], rectified: bool = False
    ) -> EventTable:
        """A table of checked ``(i, j, rho)`` columns whose times derive from
        the winding's ``clock``, ``(rho_max, v)``, and whose rows are built
        on first read; ``rectified`` says the table is known to be."""
        table = object.__new__(cls)
        vars(table).update(rho_values=columns[2], _columns=columns, _clock=clock)
        if rectified:
            vars(table)["rectified"] = True
        return table

    def __getattr__(self, name: str) -> tuple[Event, ...]:
        # Reached only for names the instance lacks: the rows of a table
        # built from columns, until they are first read.
        if name != "events":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        events = tuple(map(_new_row, repeat(Event), zip(self.times, *vars(self)["_columns"])))
        vars(self)["events"] = events
        return events

    @functools.cached_property
    def times(self) -> tuple[float, ...]:
        """When each event is detected.  Only a table with a clock reaches
        this: each time is :func:`detection_time`'s expression of its length."""
        rho_max, v = self._clock
        return tuple([(rho_max - rho) / v for rho in self.rho_values])

    @property
    def count(self) -> int:
        return len(self.rho_values)

    @functools.cached_property
    def rectified(self) -> bool:
        return all(_new_lengths(self.rho_values))

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
    gap sequence matches a single position in the table; stroke is the length
    between the start's event and the one k detections on.  Both are None
    when no suffix of the table ever becomes unique from this start.
    """

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
        return tuple([
            _new_row(StartStroke, found.get(p) or (p, None, None)) for p in range(1, self.count + 1)
        ])

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
    winding's ``(rho_max, v)``, from which each time derives on first read,
    so times never fall.  Simultaneous events are kept; ties are ordered by
    ascending mark index then descending sensor index for stable output.

    The table is a pure function of the design, so it is built once and
    kept in the design's instance dict, out of its fields (``==``, ``hash``
    and ``repr`` do not see it): every later call on that design object
    returns the same table object.  Equal designs share it too: a design's
    first call looks its values up in ``_table_builders`` and takes the
    table of the equal design that built one.  That registry refers to its
    designs weakly, so an entry lasts only while the design that built the
    table is alive, and an equal design built after it is gone builds a
    new, equal table.
    """
    if (table := vars(design).get("_raw_table")) is not None:
        return table
    g = design.geometry
    rho_max, h = g.rho_max, g.h
    positions, heights = design.marks.positions, design.sensors.heights
    key = (rho_max, h, g.v, heights, positions)  # every value the table is built from
    ref = _table_builders.get(key)
    if ref is not None and (builder := ref()) is not None:
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
    table = vars(design)["_raw_table"] = EventTable._from_columns(columns, (rho_max, g.v))
    # Registered once its table is set, for an equal design to read; the
    # entry drops out as the design dies.
    _table_builders[key] = weakref.ref(design, functools.partial(_table_builders.pop, key))
    return table


# A weak reference to the design that built each raw table, by the values
# the table is built from: each design holds its own table.  A plain dict
# and a C callback cost a build about half what a WeakValueDictionary does.
_table_builders: dict[tuple, weakref.ref[CalibrationDesign]] = {}


def _group_starts(table: EventTable) -> list[int]:
    """The index of each group's first event: the first event's, and each
    one's whose length lies more than the grouping allowance below the one
    before it (:func:`_new_lengths`).
    A pure function of the table, built on first use and kept in its
    instance dict, as :func:`enumerate_events` keeps a design's table."""
    if (starts := vars(table).get("_group_starts")) is None:
        rhos = table.rho_values
        starts = [0, *compress(range(1, len(rhos)), _new_lengths(rhos))] if rhos else []
        vars(table)["_group_starts"] = starts
    return starts


def _survivors(table: EventTable) -> list[int]:
    """The index of each group's survivor for :func:`rectify`, one per
    :func:`_group_starts` entry.

    The first event of a group minimising ``(i / j, i)`` survives.  The
    comparison runs field by field, and a one-event group is not ranked.
    """
    marks, sensors, _ = table._columns
    starts = _group_starts(table)
    survivors = []
    for first, last in zip(starts, chain(starts[1:], (table.count,))):
        survivor = first
        if last - first > 1:
            mark = marks[first]
            ratio = mark / sensors[first]
            for k in range(first + 1, last):
                i = marks[k]
                if (rank := i / sensors[k]) < ratio or rank == ratio and i < mark:
                    survivor, ratio, mark = k, rank, i
        survivors.append(survivor)
    return survivors


def _gather(columns: tuple[tuple, ...], keep: list[int]) -> tuple[tuple, ...]:
    """Each column's entries at the indices ``keep`` lists, in that order."""
    if len(keep) == 1:  # itemgetter would return the entry itself
        return tuple((column[keep[0]],) for column in columns)
    return tuple(map(operator.itemgetter(*keep), columns))


def rectify(table: EventTable) -> EventTable:
    """Resolve simultaneous detections so each length maps to one event.

    An event whose length lies no more than the grouping allowance below
    the one before it is detected with that event, so a chain of such
    events forms one group.  The allowance is ``GEOM_TOL`` metres, or a few
    ulps of the table's longest length where that is larger
    (:func:`_new_lengths`).  Within a group the survivor is the pair
    minimising the index ratio i/j; on a ratio tie the smaller mark index
    wins.  This keeps the detection closest to the support, i.e. the
    shortest stroke.

    One pass rectifies every table :class:`EventTable` accepts: its lengths
    never rise, so every survivor lies within its group and the gap between
    the survivors of successive groups exceeds the allowance.  Rectifying a
    rectified table is a no-op.  The result is the kind of table ``table``
    is: from a table with a clock, one built from the survivors' ``(i, j,
    rho)`` columns, a subset of the table's in order, with that clock and
    known to be rectified; from a table built from rows, the table of the
    survivors' rows, given times included.

    The result is kept in the table's instance dict, as
    :func:`_group_starts` keeps the group list, and every later call
    returns it: a design keeps its raw table, so all callers on one design,
    or on an equal design alive at the same time, read one rectified table
    with its gaps and gap index.  Threads racing a first call get one table.
    """
    if (rectified := vars(table).get("_rectified")) is not None:
        return rectified
    if not table.rho_values:
        return table
    keep = _survivors(table)
    if table._clock is None:
        rectified = EventTable(tuple(map(table.events.__getitem__, keep)))
    else:
        rectified = EventTable._from_columns(_gather(table._columns, keep), table._clock, rectified=True)
    return vars(table).setdefault("_rectified", rectified)


def _event_columns(table: EventTable) -> tuple[tuple[int, ...], tuple[int, ...], tuple[float, ...]]:
    """A table's ``(i, j, rho)`` columns, read without building its rows."""
    return table._columns


def detection_count(table: EventTable) -> int:
    """How many detections a table's events make: each group of events
    detected together, as :func:`rectify` groups them, counts once.

    :func:`rectify` keeps one event per group, so this is the count of the
    table it returns: the length of the group list both read
    (:func:`_group_starts`), without building that table.
    """
    return len(_group_starts(table))


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

    ``match`` is an :meth:`EventTable.match_mask`: bit q is set when
    ``gaps[q]`` matches the observed gap.  Event sets are bitmasks too: bit
    q stands for the 1-based event q + 1 as the drive's current position.
    A current event survives when its next table gap matches, and the drive
    moves on to the event after it; the last event has no gap.  This is the
    one elimination rule: ``identify.run_trace`` folds measured gaps through
    it, as an online caller does one detection at a time, and
    :func:`stroke_profile`'s walk folds the table's own gaps.
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

    When matching is an equivalence on the table's gap values, a suffix
    sort reads every k (:func:`_sorted_starts`); otherwise, as where gaps
    of different values match at a coarse tolerance, folding each start's
    gaps finds them (:func:`_walk_starts`).  Both return the profile's
    ``(start, k, stroke)`` rows, with the same k for every start, in start
    order.
    """
    if not table.rectified:
        raise ValueError("stroke_profile needs a rectified table")
    check_tolerance("gap", tolerance)
    symbols = _gap_symbols(table.gaps, tolerance)
    if symbols is None:
        rows = _walk_starts(table, tolerance)
    else:
        rows = _sorted_starts(symbols, table.rho_values)
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
    """The start of each suffix of ``text``, in sorted order.

    Prefix doubling (Manber and Myers, SIAM J. Comput. 1993): a round sorts
    the suffixes by their first h characters and ranks them, and the next
    sorts by pairs of ranks, the first 2h.  The first round sorts slices of
    ``_SLICED // len(text)`` characters; a round whose ranks all differ is
    the last.
    """
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
    """:func:`_sorted_starts`'s rows, found by folding: start p folds its
    gaps through :func:`advance` from the full candidate set, as
    ``identify.run_trace`` folds a drive's, and k is the step that leaves
    one current event.  Every gap value is folded at k = 1, so its match
    mask is taken once, up front.
    """
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
    empty on the first row.

    ``table`` precision fixes two decimals to match the printed layout
    tables; ``full`` emits shortest round-trip floats.
    """
    if precision not in ("table", "full"):
        raise ValueError(f"precision must be 'table' or 'full', got {precision!r}")

    def num(x: float) -> str:
        return f"{x:.2f}" if precision == "table" else repr(x)

    lines = [EVENT_CSV_HEADER]
    for e, delta in zip(table.events, chain(("",), map(num, table.gaps))):
        lines.append(f"{num(e.t)},{e.i},{e.j},{num(e.rho)},{delta}")
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
