from __future__ import annotations

import copy
import itertools
import math
import operator
import pickle
import random
import sys
import threading
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from cablecal import (
    CalibrationDesign,
    DesignRecipe,
    EncoderModel,
    Event,
    EventTable,
    MarkLayout,
    RobotGeometry,
    SensorLayout,
    TraceRecord,
    build_design,
    Status,
    delta_stats,
    detection_time,
    enumerate_events,
    presets,
    rectify,
    run_trace,
    score,
    simulate,
    stroke_profile,
    validate_design,
)
from cablecal import events, identify, optimize
from cablecal.designer import InfeasibleRecipe
from cablecal.events import StartStroke, StrokeProfile, format_event_csv, left_sum, parse_event_csv
from cablecal.model import GEOM_TOL, check_tolerance
from cablecal.simulate import parse_trace_csv
from conftest import FIVE_CENTIMETRE_POOLS, random_conforming_design
from test_exactness import designs as pinned_designs

# Reference tables for the medium fixture, transcribed row by row.
MEDIUM_RAW_ROWS = [
    (2.00, 1, 2, 9.00),
    (3.00, 2, 2, 8.00),
    (4.00, 3, 2, 7.00),
    (5.00, 1, 1, 6.00),
    (5.00, 4, 2, 6.00),
    (6.00, 2, 1, 5.00),
    (6.00, 5, 2, 5.00),
    (7.00, 3, 1, 4.00),
    (7.00, 6, 2, 4.00),
    (8.00, 4, 1, 3.00),
    (9.00, 5, 1, 2.00),
    (10.00, 6, 1, 1.00),
]
MEDIUM_RECT_ROWS = [
    (2.00, 1, 2, 9.00),
    (3.00, 2, 2, 8.00),
    (4.00, 3, 2, 7.00),
    (5.00, 1, 1, 6.00),
    (6.00, 2, 1, 5.00),
    (7.00, 3, 1, 4.00),
    (8.00, 4, 1, 3.00),
    (9.00, 5, 1, 2.00),
    (10.00, 6, 1, 1.00),
]

# Rectified free lengths of the workshop fixture, derived once by brute
# enumeration over its transcribed mark/sensor tables.
WORKSHOP_RECT_RHO = [
    12.5, 12.0, 11.25, 10.75, 10.25, 10.0, 9.5, 9.0, 8.5, 7.75, 7.5, 7.25,
    6.25, 5.75, 5.5, 5.0, 4.5, 4.25, 4.0, 3.75, 3.25, 3.0, 2.75, 2.5, 1.5, 1.0,
]

# CSV documents whose bad row, substituted for ``{row}``, follows a blank
# line: on physical line 4 of the event table and line 5 of the trace.
EVENT_DOC = "t,i,j,rho,delta_rho\n1.0,1,1,6.0,\n\n{row}\n2.0,3,1,4.0,\n"
TRACE_DOC = (
    "# start_rho=9.1 stop_rho=7.4\nt,encoder_reading,truth_rho,truth_i,truth_j\n"
    "0.1,0.1,9.0,5,1\n\n{row}\n"
)


def rows(table: EventTable) -> list[tuple[float, int, int, float]]:
    return [(e.t, e.i, e.j, e.rho) for e in table.events]


def events_gaps(events: tuple[Event, ...]) -> list[float]:
    return [a.rho - b.rho for a, b in zip(events, events[1:])]


def brute_stats(rho_values: list[float]) -> tuple[float, float]:
    """Independent statistics oracle: direct arithmetic over a length column."""
    gaps = [a - b for a, b in zip(rho_values, rho_values[1:])]
    n = len(rho_values)
    mean = sum(gaps) / (n - 1)
    var = sum((g - mean) ** 2 for g in gaps) / (n - 2)
    return mean, math.sqrt(var)


def long_recipe_table() -> EventTable:
    """The rectified table of a long periodic recipe design (145 events)."""
    recipe = DesignRecipe(RobotGeometry(h=18.0, rho_max=60.0), (0.5, 0.75, 1.25), (2.0, 3.0))
    return rectify(enumerate_events(build_design(recipe).design))


def brute_unique_k(gaps: list[float], p0: int, tol: float):
    """Independent uniqueness oracle: slice comparison over all windows."""
    for k in range(1, len(gaps) - p0 + 1):
        win = gaps[p0 : p0 + k]
        hits = [
            q
            for q in range(len(gaps) - k + 1)
            if all(abs(gaps[q + o] - win[o]) <= tol for o in range(k))
        ]
        if len(hits) == 1:
            return k, sum(win)
    return None


def window_run_unique_k(gaps: list[float], p0: int, tol: float):
    """The slice-comparison oracle, organised by window: each window records
    how many leading gaps match start p0's, and k is the first run length
    only one window reaches.  Linear in the run lengths, so it affords
    tables of a few hundred events."""
    runs = []
    for q in range(len(gaps)):
        run = 0
        while p0 + run < len(gaps) and q + run < len(gaps):
            if abs(gaps[q + run] - gaps[p0 + run]) > tol:
                break
            run += 1
        runs.append(run)
    for k in range(1, len(gaps) - p0 + 1):
        if sum(run >= k for run in runs) == 1:
            return k, sum(gaps[p0 : p0 + k])
    return None


def climb_table(rho_max: float) -> EventTable:
    """The rectified table of the climb recipe's pool order at ``rho_max``."""
    d_pool, z_pool = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75), (2.0, 3.0, 2.5)
    recipe = DesignRecipe(RobotGeometry(h=18.0, rho_max=rho_max), d_pool, z_pool)
    return rectify(enumerate_events(build_design(recipe).design))


def group_list_rectify(table: EventTable) -> EventTable:
    """Reference rectification: collect each chain of lengths within
    ``GEOM_TOL`` of the one before in a list and keep the group's minimum by
    (i/j, i)."""
    survivors: list[Event] = []
    group: list[Event] = []
    for event in table.events:
        if group and group[-1].rho - event.rho > GEOM_TOL:
            survivors.append(min(group, key=lambda e: (e.i / e.j, e.i)))
            group = []
        group.append(event)
    if group:
        survivors.append(min(group, key=lambda e: (e.i / e.j, e.i)))
    return EventTable(tuple(survivors))


def tuple_sort_enumerate(design: CalibrationDesign) -> EventTable:
    """Reference enumeration: sort (-rho, i, -j, rho) tuples, whose order is
    the table order, then build each event from its sorted tuple, its time
    the time to wind from ``rho_max`` to its length."""
    g = design.geometry
    found = []
    for i, position in enumerate(design.marks.positions, start=1):
        for j, height in enumerate(design.sensors.heights, start=1):
            rho = position - (g.h - height)
            if g.rho_max - rho >= -GEOM_TOL and rho > GEOM_TOL:
                found.append((-rho, i, -j, rho))
    found.sort()
    return EventTable(tuple(Event((g.rho_max - rho) / g.v, i, -j, rho) for _, i, j, rho in found))


def columnar_designs() -> dict[str, CalibrationDesign]:
    """The presets, the designs of both benchmark recipes and of seeded
    random recipes on a 5 cm grid, and seeded random layouts."""
    designs = {name: build() for name, build in presets.ALL.items()}
    for name, (rho_max, d_pool, z_pool) in {
        "climb-recipe": (32.0, (0.5, 0.75, 1.0, 1.25, 1.5, 1.75), (2.0, 3.0, 2.5)),
        "long-recipe": (60.0, (0.5, 0.75, 1.25), (2.0, 3.0)),
    }.items():
        designs[name] = build_design(DesignRecipe(RobotGeometry(18.0, rho_max), d_pool, z_pool)).design
    rng = random.Random(22)
    while len(designs) < 18:  # 12 random recipes that close
        d_pool = tuple(rng.sample([x / 20 for x in range(5, 21)], 4))
        z_pool = tuple(rng.sample([1.5, 2.0, 3.0], rng.randint(1, 2)))
        try:
            recipe = DesignRecipe(RobotGeometry(h=6.0, rho_max=11.0), d_pool, z_pool)
            designs[f"recipe-{d_pool}-{z_pool}"] = build_design(recipe).design
        except InfeasibleRecipe:
            pass
    for n, design in enumerate(unreachable_pair_designs()[:20]):
        designs[f"layout-{n}"] = design
    return designs


def rewound_layouts() -> list[CalibrationDesign]:
    """The random layouts of :func:`columnar_designs`, each wound at speeds
    from 1e-7 to 1e3 m/s, where a time that does not divide by v shows."""
    return [
        replace(design, geometry=replace(design.geometry, v=v))
        for name, design in columnar_designs().items()
        if name.startswith("layout-")
        for v in (1e-7, 1e-3, 3.0, 1e3)
    ]


# Lengths each within GEOM_TOL of the one before, wound at 1 m/s: the first
# three are one detection though the chain spans more than GEOM_TOL.
NEAR_TIE_CHAIN = (
    Event(0.0, 2, 1, 5.0),
    Event(0.8e-9, 1, 1, 5.0 - 0.8e-9),
    Event(1.6e-9, 3, 1, 5.0 - 1.6e-9),
    Event(3.0, 4, 1, 2.0),
)
# A near-tie chain whose three events share the ratio i/j = 2; the smallest
# mark comes second.
LISTED_LATER = (
    Event(0.0, 4, 2, 5.0),
    Event(0.5e-9, 2, 1, 5.0 - 0.5e-9),
    Event(0.9e-9, 6, 3, 5.0 - 0.9e-9),
    Event(3.0, 5, 1, 2.0),
)


# Two sensors closer than one ulp of the meeting times: each mark meets
# both at the same float instant, so only the tie order tells them apart.
SUB_ULP_SENSORS = CalibrationDesign(
    RobotGeometry(h=6.0, rho_max=11.0),
    SensorLayout((2.0, math.nextafter(2.0, 3.0))),
    MarkLayout((10.0, 9.0, 8.0, 7.0)),
)


# Marks past both ends of the winding window, on each reach boundary
# (l_max = 17): mark 1 meets sensor 2 at t = 0 and is reachable; mark 5
# meets sensor 2 at rho = 0 and is not.
BOUNDARY_MARKS = CalibrationDesign(
    RobotGeometry(h=6.0, rho_max=11.0),
    SensorLayout((2.0, 5.0)),
    MarkLayout((12.0, 10.0, 6.0, 3.5, 1.0)),
)
# Within GEOM_TOL of each boundary: mark 1 meets sensor 3 at a t just below
# 0 and is reachable; mark 3 meets sensor 2 at a rho just above 0 and is not.
NEAR_BOUNDARY_MARKS = CalibrationDesign(
    RobotGeometry(h=6.0, rho_max=11.0),
    SensorLayout((2.0, 4.0, 5.0)),
    MarkLayout((12.0 + 0.5e-9, 9.0, 2.0 + 0.5e-9)),
)


# Layouts on a decimal grid whose meetings float rounding puts an ulp
# apart: the first has raw lengths 3.6000000000000005 and 3.5999999999999996,
# and the second, wound slowly, pairs 3.8999999999999995 with
# 3.9000000000000004, which in time order would rise by 8.9e-16.
DECIMAL_LAYOUTS = {
    "near-tie": CalibrationDesign(
        RobotGeometry(h=7.3, rho_max=13.3, v=3.0),
        SensorLayout((0.4, 4.2, 4.8, 5.5, 6.3)),
        MarkLayout((10.6, 9.3, 6.7, 4.7, 4.6, 3.7, 1.3, 1.0)),
    ),
    "slow": CalibrationDesign(
        RobotGeometry(h=6.0, rho_max=11.0, v=1e-7),
        SensorLayout((2.2, 4.1)),
        MarkLayout((10.6, 9.6, 7.7, 5.8)),
    ),
}


def decimal_layouts(count: int, seed: int) -> list[CalibrationDesign]:
    """Seeded random layouts on a 0.1 m grid, wound at speeds from 1e-7 to
    1e3, some of whose marks lie past the winding window."""
    designs = []
    rng = random.Random(seed)
    for _ in range(count):
        h = rng.randint(30, 100) / 10
        geometry = RobotGeometry(h=h, rho_max=rng.randint(40, 140) / 10, v=rng.choice([1e-7, 1e-3, 1.0, 3.0, 1e3]))
        heights = sorted(rng.sample(range(1, int(h * 10)), rng.randint(1, 5)))
        positions = sorted(rng.sample(range(1, int(geometry.l_max * 10)), rng.randint(1, 12)))
        designs.append(CalibrationDesign(
            geometry,
            SensorLayout(tuple(x / 10 for x in heights)),
            MarkLayout(tuple(x / 10 for x in reversed(positions))),
        ))
    return designs


def unreachable_pair_designs() -> list[CalibrationDesign]:
    """Seeded random layouts whose marks spread past the winding window, so
    early marks can meet the top sensors only while unwinding (t < 0) and
    late marks the bottom sensors only beyond the support (rho <= 0)."""
    designs = []
    rng = random.Random(20)
    for _ in range(60):
        h = rng.uniform(4.0, 10.0)
        geometry = RobotGeometry(h=h, rho_max=rng.uniform(4.0, 12.0))
        heights = sorted(rng.sample(range(1, int(h * 20)), rng.randint(1, 5)))
        positions = sorted(rng.sample(range(1, int(geometry.l_max * 20) + 40), rng.randint(1, 12)))
        designs.append(CalibrationDesign(
            geometry,
            SensorLayout(tuple(x / 20 for x in heights)),
            MarkLayout(tuple(x / 20 for x in reversed(positions))),
        ))
    return designs


def plain_sum(values) -> float:
    """Left-to-right float additions, written out."""
    total = 0
    for value in values:
        total = total + value
    return total


def table_winding(gaps: list[float]) -> EventTable:
    """A rectified table, one event per second, that winds ``gaps`` in turn."""
    rhos = [1.0 + sum(gaps[q:]) for q in range(len(gaps) + 1)]
    return EventTable(tuple(Event(float(t), t + 1, 1, rho) for t, rho in enumerate(rhos)))


def stepwise_stroke_profile(table: EventTable, tolerance: float) -> tuple[StartStroke, ...]:
    """Reference walk: starts that share a gap prefix are replayed together,
    as groups split by the exact value of their next gap, with one
    ``advance`` call on every step of every group.  It returns the
    profile's entries, one per start, each stroke the length between the
    start's event and the one k gaps on."""
    if not table.rectified:
        raise ValueError("stroke_profile needs a rectified table")
    check_tolerance("gap", tolerance)
    gaps, rhos = table.gaps, table.rho_values
    splits = {
        gap: (bits, table.match_mask(gap, tolerance)) for gap, bits in table.gap_positions.items()
    }
    everyone = (1 << table.count) - 1
    has_next = everyone >> 1
    ends = has_next ^ (has_next >> 1)
    identified = {}
    pending = [(has_next, everyone, 1)]
    while pending:
        rest, current, k = pending.pop()
        while rest:
            gap = gaps[(rest & -rest).bit_length() - 1]
            bits, match = splits[gap]
            subgroup = rest & bits
            rest ^= subgroup
            after = events.advance(current, match)
            if after & (after - 1) == 0:
                p = after.bit_length() - k
                identified[p] = (p, k, rhos[p - 1] - rhos[p - 1 + k])
            else:
                subgroup &= ~ends  # a start whose gaps run out here drops
                if subgroup:
                    pending.append((subgroup << 1, after, k + 1))
    return tuple(
        StartStroke(*identified.get(p, (p, None, None))) for p in range(1, table.count + 1)
    )


def entrywise_summaries(entries: tuple[StartStroke, ...]) -> tuple[int, float | None, float | None]:
    """``(unidentifiable_starts, worst_stroke, mean_stroke)`` read entry by
    entry, the mean's strokes added in start order."""
    strokes = [e.stroke for e in entries if e.stroke is not None]
    return (
        sum(1 for e in entries if not e.identifiable),
        max(strokes, default=None),
        plain_sum(strokes) / len(strokes) if strokes else None,
    )


class TestDetectionTime:
    def test_reference_values(self, medium, xl):
        assert detection_time(medium, 1, 2) == pytest.approx(2.00, abs=1e-12)
        assert detection_time(xl, 1, 5) == pytest.approx(0.50, abs=1e-12)

    def test_zero_at_drive_start(self):
        design = CalibrationDesign(
            RobotGeometry(h=6, rho_max=11),
            SensorLayout((5.0,)),
            MarkLayout((12.0, 5.0)),
        )
        assert detection_time(design, 1, 1) == 0.0
        table = enumerate_events(design)
        assert table.events[0].t == 0.0  # start-instant event is kept

    def test_speed_scales_time_only(self, medium):
        fast = CalibrationDesign(
            RobotGeometry(h=6, rho_max=11, v=2.0), medium.sensors, medium.marks
        )
        assert detection_time(fast, 1, 2) == pytest.approx(1.00)
        assert fast.rho_at(1, 2) == medium.rho_at(1, 2)


class TestEnumerate:
    def test_medium_golden_table(self, medium):
        table = enumerate_events(medium)
        assert table.count == 12
        assert rows(table) == pytest.approx(MEDIUM_RAW_ROWS)

    def test_counts(self, all_designs):
        expected = {"medium-cube": 12, "large-cube": 39, "xl-cube": 70, "workshop": 33}
        for name, design in all_designs.items():
            assert enumerate_events(design).count == expected[name]

    def test_single_pair(self):
        design = CalibrationDesign(
            RobotGeometry(h=6, rho_max=6, b=4), SensorLayout((5.0,)), MarkLayout((5.0,))
        )
        table = enumerate_events(design)
        assert rows(table) == [(2.0, 1, 1, 4.0)]

    def test_unreachable_pairs_excluded(self):
        # The second mark never clears the support for the low sensor.
        design = CalibrationDesign(
            RobotGeometry(h=6, rho_max=11),
            SensorLayout((2.0, 5.0)),
            MarkLayout((10.0, 3.5)),
        )
        pairs = {(e.i, e.j) for e in enumerate_events(design).events}
        assert (2, 1) not in pairs  # rho would be -0.5
        assert (2, 2) in pairs
        # On and within GEOM_TOL of each reach boundary.
        table = enumerate_events(BOUNDARY_MARKS)
        assert rows(table)[:2] == [(0.0, 1, 2, 11.0), (2.0, 2, 2, 9.0)]
        assert (5, 2) not in {(e.i, e.j) for e in table.events}
        near = enumerate_events(NEAR_BOUNDARY_MARKS).events
        assert -GEOM_TOL < near[0].t < 0 and (near[0].i, near[0].j) == (1, 3)
        pairs = set(itertools.product(range(1, 4), range(1, 4)))
        assert {(e.i, e.j) for e in near} == pairs - {(3, 1), (3, 2)}

    def test_simultaneity_criterion(self, all_designs):
        # Equal times, equal lengths and equal position sums coincide.
        for design in all_designs.values():
            events = enumerate_events(design).events
            for a in events:
                for b in events:
                    same_t = abs(a.t - b.t) <= 1e-9
                    same_rho = abs(a.rho - b.rho) <= 1e-9
                    sum_a = design.marks.position(a.i) + design.sensors.height(a.j)
                    sum_b = design.marks.position(b.i) + design.sensors.height(b.j)
                    assert same_t == same_rho == (abs(sum_a - sum_b) <= 1e-9)

    def test_events_match_detection_time_and_rho_at(self, all_designs):
        # The 5 cm designs' lengths are not binary fractions, so a reordered
        # expression would round differently there; the rewound layouts
        # wind at other speeds than 1 m/s.
        designs = list(all_designs.values())
        for d_pool, z_pool in FIVE_CENTIMETRE_POOLS:
            recipe = DesignRecipe(RobotGeometry(6.0, 11.0), d_pool, z_pool)
            designs.append(build_design(recipe).design)
        designs += rewound_layouts()
        for design in designs:
            for e in enumerate_events(design).events:
                assert e.t == detection_time(design, e.i, e.j)
                assert e.rho == design.rho_at(e.i, e.j)

    def test_matches_tuple_sort_oracle(self, all_designs):
        # Equality covers each event's t, i, j and rho and the tie order.
        designs = [*all_designs.values(), SUB_ULP_SENSORS]
        for d_pool, z_pool in FIVE_CENTIMETRE_POOLS:
            designs.append(build_design(DesignRecipe(RobotGeometry(6.0, 11.0), d_pool, z_pool)).design)
        d_pool, z_pool = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75), (2.0, 3.0, 2.5)
        orderings = sorted(itertools.product(itertools.permutations(d_pool), itertools.permutations(z_pool)))
        for d_order, z_order in orderings[::20]:
            recipe = DesignRecipe(RobotGeometry(h=18.0, rho_max=32.0), d_order, z_order)
            designs.append(build_design(recipe).design)
        # Designs whose pairs fail each reach test, from both ends.
        unreachable = [BOUNDARY_MARKS, NEAR_BOUNDARY_MARKS, *unreachable_pair_designs()]
        early = late = 0
        for design in unreachable:
            g = design.geometry
            for position in design.marks.positions:
                for height in design.sensors.heights:
                    early += g.rho_max - (position - (g.h - height)) < -GEOM_TOL
                    late += position - (g.h - height) <= GEOM_TOL
        assert early > 100 and late > 100
        designs += unreachable + rewound_layouts()
        assert len(designs) == 4 + 1 + 3 + 216 + 62 + 80
        for design in designs:
            table = enumerate_events(design)
            assert table == tuple_sort_enumerate(design)
            assert all(type(event) is Event for event in table.events)

    def test_conforming_designs_reach_every_pair(self, all_designs):
        # C1 puts the earliest meeting at t = 2 * d0 / v and C3 the shortest
        # length at b, so these tables hold one event per mark/sensor pair.
        designs = list(all_designs.values())
        for rho_max, d_pool, z_pool, every in (
            (60.0, (0.5, 0.75, 1.25), (2.0, 3.0), 1),
            (32.0, (0.5, 0.75, 1.0, 1.25, 1.5, 1.75), (2.0, 3.0, 2.5), 20),
        ):
            orderings = sorted(itertools.product(itertools.permutations(d_pool), itertools.permutations(z_pool)))
            for d_order, z_order in orderings[::every]:
                recipe = DesignRecipe(RobotGeometry(h=18.0, rho_max=rho_max), d_order, z_order)
                designs.append(build_design(recipe).design)
        rng = random.Random(20260808)  # AC11's draws
        designs += [random_conforming_design(rng) for _ in range(40)]
        assert len(designs) == 4 + 12 + 216 + 40
        for design in designs:
            assert enumerate_events(design).count == design.marks.count * design.sensors.count

    def test_same_float_instant_lists_sensors_top_down(self):
        events = enumerate_events(SUB_ULP_SENSORS).events
        tied = [(a, b) for a, b in zip(events, events[1:]) if a.t == b.t]
        assert len(tied) == 4  # one tie per mark
        for a, b in tied:
            assert a.i == b.i and (a.j, b.j) == (2, 1)


class TestRectify:
    def test_medium_golden_table(self, medium):
        table = rectify(enumerate_events(medium))
        assert table.count == 9
        assert rows(table) == pytest.approx(MEDIUM_RECT_ROWS)

    def test_ratio_rule_keeps_low_mark_high_sensor(self, workshop):
        table = rectify(enumerate_events(workshop))
        by_rho = {round(e.rho, 9): (e.i, e.j) for e in table.events}
        # (3,3) and (1,2) collide at 11.25; ratio 1 vs 0.5 keeps (1,2).
        assert by_rho[11.25] == (1, 2)
        # (2,1) and (4,3) collide at 10.25; ratio 2 vs 4/3 keeps (4,3).
        assert by_rho[10.25] == (4, 3)

    def test_ratio_tie_prefers_small_mark_index(self, medium):
        table = rectify(enumerate_events(medium))
        at_t7 = [e for e in table.events if abs(e.t - 7.0) <= 1e-9]
        assert [(e.i, e.j) for e in at_t7] == [(3, 1)]  # beats (6,2), both ratio 3

    def test_counts(self, all_designs):
        expected = {"medium-cube": 9, "large-cube": 33, "xl-cube": 53, "workshop": 26}
        for name, design in all_designs.items():
            assert rectify(enumerate_events(design)).count == expected[name]

    def test_workshop_rho_column(self, workshop):
        table = rectify(enumerate_events(workshop))
        assert list(table.rho_values) == pytest.approx(WORKSHOP_RECT_RHO)

    def test_idempotent(self, all_designs):
        for design in all_designs.values():
            once = rectify(enumerate_events(design))
            assert rectify(once) == once

    def test_chain_of_near_ties_rectifies(self):
        # Each length is within GEOM_TOL of the one before, so the chain is
        # one detection even though its ends lie further apart than GEOM_TOL.
        table = EventTable(NEAR_TIE_CHAIN)
        rectified = rectify(table)
        assert rectified.rectified
        assert rows(rectified) == [(0.8e-9, 1, 1, 5.0 - 0.8e-9), (3.0, 4, 1, 2.0)]
        assert rectify(rectified) == rectified

    @pytest.mark.parametrize(
        "events",
        [
            (),
            (Event(2.0, 1, 1, 4.0),),
            (Event(0.0, 1, 2, 5.0), Event(1.0, 2, 1, 4.0), Event(2.5, 3, 1, 3.0)),
        ],
        ids=["empty", "one-event", "rectified"],
    )
    def test_tables_without_ties_come_back_equal(self, events):
        table = EventTable(events)
        assert table.rectified is True
        assert rectify(table) == table

    def test_matches_group_list_oracle(self, all_designs):
        # Every climb ordering, the presets and two near-tie chains; equality
        # covers each survivor's t, i, j and rho.
        raws = [enumerate_events(design) for design in all_designs.values()]
        raws.append(EventTable(NEAR_TIE_CHAIN))
        raws.append(EventTable((
            Event(0.0, 3, 2, 6.0),
            Event(0.6e-9, 2, 1, 6.0 - 0.6e-9),
            Event(1.2e-9, 4, 2, 6.0 - 1.2e-9),
            Event(3.0, 5, 1, 3.0),
            Event(3.0, 5, 2, 3.0),
        )))
        d_pool, z_pool = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75), (2.0, 3.0, 2.5)
        for d_order, z_order in itertools.product(
            itertools.permutations(d_pool), itertools.permutations(z_pool)
        ):
            recipe = DesignRecipe(RobotGeometry(h=18.0, rho_max=32.0), d_order, z_order)
            try:
                raws.append(enumerate_events(build_design(recipe).design))
            except InfeasibleRecipe:
                pass
        assert len(raws) > 4000
        # The long recipe's 12 orderings, whose groups hold up to 5 events.
        recipe = DesignRecipe(RobotGeometry(h=18.0, rho_max=60.0), (0.5, 0.75, 1.25), (2.0, 3.0))
        long_raws = [
            enumerate_events(build_design(replace(recipe, d_pool=d_order, z_pool=z_order)).design)
            for d_order in sorted(set(itertools.permutations(recipe.d_pool)))
            for z_order in sorted(set(itertools.permutations(recipe.z_pool)))
        ]
        assert len(long_raws) == 12
        largest = 0
        for raw in long_raws:
            rhos = raw.rho_values
            starts = [k for k in range(1, raw.count) if rhos[k - 1] - rhos[k] > GEOM_TOL]
            largest = max(largest, *map(operator.sub, [*starts, raw.count], [0, *starts]))
        assert largest == 5
        raws += long_raws
        for raw in raws:
            table = rectify(raw)
            assert table == group_list_rectify(raw)
            assert all(type(event) is Event for event in table.events)

    def test_detection_count_is_the_rectified_count(self):
        # validate_design reads C5's exploitable events from the raw table.
        raws = [enumerate_events(design) for design in columnar_designs().values()]
        raws += [enumerate_events(design) for design in DECIMAL_LAYOUTS.values()]
        raws += [EventTable(NEAR_TIE_CHAIN), EventTable(LISTED_LATER), EventTable(())]
        for raw in raws:
            assert events.detection_count(raw) == rectify(raw).count
        assert [events.detection_count(raw) for raw in raws[-3:]] == [2, 2, 0]

    def test_tables_built_from_rows_keep_their_given_times(self):
        # No winding's (rho_max - rho) / v gives these times: the two events
        # at 5 m are detected 3 s apart.
        table = EventTable((
            Event(0.0, 1, 1, 6.0),
            Event(1.0, 3, 1, 5.0),
            Event(4.0, 2, 2, 5.0),
            Event(4.5, 4, 1, 3.0),
            Event(9.0, 5, 2, 2.5),
        ))
        rectified = rectify(table)
        assert rows(rectified) == [(0.0, 1, 1, 6.0), (4.0, 2, 2, 5.0), (4.5, 4, 1, 3.0), (9.0, 5, 2, 2.5)]
        assert rectified.times == (0.0, 4.0, 4.5, 9.0)
        assert rectify(rectified) == rectified
        assert rectify(rectified).times == rectified.times

    def test_ratio_tie_prefers_small_mark_index_listed_later(self):
        # Near-ties are listed by length, so the smaller mark can come second.
        table = EventTable(LISTED_LATER)
        assert rows(rectify(table)) == [(0.5e-9, 2, 1, 5.0 - 0.5e-9), (3.0, 5, 1, 2.0)]

    def test_strictly_decreasing_rho(self, all_designs):
        for design in all_designs.values():
            rho = rectify(enumerate_events(design)).rho_values
            assert all(a > b for a, b in zip(rho, rho[1:]))

    def test_first_detection_needs_twice_the_top_reserve(self, all_designs):
        for design in all_designs.values():
            table = rectify(enumerate_events(design))
            bound = design.geometry.rho_max - 2 * design.proximal_reserve
            assert table.events[0].rho <= bound + 1e-9

    def test_last_event_reads_the_boost(self, all_designs):
        for design in all_designs.values():
            table = rectify(enumerate_events(design))
            assert table.events[-1].rho == pytest.approx(design.geometry.b, abs=1e-9)


class TestDeltaStats:
    def test_medium(self, medium):
        stats = delta_stats(rectify(enumerate_events(medium)))
        assert stats.mean == pytest.approx(1.0, abs=1e-9)
        assert stats.std == pytest.approx(0.0, abs=1e-9)
        assert stats.count == 9

    def test_constant_two_gap_table(self):
        table = EventTable((Event(0.0, 1, 1, 3.0), Event(1.0, 2, 1, 2.0), Event(2.0, 3, 1, 1.0)))
        stats = delta_stats(table)
        assert stats.mean == 1.0
        assert stats.std == 0.0

    def test_large_against_brute_oracle(self, large):
        table = rectify(enumerate_events(large))
        stats = delta_stats(table)
        mean, std = brute_stats(list(table.rho_values))
        assert stats.mean == pytest.approx(mean, abs=1e-12)
        assert stats.std == pytest.approx(std, abs=1e-12)
        # Frozen oracle values for the shipped fixture.
        assert stats.mean == pytest.approx(0.59375, abs=1e-9)
        assert stats.std == pytest.approx(0.31590882719033697, abs=1e-9)

    def test_workshop_frozen_values(self, workshop):
        stats = delta_stats(rectify(enumerate_events(workshop)))
        assert stats.mean == pytest.approx(0.46, abs=1e-9)
        assert stats.std == pytest.approx(0.2245365597551247, abs=1e-9)

    def test_requires_rectified(self, medium):
        with pytest.raises(ValueError):
            delta_stats(enumerate_events(medium))

    def test_requires_three_events(self):
        table = EventTable((Event(0.0, 1, 1, 2.0), Event(1.0, 2, 1, 1.0)))
        with pytest.raises(ValueError):
            delta_stats(table)

    @pytest.mark.parametrize("top,middle,bottom", [(3e200, 2e200, 0.5e200), (4e154, 3e154, 0.0)])
    def test_gaps_past_the_float_range_have_no_statistics(self, top, middle, bottom):
        # Gaps of 1e200 and 1.5e200 deviate from their mean by 2.5e199,
        # which squares past the float range; gaps of 1e154 and 3e154
        # deviate by 1e154, whose squares, 1e308 each, sum past it.
        table = EventTable((Event(0.0, 1, 1, top), Event(1.0, 2, 1, middle), Event(2.0, 3, 1, bottom)))
        with pytest.raises(ValueError, match="^the gap statistics of 3 events overflow the float range$"):
            delta_stats(table)


class TestAdvance:
    @pytest.mark.parametrize("tolerance", [0.05, 0.25, 0.3])
    def test_matches_set_oracle(self, tolerance):
        # Quarter-metre gaps and a 0.25 tolerance put probes exactly on the
        # boundary; other values put them within an ulp of it.  Both rules
        # must evaluate the same float predicate there.
        rng = random.Random(8)
        for _ in range(150):
            pool = [0.25, 0.5, 0.75, rng.uniform(0.1, 2.0)]
            drawn = [
                rng.choice(pool) if rng.random() < 0.7 else rng.uniform(0.1, 2.0)
                for _ in range(rng.randint(1, 12))
            ]
            table = table_winding(drawn)
            gaps = table.gaps
            current = {e for e in range(1, table.count + 1) if rng.random() < 0.7}
            mask = sum(1 << (e - 1) for e in current)  # bit q stands for event q + 1
            probes = {rng.uniform(0.0, 2.5)}
            probes.update(g + o for g in gaps for o in (-tolerance, 0.0, tolerance))
            for gap in sorted(probes):
                # Event q + 1 survives on its next gap, gaps[q], and moves on to q + 2.
                expected = {
                    q + 2
                    for q in range(len(gaps))
                    if q + 1 in current and abs(gaps[q] - gap) <= tolerance
                }
                want = sum(1 << (e - 1) for e in expected)
                match = table.match_mask(gap, tolerance)
                assert events.advance(mask, match) == want


class TestStrokeProfile:
    def test_workshop_walkthrough_start(self, workshop):
        profile = stroke_profile(rectify(enumerate_events(workshop)))
        entry = profile.entry(8)  # the detection at 9.00 m
        assert entry.k == 3
        assert entry.stroke == pytest.approx(1.5, abs=1e-9)

    def test_constant_gaps_leave_interior_starts_ambiguous(self, medium):
        profile = stroke_profile(rectify(enumerate_events(medium)))
        assert profile.entry(1).k == 8
        assert profile.entry(1).stroke == pytest.approx(8.0)
        for start in range(2, 10):
            assert not profile.entry(start).identifiable
        assert profile.unidentifiable_starts == 8
        assert profile.worst_stroke == pytest.approx(8.0)

    def test_two_event_table(self):
        table = EventTable((Event(0.0, 1, 1, 2.0), Event(1.0, 2, 1, 1.0)))
        profile = stroke_profile(table)
        assert profile.entry(1).k == 1
        assert profile.entry(1).stroke == pytest.approx(1.0)
        assert not profile.entry(2).identifiable  # final event has no gaps

    @staticmethod
    def assert_matches_brute_oracle(
        table: EventTable, tolerance: float, oracle=brute_unique_k
    ) -> None:
        gaps = list(table.gaps)
        profile = stroke_profile(table, tolerance)
        for start in range(1, table.count + 1):
            expected = oracle(gaps, start - 1, tolerance)
            entry = profile.entry(start)
            if expected is None:
                assert not entry.identifiable
            else:
                assert (entry.k, entry.stroke) == pytest.approx(expected)

    def test_matches_brute_oracle(self, all_designs):
        for design in all_designs.values():
            table = rectify(enumerate_events(design))
            for tolerance in (0.01, 0.05):
                self.assert_matches_brute_oracle(table, tolerance)

    def test_matches_brute_oracle_at_wide_tolerance(self, all_designs):
        # At 0.3 most gaps match several table values, so long shared
        # prefixes appear even on the presets.
        for design in all_designs.values():
            self.assert_matches_brute_oracle(rectify(enumerate_events(design)), 0.3)

    def test_matches_window_run_oracle_on_long_climb_table(self):
        # 279 events, strokes up to 71.25 m: the periodic stretch leaves
        # starts sharing prefixes of over two hundred gaps (k reaches 220).
        table = climb_table(100.0)
        assert table.count == 279
        for tolerance in (0.05, 0.3):
            self.assert_matches_brute_oracle(table, tolerance, window_run_unique_k)

    def test_window_run_oracle_agrees_with_slice_oracle(self, workshop):
        for table in (rectify(enumerate_events(workshop)), climb_table(32.0)):
            gaps = list(table.gaps)
            for tolerance in (0.01, 0.05, 0.3):
                for p0 in range(table.count):
                    assert window_run_unique_k(gaps, p0, tolerance) == brute_unique_k(
                        gaps, p0, tolerance
                    )

    def test_entry_rejects_out_of_range_starts(self, workshop):
        profile = stroke_profile(rectify(enumerate_events(workshop)))
        assert profile.entry(1).start == 1 and profile.entry(26).start == 26
        for start in (0, -1, 27):
            with pytest.raises(IndexError, match="out of range 1..26"):
                profile.entry(start)

    def test_matches_brute_oracle_on_five_centimetre_steps(self):
        # Gaps 5 cm apart match at 0.05 but not at 0.01, so here the
        # tolerance decides the profile and both sides must share it.
        for d_pool, z_pool in FIVE_CENTIMETRE_POOLS:
            design, _ = build_design(DesignRecipe(RobotGeometry(6.0, 11.0), d_pool, z_pool))
            table = rectify(enumerate_events(design))
            assert stroke_profile(table, 0.01) != stroke_profile(table, 0.05)
            for tolerance in (0.01, 0.05):
                self.assert_matches_brute_oracle(table, tolerance)

    def test_matches_brute_oracle_on_periodic_table(self):
        # Periodic stretches share long exact gap prefixes, which the other
        # oracle tables (at most about 70 events) are too short to show.
        table = long_recipe_table()
        assert table.count == 145
        self.assert_matches_brute_oracle(table, 0.05)

    def test_each_start_folds_until_it_is_identified(self, monkeypatch):
        # An exact work pin for the walk: every start folds its gaps, one
        # advance call each, and stops at the step that identifies it.
        table = long_recipe_table()
        calls = 0
        advance = events.advance

        def counting(*args):
            nonlocal calls
            calls += 1
            return advance(*args)

        monkeypatch.setattr(events, "advance", counting)
        for tolerance, expected in ((0.05, 6784), (0.3, 9747)):
            calls = 0
            ks = {p: k for p, k, _ in events._walk_starts(table, tolerance)}
            assert calls == expected == sum(
                ks.get(p, table.count - p) for p in range(1, table.count)
            )

    def test_each_gap_value_is_matched_once(self, monkeypatch):
        # A work bound for matching: every walk asks for each distinct gap
        # value's mask at k = 1, and never needs another.
        table = long_recipe_table()
        calls = 0
        match = EventTable.match_mask

        def counting(self, gap, tolerance):
            nonlocal calls
            calls += 1
            return match(self, gap, tolerance)

        monkeypatch.setattr(EventTable, "match_mask", counting)
        for tolerance in (0.05, 0.3):
            calls = 0
            events._walk_starts(table, tolerance)
            assert calls == len(table.gap_positions) == 4

    @pytest.mark.parametrize("tolerance", [0.0, -0.05, float("nan"), float("inf")])
    def test_rejects_unusable_tolerance(self, workshop, tolerance):
        # calibrate rejects these too; here they would mark (nearly) every
        # start unidentifiable instead.
        table = rectify(enumerate_events(workshop))
        with pytest.raises(ValueError, match="finite and positive"):
            stroke_profile(table, tolerance)

    @pytest.mark.parametrize("tolerance", [0.01, 0.3, 0.6])
    def test_few_valued_tables_match_the_stepwise_walk(self, tolerance):
        # Few gap values leave starts that wind far before their gaps run
        # out.  Values 0.5 m apart are classes at 0.01 and 0.3; at 0.6 their
        # neighbours match but 0.5 and 1.5 do not, so matching is no
        # equivalence and the walk decides.
        rng = random.Random(1)
        for _ in range(1500):
            pool = [0.5, 1.0, 1.5, 2.0][: rng.randint(1, 4)]
            table = table_winding([rng.choice(pool) for _ in range(rng.randint(2, 12))])
            entries = stepwise_stroke_profile(table, tolerance)
            assert_profile_has(stroke_profile(table, tolerance), entries)

    def test_a_start_whose_gaps_run_out_has_no_stroke(self):
        # Start 4 winds its two 2 m gaps, 4 m, and is still ambiguous when
        # they run out.  Only identified starts count toward the worst
        # stroke of 3.5 m.
        table = table_winding([1.5, 1.5, 0.5, 2.0, 2.0])
        profile = stroke_profile(table, 0.6)
        assert (profile.unidentifiable_starts, profile.worst_stroke) == (3, 3.5)
        assert not profile.entry(4).identifiable

    def test_frozen_summaries(self, all_designs):
        expected = {
            "medium-cube": (8, 8.0, 8.0),
            "large-cube": (3, 3.75, 1.9083333333333334),
            "xl-cube": (1, 3.75, 2.0625),
            "workshop": (5, 2.25, 1.6428571428571428),
        }
        for name, design in all_designs.items():
            profile = stroke_profile(rectify(enumerate_events(design)))
            unident, worst, mean = expected[name]
            assert profile.unidentifiable_starts == unident
            assert profile.worst_stroke == pytest.approx(worst)
            assert profile.mean_stroke == pytest.approx(mean)


def assert_profile_has(
    profile: StrokeProfile | None, entries: tuple[StartStroke, ...] | None
) -> None:
    """``profile`` is None where ``entries`` is, and otherwise holds those
    entries and reads each summary as they do."""
    if entries is None:
        assert profile is None
        return
    assert profile.entries == entries
    summaries = profile.unidentifiable_starts, profile.worst_stroke, profile.mean_stroke
    # repr tells an int or a signed zero from an equal float.
    assert repr(summaries) == repr(entrywise_summaries(entries))


def assert_walks_agree(table: EventTable, paths: Counter) -> None:
    """stroke_profile, its walk and the reference walk give every start the
    same k and stroke at four tolerances; ``paths`` counts which path each
    profile took."""
    for tolerance in (0.01, 0.05, 0.3, 0.6):
        entries = stepwise_stroke_profile(table, tolerance)
        assert_profile_has(stroke_profile(table, tolerance), entries)
        walked = events._walk_starts(table, tolerance)
        assert walked == tuple(e for e in entries if e.identifiable)
        paths["walk" if events._gap_symbols(table.gaps, tolerance) is None else "suffixes"] += 1


@pytest.fixture
def paths():
    """Which path each profile of a test took; the test must take both."""
    taken = Counter()
    yield taken
    assert taken["walk"] and taken["suffixes"], taken


class TestStrokeProfileMatchesStepwiseWalk:
    def test_pinned_designs(self, paths):
        # The presets, every 20th climb ordering and all 12 long orderings.
        for design in pinned_designs():
            assert_walks_agree(rectify(enumerate_events(design)), paths)

    @pytest.mark.parametrize("rho_max", [60.0, 100.0, 300.0])
    def test_long_climb_tables(self, rho_max, paths):
        assert_walks_agree(climb_table(rho_max), paths)

    def test_five_centimetre_pools(self, paths):
        for d_pool, z_pool in FIVE_CENTIMETRE_POOLS:
            design, _ = build_design(DesignRecipe(RobotGeometry(6.0, 11.0), d_pool, z_pool))
            assert_walks_agree(rectify(enumerate_events(design)), paths)

    def test_random_conforming_designs(self, paths):
        rng = random.Random(24)
        for _ in range(200):
            assert_walks_agree(rectify(enumerate_events(random_conforming_design(rng))), paths)

    def test_decimal_layouts(self, paths):
        # Rounding puts raw lengths of these layouts within an ulp of each
        # other; rectified, every gap exceeds GEOM_TOL.
        for design in DECIMAL_LAYOUTS.values():
            table = rectify(enumerate_events(design))
            assert min(table.gaps) > GEOM_TOL
            assert_walks_agree(table, paths)

    def test_suffix_sort_in_doubling_rounds(self, monkeypatch, paths):
        # Texts longer than 2,048 characters are sorted in prefix-doubling
        # rounds; a first round of one-character slices takes them on
        # every table here.
        monkeypatch.setattr(events, "_SLICED", 1)
        for table in (long_recipe_table(), climb_table(100.0)):
            assert_walks_agree(table, paths)

    def test_more_gap_values_than_characters_take_the_walk(self, monkeypatch):
        # One character per class fits any table whose distinct gaps number
        # at most sys.maxunicode; a larger one has no symbols to sort.
        table = long_recipe_table()
        fewer = SimpleNamespace(maxunicode=len(table.gap_positions) - 1)
        monkeypatch.setattr(events, "sys", fewer)
        assert events._gap_symbols(table.gaps, 0.05) is None
        assert_profile_has(stroke_profile(table, 0.05), stepwise_stroke_profile(table, 0.05))


class TestEventCsv:
    def test_medium_raw_golden_lines(self, medium):
        text = format_event_csv(enumerate_events(medium))
        lines = text.splitlines()
        assert lines[0] == "t,i,j,rho,delta_rho"
        assert lines[1] == "2.00,1,2,9.00,"
        assert lines[4] == "5.00,1,1,6.00,1.00"
        assert lines[5] == "5.00,4,2,6.00,0.00"
        assert len(lines) == 13

    def test_medium_rectified_golden_lines(self, medium):
        lines = format_event_csv(rectify(enumerate_events(medium))).splitlines()
        assert len(lines) == 10
        assert lines[-1] == "10.00,6,1,1.00,1.00"

    def test_round_trip_table_precision(self, workshop):
        table = rectify(enumerate_events(workshop))
        parsed = parse_event_csv(format_event_csv(table))
        assert parsed == table  # quarter-metre fixtures are exact at 2 decimals

    def test_round_trip_full_precision(self, xl):
        table = rectify(enumerate_events(xl))
        parsed = parse_event_csv(format_event_csv(table, precision="full"))
        assert parsed == table

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ValueError):
            parse_event_csv("nope\n")
        with pytest.raises(ValueError):
            parse_event_csv("t,i,j,rho,delta_rho\n1.0,1\n")
        with pytest.raises(ValueError):
            parse_event_csv("t,i,j,rho,delta_rho\nx,1,1,1.0,\n")

    @pytest.mark.parametrize(
        "row,fragment",
        [
            ("nan,2,1,5.0,", "finite"),
            ("inf,2,1,5.0,", "finite"),
            ("1.0,2,1,nan,", "finite"),
            ("1.0,2,1,-inf,", "finite"),
            ("1.0,0,1,5.0,", "indices start at 1"),
            ("1.0,2,0,5.0,", "indices start at 1"),
            ("1.0,-2,1,5.0,", "indices start at 1"),
        ],
    )
    def test_parse_rejects_non_finite_values_and_bad_indices(self, row, fragment):
        # Unchecked, a nan time slips past the order check, a nan rho makes
        # every start unidentifiable, and j = 0 divides by zero in rectify.
        text = f"t,i,j,rho,delta_rho\n1.0,1,1,6.0,\n{row}\n2.0,3,1,4.0,\n"
        with pytest.raises(ValueError, match=f"line 3: .*{fragment}"):
            parse_event_csv(text)

    @pytest.mark.parametrize(
        "parse,text,row,error",
        [
            (parse_event_csv, EVENT_DOC, "1.0,2,1", "expected 5 columns, got 3"),
            (parse_event_csv, EVENT_DOC, "x,2,1,5.0,", "could not convert"),
            (parse_event_csv, EVENT_DOC, "nan,2,1,5.0,", "t and rho must be finite"),
            (parse_event_csv, EVENT_DOC, "1.0,0,1,5.0,", "indices start at 1"),
            (parse_trace_csv, TRACE_DOC, "0.2,0.2,8.5", "expected 5 columns, got 3"),
            (parse_trace_csv, TRACE_DOC, "0.2,x,8.5,4,1", "could not convert"),
            (parse_trace_csv, TRACE_DOC, "0.2,0.2,8.5,x,1", "invalid literal for int"),
        ],
        ids=["event-columns", "event-float", "event-finite", "event-index", "trace-columns",
             "trace-float", "trace-int"],
    )
    def test_errors_name_the_physical_line(self, parse, text, row, error):
        # The bad row follows a blank line, and in a trace the drive comment
        # as well; the line a reader's editor shows is the one to name.
        lineno = text.splitlines().index("{row}") + 1
        with pytest.raises(ValueError, match=f"^line {lineno}: {error}"):
            parse(text.format(row=row))

    def test_bad_precision(self, medium):
        with pytest.raises(ValueError):
            format_event_csv(enumerate_events(medium), precision="3dp")


class TestEventTableValidation:
    def test_raw_allows_ties(self):
        EventTable((Event(1.0, 1, 1, 2.0), Event(1.0, 2, 2, 2.0)))

    def test_tied_times_are_not_rectified(self):
        # Enough events for every count check, so only the tie can refuse them.
        table = EventTable((Event(0.0, 1, 1, 3.0), Event(1.0, 2, 1, 2.0), Event(1.0, 3, 2, 2.0)))
        assert table.rectified is False
        for needs_rectified in (delta_stats, stroke_profile):
            with pytest.raises(ValueError, match="rectified"):
                needs_rectified(table)

    def test_one_sensor_raw_table_is_rectified(self):
        # One sensor meets each mark at its own instant, so no tie exists.
        design = CalibrationDesign(
            RobotGeometry(h=6.0, rho_max=11.0, v=1.0, b=1.0),
            SensorLayout((2.0,)),
            MarkLayout((10.0, 9.0, 8.0, 7.0, 6.0, 5.0)),
        )
        raw = enumerate_events(design)
        assert raw.rectified is True
        assert raw == rectify(raw)

    def test_rejects_time_disorder(self):
        with pytest.raises(ValueError):
            EventTable((Event(2.0, 1, 1, 2.0), Event(1.0, 2, 2, 3.0)))

    def test_rejects_rising_lengths(self):
        # Winding only shortens the cable: a length above the one before it,
        # by metres or by one ulp, at a later time or the same one, is no
        # detection of it.
        with pytest.raises(ValueError, match="lengths must never rise"):
            table_winding([2.0, 2.0, -2.5, -1.5, 0.5, 2.0])
        for rhos in ((3.5999999999999996, 3.6000000000000005), (1.0, 1.0, 2.0)):
            rising = tuple(Event(0.0, i, 1, rho) for i, rho in enumerate(rhos, start=1))
            with pytest.raises(ValueError, match="lengths must never rise"):
                EventTable(rising)
            text = "t,i,j,rho,delta_rho\n" + "".join(f"0.0,{e.i},1,{e.rho!r},\n" for e in rising)
            with pytest.raises(ValueError, match="lengths must never rise"):
                parse_event_csv(text)

    @pytest.mark.parametrize(
        "events",
        [
            # A time 0.95e-9 below the one before it, within GEOM_TOL.
            (Event(0.0, 2, 1, 5.0), Event(0.9e-9, 1, 1, 4.9),
             Event(1.95e-9, 4, 1, 4.0), Event(1.0e-9, 3, 3, 3.9)),
            # Times that climb by near-ties and fall back by as many.
            (Event(0.0, 4, 1, 8.0), Event(0.9e-9, 4, 1, 7.0), Event(1.8e-9, 4, 1, 6.0),
             Event(2.7e-9, 1, 1, 5.0), Event(1.8e-9, 4, 1, 4.0), Event(0.9e-9, 4, 1, 3.0),
             Event(0.0, 4, 1, 2.0), Event(1.05e-9, 2, 1, 1.0), Event(4.0, 3, 1, 0.5)),
        ],
        ids=["dip-inside-a-group", "fall-back-a-chain"],
    )
    def test_rejects_times_that_fall_within_geom_tol(self, events):
        # No winding detects an event before the one before it, however
        # close the two are.
        with pytest.raises(ValueError, match="time-ordered"):
            EventTable(events)

    def test_rejects_lengths_whose_gaps_overflow(self):
        rhos = (1.7e308, 1e308, -1e308, 1.7e308, 1e308, -1e308, -1.1e308)
        events = tuple(Event(float(t), t + 1, 1, rho) for t, rho in enumerate(rhos))
        with pytest.raises(ValueError, match="lengths must be finite"):
            EventTable(events)

    def test_rejects_lengths_whose_spread_overflows(self):
        # Each gap is finite, but rectify keeps events 1 and 3, whose gap
        # would not be.
        events = (Event(0.0, 1, 1, 1e308), Event(0.0, 2, 1, 0.0), Event(1.0, 3, 1, -1e308))
        assert all(map(math.isfinite, events_gaps(events)))
        with pytest.raises(ValueError, match="lengths must be finite"):
            EventTable(events)

    @pytest.mark.parametrize(
        "events",
        [
            (Event(0.0, 1, 0, 2.0), Event(0.0, 2, 0, 2.0), Event(1.0, 3, 1, 1.0)),
            (Event(0.0, 0, 1, 2.0), Event(1.0, 1, 1, 1.0)),
            (Event(0.0, 1, 2, 2.0), Event(0.0, 2, -1, 2.0), Event(1.0, 3, 1, 1.0)),
            (Event(0.0, -1, 1, 2.0), Event(1.0, 1, 1, 1.0)),
        ],
        ids=["sensor-0", "mark-0", "negative-sensor", "negative-mark"],
    )
    def test_rejects_an_index_below_1(self, events):
        # Unchecked, j = 0 divides by zero in rectify and a negative j ranks
        # its tied group backwards.
        with pytest.raises(ValueError, match="indices start at 1"):
            EventTable(events)

    def test_rejects_a_nan_time(self):
        with pytest.raises(ValueError, match="time-ordered"):
            EventTable((Event(0.0, 1, 1, 3.0), Event(math.nan, 2, 1, 2.0), Event(-5.0, 3, 1, 1.0)))

    def test_rejects_a_nan_length(self):
        # Unchecked, the gap statistics are nan and the profile leaves two
        # of the four starts unidentifiable.
        events = (Event(0.0, 1, 1, math.nan), Event(1.0, 2, 1, 1.0),
                  Event(2.0, 3, 1, 0.5), Event(3.0, 4, 1, 0.25))
        with pytest.raises(ValueError, match="lengths must be finite"):
            EventTable(events)

    @pytest.mark.parametrize(
        "events",
        [
            (Event(math.nan, 1, 1, 1.0),),
            (Event(0.0, 1, 1, 3.0), Event(1.0, 2, 1, 2.0), Event(math.inf, 3, 1, 1.0)),
        ],
        ids=["lone-nan", "trailing-inf"],
    )
    def test_rejects_a_non_finite_time_the_order_check_passes(self, events):
        with pytest.raises(ValueError, match="times must be finite"):
            EventTable(events)

    def test_cached_gaps_leave_equality_and_hash_alone(self, workshop):
        read = rectify(enumerate_events(workshop))
        fresh = rectify(enumerate_events(workshop))
        assert read.gaps is read.gaps  # computed once per table
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        assert "gaps" not in repr(read)

    def test_gap_index_leaves_equality_hash_and_repr_alone(self, workshop):
        read = rectify(enumerate_events(workshop))
        fresh = rectify(enumerate_events(workshop))
        stroke_profile(read, 0.05)  # fills the gap index
        assert read.gap_positions is read.gap_positions
        assert "gap_positions" in vars(read)
        assert "gap_positions" not in vars(fresh)
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        assert "gap_positions" not in repr(read)


def assert_meets_the_table_contract(table: EventTable) -> None:
    """Times never fall and are finite, lengths never rise, every length and
    gap is finite, and mark and sensor indices start at 1."""
    times, rhos = table.times, table.rho_values
    assert all(a <= b for a, b in zip(times, times[1:]))
    assert all(a >= b for a, b in zip(rhos, rhos[1:]))
    assert all(map(math.isfinite, times)) and all(map(math.isfinite, rhos))
    assert all(map(math.isfinite, events_gaps(table.events)))
    assert all(event.i >= 1 and event.j >= 1 for event in table.events)


class TestTablesMeetTheContract:
    """Every table the program makes is one an EventTable accepts, and
    rebuilding it from its rows or its CSV, at either precision, gives one
    too."""

    def test_raw_and_rectified_tables(self):
        designs = [*columnar_designs().values(), *DECIMAL_LAYOUTS.values()]
        rng = random.Random(28)
        designs += [random_conforming_design(rng) for _ in range(100)]
        designs += decimal_layouts(300, seed=28)
        tables = 0
        for design in designs:
            raw = enumerate_events(design)
            assert all(gap > GEOM_TOL for gap in events_gaps(rectify(raw).events))
            for table in (raw, rectify(raw)):
                assert_meets_the_table_contract(table)
                assert EventTable(table.events) == table
                assert parse_event_csv(format_event_csv(table, "full")) == table
                rounded = parse_event_csv(format_event_csv(table, "table"))
                assert_meets_the_table_contract(rounded)
                assert rounded.count == table.count
                tables += 1
        assert tables == 880

    def test_decimal_layouts_keep_lengths_in_order(self):
        # Meetings an ulp apart are listed longest first, whatever their
        # times; TestWindingSpeed shows the slow layout rectifies as a fast one.
        raw = enumerate_events(DECIMAL_LAYOUTS["near-tie"])
        assert (3.6000000000000005, 3.5999999999999996) in zip(raw.rho_values, raw.rho_values[1:])
        for design in DECIMAL_LAYOUTS.values():
            rhos = enumerate_events(design).rho_values
            assert all(a >= b for a, b in zip(rhos, rhos[1:]))


class TestWindingSpeed:
    """The speed sets only when each length is detected: the rectified
    rows, the placement verdicts and what a drive identifies are the same at
    any speed.  The slow decimal layout has two meetings 8.9e-16 m apart,
    which at 1e-7 m/s lie more than GEOM_TOL seconds apart."""

    SLOW = DECIMAL_LAYOUTS["slow"]
    FAST = replace(SLOW, geometry=replace(SLOW.geometry, v=1.0))

    def test_rectified_rows(self):
        slow, fast = (rectify(enumerate_events(d)) for d in (self.SLOW, self.FAST))
        assert [(e.i, e.j, e.rho) for e in slow.events] == [(e.i, e.j, e.rho) for e in fast.events]
        assert slow.count == 6

    def test_verdicts_and_details(self):
        report = validate_design(self.SLOW)
        assert report == validate_design(self.FAST)
        assert report["C5"] == ("C5", True, "2 simultaneous detections resolved, 6 exploitable events")

    def test_a_full_drive_identifies(self):
        results = []
        for design in (self.SLOW, self.FAST):
            trace = simulate(design, EncoderModel(), 11.0, 1.0)
            assert all(a.t < b.t for a, b in zip(trace.records, trace.records[1:]))
            result = run_trace(design, trace)
            assert result.status is Status.IDENTIFIED
            results.append((result.rho, result.stroke, result.candidate_history))
        assert results[0] == results[1]
        assert results[0][0] == pytest.approx(6.8)


class TestRowRecords:
    """Events, start strokes and trace records are immutable tuples of their
    fields: equal records are interchangeable and hash alike."""

    RECORDS = [
        (Event(2.0, 1, 2, 9.0), "Event(t=2.0, i=1, j=2, rho=9.0)", ("t", "i", "j", "rho")),
        (StartStroke(8, 3, 1.5), "StartStroke(start=8, k=3, stroke=1.5)", ("start", "k", "stroke")),
        (
            TraceRecord(0.5, 10.25, 8.5, 3, 2),
            "TraceRecord(t=0.5, reading=10.25, truth_rho=8.5, truth_i=3, truth_j=2)",
            ("t", "reading", "truth_rho", "truth_i", "truth_j"),
        ),
    ]

    @pytest.mark.parametrize("record,text,fields", RECORDS)
    def test_fields_repr_equality_and_hash(self, record, text, fields):
        assert record._fields == fields
        assert repr(record) == text
        twin = type(record)(*record)
        assert twin == record and hash(twin) == hash(record)
        assert record == tuple(getattr(record, name) for name in fields)
        assert twin._replace(**{fields[0]: 99}) != record

    @pytest.mark.parametrize("record,text,fields", RECORDS)
    def test_assignment_raises_attribute_error(self, record, text, fields):
        with pytest.raises(AttributeError):
            setattr(record, fields[0], 0)
        with pytest.raises(AttributeError):
            record.extra = 0

    def test_defaults(self):
        assert TraceRecord(1.0, 2.0) == (1.0, 2.0, None, None, None)
        assert TraceRecord._field_defaults == {"truth_rho": None, "truth_i": None, "truth_j": None}
        assert not Event._field_defaults and not StartStroke._field_defaults


class TestLeftToRightSums:
    """Python 3.12 made ``sum`` of floats compensated.  The mean stroke and
    gap statistics add left to right instead, so they read the same on every
    interpreter; each case below sums differently under the two rules.  A
    stroke is one difference of lengths, as ``run_trace`` measures it."""

    # Start 4 winds 0.24, 0.94 and 0.05 before it is unique.
    RHOS = (2.77, 2.53, 2.24, 1.29, 1.05, 0.11, 0.06)

    def test_left_sum(self):
        assert left_sum((0.1, 0.2, 0.3)) == (0.1 + 0.2) + 0.3 == 0.6000000000000001
        assert math.fsum((0.1, 0.2, 0.3)) == 0.6

    def test_profile_strokes_and_mean_stroke(self):
        table = EventTable(tuple(Event(float(t), t + 1, 1, rho) for t, rho in enumerate(self.RHOS)))
        entry = stroke_profile(table, 0.05).entry(4)
        assert entry.k == 3
        assert entry.stroke == self.RHOS[3] - self.RHOS[6] == 1.23 != plain_sum(table.gaps[3:6])
        for tolerance in (0.05, 0.01):
            profile = stroke_profile(table, tolerance)
            for e in profile.entries:
                if e.identifiable:
                    assert e.stroke == self.RHOS[e.start - 1] - self.RHOS[e.start - 1 + e.k]
            strokes = [e.stroke for e in profile.entries if e.identifiable]
            assert profile.mean_stroke == plain_sum(strokes) / len(strokes)
        # At 0.01 the strokes sum differently under the two rules.
        assert plain_sum(strokes) != math.fsum(strokes)

    def test_delta_stats(self, workshop):
        for table in (
            EventTable(tuple(Event(float(t), t + 1, 1, rho) for t, rho in enumerate(self.RHOS))),
            rectify(enumerate_events(workshop)),
        ):
            gaps = table.gaps
            n = table.count
            stats = delta_stats(table)
            mean = plain_sum(gaps) / (n - 1)
            squares = [(g - mean) ** 2 for g in gaps]
            assert stats.mean == mean
            assert stats.std == math.sqrt(plain_sum(squares) / (n - 2))
            assert plain_sum(squares) != math.fsum(squares)


@pytest.fixture(scope="module")
def columnar_tables() -> list[tuple[str, EventTable]]:
    """Every raw and rectified table of :func:`columnar_designs`, as
    ``enumerate_events`` and ``rectify`` return them."""
    tables = []
    for name, design in columnar_designs().items():
        raw = enumerate_events(design)
        tables += [(f"{name}-raw", raw), (f"{name}-rectified", rectify(raw))]
    return tables


class TestColumnarTables:
    """Tables that ``enumerate_events`` and ``rectify`` build from their
    columns and the winding's clock, with their times and rows built on
    first read of ``events``.  ``rectify`` of a table built from rows
    returns a table built from rows."""

    def test_match_their_twin_built_from_rows(self, columnar_tables):
        assert len(columnar_tables) > 60
        for name, table in columnar_tables:
            columns = (table.times, table.rho_values, table.count, table.gaps,
                       table.gap_positions, table.rectified)
            assert "events" not in vars(table), name
            twin = EventTable(table.events)
            assert "events" in vars(table)
            assert all(type(event) is Event for event in table.events), name
            assert table.events == twin.events, name
            assert columns == (twin.times, twin.rho_values, twin.count, twin.gaps,
                               twin.gap_positions, twin.rectified), name
            assert table == twin and twin == table, name
            assert hash(table) == hash(twin), name
            assert repr(table) == repr(twin), name

    def test_rectify_marks_its_result_rectified(self, columnar_tables):
        for name, table in columnar_tables:
            if not name.endswith("-raw"):
                assert vars(table)["rectified"] is True, name
                assert all(events._new_lengths(table.rho_values)), name

    def test_rectify_of_rows_gives_the_table_of_its_survivors_rows(self):
        # The rows' times are given, so the result keeps them; it equals the
        # rectified clocked twin, times included.
        for name, design in columnar_designs().items():
            raw = enumerate_events(design)
            rectified, clocked = rectify(EventTable(raw.events)), rectify(raw)
            assert rectified._clock is None and "times" in vars(rectified), name
            assert rectified == clocked and rectified.times == clocked.times, name
        # Near-tie chains keep the survivor of least i/j at its given time.
        chains = {
            NEAR_TIE_CHAIN: [(0.8e-9, 1, 1, 4.9999999992), (3.0, 4, 1, 2.0)],
            LISTED_LATER: [(0.5e-9, 2, 1, 4.9999999995), (3.0, 5, 1, 2.0)],
        }
        for chain, expected in chains.items():
            rectified = rectify(EventTable(chain))
            assert rows(rectified) == expected
            assert rectified.times == (expected[0][0], 3.0) and rectified.rectified

    def test_other_missing_attributes_raise_attribute_error(self, workshop):
        table = enumerate_events(workshop)
        with pytest.raises(AttributeError, match="no attribute 'rows'"):
            table.rows
        assert "events" not in vars(table)

    @pytest.mark.parametrize("read_rows", [False, True], ids=["unbuilt", "built"])
    def test_copy_and_pickle_give_equal_tables(self, read_rows):
        for table in (enumerate_events(presets.medium_cube()), long_recipe_table()):
            if read_rows:
                table.events
            clones = [copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))]
            for clone in clones:
                # Reading the rows derives the times.
                assert ("events" in vars(clone)) is ("times" in vars(clone)) is read_rows
                assert clone.times == table.times and clone.rectified == table.rectified
                assert clone == table and hash(clone) == hash(table)
                assert repr(clone) == repr(table)

    def test_validate_score_and_run_trace_leave_the_rows_unbuilt(self, monkeypatch):
        # The rows and times of every table these build stay unbuilt: each
        # reads only the (i, j, rho) columns, the gaps and their index.
        design = presets.workshop()
        trace = simulate(design, EncoderModel(scale=1.01, offset=3.0, seed=2), 9.1, 7.4)
        built: list[EventTable] = []

        def recording(function):
            def wrapper(*args):
                table = function(*args)
                built.append(table)
                return table
            return wrapper

        # validate_design reads the events module's functions; score and
        # run_trace call the names their modules imported.
        for module in (events, optimize, identify):
            for name in ("enumerate_events", "rectify"):
                monkeypatch.setattr(module, name, recording(getattr(module, name)))
        validate_design(design)
        assert score(design, 0.05) is not None
        result = run_trace(design, trace)
        assert result.status is Status.IDENTIFIED and result.corrector_scale is not None
        # validate_design enumerates but does not rectify at the default
        # tolerance; score and run_trace each get the raw table it built
        # and rectify it.
        assert len(built) == 5
        assert built[0] is built[1] is built[3]
        assert not any("events" in vars(table) or "times" in vars(table) for table in built)
        for table in built:
            table.events
            assert "times" in vars(table)
            assert table.times == tuple(event.t for event in table.events)


class TestSharedRawTable:
    """``enumerate_events`` builds a design's raw table on its first call
    and returns that same table object on every later call for the design.
    The table is kept out of the design's fields."""

    def test_every_call_returns_the_same_table(self):
        for name, design in columnar_designs().items():
            table = enumerate_events(design)
            assert enumerate_events(design) is table, name
            twin = replace(design)
            assert enumerate_events(twin) is not table, name
            assert enumerate_events(twin) == table == tuple_sort_enumerate(design), name

    def test_equality_hash_and_repr_ignore_the_table(self):
        for name, design in columnar_designs().items():
            before = (repr(design), hash(design))
            enumerate_events(design).events
            twin = replace(design)
            assert (repr(design), hash(design)) == before == (repr(twin), hash(twin)), name
            assert design == twin and twin == design, name
            assert "_raw_table" in vars(design) and "_raw_table" not in vars(twin), name

    @pytest.mark.parametrize("read_rows", [False, True], ids=["unbuilt", "built"])
    def test_copy_and_pickle_give_an_equal_table(self, read_rows):
        for name, design in columnar_designs().items():
            table = enumerate_events(design)
            if read_rows:
                table.events
            fresh = enumerate_events(replace(design))
            for clone in (copy.copy(design), copy.deepcopy(design), pickle.loads(pickle.dumps(design))):
                assert clone == design and hash(clone) == hash(design), name
                assert enumerate_events(clone) == fresh, name
                assert enumerate_events(clone).times == fresh.times, name

    def test_a_replaced_design_gets_its_own_table(self):
        for name, design in columnar_designs().items():
            if design.marks.count < 2:
                continue
            table = enumerate_events(design)
            fewer = replace(design, marks=MarkLayout(design.marks.positions[1:]))
            assert enumerate_events(fewer) is not table, name
            assert enumerate_events(fewer) == tuple_sort_enumerate(fewer), name
            assert enumerate_events(fewer) != table, name

    def test_reading_the_rows_leaves_every_result_alone(self):
        # As ``cablecal events`` does: read the shared table's rows and times,
        # then validate, score and calibrate the same design object.
        for name, build in presets.ALL.items():
            design, twin = build(), build()
            table = enumerate_events(design)
            table.events, table.times
            g = design.geometry
            trace = simulate(design, EncoderModel(scale=1.01, offset=3.0, seed=4), g.rho_max, g.b)
            assert validate_design(design) == validate_design(twin), name
            assert score(design, 0.05) == score(twin, 0.05), name
            record: dict = {}
            scored = score(design, 0.05, record)
            assert score(twin, 0.05, record) is scored and len(record) == 1, name
            assert run_trace(design, trace) == run_trace(twin, trace), name
            assert enumerate_events(design) is table, name

    def test_threads_that_race_get_equal_tables(self):
        # Four threads, more than the cores, enumerate the same fresh
        # designs at once; a racing first call may build a table twice, but
        # every thread reads a table equal to the reference.
        designs = [replace(design) for design in columnar_designs().values()]
        expected = [tuple_sort_enumerate(design) for design in designs]
        seen: list[list[EventTable]] = []

        def enumerate_all():
            seen.append([enumerate_events(design) for design in designs])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=enumerate_all) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 4
        for tables in seen:
            assert tables == expected
        for design, table in zip(designs, expected):
            assert enumerate_events(design) is enumerate_events(design) == table

    def test_a_search_builds_each_raw_table_once(self, monkeypatch):
        # validate_design (C5) and score both call enumerate_events on every
        # build; the raw rows are made once per build all the same.
        counts = Counter()
        build, from_columns = optimize.build_design, EventTable._from_columns

        def counting_build(recipe):
            counts["builds"] += 1
            return build(recipe)

        def counting_from_columns(cls, columns, clock, rectified=False):
            counts["raw tables"] += not rectified
            return from_columns(columns, clock, rectified)

        monkeypatch.setattr(optimize, "build_design", counting_build)
        monkeypatch.setattr(EventTable, "_from_columns", classmethod(counting_from_columns))
        d_pool, z_pool = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75), (2.0, 3.0, 2.5)
        optimize.search(DesignRecipe(RobotGeometry(h=18.0, rho_max=32.0), d_pool, z_pool), 50, seed=0)
        assert counts["builds"] > 10
        assert counts["raw tables"] == counts["builds"]


@pytest.fixture(scope="module")
def summary_tables() -> list[tuple[str, EventTable]]:
    """The presets, both benchmark recipes' tables, the climb pools at
    ``rho_max`` 100 and the 5 cm pools."""
    tables = [(name, rectify(enumerate_events(build()))) for name, build in presets.ALL.items()]
    tables += [
        ("climb-recipe", climb_table(32.0)),
        ("long-recipe", long_recipe_table()),
        ("climb-100", climb_table(100.0)),
    ]
    for d_pool, z_pool in FIVE_CENTIMETRE_POOLS:
        design, _ = build_design(DesignRecipe(RobotGeometry(6.0, 11.0), d_pool, z_pool))
        tables.append((f"pools-{d_pool}-{z_pool}", rectify(enumerate_events(design))))
    return tables


class TestLazyProfileEntries:
    """Profiles that ``stroke_profile`` builds from its walk: they hold the
    walk's identified starts, read their summaries from those and build
    their entries on first read."""

    def test_summaries_match_their_entrywise_definitions(self, summary_tables):
        for name, table in summary_tables:
            for tolerance in (0.01, 0.05, 0.3, 0.6):
                profile = stroke_profile(table, tolerance)
                summaries = profile.unidentifiable_starts, profile.worst_stroke, profile.mean_stroke
                assert "entries" not in vars(profile), name
                expected = entrywise_summaries(profile.entries)
                # repr tells an int or a signed zero from an equal float.
                assert repr(summaries) == repr(expected), (name, tolerance)

    def test_match_their_twin_built_from_entries(self, summary_tables):
        for name, table in summary_tables:
            profile = stroke_profile(table, 0.05)
            # Profiling again returns an equal profile.
            again = stroke_profile(table, 0.05)
            assert again is not profile
            assert profile == again and again == profile, name
            assert hash(profile) == hash(again), name
            assert "entries" not in vars(profile) and "entries" not in vars(again), name
            # So does one whose fields are read back from the entries.
            entries = profile.entries
            assert all(type(entry) is StartStroke for entry in entries), name
            assert [entry.start for entry in entries] == list(range(1, table.count + 1))
            twin = StrokeProfile(len(entries), tuple(e for e in entries if e.identifiable))
            assert profile == twin and twin == profile, name
            assert hash(profile) == hash(twin), name
            assert repr(profile) == repr(again) == repr(twin), name
            assert repr(profile.mean_stroke) == repr(twin.mean_stroke), name

    @pytest.mark.parametrize(
        "read,builds",
        [
            (operator.eq, False),
            (lambda a, b: hash(a) == hash(b), False),
            (lambda a, b: repr(a) == repr(b), True),
        ],
        ids=["eq", "hash", "repr"],
    )
    def test_only_repr_builds_the_entries(self, read, builds):
        table = long_recipe_table()
        profile, other = stroke_profile(table, 0.05), stroke_profile(table, 0.05)
        assert read(profile, other)
        assert ("entries" in vars(profile)) is builds and ("entries" in vars(other)) is builds
        if builds:
            # The text the profile printed when its entries were its one field.
            text = repr(profile)
            assert text == f"StrokeProfile(entries={profile.entries!r})"
            assert text.startswith("StrokeProfile(entries=(StartStroke(start=1, k=")
            assert text.endswith(f"StartStroke(start={table.count}, k=None, stroke=None)))")

    def test_other_missing_attributes_raise_attribute_error(self, workshop):
        profile = stroke_profile(rectify(enumerate_events(workshop)))
        with pytest.raises(AttributeError, match="no attribute 'rows'"):
            profile.rows
        assert "entries" not in vars(profile)

    @pytest.mark.parametrize("read_entries", [False, True], ids=["unbuilt", "built"])
    def test_copy_and_pickle_give_equal_profiles(self, read_entries):
        for table in (rectify(enumerate_events(presets.medium_cube())), long_recipe_table()):
            profile = stroke_profile(table, 0.05)
            if read_entries:
                profile.entries
            clones = [copy.copy(profile), copy.deepcopy(profile), pickle.loads(pickle.dumps(profile))]
            for clone in clones:
                assert ("entries" in vars(clone)) is read_entries
                assert clone.worst_stroke == profile.worst_stroke
                assert clone.unidentifiable_starts == profile.unidentifiable_starts
                assert clone == profile and hash(clone) == hash(profile)
                assert repr(clone) == repr(profile)

    def test_score_leaves_the_entries_unbuilt(self, monkeypatch):
        profiles: list[StrokeProfile] = []

        def recording(*args):
            profile = stroke_profile(*args)
            profiles.append(profile)
            return profile

        monkeypatch.setattr(optimize, "stroke_profile", recording)
        for design in presets.ALL.values():
            assert score(design(), 0.05) is not None
        assert len(profiles) == len(presets.ALL)
        assert not any("entries" in vars(profile) for profile in profiles)
