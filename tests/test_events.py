from __future__ import annotations

import math

import pytest

from cablecal import (
    CalibrationDesign,
    DesignRecipe,
    Event,
    EventTable,
    MarkLayout,
    RobotGeometry,
    SensorLayout,
    build_design,
    delta_stats,
    detection_time,
    enumerate_events,
    rectify,
    start,
    stroke_profile,
)
from cablecal.events import format_event_csv, parse_event_csv
from conftest import FIVE_CENTIMETRE_POOLS

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

def rows(table: EventTable) -> list[tuple[float, int, int, float]]:
    return [(e.t, e.i, e.j, e.rho) for e in table.events]


def brute_stats(rho_values: list[float]) -> tuple[float, float]:
    """Independent statistics oracle: direct arithmetic over a length column."""
    gaps = [a - b for a, b in zip(rho_values, rho_values[1:])]
    n = len(rho_values)
    mean = sum(gaps) / (n - 1)
    var = sum((g - mean) ** 2 for g in gaps) / (n - 2)
    return mean, math.sqrt(var)


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
    def assert_matches_brute_oracle(table: EventTable, tolerance: float) -> None:
        gaps = list(table.gaps)
        profile = stroke_profile(table, tolerance)
        for start in range(1, table.count + 1):
            expected = brute_unique_k(gaps, start - 1, tolerance)
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

    def test_matches_brute_oracle_on_five_centimetre_steps(self):
        # Gaps 5 cm apart match at 0.05 but not at 0.01, so here the
        # tolerance decides the profile and both sides must share it.
        for d_pool, z_pool in FIVE_CENTIMETRE_POOLS:
            design, _ = build_design(DesignRecipe(RobotGeometry(6.0, 11.0), d_pool, z_pool))
            table = rectify(enumerate_events(design))
            assert stroke_profile(table, 0.01) != stroke_profile(table, 0.05)
            for tolerance in (0.01, 0.05):
                self.assert_matches_brute_oracle(table, tolerance)

    @pytest.mark.parametrize("tolerance", [0.0, -0.05, float("nan"), float("inf")])
    def test_rejects_unusable_tolerance(self, workshop, tolerance):
        # calibrate rejects these too; here they would mark (nearly) every
        # start unidentifiable instead.
        table = rectify(enumerate_events(workshop))
        with pytest.raises(ValueError, match="finite and positive"):
            stroke_profile(table, tolerance)

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
        for needs_rectified in (start, delta_stats, stroke_profile):
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

    def test_cached_gaps_leave_equality_and_hash_alone(self, workshop):
        read = rectify(enumerate_events(workshop))
        fresh = rectify(enumerate_events(workshop))
        assert read.gaps is read.gaps  # computed once per table
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        assert "gaps" not in repr(read)
