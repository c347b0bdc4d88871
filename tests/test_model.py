from __future__ import annotations

import itertools
import math
import random
import sys

import pytest

from cablecal import (
    CalibrationDesign,
    DesignRecipe,
    MarkLayout,
    RobotGeometry,
    SensorLayout,
    build_design,
    enumerate_events,
    rectify,
    validate_design,
)
from cablecal import model
from cablecal.model import Condition, ConditionReport
from cablecal.optimize import _distinct_orderings
from conftest import random_conforming_design

CLIMB_RECIPE = (RobotGeometry(18.0, 32.0), (0.5, 0.75, 1.0, 1.25, 1.5, 1.75), (2.0, 3.0, 2.5))


# validate_design's scans, one comprehension each, as references.
def reference_indices(bad):
    """The first 10 indices, then "..." and the count when there are more."""
    if len(bad) > 10:
        return "[" + ", ".join(map(str, bad[:10])) + f", ...] ({len(bad)} in all)"
    return str(bad)


def reference_no_coincidence(name, element, gaps, tol):
    """C2/C4: no two successive elements coincide, i.e. every gap exceeds tol."""
    bad = [idx + 1 for idx, gap in enumerate(gaps) if gap <= tol]
    detail = (
        f"zero {element} gaps after {element}s {reference_indices(bad)}"
        if bad
        else f"{len(gaps)} {element} gaps"
    )
    return Condition(name, not bad, detail)


def reference_gap_variation(name, element, gaps, tol):
    """C6/C7: no two successive gaps are equal within tol."""
    bad = [idx + 1 for idx, (a, b) in enumerate(zip(gaps, gaps[1:])) if abs(b - a) <= tol]
    detail = f"equal successive {element} gaps at {reference_indices(bad)}" if bad else f"{element} gaps vary"
    return Condition(name, not bad, detail)


def reference_unresolved_ties(design, tol):
    """C5: every gap of the rectified table exceeds tol."""
    raw = enumerate_events(design)
    rect = rectify(raw)
    residual_ties = sum(1 for gap in rect.gaps if gap <= tol)
    return Condition(
        "C5",
        residual_ties == 0,
        f"{raw.count - rect.count} simultaneous detections resolved, {rect.count} exploitable events"
        + (f"; {residual_ties} unresolved ties" if residual_ties else ""),
    )


def assert_scans_match_references(design, tol):
    report = validate_design(design, tol)
    marks, sensors = design.marks.gaps, design.sensors.gaps
    assert report["C2"] == reference_no_coincidence("C2", "mark", marks, tol)
    assert report["C4"] == reference_no_coincidence("C4", "sensor", sensors, tol)
    assert report["C6"] == reference_gap_variation("C6", "mark", marks, tol)
    assert report["C7"] == reference_gap_variation("C7", "sensor", sensors, tol)
    assert report["C5"] == reference_unresolved_ties(design, tol)
    assert report.hard_pass is all(report[name].passed for name in ("C1", "C2", "C3", "C4", "C5"))
    assert report.all_pass is all(condition.passed for condition in report)


def reference_layout_error(values, element):
    """The message a layout of marks (positions) or sensors (heights)
    raises, from each check on its own as the layouts made them; None when
    every check passes."""
    descending = element == "mark"
    plural = "positions" if descending else "heights"
    if not values:
        return f"a layout needs at least one {element}"
    if not all(map(math.isfinite, values)):
        return f"{element} {plural} must be finite: {values}"
    if any(x <= 0 for x in values):
        return f"{element} {plural} must be positive: {values}"
    for first, then in zip(values, values[1:]):
        if (then >= first) if descending else (then <= first):
            order = "descend" if descending else "ascend"
            return f"{element} {plural} must strictly {order}, got {first} before {then}"
    return None


def reference_recipe_error(d_pool, z_pool, os1):
    if not d_pool or not z_pool:
        return "gap pools must be non-empty"
    if not all(x is None or math.isfinite(x) for x in (*d_pool, *z_pool, os1)):
        return "gap pools and os1 must be finite"
    if any(x <= 0 for x in d_pool) or any(x <= 0 for x in z_pool):
        return "gap pool values must be positive"
    return None


def raised(build, *args):
    try:
        build(*args)
    except ValueError as exc:
        return str(exc)
    return None


class TestRobotGeometry:
    def test_l_max(self):
        assert RobotGeometry(h=6, rho_max=11).l_max == 17
        assert RobotGeometry(h=18, rho_max=32).l_max == 50

    def test_l_max_minus_rho_max_is_h(self):
        # Exact for the binary-representable lengths used throughout.
        for h, rho_max in [(6.0, 11.0), (18.0, 32.0), (3.75, 12.5)]:
            g = RobotGeometry(h=h, rho_max=rho_max)
            assert g.l_max - g.rho_max == g.h
        g = RobotGeometry(h=3.7, rho_max=12.9)
        assert g.l_max - g.rho_max == pytest.approx(g.h, abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(h=0, rho_max=11),
            dict(h=-1, rho_max=11),
            dict(h=6, rho_max=0),
            dict(h=6, rho_max=11, v=0),
            dict(h=6, rho_max=11, b=-0.1),
            dict(h=math.nan, rho_max=11),
            dict(h=math.inf, rho_max=11),
            dict(h=6, rho_max=math.nan),
            dict(h=6, rho_max=math.inf),
            dict(h=6, rho_max=11, v=math.inf),
            dict(h=6, rho_max=11, v=1e-320),  # winding 11 m would take 1.1e321 s
            dict(h=6, rho_max=11, b=math.nan),
            dict(h=6, rho_max=11, b=math.inf),
        ],
    )
    def test_invalid_geometry(self, kwargs):
        with pytest.raises(ValueError):
            RobotGeometry(**kwargs)

    def test_boost_zero_allowed(self):
        assert RobotGeometry(h=6, rho_max=11, b=0.0).b == 0.0

    def test_slowest_speed_gives_finite_times(self):
        # The least v at which a drive of rho_max (plus GEOM_TOL) still ends
        # in a finite time: one ulp slower, it does not.
        v = (11 + model.GEOM_TOL) / sys.float_info.max
        while not math.isfinite((11 + model.GEOM_TOL) / v):
            v = math.nextafter(v, math.inf)
        with pytest.raises(ValueError, match="winding speed must let a drive of rho_max end"):
            RobotGeometry(h=6, rho_max=11, v=math.nextafter(v, 0))
        assert RobotGeometry(h=6, rho_max=11, v=1e-300).v == 1e-300
        design = CalibrationDesign(
            RobotGeometry(h=6, rho_max=11, v=v),
            SensorLayout((2.2, 4.1)),
            MarkLayout((10.6, 9.6, 7.7, 5.8)),
        )
        times = enumerate_events(design).times
        assert all(map(math.isfinite, times))
        assert max(times) > sys.float_info.max / 2
        assert rectify(enumerate_events(design)).count == 6


class TestLayouts:
    def test_sensor_gaps(self):
        layout = SensorLayout((6.0, 11.0, 14.0, 16.0, 17.75))
        assert layout.gaps == (5.0, 3.0, 2.0, 1.75)
        assert layout.count == 5
        assert layout.height(1) == 6.0
        assert layout.height(5) == 17.75

    def test_mark_gaps_and_reserve(self):
        layout = MarkLayout((10.0, 9.0, 8.0, 7.0, 6.0, 5.0))
        assert layout.gaps == (1.0,) * 5
        assert layout.distal_reserve == 5.0
        assert layout.position(1) == 10.0

    @pytest.mark.parametrize(
        "heights",
        [(), (0.0, 2.0), (2.0, 2.0), (5.0, 2.0), (-1.0,), (math.nan, 2.0), (2.0, math.nan),
         (2.0, math.inf)],
    )
    def test_invalid_sensors(self, heights):
        with pytest.raises(ValueError):
            SensorLayout(heights)

    @pytest.mark.parametrize(
        "positions",
        [(), (5.0, 5.0), (5.0, 6.0), (5.0, 0.0), (math.nan, 5.0), (math.inf, 5.0),
         (10.0, math.nan)],
    )
    def test_invalid_marks(self, positions):
        with pytest.raises(ValueError):
            MarkLayout(positions)

    def test_index_out_of_range(self):
        layout = SensorLayout((2.0, 5.0))
        with pytest.raises(IndexError):
            layout.height(0)
        with pytest.raises(IndexError):
            layout.height(3)


class TestDesign:
    def test_sensor_must_sit_below_support(self):
        with pytest.raises(ValueError):
            CalibrationDesign(
                RobotGeometry(h=6, rho_max=11),
                SensorLayout((2.0, 6.0)),
                MarkLayout((10.0, 5.0)),
            )

    def test_pairs_are_bounded(self):
        geometry = RobotGeometry(h=1002, rho_max=1001)
        marks = MarkLayout(tuple(map(float, range(1000, 0, -1))))
        assert CalibrationDesign(geometry, SensorLayout(tuple(map(float, range(1, 1001)))), marks)
        assert model.MAX_PAIRS == 1000 * 1000
        with pytest.raises(ValueError, match="^1000 marks and 1001 sensors make over 1000000 pairs$"):
            CalibrationDesign(geometry, SensorLayout(tuple(map(float, range(1, 1002)))), marks)

    def test_rho_at_examples(self, medium, workshop):
        assert medium.rho_at(1, 2) == pytest.approx(9.00, abs=1e-12)
        assert workshop.rho_at(6, 3) == pytest.approx(7.50, abs=1e-12)

    def test_rho_at_mark_at_support_height_gives_sensor_height(self):
        # ||BM_i|| == h collapses the formula to ||OS_j||.
        design = CalibrationDesign(
            RobotGeometry(h=6, rho_max=11),
            SensorLayout((2.0, 5.0)),
            MarkLayout((6.0, 3.0)),
        )
        assert design.rho_at(1, 1) == 2.0
        assert design.rho_at(1, 2) == 5.0

    def test_rho_at_out_of_range(self, medium):
        with pytest.raises(IndexError):
            medium.rho_at(0, 1)
        with pytest.raises(IndexError):
            medium.rho_at(7, 1)
        with pytest.raises(IndexError):
            medium.rho_at(1, 3)

    def test_rho_at_monotone(self, all_designs):
        # Strictly decreasing in the mark index, increasing in the sensor index.
        for design in all_designs.values():
            for j in range(1, design.sensors.count + 1):
                values = [design.rho_at(i, j) for i in range(1, design.marks.count + 1)]
                assert all(a > b for a, b in zip(values, values[1:]))
            for i in range(1, design.marks.count + 1):
                values = [design.rho_at(i, j) for j in range(1, design.sensors.count + 1)]
                assert all(a < b for a, b in zip(values, values[1:]))

    def test_proximal_reserve(self, medium, xl):
        assert medium.proximal_reserve == 1.0
        assert xl.proximal_reserve == 0.25


class TestValidateDesign:
    def test_medium_fails_only_gap_variability(self, medium):
        report = validate_design(medium)
        assert report.passed("C1", "C2", "C3", "C4", "C5")
        assert not report["C6"].passed
        assert report["C7"].passed
        assert report.hard_pass
        assert report.soft_failures == ("C6",)

    def test_large_warns_on_sensor_pitch(self, large):
        report = validate_design(large)
        assert report.hard_pass
        assert report.passed("C6")
        assert not report["C7"].passed

    def test_xl_passes_everything(self, xl):
        report = validate_design(xl)
        assert report.all_pass

    def test_workshop_passes_everything(self, workshop):
        report = validate_design(workshop)
        assert report.all_pass

    def test_broken_boost_condition(self, medium):
        # Shift the boost so h - OS1 - dn + b = 0.5.
        design = CalibrationDesign(
            RobotGeometry(h=6, rho_max=11, b=1.5),
            medium.sensors,
            medium.marks,
        )
        report = validate_design(design)
        assert not report["C3"].passed
        assert not report.hard_pass

    def test_single_mark_single_sensor_vacuous(self):
        # One mark, one sensor, boost chosen so the hard conditions hold.
        design = CalibrationDesign(
            RobotGeometry(h=6, rho_max=6, v=1, b=4),
            SensorLayout((5.0,)),
            MarkLayout((5.0,)),
        )
        report = validate_design(design)
        assert report.all_pass  # C2/C4/C6/C7 hold vacuously

    def test_boost_reachability(self, all_designs):
        # Whenever C3 holds, the last mark at the lowest sensor reads the boost.
        for design in all_designs.values():
            report = validate_design(design)
            assert report["C3"].passed
            assert design.rho_at(design.marks.count, 1) == pytest.approx(
                design.geometry.b, abs=2e-9
            )

    def test_c1_non_positive_reserve(self, medium):
        # The first mark at rho_max leaves d0 = 0.
        design = CalibrationDesign(
            RobotGeometry(h=6, rho_max=10), medium.sensors, medium.marks
        )
        c1 = validate_design(design)["C1"]
        assert not c1.passed
        assert "d0=0 is not positive" in c1.detail

    def test_c1_reserve_within_tolerance_of_zero(self, large):
        # d0 = 0.5 is positive but no larger than a 0.6 m tolerance.
        c1 = validate_design(large, 0.6)["C1"]
        assert not c1.passed
        assert c1.detail == "d0=0.5 is within tolerance 0.6 of zero"

    def test_c1_reserve_above_smallest_mark_gap(self):
        # d0 = 11 - 9 = 2 while the marks are 0.5 m apart; C1's other
        # clauses and C3 hold.
        marks = MarkLayout(tuple(9.0 - 0.5 * k for k in range(9)))
        design = CalibrationDesign(RobotGeometry(h=6, rho_max=11), SensorLayout((2.0, 4.0)), marks)
        report = validate_design(design)
        assert report["C1"] == ("C1", False, "d0=2 exceeds smallest mark gap 0.5")
        assert report["C3"].passed

    def test_pure(self, workshop):
        assert validate_design(workshop) == validate_design(workshop)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, 0.0])
    def test_rejects_unusable_tolerance(self, workshop, tol):
        # Unchecked, nan failed only C3, -1 C1 and C3, inf all but C3, and
        # 0 passed every condition.
        with pytest.raises(ValueError, match="finite and positive"):
            validate_design(workshop, tol)

    def test_report_shape(self, medium):
        report = validate_design(medium)
        assert tuple(c.name for c in report) == ("C1", "C2", "C3", "C4", "C5", "C6", "C7")
        with pytest.raises(KeyError):
            report["C8"]

    def test_report_requires_all_seven(self):
        with pytest.raises(ValueError):
            ConditionReport((Condition("C1", True, ""),))


class TestScansMatchReferences:
    """validate_design's scans and the layout and recipe checks against
    their one-check-at-a-time references."""

    @pytest.mark.parametrize("tol", [1e-9, 0.6])
    def test_every_climb_recipe_ordering(self, tol):
        geometry, d_pool, z_pool = CLIMB_RECIPE
        z_orders = list(_distinct_orderings(z_pool))
        for d_order in _distinct_orderings(d_pool):
            for z_order in z_orders:
                assert_scans_match_references(build_design(DesignRecipe(geometry, d_order, z_order)).design, tol)

    @pytest.mark.parametrize("tol", [0.25, 0.5])
    def test_gaps_exactly_at_the_tolerance(self, tol):
        # Climb-recipe gaps are exact quarter metres, so gaps and their
        # differences meet tol exactly.
        geometry, d_pool, z_pool = CLIMB_RECIPE
        orderings = itertools.product(_distinct_orderings(d_pool), _distinct_orderings(z_pool))
        for d_order, z_order in itertools.islice(orderings, 0, None, 20):
            design = build_design(DesignRecipe(geometry, d_order, z_order)).design
            assert_scans_match_references(design, tol)

    def test_seeded_random_layouts(self):
        rng = random.Random(25)
        for _ in range(300):
            design = random_conforming_design(rng)
            for tol in (1e-9, 0.05, 0.3, 0.6):
                assert_scans_match_references(design, tol)

    @pytest.mark.parametrize("tol", [0.25, 1e-9])
    def test_gap_tuples_at_plus_and_minus_tol(self, tol):
        # Gaps and successive differences at, just inside and just outside
        # +-tol, every 7th tuple of up to five and seeded draws of twelve.
        below, above = math.nextafter(tol, -math.inf), math.nextafter(tol, math.inf)
        values = [tol, -tol, below, above, -below, -above, 0.0, 1.0, 1.0 + tol, 1.0 - tol]
        rng = random.Random(25)
        tuples = [gaps for n in range(6) for gaps in itertools.islice(itertools.product(values, repeat=n), 0, None, 7)]
        tuples += [tuple(rng.choice(values) for _ in range(12)) for _ in range(500)]
        failed = 0
        for gaps in tuples:
            for name, element in (("C2", "mark"), ("C4", "sensor")):
                condition = model._no_coincidence(name, element, gaps, tol)
                assert condition == reference_no_coincidence(name, element, gaps, tol), gaps
            for name, element in (("C6", "mark"), ("C7", "sensor")):
                condition = model._gap_variation(name, element, gaps, tol)
                assert condition == reference_gap_variation(name, element, gaps, tol), gaps
                failed += not condition.passed
        assert failed

    @pytest.mark.parametrize(
        "count,listed",
        [
            (10, "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
            (11, "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ...] (11 in all)"),
            (59998, "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ...] (59998 in all)"),
        ],
        ids=["ten", "eleven", "fine-recipe"],
    )
    def test_long_index_lists_are_cut(self, count, listed):
        # count + 1 equal gaps: count successive pairs are equal, and, at a
        # tolerance above the gap, count + 1 gaps are zero.
        gaps = (0.5,) * (count + 1)
        varied = model._gap_variation("C6", "mark", gaps, 1e-9)
        assert varied == ("C6", False, f"equal successive mark gaps at {listed}")
        assert varied == reference_gap_variation("C6", "mark", gaps, 1e-9)
        coinciding = model._no_coincidence("C2", "mark", gaps[1:], 1.0)
        assert coinciding == ("C2", False, f"zero mark gaps after marks {listed}")
        assert coinciding == reference_no_coincidence("C2", "mark", gaps[1:], 1.0)

    def test_layouts_raise_what_each_check_raised(self):
        # A layout raises the message of the first check it fails, and
        # passes when it fails none.
        pool = [0.5, 1.0, 2.0, 2.0, 3.5, 0.0, -1.0, math.inf, -math.inf, math.nan, 1e-300]
        rng = random.Random(25)
        raised_any = passed_any = 0
        for _ in range(3000):
            values = tuple(rng.choice(pool) for _ in range(rng.randint(0, 5)))
            if rng.random() < 0.5:
                values = tuple(sorted(set(values) - {math.nan}))
            for layout, element, ordered in ((MarkLayout, "mark", values[::-1]),
                                             (SensorLayout, "sensor", values)):
                for candidate in (values, ordered):
                    expected = reference_layout_error(candidate, element)
                    assert raised(layout, candidate) == expected, (layout, candidate)
                    raised_any += expected is not None
                    passed_any += expected is None
        assert raised_any and passed_any

    def test_recipes_raise_what_each_check_raised(self):
        pool = [0.5, 1.0, 1.0, 0.0, -0.5, math.inf, -math.inf, math.nan]
        rng = random.Random(25)
        geometry = RobotGeometry(6.0, 11.0)
        outcomes = set()
        for _ in range(3000):
            d_pool = tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
            z_pool = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
            os1 = rng.choice([None, 2.0, -1.0, math.inf, math.nan])
            expected = reference_recipe_error(d_pool, z_pool, os1)
            message = raised(DesignRecipe, geometry, d_pool, z_pool, os1)
            assert (message or "").startswith(expected or ""), (d_pool, z_pool, os1)
            assert (message is None) is (expected is None)
            outcomes.add(expected)
        assert len(outcomes) == 4


class TestConditionRecord:
    def test_fields_repr_equality_and_hash(self):
        condition = Condition("C2", False, "zero mark gaps after marks [3]")
        assert condition == ("C2", False, "zero mark gaps after marks [3]")
        assert (condition.name, condition.passed, condition.detail) == tuple(condition)
        assert repr(condition) == "Condition(name='C2', passed=False, detail='zero mark gaps after marks [3]')"
        assert hash(condition) == hash(("C2", False, "zero mark gaps after marks [3]"))
        with pytest.raises(AttributeError):
            condition.passed = True
