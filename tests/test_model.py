from __future__ import annotations

import math

import pytest

from cablecal import (
    CalibrationDesign,
    MarkLayout,
    RobotGeometry,
    SensorLayout,
    validate_design,
)
from cablecal.model import Condition, ConditionReport


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
            dict(h=6, rho_max=11, b=math.nan),
            dict(h=6, rho_max=11, b=math.inf),
        ],
    )
    def test_invalid_geometry(self, kwargs):
        with pytest.raises(ValueError):
            RobotGeometry(**kwargs)

    def test_boost_zero_allowed(self):
        assert RobotGeometry(h=6, rho_max=11, b=0.0).b == 0.0


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

    def test_pure(self, workshop):
        assert validate_design(workshop) == validate_design(workshop)

    def test_report_shape(self, medium):
        report = validate_design(medium)
        assert tuple(c.name for c in report) == ("C1", "C2", "C3", "C4", "C5", "C6", "C7")
        with pytest.raises(KeyError):
            report["C8"]

    def test_report_requires_all_seven(self):
        with pytest.raises(ValueError):
            ConditionReport((Condition("C1", True, ""),))
