"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager

import pytest

from cablecal import (
    DesignRecipe,
    CalibrationDesign,
    EncoderModel,
    InfeasibleRecipe,
    RobotGeometry,
    build_design,
    delta_stats,
    distal_reserve,
    enumerate_events,
    first_sensor_height,
    rectify,
    run_trace,
    score,
    search,
    sensor_count,
    simulate,
    stroke_profile,
    validate_design,
)
from cablecal import presets
from cablecal.events import format_event_csv
from cablecal.optimize import sort_key
from conftest import random_conforming_design


@contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} FAIL  {summary}")
        raise
    print(f"criterion {num:02d} PASS  {summary}")


def test_ac01_raw_event_table_reproduced():
    with criterion(1, "constant-gap fixture: all 12 raw events, 2-decimal exact"):
        table = enumerate_events(presets.medium_cube())
        assert table.count == 12
        expected = (
            "t,i,j,rho,delta_rho\n"
            "2.00,1,2,9.00,\n"
            "3.00,2,2,8.00,1.00\n"
            "4.00,3,2,7.00,1.00\n"
            "5.00,1,1,6.00,1.00\n"
            "5.00,4,2,6.00,0.00\n"
            "6.00,2,1,5.00,1.00\n"
            "6.00,5,2,5.00,0.00\n"
            "7.00,3,1,4.00,1.00\n"
            "7.00,6,2,4.00,0.00\n"
            "8.00,4,1,3.00,1.00\n"
            "9.00,5,1,2.00,1.00\n"
            "10.00,6,1,1.00,1.00\n"
        )
        assert format_event_csv(table) == expected


def test_ac02_rectification_survivors():
    with criterion(2, "rectification keeps 9 events, low-ratio survivors at t=5,6,7"):
        table = rectify(enumerate_events(presets.medium_cube()))
        assert table.count == 9
        survivors = {e.t: (e.i, e.j) for e in table.events}
        assert survivors[5.0] == (1, 1)
        assert survivors[6.0] == (2, 1)
        assert survivors[7.0] == (3, 1)


def test_ac03_constant_gap_statistics():
    with criterion(3, "constant-gap fixture: mean 1.0, spread 0.0 within 1e-9"):
        stats = delta_stats(rectify(enumerate_events(presets.medium_cube())))
        assert stats.mean == pytest.approx(1.0, abs=1e-9)
        assert stats.std == pytest.approx(0.0, abs=1e-9)


def test_ac04_large_fixture_endpoints_and_mean():
    with criterion(4, "large fixture: endpoints, 33 rectified events, mean in [0.55, 0.65]"):
        table = rectify(enumerate_events(presets.large_cube()))
        first, last = table.events[0], table.events[-1]
        assert (first.t, first.i, first.j, first.rho) == pytest.approx((1.00, 1, 3, 20.00))
        assert (last.t, last.i, last.j, last.rho) == pytest.approx((20.00, 13, 1, 1.00))
        assert table.count == 33
        stats = delta_stats(table)
        # Derived value; the fixture's published rounded mean of 0.5 is a
        # known discrepancy with its own table.
        assert stats.mean == pytest.approx(0.59375, abs=1e-9)
        assert 0.55 <= stats.mean <= 0.65


def test_ac05_xl_fixture_layout_and_events():
    with criterion(5, "xl fixture: derived layout numbers, endpoints, 53 events"):
        design = presets.xl_cube()
        g = design.geometry
        os1 = first_sensor_height(g)
        assert os1 == 6.0
        assert distal_reserve(g, os1) == 13.0
        assert sensor_count(g, d0=0.25, os1=os1, z_bar=2.75) == 5
        assert design.sensors.heights == (6.0, 11.0, 14.0, 16.0, 17.75)
        table = rectify(enumerate_events(design))
        first, last = table.events[0], table.events[-1]
        assert (first.t, first.i, first.j, first.rho) == pytest.approx((0.50, 1, 5, 31.50))
        assert (last.t, last.i, last.j, last.rho) == pytest.approx((31.00, 14, 1, 1.00))
        assert table.count == 53


def test_ac06_identification_walkthrough():
    with criterion(6, "workshop fixture: 26 events, history ends 2 -> 1, rho 7.50, stroke 1.5"):
        design = presets.workshop()
        table = rectify(enumerate_events(design))
        assert table.count == 26
        trace = simulate(design, EncoderModel(), start_rho=9.1, stop_rho=7.4)
        result = run_trace(design, trace, tolerance=0.05)
        assert result.status == "identified"
        assert result.candidate_history[-2:] == (2, 1)
        assert result.rho == pytest.approx(7.50, abs=1e-9)
        # Derived stroke over the three identifying gaps (0.5 + 0.75 + 0.25).
        assert result.stroke == pytest.approx(1.5, abs=1e-9)
        entry = stroke_profile(table).entry(8)
        assert (entry.k, entry.stroke) == (3, pytest.approx(1.5))


def _stepped_crossings(design: CalibrationDesign, dt: float = 1e-4):
    """Brute-force oracle: march time in dt steps; each mark's distance from
    the winch centre shrinks at the winding speed, and a crossing is flagged
    when it passes a sensor height between consecutive steps."""
    g = design.geometry
    sensors = design.sensors.heights
    found = {}
    for i in range(1, design.marks.count + 1):
        om0 = g.l_max - design.marks.position(i)
        ptr = len(sensors) - 1  # topmost sensor is crossed first
        om_prev = om0
        k = 0
        while ptr >= 0:
            k += 1
            om = om0 - g.v * (k * dt)
            while ptr >= 0 and om <= sensors[ptr] < om_prev:
                if g.rho_max - g.v * (k * dt) > 1e-9:
                    found[(i, ptr + 1)] = (k - 0.5) * dt
                ptr -= 1
            om_prev = om
            if om < 0:
                break
    return found


def test_ac07_time_stepped_enumeration_oracle():
    with criterion(7, "analytic enumeration matches dt=1e-4 stepped detector on all fixtures"):
        for build in presets.ALL.values():
            design = build()
            stepped = _stepped_crossings(design)
            analytic = enumerate_events(design).events
            assert len(stepped) == len(analytic)
            for event in analytic:
                assert abs(stepped[(event.i, event.j)] - event.t) < 1e-3


def test_ac08_round_trip_identification():
    with criterion(8, "every identifiable start replays to an exact identification"):
        for build in presets.ALL.values():
            design = build()
            table = rectify(enumerate_events(design))
            profile = stroke_profile(table, tolerance=0.05)
            for p in range(1, table.count + 1):
                start_rho = min(table.events[p - 1].rho + 0.01, design.geometry.rho_max)
                trace = simulate(design, EncoderModel(), start_rho, design.geometry.b)
                result = run_trace(design, trace, tolerance=0.05)
                entry = profile.entry(p)
                if entry.identifiable:
                    assert result.status == "identified"
                    truth = table.events[p + entry.k - 1].rho
                    assert result.rho == truth
                    assert result.stroke == pytest.approx(entry.stroke, abs=1e-9)
                else:
                    assert result.status == "ambiguous"


def test_ac09_robustness_sweep():
    with criterion(9, "identification unchanged for scale in [0.98, 1.02], gap jitter sd <= 0.01"):
        design = presets.workshop()
        baseline = run_trace(design, simulate(design, EncoderModel(), 9.1, 7.4), 0.05)
        assert baseline.status == "identified"
        trial = 0
        for step in range(20):
            scale = 0.98 + step * (0.04 / 19)
            for _ in range(5):
                # Per-reading jitter sd 0.007 puts the per-gap jitter sd at
                # 0.007 * sqrt(2) ~= 0.0099, inside the 0.01 envelope.
                encoder = EncoderModel(scale=scale, noise_sd=0.007, seed=trial)
                result = run_trace(design, simulate(design, encoder, 9.1, 7.4), 0.05)
                assert (result.status, result.rho) == (baseline.status, baseline.rho)
                trial += 1
        assert trial == 100


def test_ac10_exhaustive_optimizer_optimum():
    with criterion(10, "exhaustive search equals independently enumerated optimum"):
        geometry = RobotGeometry(h=6.0, rho_max=11.0, v=1.0, b=1.0)
        recipe = DesignRecipe(geometry, d_pool=(0.5, 0.75, 1.0, 1.25, 1.5), z_pool=(3.0,))
        result = search(recipe, budget=200, seed=0)

        best_key = None
        for order in sorted(set(itertools.permutations(recipe.d_pool))):
            try:
                design, report = build_design(DesignRecipe(geometry, order, (3.0,)))
            except (InfeasibleRecipe, ValueError):
                continue
            if not report.hard_pass:
                continue
            key = sort_key(score(design))
            if best_key is None or key < best_key:
                best_key = key
        assert best_key is not None
        assert sort_key(result.score) == best_key


def test_ac11_random_design_invariants():
    with criterion(11, "random conforming designs keep the event-table invariants"):
        rng = random.Random(20260808)
        for _ in range(40):
            design = random_conforming_design(rng)
            report = validate_design(design)
            assert report.passed("C1", "C3")
            table = rectify(enumerate_events(design))
            rho = table.rho_values
            assert all(a > b for a, b in zip(rho, rho[1:]))
            assert rho[-1] == pytest.approx(design.geometry.b, abs=1e-9)
            bound = design.geometry.rho_max - 2 * design.proximal_reserve
            assert rho[0] <= bound + 1e-9
