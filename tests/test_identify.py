from __future__ import annotations

import math
import random
import re
from pathlib import Path

import pytest

from cablecal import (
    CalibrationDesign,
    DesignRecipe,
    EncoderModel,
    MarkLayout,
    ObservationTrace,
    RobotGeometry,
    SensorLayout,
    Status,
    build_design,
    enumerate_events,
    fit_encoder,
    rectify,
    run_trace,
    simulate,
    stroke_profile,
    validate_design,
)
from cablecal import presets
from cablecal.cli import main
from cablecal.events import advance
from cablecal.model import DEFAULT_GAP_TOLERANCE
from conftest import FIVE_CENTIMETRE_POOLS, ONE_SENSOR
from test_exactness import TOLERANCES, drives

# Every design whose profile the identifier is checked against: the presets
# and the 5 cm recipes, on which 0.01 and 0.05 give different profiles.
PROFILE_DESIGNS = {name: build() for name, build in presets.ALL.items()}
for n, (d_pool, z_pool) in enumerate(FIVE_CENTIMETRE_POOLS, start=1):
    recipe = DesignRecipe(RobotGeometry(6.0, 11.0), d_pool, z_pool)
    PROFILE_DESIGNS[f"5cm-{n}"] = build_design(recipe).design


def without_truth(trace: ObservationTrace) -> ObservationTrace:
    """The same drive as a hardware log records it: no truth columns."""
    records = tuple(r._replace(truth_rho=None, truth_i=None, truth_j=None) for r in trace.records)
    return ObservationTrace(records, trace.start_rho, trace.stop_rho)


@pytest.fixture
def workshop_table(workshop):
    return rectify(enumerate_events(workshop))


def step(table, current: int, gap: float, tolerance: float = DEFAULT_GAP_TOLERANCE) -> int:
    """The one elimination step, as an online caller takes it per detection."""
    return advance(current, table.match_mask(gap, tolerance))


def first_detection(trace: ObservationTrace) -> ObservationTrace:
    return ObservationTrace(trace.records[:1], trace.start_rho, trace.stop_rho)


class TestStart:
    """What ``run_trace`` does with a drive's first detection."""

    def test_all_positions_possible_after_first_detection(self, workshop):
        trace = first_detection(simulate(workshop, EncoderModel(), 9.1, 7.4))
        result = run_trace(workshop, trace)
        assert result.status is Status.AMBIGUOUS
        assert result.candidate_history == (26,)  # no gap observed yet

    def test_two_event_table(self):
        design = CalibrationDesign(
            RobotGeometry(h=6.0, rho_max=11.0), SensorLayout((2.0,)), MarkLayout((10.0, 9.0))
        )
        assert rectify(enumerate_events(design)).count == 2
        trace = simulate(design, EncoderModel(), 11.0, 1.0)
        assert run_trace(design, first_detection(trace)).candidate_history == (2,)
        result = run_trace(design, trace)
        assert result.status is Status.IDENTIFIED and result.candidate_history == (2, 1)

    def test_rejects_tiny_table(self, tmp_path, capsys):
        # One mark meets one sensor once: a detection cannot be placed.
        design = CalibrationDesign(
            RobotGeometry(h=6.0, rho_max=11.0), SensorLayout((2.0,)), MarkLayout((10.0,))
        )
        trace = simulate(design, EncoderModel(), 11.0, 1.0)
        assert trace.count == 1
        message = "identification needs a table with at least 2 events"
        with pytest.raises(ValueError, match=message):
            run_trace(design, trace)
        config = tmp_path / "tiny.ini"
        config.write_text(
            "[geometry]\nh = 6\nrho_max = 11\n"
            "[layout]\nsensor_heights = 2\nmark_positions = 10\n"
        )
        assert main(["simulate", str(config), "--start", "11", "--stop", "1",
                     "--out", str(tmp_path / "t.csv")]) == 0
        capsys.readouterr()
        assert main(["calibrate", str(config), "--trace", str(tmp_path / "t.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("tolerance", [0.0, -0.05, float("nan"), float("inf")])
    def test_rejects_unusable_tolerance(self, workshop, tolerance):
        trace = first_detection(simulate(workshop, EncoderModel(), 9.1, 7.4))
        with pytest.raises(ValueError, match="finite and positive"):
            run_trace(workshop, trace, tolerance)


class TestObserve:
    """The step ``advance(current, table.match_mask(gap, tolerance))`` that
    ``run_trace`` folds once per measured gap.  Bit q of ``current`` stands
    for event q + 1 as the drive's position."""

    def test_walkthrough_elimination(self, workshop_table):
        # Gaps 0.5 then 0.75 then 0.25 from the detection at 9.00 m.
        current = (1 << workshop_table.count) - 1
        current = step(workshop_table, current, 0.5)
        assert current.bit_count() == 11
        current = step(workshop_table, current, 0.75)
        assert current.bit_count() == 2
        current = step(workshop_table, current, 0.25)
        assert current == 1 << 10
        assert current.bit_length() == 11
        assert workshop_table.events[current.bit_length() - 1].rho == pytest.approx(7.50)

    def test_current_is_the_event_the_drive_stands_at(self, workshop, workshop_table):
        # Each step leaves the drive's true event among the candidates, and
        # the survivor is the event of the last detection.
        records = simulate(workshop, EncoderModel(scale=1.01), 9.1, 7.4).records
        current = (1 << workshop_table.count) - 1
        for prev, rec in zip(records, records[1:]):
            current = step(workshop_table, current, rec.reading - prev.reading)
            q = next(q for q, e in enumerate(workshop_table.events) if e.rho == rec.truth_rho)
            assert current >> q & 1
        assert current == 1 << 10  # bit q stands for event q + 1
        assert workshop_table.events[10].rho == records[-1].truth_rho

    def test_impossible_gap_dies(self, workshop_table):
        assert step(workshop_table, (1 << workshop_table.count) - 1, 99.0) == 0

    def test_candidates_shrink_monotonically(self, workshop_table):
        rng = random.Random(0)
        gaps = list(workshop_table.gaps)
        for _ in range(20):
            current = (1 << workshop_table.count) - 1
            p = rng.randrange(len(gaps))
            for gap in gaps[p:]:
                before = current
                current = step(workshop_table, current, gap + rng.uniform(-0.02, 0.02))
                # Every new current event follows an old one.
                assert current & ~(before << 1) == 0
                assert current.bit_count() <= before.bit_count()
                if current & (current - 1) == 0:
                    break

    @pytest.mark.parametrize("name", sorted(presets.ALL))
    def test_soundness_with_ideal_gaps(self, name):
        # The true event survives every exact observation; identification is exact.
        table = rectify(enumerate_events(presets.ALL[name]()))
        gaps = list(table.gaps)
        for p in range(1, len(gaps) + 1):
            current = (1 << table.count) - 1
            for m, gap in enumerate(gaps[p - 1 :], start=1):
                current = step(table, current, gap)
                assert current >> (p + m - 1) & 1  # event p + m
                if current.bit_count() == 1:
                    assert current.bit_length() == p + m
                    break

    def test_terminal_state_rejects_observations(self, workshop):
        # run_trace folds no gap once the drive is identified or no_match,
        # however many records follow.
        full = simulate(workshop, EncoderModel(), 9.1, 1.0)
        assert full.count > 4
        assert run_trace(workshop, full).candidate_history == (26, 11, 2, 1)
        records = list(full.records)
        records[1] = records[1]._replace(reading=records[1].reading + 50.0)
        result = run_trace(workshop, ObservationTrace(tuple(records), None, None))
        assert result.status is Status.NO_MATCH
        assert result.candidate_history == (26, 0)


def corrected_length(start_rho: float, fit: tuple[float, float], reading: float) -> float:
    """Invert the fitted register model: the length a raw reading stands for."""
    scale, offset = fit
    return start_rho - (reading - offset) / scale


class TestFitEncoder:
    def test_two_point_fit(self):
        fit = fit_encoder(9.0, [(9.0, 0.0), (7.5, 1.53)])
        scale, offset = fit
        assert scale == pytest.approx(1.02)
        assert offset == pytest.approx(0.0, abs=1e-12)
        assert corrected_length(9.0, fit, 1.53) == pytest.approx(7.5)

    def test_single_sample_has_no_fit(self):
        assert fit_encoder(9.0, [(9.0, 0.0)]) is None

    def test_duplicate_lengths_do_not_fit(self):
        assert fit_encoder(9.0, [(8.0, 1.0), (8.0, 1.1)]) is None

    def test_lengths_that_round_together_do_not_fit(self):
        # Seen from 1e20 m, 9.0 and 7.5 m wind one length: nothing to fit.
        assert 1e20 - 9.0 == 1e20 - 7.5
        assert fit_encoder(1e20, [(9.0, 0.0), (7.5, 1.53)]) is None

    def test_lengths_past_the_float_range_do_not_fit(self):
        # Wound lengths 1e200 apart square past the float range, ones 1e154
        # apart square to 1e308 and sum past it, and ones 1e-170 apart
        # square below it; none gives a finite fit.
        assert fit_encoder(9.1e200, [(7.75e200, 1.35e200), (6.0e200, 3.1e200)]) is None
        assert fit_encoder(4e154, [(3e154, 0.0), (1e154, 1.0)]) is None
        assert fit_encoder(3e-170, [(2e-170, 1.0), (1e-170, 2.0)]) is None

    def test_ideal_samples_give_identity(self):
        fit = fit_encoder(12.0, [(rho, 12.0 - rho) for rho in (11.0, 9.5, 7.25)])
        scale, offset = fit
        assert scale == pytest.approx(1.0)
        assert offset == pytest.approx(0.0, abs=1e-12)
        for rho in (11.0, 9.5, 7.25):
            assert corrected_length(12.0, fit, 12.0 - rho) == pytest.approx(rho)

    def test_fit_adds_left_to_right(self):
        # The readings sum to 0.6000000000000001 added left to right and to
        # 0.6 compensated, as Python 3.12's sum() adds; the fit must read the
        # same on every interpreter.
        samples = [(11.0, 0.1), (10.0, 0.2), (9.0, 0.3)]
        (x1, y1), (x2, y2), (x3, y3) = ((12.0 - rho, reading) for rho, reading in samples)
        mx = (x1 + x2 + x3) / 3
        my = (y1 + y2 + y3) / 3
        scale = ((x1 - mx) * (y1 - my) + (x2 - mx) * (y2 - my) + (x3 - mx) * (y3 - my)) / (
            (x1 - mx) ** 2 + (x2 - mx) ** 2 + (x3 - mx) ** 2
        )
        assert y1 + y2 + y3 != math.fsum((y1, y2, y3))
        assert fit_encoder(12.0, samples) == (scale, my - scale * mx)

    def test_least_squares_over_noisy_samples(self):
        rng = random.Random(1)
        truth_scale, truth_offset = 1.013, 0.2
        samples = []
        for rho in [11.0, 10.0, 9.0, 8.0, 7.0, 6.0, 5.0]:
            reading = truth_offset + truth_scale * (12.0 - rho) + rng.gauss(0, 1e-4)
            samples.append((rho, reading))
        scale, offset = fit_encoder(12.0, samples)
        assert scale == pytest.approx(truth_scale, abs=1e-3)
        assert offset == pytest.approx(truth_offset, abs=1e-3)


class TestRunTrace:
    def test_walkthrough_scenario(self, workshop):
        trace = simulate(workshop, EncoderModel(), 9.1, 7.4)
        result = run_trace(workshop, trace)
        assert result.status is Status.IDENTIFIED
        assert result.rho == pytest.approx(7.50)
        assert result.detections_used == 4
        assert result.stroke == pytest.approx(1.5)
        assert result.candidate_history == (26, 11, 2, 1)
        assert result.corrector_scale == pytest.approx(1.0)
        assert result.corrector_offset == pytest.approx(0.0, abs=1e-12)

    def test_constant_gap_design_identifies_only_at_exhaustion(self, medium):
        trace = simulate(medium, EncoderModel(), 11.0, 1.0)
        result = run_trace(medium, trace)
        assert result.status is Status.IDENTIFIED
        assert result.detections_used == 9  # the whole table
        assert result.rho == pytest.approx(1.0)
        assert result.candidate_history == (9, 8, 7, 6, 5, 4, 3, 2, 1)

    def test_truncated_trace_stays_ambiguous(self, workshop):
        trace = simulate(workshop, EncoderModel(), 9.1, 8.4)  # two detections only
        result = run_trace(workshop, trace)
        assert result.status is Status.AMBIGUOUS
        assert result.candidate_history == (26, 11)

    def test_jitter_below_half_tolerance_is_harmless(self, workshop):
        clean = run_trace(workshop, simulate(workshop, EncoderModel(), 9.1, 7.4))
        for seed in range(10):
            noisy = simulate(workshop, EncoderModel(noise_sd=0.008, seed=seed), 9.1, 7.4)
            result = run_trace(workshop, noisy, tolerance=0.05)
            assert (result.status, result.rho) == (clean.status, clean.rho)
            assert result.candidate_history == clean.candidate_history

    def test_corrector_recovers_scale_error(self, workshop):
        trace = simulate(workshop, EncoderModel(scale=1.02, offset=5.0), 9.1, 7.4)
        result = run_trace(workshop, trace)
        assert result.status is Status.IDENTIFIED
        assert result.corrector_scale == pytest.approx(1.02)
        assert result.corrector_offset == pytest.approx(5.0)

    @pytest.mark.parametrize("start_rho", [13.5, 1e17])
    def test_start_above_rho_max_is_an_error(self, workshop, start_rho):
        # No drive winds from above rho_max (13 m here), so the encoder would
        # be fitted to a length the cable never had.
        drive = simulate(workshop, EncoderModel(), 9.1, 7.4)
        trace = ObservationTrace(drive.records, start_rho, drive.stop_rho)
        message = f"start_rho={start_rho} lies above rho_max=13.0"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_trace(workshop, trace)

    def test_start_at_rho_max_fits_the_encoder(self, workshop):
        result = run_trace(workshop, simulate(workshop, EncoderModel(scale=1.02), 13.0, 7.4))
        assert result.status is Status.IDENTIFIED
        assert result.corrector_scale == pytest.approx(1.02)

    def test_empty_trace_beyond_spacing_is_ambiguous(self, workshop):
        trace = ObservationTrace((), start_rho=4.0, stop_rho=1.0)
        result = run_trace(workshop, trace)
        assert result.status is Status.AMBIGUOUS and result.rho is None
        assert result.detections_used == 0

    def test_empty_trace_short_drive_is_ambiguous(self, workshop):
        trace = ObservationTrace((), start_rho=2.4, stop_rho=1.6)
        result = run_trace(workshop, trace)
        assert result.status is Status.AMBIGUOUS

    # Winding more, less or exactly d_n - d_0 = 3.00 - 0.25 m without a
    # detection gives no length: only elimination identifies.
    def test_empty_drive_past_largest_spacing_is_ambiguous(self, workshop):
        result = run_trace(workshop, ObservationTrace((), start_rho=3.80, stop_rho=1.0))
        assert result.status is Status.AMBIGUOUS and result.rho is None
        assert result.candidate_history == ()

    def test_empty_drive_below_largest_spacing_is_ambiguous(self, workshop):
        result = run_trace(workshop, ObservationTrace((), start_rho=1.10, stop_rho=1.0))
        assert result.status is Status.AMBIGUOUS and result.rho is None
        assert result.detections_used == 0

    def test_empty_drive_of_exactly_largest_spacing_is_ambiguous(self, workshop):
        result = run_trace(workshop, ObservationTrace((), start_rho=3.75, stop_rho=1.0))
        assert result.status is Status.AMBIGUOUS and result.rho is None

    def test_drive_past_largest_spacing_after_last_detection_is_ambiguous(self, workshop):
        full = simulate(workshop, EncoderModel(), 9.1, 1.0)
        trace = ObservationTrace(full.records[:2], full.start_rho, full.stop_rho)
        result = run_trace(workshop, trace)
        assert result.status is Status.AMBIGUOUS and result.rho is None
        assert result.detections_used == 2
        assert result.stroke is None
        assert result.candidate_history == (26, 11)

    @pytest.mark.parametrize("start_rho,stop_rho", [(10.95, 9.8), (9.9, 7.9)])
    def test_long_silent_wind_on_a_conforming_design_gives_no_length(
        self, start_rho, stop_rho
    ):
        # Both healthy drives wind more than 1.0 m after their start or their
        # last detection; neither leaves a single candidate.
        assert validate_design(ONE_SENSOR).all_pass
        trace = simulate(ONE_SENSOR, EncoderModel(), start_rho, stop_rho)
        result = run_trace(ONE_SENSOR, trace)
        assert result.status is Status.AMBIGUOUS and result.rho is None
        assert run_trace(ONE_SENSOR, without_truth(trace)) == result

    def test_status_is_the_printed_string(self, workshop):
        result = run_trace(workshop, simulate(workshop, EncoderModel(), 9.1, 8.4))
        assert result.status is Status.AMBIGUOUS
        assert result.status == "ambiguous" and result.status in ("ambiguous", "no_match")
        assert result.lines()[0] == "status: ambiguous"

    @pytest.mark.parametrize("tolerance", [0.01, 0.05, 0.3, 0.6])
    @pytest.mark.parametrize("name", PROFILE_DESIGNS)
    def test_identified_stroke_matches_profile(self, name, tolerance):
        design = PROFILE_DESIGNS[name]
        table = rectify(enumerate_events(design))
        profile = stroke_profile(table, tolerance)
        for p in range(1, table.count + 1):
            entry = profile.entry(p)
            start_rho = min(table.events[p - 1].rho + 0.01, design.geometry.rho_max)
            trace = simulate(design, EncoderModel(), start_rho, design.geometry.b)
            result = run_trace(design, trace, tolerance)
            if entry.identifiable:
                assert result.status is Status.IDENTIFIED
                assert result.detections_used == entry.k + 1
                assert result.stroke == entry.stroke
            else:
                assert result.status is Status.AMBIGUOUS


def replayed_history(table, readings, tolerance):
    """Independent oracle: the elimination replayed on plain sets of 1-based
    current events, stopping once at most one is left.  Returns the
    ``(status, candidate_history, rho, stroke)`` that ``run_trace`` must give."""
    if not readings:
        return Status.AMBIGUOUS, (), None, None
    gaps = table.gaps
    current = set(range(1, table.count + 1))
    history = [len(current)]
    for prev, here in zip(readings, readings[1:]):
        if len(current) <= 1:
            break
        gap = here - prev
        current = {e + 1 for e in current if e <= len(gaps) and abs(gaps[e - 1] - gap) <= tolerance}
        history.append(len(current))
    if len(current) != 1:
        status = Status.AMBIGUOUS if current else Status.NO_MATCH
        return status, tuple(history), None, None
    (last,) = current
    first = last - (len(history) - 1)  # the event of the first reading
    rho = table.events[last - 1].rho
    return Status.IDENTIFIED, tuple(history), rho, table.events[first - 1].rho - rho


def outcome(result):
    return result.status, result.candidate_history, result.rho, result.stroke


class TestHistoryOracle:
    @pytest.mark.parametrize("tolerance", [0.01, 0.05])
    @pytest.mark.parametrize("name", sorted(presets.ALL))
    def test_histories_match_a_set_replay(self, name, tolerance):
        # Clean drives from every start, and each again with its second
        # detection missed: jitter puts some gaps outside the tolerance, and
        # a miss often leaves a gap no start has, so every status turns up.
        design = presets.ALL[name]()
        table = rectify(enumerate_events(design))
        for p, event in enumerate(table.events, start=1):
            start_rho = min(event.rho + 0.01, design.geometry.rho_max)
            encoder = EncoderModel(noise_sd=0.004, seed=p)
            trace = simulate(design, encoder, start_rho, design.geometry.b)
            drives = [trace]
            if trace.count >= 2:
                records = trace.records[:1] + trace.records[2:]
                drives.append(ObservationTrace(records, trace.start_rho, trace.stop_rho))
            for drive in drives:
                readings = [r.reading for r in drive.records]
                result = run_trace(design, drive, tolerance)
                assert outcome(result) == replayed_history(table, readings, tolerance)

    @pytest.mark.parametrize("tolerance", TOLERANCES)
    def test_digest_drives_match_a_set_replay(self, tolerance):
        # The calibration digest's seeded drives: from every start of the
        # presets and the long recipe's design, clean and with one of the
        # first three detections dropped.
        statuses = set()
        for design, _, trace in drives():
            table = rectify(enumerate_events(design))
            readings = [r.reading for r in trace.records]
            result = run_trace(design, trace, tolerance)
            assert outcome(result) == replayed_history(table, readings, tolerance)
            statuses.add(result.status)
        assert statuses == set(Status)


class TestTruthFree:
    @pytest.mark.parametrize("name", sorted(presets.ALL))
    def test_truth_columns_do_not_change_the_result(self, name):
        # From every start: the clean drive, the drive with its second
        # detection missed, and the drive cut after two detections.
        design = presets.ALL[name]()
        table = rectify(enumerate_events(design))
        for event in table.events:
            start_rho = min(event.rho + 0.01, design.geometry.rho_max)
            clean = simulate(design, EncoderModel(), start_rho, design.geometry.b)
            records = clean.records
            for kept in (records, records[:1] + records[2:], records[:2]):
                drive = ObservationTrace(kept, clean.start_rho, clean.stop_rho)
                assert run_trace(design, without_truth(drive)) == run_trace(design, drive)


class TestReadme:
    def test_library_block_runs(self):
        # The README's "Library" example, verbatim, so the documented API
        # cannot drift from the code.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
        (block,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
        exec(compile(block, "README.md", "exec"), {})
