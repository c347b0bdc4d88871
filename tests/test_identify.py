from __future__ import annotations

import random

import pytest

from cablecal import (
    ClosedLoopCorrector,
    DesignRecipe,
    EncoderModel,
    ObservationTrace,
    RobotGeometry,
    Status,
    build_design,
    corrector_update,
    enumerate_events,
    observe,
    rectify,
    run_trace,
    simulate,
    start,
    stroke_profile,
)
from cablecal import presets
from conftest import FIVE_CENTIMETRE_POOLS

# Every design whose profile the identifier is checked against: the presets
# and the 5 cm recipes, on which 0.01 and 0.05 give different profiles.
PROFILE_DESIGNS = {name: build() for name, build in presets.ALL.items()}
for n, (d_pool, z_pool) in enumerate(FIVE_CENTIMETRE_POOLS, start=1):
    recipe = DesignRecipe(RobotGeometry(6.0, 11.0), d_pool, z_pool)
    PROFILE_DESIGNS[f"5cm-{n}"] = build_design(recipe).design


@pytest.fixture
def workshop_table(workshop):
    return rectify(enumerate_events(workshop))


class TestStart:
    def test_all_positions_possible_after_first_detection(self, workshop_table):
        state = start(workshop_table)
        assert state.status is Status.AMBIGUOUS
        assert state.candidate_count == 26
        assert state.observed == ()

    def test_two_event_table(self, workshop_table):
        from cablecal import Event, EventTable

        table = EventTable((Event(0.0, 1, 1, 2.0), Event(1.0, 2, 1, 1.0)), rectified=True)
        assert start(table).candidate_count == 2

    def test_rejects_raw_table(self, workshop):
        with pytest.raises(ValueError):
            start(enumerate_events(workshop))

    def test_rejects_tiny_table(self):
        from cablecal import Event, EventTable

        table = EventTable((Event(0.0, 1, 1, 2.0),), rectified=True)
        with pytest.raises(ValueError):
            start(table)

    @pytest.mark.parametrize("tolerance", [0.0, -0.05, float("nan"), float("inf")])
    def test_rejects_unusable_tolerance(self, workshop_table, tolerance):
        with pytest.raises(ValueError, match="finite and positive"):
            start(workshop_table, tolerance)


class TestObserve:
    def test_walkthrough_elimination(self, workshop_table):
        # Gaps 0.5 then 0.75 then 0.25 from the detection at 9.00 m.
        state = start(workshop_table)
        state = observe(state, 0.5)
        assert state.status is Status.AMBIGUOUS and state.candidate_count == 11
        state = observe(state, 0.75)
        assert state.status is Status.AMBIGUOUS and state.candidate_count == 2
        state = observe(state, 0.25)
        assert state.status is Status.IDENTIFIED
        assert state.candidates == frozenset({8})
        assert state.identified_index == 11
        assert state.identified_rho == pytest.approx(7.50)

    def test_impossible_gap_dies(self, workshop_table):
        state = observe(start(workshop_table), 99.0)
        assert state.status is Status.NO_MATCH
        assert state.candidate_count == 0

    def test_candidates_shrink_monotonically(self, workshop_table):
        rng = random.Random(0)
        gaps = list(workshop_table.gaps)
        for _ in range(20):
            state = start(workshop_table)
            p = rng.randrange(len(gaps))
            for gap in gaps[p:]:
                before = state.candidates
                state = observe(state, gap + rng.uniform(-0.02, 0.02))
                assert state.candidates <= before
                if state.terminal:
                    break

    def test_soundness_with_ideal_gaps(self, workshop_table):
        # The true start survives every exact observation; identification is exact.
        gaps = list(workshop_table.gaps)
        for p in range(1, len(gaps) + 1):
            state = start(workshop_table)
            for m, gap in enumerate(gaps[p - 1 :], start=1):
                state = observe(state, gap)
                if state.status is Status.IDENTIFIED:
                    assert state.identified_rho == workshop_table.events[p + m - 1].rho
                    break
                assert p in state.candidates

    def test_terminal_state_rejects_observations(self, workshop_table):
        state = observe(start(workshop_table), 99.0)
        with pytest.raises(ValueError):
            observe(state, 0.5)


class TestCorrector:
    def test_two_point_fit(self):
        corr = ClosedLoopCorrector(start_rho=9.0)
        corr = corrector_update(corr, 9.0, 0.0)
        corr = corrector_update(corr, 7.5, 1.53)
        assert corr.scale == pytest.approx(1.02)
        assert corr.offset == pytest.approx(0.0, abs=1e-12)
        assert corr.corrected_length(1.53) == pytest.approx(7.5)

    def test_single_sample_has_no_fit(self):
        corr = corrector_update(ClosedLoopCorrector(start_rho=9.0), 9.0, 0.0)
        assert corr.scale is None and corr.offset is None
        with pytest.raises(ValueError):
            corr.corrected_length(1.0)

    def test_duplicate_lengths_do_not_fit(self):
        corr = ClosedLoopCorrector(start_rho=9.0)
        corr = corrector_update(corr, 8.0, 1.0)
        corr = corrector_update(corr, 8.0, 1.1)
        assert corr.scale is None

    def test_ideal_samples_give_identity(self):
        corr = ClosedLoopCorrector(start_rho=12.0)
        for rho in (11.0, 9.5, 7.25):
            corr = corrector_update(corr, rho, 12.0 - rho)
        assert corr.scale == pytest.approx(1.0)
        assert corr.offset == pytest.approx(0.0, abs=1e-12)
        for rho in (11.0, 9.5, 7.25):
            assert corr.corrected_length(12.0 - rho) == pytest.approx(rho)

    def test_least_squares_over_noisy_samples(self):
        rng = random.Random(1)
        truth_scale, truth_offset = 1.013, 0.2
        corr = ClosedLoopCorrector(start_rho=12.0)
        for rho in [11.0, 10.0, 9.0, 8.0, 7.0, 6.0, 5.0]:
            reading = truth_offset + truth_scale * (12.0 - rho) + rng.gauss(0, 1e-4)
            corr = corrector_update(corr, rho, reading)
        assert corr.scale == pytest.approx(truth_scale, abs=1e-3)
        assert corr.offset == pytest.approx(truth_offset, abs=1e-3)


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

    def test_empty_trace_beyond_spacing_estimates_by_exhaustion(self, workshop):
        trace = ObservationTrace((), start_rho=4.0, stop_rho=1.0)
        result = run_trace(workshop, trace)
        assert result.status is Status.IDENTIFIED_BY_EXHAUSTION
        assert result.rho == pytest.approx(3.75)
        assert result.detections_used == 0

    def test_empty_trace_short_drive_is_ambiguous(self, workshop):
        trace = ObservationTrace((), start_rho=2.4, stop_rho=1.6)
        result = run_trace(workshop, trace)
        assert result.status is Status.AMBIGUOUS

    # Exhaustion: winding strictly more than d_n - d_0 = 3.00 - 0.25 m without
    # a detection leaves only the distal segment, 1.00 + 2.75 m.
    def test_empty_drive_past_largest_spacing_is_exhausted(self, workshop):
        result = run_trace(workshop, ObservationTrace((), start_rho=3.80, stop_rho=1.0))
        assert result.status is Status.IDENTIFIED_BY_EXHAUSTION
        assert result.rho == pytest.approx(3.75)
        assert result.candidate_history == ()

    def test_empty_drive_below_largest_spacing_is_ambiguous(self, workshop):
        result = run_trace(workshop, ObservationTrace((), start_rho=1.10, stop_rho=1.0))
        assert result.status is Status.AMBIGUOUS and result.rho is None
        assert result.detections_used == 0

    def test_empty_drive_of_exactly_largest_spacing_is_ambiguous(self, workshop):
        result = run_trace(workshop, ObservationTrace((), start_rho=3.75, stop_rho=1.0))
        assert result.status is Status.AMBIGUOUS and result.rho is None

    def test_drive_past_largest_spacing_after_last_detection_is_exhausted(self, workshop):
        full = simulate(workshop, EncoderModel(), 9.1, 1.0)
        trace = ObservationTrace(full.records[:2], full.start_rho, full.stop_rho)
        result = run_trace(workshop, trace)
        assert result.status is Status.IDENTIFIED_BY_EXHAUSTION
        assert result.rho == pytest.approx(3.75)
        assert result.detections_used == 2
        assert result.stroke is None
        assert result.candidate_history == (26, 11)

    def test_status_is_the_printed_string(self, workshop):
        result = run_trace(workshop, simulate(workshop, EncoderModel(), 9.1, 8.4))
        assert result.status is Status.AMBIGUOUS
        assert result.status == "ambiguous" and result.status in ("ambiguous", "no_match")
        assert result.lines()[0] == "status: ambiguous"

    @pytest.mark.parametrize("tolerance", [0.01, 0.05])
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
                assert result.stroke == pytest.approx(entry.stroke)
            else:
                assert result.status is Status.AMBIGUOUS
