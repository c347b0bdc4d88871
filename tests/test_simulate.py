from __future__ import annotations

import math
import re

import pytest

from cablecal import (
    EncoderModel,
    ObservationTrace,
    TraceRecord,
    enumerate_events,
    rectify,
    simulate,
)
from cablecal.simulate import TraceRecordError, format_trace_csv, parse_trace_csv

IDEAL = EncoderModel()


class TestEncoderModel:
    def test_defaults(self):
        assert IDEAL.scale == 1.0 and IDEAL.offset == 0.0 and IDEAL.noise_sd == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(scale=0.0),
            dict(scale=-1.0),
            dict(noise_sd=-0.1),
            dict(scale=math.nan),
            dict(scale=math.inf),
            dict(offset=math.nan),
            dict(offset=-math.inf),
            dict(noise_sd=math.nan),
            dict(noise_sd=math.inf),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EncoderModel(**kwargs)


class TestSimulate:
    def test_full_drive_matches_rectified_table(self, medium):
        trace = simulate(medium, IDEAL, start_rho=11.0, stop_rho=1.0)
        table = rectify(enumerate_events(medium))
        assert [(r.t, r.truth_rho) for r in trace.records] == [
            (e.t, e.rho) for e in table.events
        ]
        assert [r.truth_rho for r in trace.records] == [9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]

    def test_partial_window(self, workshop):
        trace = simulate(workshop, IDEAL, start_rho=9.1, stop_rho=7.4)
        assert [r.truth_rho for r in trace.records] == [9.0, 8.5, 7.75, 7.5]

    def test_full_extension_drive_captures_all_events(self, workshop):
        trace = simulate(workshop, IDEAL, start_rho=13.0, stop_rho=1.0)
        assert trace.count == 26

    def test_window_bounds_inclusive(self, workshop):
        # Detections exactly at the start or stop length are recorded: the
        # mark is at the sensor the instant the drive begins or halts.
        trace = simulate(workshop, IDEAL, start_rho=9.25, stop_rho=7.25)
        assert [r.truth_rho for r in trace.records] == [9.0, 8.5, 7.75, 7.5, 7.25]

    def test_empty_when_start_equals_stop(self, workshop):
        trace = simulate(workshop, IDEAL, start_rho=8.0, stop_rho=8.0)
        assert trace.records == ()
        assert trace.start_rho == 8.0 and trace.stop_rho == 8.0

    def test_range_validation(self, workshop):
        with pytest.raises(ValueError):
            simulate(workshop, IDEAL, start_rho=7.0, stop_rho=9.0)
        with pytest.raises(ValueError):
            simulate(workshop, IDEAL, start_rho=14.0, stop_rho=1.0)
        with pytest.raises(ValueError):
            simulate(workshop, IDEAL, start_rho=9.0, stop_rho=0.5)  # below the boost

    def test_merged_simultaneous_truth(self, medium):
        # One physical instant yields one record: the rectification survivor.
        trace = simulate(medium, IDEAL, 11.0, 1.0)
        at_6 = [r for r in trace.records if r.truth_rho == 6.0]
        assert [(r.truth_i, r.truth_j) for r in at_6] == [(1, 1)]

    def test_encoder_reading_model(self, workshop):
        enc = EncoderModel(scale=1.02, offset=3.0)
        trace = simulate(workshop, enc, start_rho=9.1, stop_rho=7.4)
        first = trace.records[0]
        assert first.reading == pytest.approx(3.0 + 1.02 * (9.1 - 9.0))

    def test_deterministic_per_seed(self, workshop):
        enc = EncoderModel(noise_sd=0.01, seed=7)
        a = simulate(workshop, enc, 12.0, 1.0)
        b = simulate(workshop, enc, 12.0, 1.0)
        assert format_trace_csv(a) == format_trace_csv(b)
        c = simulate(workshop, EncoderModel(noise_sd=0.01, seed=8), 12.0, 1.0)
        assert format_trace_csv(a) != format_trace_csv(c)


def wound(trace: ObservationTrace, a: int, b: int) -> float:
    """Encoder-measured cable wound between records a and b: the identifier's observable."""
    return trace.records[b].reading - trace.records[a].reading


class TestReadingDifferences:
    def test_ideal_gap(self, workshop):
        trace = simulate(workshop, IDEAL, 9.1, 7.4)
        assert wound(trace, 0, 1) == pytest.approx(0.5)

    def test_scale_error_propagates(self, workshop):
        trace = simulate(workshop, EncoderModel(scale=1.02), 9.1, 7.4)
        assert wound(trace, 0, 1) == pytest.approx(0.51)

    def test_offset_cancels(self, workshop):
        plain = simulate(workshop, IDEAL, 9.1, 7.4)
        shifted = simulate(workshop, EncoderModel(offset=123.4), 9.1, 7.4)
        for a in range(plain.count):
            for b in range(a + 1, plain.count):
                assert wound(shifted, a, b) == pytest.approx(wound(plain, a, b))


class TestTraceCsv:
    def test_round_trip(self, workshop):
        trace = simulate(workshop, EncoderModel(scale=1.01, noise_sd=0.004, seed=5), 12.0, 1.0)
        assert parse_trace_csv(format_trace_csv(trace)) == trace

    def test_truthless_import(self):
        text = "t,encoder_reading,truth_rho,truth_i,truth_j\n0.5,0.5,,,\n1.0,1.0,,,\n"
        trace = parse_trace_csv(text)
        assert trace.start_rho is None and trace.stop_rho is None
        assert trace.records[0] == TraceRecord(0.5, 0.5, None, None, None)

    def test_old_direction_token_still_parses(self):
        text = (
            "# start_rho=9.1 stop_rho=7.4 direction=wind\n"
            "t,encoder_reading,truth_rho,truth_i,truth_j\n0.1,0.1,9.0,5,1\n"
        )
        trace = parse_trace_csv(text)
        assert (trace.start_rho, trace.stop_rho) == (9.1, 7.4)
        assert trace.records == (TraceRecord(0.1, 0.1, 9.0, 5, 1),)

    @pytest.mark.parametrize("indent", [" ", "  ", "\t"])
    def test_indented_comment_reads_as_the_comment(self, workshop, indent):
        text = format_trace_csv(simulate(workshop, IDEAL, 9.1, 7.4))
        assert parse_trace_csv(indent + text) == parse_trace_csv(text)
        with pytest.raises(ValueError, match="line 1: start_rho must be finite, got nan"):
            parse_trace_csv(indent + text.replace("start_rho=9.1", "start_rho=nan"))

    def test_short_header_import(self):
        # A hardware log may leave the truth columns out altogether.
        short = parse_trace_csv("t,encoder_reading\n0.5,0.5\n1.0,1.0\n")
        long = parse_trace_csv("t,encoder_reading,truth_rho,truth_i,truth_j\n0.5,0.5,,,\n1.0,1.0,,,\n")
        assert short == long
        assert short.records[1] == TraceRecord(1.0, 1.0, None, None, None)

    def test_short_header_counts_its_columns(self):
        with pytest.raises(ValueError, match="line 3: expected 2 columns, got 5"):
            parse_trace_csv("t,encoder_reading\n0.5,0.5\n1.0,1.0,,,\n")

    def test_header_required(self):
        expected = "expected header 't,encoder_reading,truth_rho,truth_i,truth_j' or 't,encoder_reading'"
        for text in ("a,b\n1,2\n", "t,encoder_reading,truth_rho\n0.5,0.5,\n", ""):
            with pytest.raises(ValueError, match=re.escape(expected)):
                parse_trace_csv(text)

    def test_empty_trace_file(self, workshop):
        trace = simulate(workshop, IDEAL, 8.0, 8.0)
        text = format_trace_csv(trace)
        parsed = parse_trace_csv(text)
        assert parsed.records == () and parsed.start_rho == 8.0


class TestTraceValidation:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            ObservationTrace(
                (TraceRecord(1.0, 0.0), TraceRecord(1.0, 0.5)), None, None
            )

    def test_truth_must_decrease(self):
        with pytest.raises(ValueError):
            ObservationTrace(
                (TraceRecord(0.0, 0.0, 5.0, 1, 1), TraceRecord(1.0, 1.0, 5.5, 2, 1)),
                None,
                None,
            )

    @pytest.mark.parametrize(
        "records,start_rho,stop_rho",
        [
            ((), math.nan, 1.0),
            ((), 3.8, math.nan),
            ((), math.inf, 1.0),
            ((TraceRecord(math.nan, 0.0),), None, None),
            ((TraceRecord(0.0, math.nan),), None, None),
            ((TraceRecord(0.0, math.inf),), None, None),
            ((TraceRecord(0.0, 0.0, math.nan),), None, None),
        ],
    )
    def test_values_must_be_finite(self, records, start_rho, stop_rho):
        with pytest.raises(ValueError, match="finite"):
            ObservationTrace(records, start_rho, stop_rho)

    @pytest.mark.parametrize(
        "records,index,message",
        [
            (
                (TraceRecord(0.0, 0.0), TraceRecord(math.inf, 1.0)),
                1,
                "trace record 2 must be finite",
            ),
            (
                (TraceRecord(0.0, 0.0), TraceRecord(1.0, 1.0), TraceRecord(0.5, 2.0)),
                2,
                "trace times must strictly increase",
            ),
            (
                (TraceRecord(0.0, 0.0, 5.0), TraceRecord(1.0, 1.0, 4.0), TraceRecord(2.0, 2.0, 4.0)),
                2,
                "truth lengths must strictly decrease",
            ),
            # Every value is checked before any order: the nan of record 3
            # is named, not the time fault of record 2.
            (
                (TraceRecord(1.0, 0.0), TraceRecord(0.0, 1.0), TraceRecord(2.0, math.nan)),
                2,
                "trace record 3 must be finite",
            ),
        ],
    )
    def test_fault_names_its_record(self, records, index, message):
        with pytest.raises(TraceRecordError, match=message) as err:
            ObservationTrace(records, None, None)
        assert err.value.index == index

    def test_unknown_truth_lengths_are_not_compared(self):
        # Only two successive known truth lengths must decrease.
        records = (TraceRecord(0.0, 0.0, 5.0), TraceRecord(1.0, 1.0), TraceRecord(2.0, 2.0, 6.0))
        assert ObservationTrace(records, None, None).records == records
