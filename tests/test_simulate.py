from __future__ import annotations

import math
import random
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
from cablecal.simulate import TRACE_CSV_HEADER, TraceRecordError, format_trace_csv, parse_trace_csv

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


def reference_check(records: tuple[TraceRecord, ...]) -> tuple[int, str] | None:
    """The record checks one record at a time: every value is checked for
    finiteness before any order; returns the first fault's (index, reason)."""
    for n, r in enumerate(records):
        if not all(x is None or math.isfinite(x) for x in (r.t, r.reading, r.truth_rho)):
            return n, f"values must be finite, got t={r.t} reading={r.reading} truth_rho={r.truth_rho}"
    for n in range(1, len(records)):
        a, b = records[n - 1], records[n]
        if b.t <= a.t:
            return n, "trace times must strictly increase"
        if a.truth_rho is not None and b.truth_rho is not None and b.truth_rho >= a.truth_rho:
            return n, "truth lengths must strictly decrease while winding"
    return None


def log_text(records: tuple[TraceRecord, ...], short: bool = False) -> str:
    """A trace file of ``records`` without metadata; ``short`` writes a
    hardware log's two columns."""
    header, width = ("t,encoder_reading", 2) if short else (TRACE_CSV_HEADER, 5)
    rows = (",".join("" if x is None else repr(x) for x in r[:width]) for r in records)
    return "".join(f"{line}\n" for line in (header, *rows))


class TestTraceCheckOrder:
    """Every record is checked for finite values before any record is
    checked against the one before it, and the order checks run pair by
    pair, times before truths: the first fault in that order is named."""

    @pytest.mark.parametrize(
        "records,short,index,reason",
        [
            # Time fails to rise at record 2 and the reading is nan at record 5.
            (
                (TraceRecord(0.0, 0.0, 9.0, 1, 1), TraceRecord(0.0, 0.5, 8.5, 2, 1),
                 TraceRecord(1.0, 1.0, 8.0, 3, 1), TraceRecord(2.0, 1.5, 7.5, 4, 1),
                 TraceRecord(3.0, math.nan, 7.0, 5, 1)),
                False,
                4,
                "values must be finite, got t=3.0 reading=nan truth_rho=7.0",
            ),
            # Equal times at record 2, a rising truth at record 3.
            (
                (TraceRecord(0.0, 0.0, 9.0, 1, 1), TraceRecord(0.0, 0.5, 8.5, 2, 1),
                 TraceRecord(1.0, 1.0, 8.75, 3, 1)),
                False,
                1,
                "trace times must strictly increase",
            ),
            # Equal times and a rising truth on the same record: the time is named.
            (
                (TraceRecord(0.0, 0.0, 9.0, 1, 1), TraceRecord(0.0, 0.5, 9.5, 2, 1)),
                False,
                1,
                "trace times must strictly increase",
            ),
            # A rising truth at record 2, equal times at record 3.
            (
                (TraceRecord(0.0, 0.0, 9.0, 1, 1), TraceRecord(1.0, 0.5, 9.0, 2, 1),
                 TraceRecord(1.0, 1.0, 8.0, 3, 1)),
                False,
                1,
                "truth lengths must strictly decrease while winding",
            ),
            # A hardware log with equal times at record 2 and an infinite
            # reading at record 4.
            (
                (TraceRecord(0.0, 0.0), TraceRecord(0.0, 0.5), TraceRecord(1.0, 1.0),
                 TraceRecord(2.0, math.inf)),
                True,
                3,
                "values must be finite, got t=2.0 reading=inf truth_rho=None",
            ),
            # A hardware log with equal times at record 3 and falling ones at record 4.
            (
                (TraceRecord(0.0, 0.0), TraceRecord(1.0, 0.5), TraceRecord(1.0, 1.0),
                 TraceRecord(0.5, 1.5)),
                True,
                2,
                "trace times must strictly increase",
            ),
        ],
        ids=["nan-after-order-break", "rising-truth-after-equal-times", "both-on-one-record",
             "equal-times-after-rising-truth", "log-inf-after-equal-times", "log-equal-then-falling-times"],
    )
    def test_the_first_fault_in_check_order_is_named(self, records, short, index, reason):
        assert reference_check(records) == (index, reason)
        with pytest.raises(TraceRecordError) as err:
            ObservationTrace(records, None, None)
        assert (err.value.index, err.value.reason) == (index, reason)
        # A file with no metadata: record k is on line k + 2, below the header.
        with pytest.raises(ValueError) as err:
            parse_trace_csv(log_text(records, short))
        assert str(err.value) == f"line {index + 2}: {reason}"

    def test_seeded_faults_name_the_record_the_reference_names(self):
        # Records of known, unknown and partly known truths, with a few
        # faults of each kind sown in; the trace names what the one-record-
        # at-a-time reference names.
        rng = random.Random(40)
        faults = 0
        for _ in range(2000):
            records = []
            t, reading, rho = 0.0, rng.uniform(-5.0, 5.0), 20.0
            truths = rng.choice(["known", "unknown", "mixed"])
            for i in range(rng.randint(0, 12)):
                t += rng.choice([0.5, 1.0, 0.0, -0.25]) if rng.random() < 0.15 else rng.uniform(0.1, 1.0)
                reading += rng.uniform(0.1, 1.0)
                rho -= rng.choice([0.0, -0.5]) if rng.random() < 0.1 else rng.uniform(0.1, 1.0)
                value = rng.choice([math.nan, math.inf, -math.inf])
                row = [t, reading, rho, i + 1, 1]
                if rng.random() < 0.05:
                    row[rng.randrange(3)] = value
                if truths == "unknown" or truths == "mixed" and rng.random() < 0.4:
                    row[2:] = [None, None, None]
                records.append(TraceRecord(*row))
            records = tuple(records)
            expected = reference_check(records)
            if expected is None:
                assert ObservationTrace(records, None, None).records == records
                continue
            faults += 1
            with pytest.raises(TraceRecordError) as err:
                ObservationTrace(records, None, None)
            assert (err.value.index, err.value.reason) == expected
        assert faults > 500


class TestCrlfLines:
    """A trace file written with CRLF line endings, as some hardware
    loggers write them, parses as its LF text does."""

    @pytest.mark.parametrize("short", [False, True], ids=["full-header", "short-header"])
    def test_crlf_parses_as_lf(self, short):
        records = (TraceRecord(0.5, 3.25, 9.0, 1, 2), TraceRecord(1.5, 4.125, 8.0, 2, 2),
                   TraceRecord(2.75, 5.5, 6.75, 3, 1))
        if short:
            records = tuple(TraceRecord(r.t, r.reading) for r in records)
        text = "# start_rho=9.5 stop_rho=6.0\n" + log_text(records, short)
        crlf = parse_trace_csv(text.replace("\n", "\r\n"))
        assert crlf == parse_trace_csv(text) and crlf.records == records


class TestTraceCsvRoundTrip:
    """Formatting a parsed trace file gives the file back, byte for byte."""

    def test_a_hardware_log(self):
        # Every truth is None, so every truth column is left empty.
        log = parse_trace_csv("t,encoder_reading\n0.5,0.25\n1.0,0.75\n1.5,-0.125\n2.25,1e-17\n")
        assert all(r[2:] == (None, None, None) for r in log.records)
        text = format_trace_csv(log)
        assert text == (
            "# \nt,encoder_reading,truth_rho,truth_i,truth_j\n"
            "0.5,0.25,,,\n1.0,0.75,,,\n1.5,-0.125,,,\n2.25,1e-17,,,\n"
        )
        assert format_trace_csv(parse_trace_csv(text)) == text

    def test_known_and_unknown_truths(self):
        text = (
            "# start_rho=12.3 stop_rho=1.0\nt,encoder_reading,truth_rho,truth_i,truth_j\n"
            "0.1,3.1000000000000005,12.2,4,2\n"
            "0.30000000000000004,3.3,,,\n"
            "0.7,3.7,11.5,,\n"
            "1.1,4.1,11.0,7,\n"
            "1.9,4.9,10.25,8,3\n"
            "2.5,5.5,,,1\n"
        )
        trace = parse_trace_csv(text)
        assert trace.records[2] == TraceRecord(0.7, 3.7, 11.5, None, None)
        assert format_trace_csv(trace) == text

    def test_simulated_drives(self, all_designs):
        for name, design in all_designs.items():
            g = design.geometry
            encoder = EncoderModel(scale=0.99, offset=-7.5, noise_sd=0.003, seed=len(name))
            text = format_trace_csv(simulate(design, encoder, g.rho_max, g.b))
            assert format_trace_csv(parse_trace_csv(text)) == text, name
