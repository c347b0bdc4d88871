"""Pinned calibration outcomes over the sweep and the exhaustive single-miss replay.

Each drive is ok (identified within 0.01 m of the truth of the record
``detections_used`` names), unsure (``ambiguous`` or ``no_match``) or wrong
(identified further from that truth), as the benchmark classifies
``calibrate`` results.  Both pins match at the default gap tolerance, 0.05.

The sweep is the calibration digest's 522 seed-0 drives
(:func:`test_exactness.drives`): 266 clean, and 256 with one of their
first three detections dropped (faulty).

The exhaustive single-miss replay covers the four presets, the long
recipe's design and the climb recipe's given ordering.  From every
rectified start one noise-free drive winds to the last event, reading
``start - rho``, with no start or stop metadata; each of its records but
the first is dropped once.  That is 14,985 drives.
"""

from __future__ import annotations

from collections import Counter

import pytest

from cablecal import (
    DesignRecipe,
    ObservationTrace,
    RobotGeometry,
    Status,
    build_design,
    enumerate_events,
    presets,
    rectify,
    run_trace,
)
from cablecal.simulate import TraceRecord
from test_exactness import LONG_RECIPE, RECIPES, drives

TOLERANCE = 0.05
RHO_TOLERANCE = 0.01  # metres; a confident length further from the truth is wrong

# kind -> (ok, unsure, wrong)
SWEEP = {"clean": (247, 19, 0), "faulty": (71, 114, 71)}
# design -> (ok, unsure, wrong): 1,301 of the 14,985 drives are wrong
REPLAY = {
    "medium-cube": (0, 36, 0),
    "large-cube": (426, 69, 33),
    "xl-cube": (1189, 116, 73),
    "workshop": (237, 65, 23),
    "long recipe": (3656, 5734, 1050),
    "climb recipe": (1961, 195, 122),
}


def outcome(design, trace) -> str:
    """ok, unsure or wrong for one drive at ``TOLERANCE``."""
    result = run_trace(design, trace, TOLERANCE)
    if result.status is not Status.IDENTIFIED:
        return "unsure"
    truth = trace.records[result.detections_used - 1].truth_rho
    return "ok" if abs(result.rho - truth) <= RHO_TOLERANCE else "wrong"


def counts(outcomes) -> tuple[int, int, int]:
    tally = Counter(outcomes)
    return tally["ok"], tally["unsure"], tally["wrong"]


def replay_design(name: str):
    if name in presets.ALL:
        return presets.ALL[name]()
    h, rho_max, d_pool, z_pool = LONG_RECIPE if name == "long recipe" else RECIPES[0][:4]
    return build_design(DesignRecipe(RobotGeometry(h, rho_max), d_pool, z_pool)).design


def single_miss_drives(design):
    """Every noise-free drive of ``design`` with one record but the first dropped."""
    events = rectify(enumerate_events(design)).events
    for p, start in enumerate(events):
        records = tuple(TraceRecord(e.t, start.rho - e.rho, e.rho) for e in events[p:])
        for drop in range(1, len(records)):
            yield ObservationTrace(records[:drop] + records[drop + 1 :], None, None)


class TestPinnedOutcomes:
    """The wrong counts are today's known defect: ``run_trace`` stops at the
    first unique survivor and checks none of the drive's later records, so a
    missed detection can leave one wrong event as that survivor.

    ROADMAP.md's item 1 (closed-loop verification) is to bring the sweep's
    faulty wrong count to 0 and the replay's wrong total to 3.  Every change
    that moves a pin names the move in CHANGES.md.
    """

    def test_sweep(self):
        outcomes = {kind: [] for kind in SWEEP}
        for design, kind, trace in drives(0):
            outcomes[kind].append(outcome(design, trace))
        assert {kind: counts(found) for kind, found in outcomes.items()} == SWEEP

    @pytest.mark.parametrize("name", REPLAY)
    def test_exhaustive_single_miss_replay(self, name):
        design = replay_design(name)
        assert counts(outcome(design, trace) for trace in single_miss_drives(design)) == REPLAY[name]
