"""Bit-exactness guards for the event-table pipeline and for calibration.

The table digest is one SHA-256 over the ``repr`` of every table, gap,
report, statistic and profile of 232 designs: the four presets, every 20th
sorted ordering of the climb recipe's pools and all 12 orderings of the long
recipe's.  Its pinned value was computed with the row-by-row table checks
that the column-wise ones replaced.

The calibration digest is one SHA-256 over the ``repr`` of every
``run_trace`` result field of 3,132 replays.  One drive starts just above
each rectified event of the four presets and of the long recipe's design and
winds to b, seeded as the benchmark's calibrate workload seeds them; drives
with three or more detections are replayed again with one of their first
three detections dropped.  Each drive runs with and without its
``start_rho``/``stop_rho`` metadata at three tolerances.  Its pinned value
was computed with the ``ClosedLoopCorrector`` class that ``fit_encoder``
replaced.

The search digest is one SHA-256 over the trail CSV, the dumped design, the
score ``repr`` and the revisit count of 87 ``search`` runs: the climb recipe
at seeds 0-19 and budgets 0, 1, 40 and 500, the long recipe at budget 500,
and a small five-value recipe at three tolerances, budgets 60 and 240.  Its
pinned value was computed with a search that scored every ordering in full.

The profile digest is one SHA-256 over the ``repr`` of 12 ``stroke_profile``
results on long periodic tables, where starts share gap prefixes of up to
a few hundred gaps: the climb recipe's pools at ``rho_max`` 60, 100 and 300
and the long recipe's at 100, at three tolerances.  Its pinned value was
computed with a walk that called ``advance`` on every step and added each
stroke's gaps left to right; it is the hash of the unbounded profiles of
the digest that also pinned profiles under an incumbent limit.

The trace digest is one SHA-256 over ``format_trace_csv`` of the 522
traces the calibration digest replays, as the benchmark's calibrate
workload writes them to files.  Its pinned value was computed with a
``simulate`` that read the rectified table's rows, rectified on every
drive, and a formatter that wrote each field with its own expression.

A change that moves any of these values in its last bit changes a digest.
The first three read the same on CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0.
Run as a script to print the five digests of the current code; it exits
non-zero when any differs from its pinned value, and it needs no pytest::

    PYTHONPATH=src python tests/test_exactness.py
"""

from __future__ import annotations

import hashlib
import itertools
import random

from cablecal import (
    DesignRecipe,
    EncoderModel,
    ObservationTrace,
    RobotGeometry,
    build_design,
    delta_stats,
    enumerate_events,
    presets,
    rectify,
    run_trace,
    search,
    simulate,
    stroke_profile,
    validate_design,
)
from cablecal.config import dump_design
from cablecal.optimize import format_trail_csv
from cablecal.simulate import format_trace_csv

EXPECTED_DIGEST = "5e8e465194c39d435bb42ddb176da99fdf52e0db95f21974629b4971d11b15b6"
EXPECTED_CALIBRATION_DIGEST = "4b5594c6b6f4f2d9cd8368d4c0f5a63e07dd0dc923ed649eaf6f4c99fc27d67e"
EXPECTED_SEARCH_DIGEST = "8aaf516193c423a2c3e0ee6a733cac543153bf77d8e94efe1cb5c50290a60fc8"
EXPECTED_PROFILE_DIGEST = "fca812f6fc0cc8ee8b738c8b1b70fb12f09382e3684f1194d7bdbd7ad29972bb"
EXPECTED_TRACE_DIGEST = "0b009a551ceae76fb58f22f48e40abe5db68f0a3b68222123c74c1bfe0cc71fd"

# (h, rho_max, d_pool, z_pool) of the long recipe, as the benchmark builds it
LONG_RECIPE = (18.0, 60.0, (0.5, 0.75, 1.25), (2.0, 3.0))
# (h, rho_max, d_pool, z_pool, every how many sorted orderings to take)
RECIPES = (
    (18.0, 32.0, (0.5, 0.75, 1.0, 1.25, 1.5, 1.75), (2.0, 3.0, 2.5), 20),
    (*LONG_RECIPE, 1),
)
TOLERANCES = (0.01, 0.05, 0.3)
# (rho_max, d_pool, z_pool) of the long periodic tables on an 18 m support
PROFILE_TABLES = (
    *((rho_max, *RECIPES[0][2:4]) for rho_max in (60.0, 100.0, 300.0)),
    (100.0, *LONG_RECIPE[2:]),
)
# The search tests' small recipe: 240 orderings on a 6 m support.
FIVE_POOL_RECIPE = (6.0, 11.0, (0.5, 0.75, 1.0, 1.25, 1.5), (1.0, 2.0))


def designs():
    """The pinned designs, presets first, then each recipe's orderings."""
    for build in presets.ALL.values():
        yield build()
    for h, rho_max, d_pool, z_pool, every in RECIPES:
        orderings = sorted(
            itertools.product(set(itertools.permutations(d_pool)), set(itertools.permutations(z_pool)))
        )
        for d_order, z_order in orderings[::every]:
            yield build_design(DesignRecipe(RobotGeometry(h, rho_max), d_order, z_order)).design


def pinned_values(design):
    raw = enumerate_events(design)
    rect = rectify(raw)
    yield from (raw, rect, rect.gaps, validate_design(design), delta_stats(rect))
    for tolerance in TOLERANCES:
        profile = stroke_profile(rect, tolerance)
        yield from (profile, profile.worst_stroke, profile.mean_stroke)


def digest() -> tuple[int, str]:
    """(number of designs, hex digest of their pinned values)."""
    sha = hashlib.sha256()
    count = 0
    for count, design in enumerate(designs(), start=1):
        for value in pinned_values(design):
            sha.update(repr(value).encode())
            sha.update(b"\n")
    return count, sha.hexdigest()


def drives(seed: int = 0):
    """(design, kind, trace) for every rectified start, seeded like the benchmark.

    Per start: a start length drawn inside the gap above the event, an
    encoder scale from U[0.98, 1.02], an offset from U[-50, 50], jitter sd
    0.005, and a second trace with one of the first three detections
    dropped when the drive has three or more.  The kind is ``"clean"`` for
    the first trace and ``"faulty"`` for the second, as the benchmark
    names them.
    """
    rng = random.Random(seed)
    h, rho_max, d_pool, z_pool = LONG_RECIPE
    long_recipe = build_design(DesignRecipe(RobotGeometry(h, rho_max), d_pool, z_pool)).design
    for design in [build() for build in presets.ALL.values()] + [long_recipe]:
        events = rectify(enumerate_events(design)).events
        geometry = design.geometry
        for p, event in enumerate(events):
            above = events[p - 1].rho if p else geometry.rho_max
            start_rho = event.rho + rng.uniform(0.1, 0.9) * (above - event.rho)
            encoder = EncoderModel(
                scale=rng.uniform(0.98, 1.02),
                offset=rng.uniform(-50.0, 50.0),
                noise_sd=0.005,
                seed=rng.randrange(2**31),
            )
            trace = simulate(design, encoder, start_rho, geometry.b)
            yield design, "clean", trace
            if trace.count >= 3:
                drop = rng.randrange(3)
                records = trace.records[:drop] + trace.records[drop + 1 :]
                yield design, "faulty", ObservationTrace(records, trace.start_rho, trace.stop_rho)


def calibration_digest() -> tuple[int, str]:
    """(number of replays, hex digest of their results)."""
    sha = hashlib.sha256()
    count = 0
    for design, _, trace in drives():
        bare = ObservationTrace(trace.records, None, None)
        for replay in (trace, bare):
            for tolerance in TOLERANCES:
                r = run_trace(design, replay, tolerance)
                value = (
                    r.status,
                    r.rho,
                    r.stroke,
                    r.candidate_history,
                    r.corrector_scale,
                    r.corrector_offset,
                )
                sha.update(repr(value).encode())
                sha.update(b"\n")
                count += 1
    return count, sha.hexdigest()


def trace_digest() -> tuple[int, str]:
    """(number of traces, hex digest of their CSV text)."""
    sha = hashlib.sha256()
    count = 0
    for count, (_, _, trace) in enumerate(drives(), start=1):
        sha.update(format_trace_csv(trace).encode())
        sha.update(b"\n")
    return count, sha.hexdigest()


def searches():
    """(recipe, budget, seed, tolerance) of every pinned search."""
    climb, long_recipe = (DesignRecipe(RobotGeometry(h, rho_max), d, z) for h, rho_max, d, z, _ in RECIPES)
    for seed in range(20):
        for budget in (0, 1, 40, 500):
            yield climb, budget, seed, 0.05
    yield long_recipe, 500, 0, 0.05
    h, rho_max, d_pool, z_pool = FIVE_POOL_RECIPE
    small = DesignRecipe(RobotGeometry(h, rho_max, v=1.0, b=1.0), d_pool, z_pool)
    for tolerance in TOLERANCES:
        for budget in (60, 240):
            yield small, budget, 42, tolerance


def search_digest() -> tuple[int, str]:
    """(number of searches, hex digest of their results)."""
    sha = hashlib.sha256()
    count = 0
    for count, (recipe, budget, seed, tolerance) in enumerate(searches(), start=1):
        result = search(recipe, budget, seed, tolerance)
        values = format_trail_csv(result.trail), dump_design(result.design), repr(result.score), repr(result.revisits)
        for value in values:
            sha.update(value.encode())
            sha.update(b"\n")
    return count, sha.hexdigest()


def profiles():
    """Every pinned ``stroke_profile`` result."""
    for rho_max, d_pool, z_pool in PROFILE_TABLES:
        design = build_design(DesignRecipe(RobotGeometry(18.0, rho_max), d_pool, z_pool)).design
        table = rectify(enumerate_events(design))
        for tolerance in TOLERANCES:
            yield stroke_profile(table, tolerance)


def profile_digest() -> tuple[int, str]:
    """(number of profiles, hex digest of their reprs)."""
    sha = hashlib.sha256()
    count = 0
    for count, profile in enumerate(profiles(), start=1):
        sha.update(repr(profile).encode())
        sha.update(b"\n")
    return count, sha.hexdigest()


def test_pipeline_output_is_bit_exact():
    assert digest() == (232, EXPECTED_DIGEST)


def test_calibration_output_is_bit_exact():
    assert calibration_digest() == (3132, EXPECTED_CALIBRATION_DIGEST)


def test_trace_files_are_bit_exact():
    assert trace_digest() == (522, EXPECTED_TRACE_DIGEST)


def test_search_output_is_bit_exact():
    assert search_digest() == (87, EXPECTED_SEARCH_DIGEST)


def test_profile_output_is_bit_exact():
    assert profile_digest() == (12, EXPECTED_PROFILE_DIGEST)


if __name__ == "__main__":
    digests = digest(), calibration_digest(), search_digest(), profile_digest(), trace_digest()
    for pair in digests:
        print(*pair)
    pinned = digests == (
        (232, EXPECTED_DIGEST),
        (3132, EXPECTED_CALIBRATION_DIGEST),
        (87, EXPECTED_SEARCH_DIGEST),
        (12, EXPECTED_PROFILE_DIGEST),
        (522, EXPECTED_TRACE_DIGEST),
    )
    raise SystemExit(0 if pinned else "a digest differs from its pinned value")
