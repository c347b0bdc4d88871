"""Bit-exactness guard for the event-table pipeline.

One SHA-256 digest over the ``repr`` of every table, gap, report, statistic
and profile of 232 designs: the four presets, every 20th sorted ordering of
the climb recipe's pools and all 12 orderings of the long recipe's.  A change
that moves any of these values in its last bit changes the digest.  The
pinned value was computed with the row-by-row table checks that the
column-wise ones replaced, and it is the same on Python 3.10 to 3.13.

Run as a script to print the digest of the current code; it exits non-zero
when the digest differs from the pinned one::

    PYTHONPATH=src python tests/test_exactness.py
"""

from __future__ import annotations

import hashlib
import itertools

from cablecal import (
    DesignRecipe,
    RobotGeometry,
    build_design,
    delta_stats,
    enumerate_events,
    presets,
    rectify,
    stroke_profile,
    validate_design,
)

EXPECTED_DIGEST = "5e8e465194c39d435bb42ddb176da99fdf52e0db95f21974629b4971d11b15b6"

# (h, rho_max, d_pool, z_pool, every how many sorted orderings to take)
RECIPES = (
    (18.0, 32.0, (0.5, 0.75, 1.0, 1.25, 1.5, 1.75), (2.0, 3.0, 2.5), 20),
    (18.0, 60.0, (0.5, 0.75, 1.25), (2.0, 3.0), 1),
)
TOLERANCES = (0.01, 0.05, 0.3)


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


def test_pipeline_output_is_bit_exact():
    assert digest() == (232, EXPECTED_DIGEST)


if __name__ == "__main__":
    found = digest()
    print(*found)
    raise SystemExit(0 if found == (232, EXPECTED_DIGEST) else "digest differs from the pinned one")
