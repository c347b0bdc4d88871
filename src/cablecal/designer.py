"""Constructive placement of marks and sensors from gap-value pools.

The recipe fixes the geometry plus two ordered pools of candidate gaps; the
builder derives the reserves, walks the pools to place sensors up the
support and marks down the cable, and lands the last mark exactly on the
distal reserve so the final detection leaves the boost length free.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from .model import (
    GEOM_TOL,
    CalibrationDesign,
    ConditionReport,
    MarkLayout,
    RobotGeometry,
    SensorLayout,
    validate_design,
)


class InfeasibleRecipe(ValueError):
    """No gap combination from the pool can close the layout exactly."""


@dataclass(frozen=True)
class DesignRecipe:
    """Inputs for constructive placement.

    d_pool / z_pool are cycled in the given order for mark and sensor gaps.
    os1 overrides the default first-sensor height (one third of the
    support); sensor_heights bypasses placement entirely and is used
    verbatim after range checks.
    """

    geometry: RobotGeometry
    d_pool: tuple[float, ...]
    z_pool: tuple[float, ...]
    os1: float | None = None
    sensor_heights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.d_pool or not self.z_pool:
            raise ValueError("gap pools must be non-empty")
        pools = (*self.d_pool, *self.z_pool)
        # The usual recipe in C-level scans: positive pool values (a nan is
        # not), the largest of them finite, and no os1 or a finite one.
        if (
            all(map(operator.lt, repeat(0), pools))
            and max(pools) < math.inf
            and (self.os1 is None or math.isfinite(self.os1))
        ):
            return
        if not all(x is None or math.isfinite(x) for x in (*pools, self.os1)):
            raise ValueError(
                f"gap pools and os1 must be finite, got d_pool={self.d_pool} "
                f"z_pool={self.z_pool} os1={self.os1}"
            )
        if any(x <= 0 for x in pools):
            raise ValueError("gap pool values must be positive")


class BuildResult(NamedTuple):
    design: CalibrationDesign
    report: ConditionReport


def first_sensor_height(geometry: RobotGeometry) -> float:
    """Default height of the lowest sensor: one third of the support."""
    return geometry.h / 3.0


def distal_reserve(geometry: RobotGeometry, os1: float) -> float:
    """d_n = h - ||OS_1|| + b: the mark-free length next to the platform.

    Placing the last mark exactly here makes the final detection satisfy
    the boost condition by construction.
    """
    if not 0 < os1 < geometry.h:
        raise ValueError(f"first sensor height {os1} must lie inside (0, {geometry.h})")
    return geometry.h - os1 + geometry.b


def sensor_count(geometry: RobotGeometry, d0: float, os1: float, z_bar: float) -> int:
    """Sensors that fit between os1 and the top reserve at mean gap z_bar.

    The fractional value 1 + (h - d0 - os1) / z_bar is truncated toward
    zero: half a sensor cannot be mounted.
    """
    if z_bar <= 0:
        raise ValueError(f"mean sensor gap must be positive, got {z_bar}")
    if d0 < 0 or os1 >= geometry.h - d0:
        raise ValueError(f"need 0 <= d0 and os1 < h - d0 (d0={d0}, os1={os1})")
    return int(1 + (geometry.h - d0 - os1) / z_bar)


def place_sensors(
    geometry: RobotGeometry,
    os1: float,
    z_gaps: tuple[float, ...] | list[float],
    d0: float,
) -> SensorLayout:
    """Stack sensors upward from os1, cycling the gap sequence.

    Placement stops once the next gap would pass the top reserve; the
    topmost sensor is then moved up to sit exactly at h - d0.  When os1
    is the only sensor below the ceiling and does not reach it, a top
    sensor is added at h - d0 instead of moving os1.
    """
    if not z_gaps or any(z <= 0 for z in z_gaps):
        raise ValueError("sensor gaps must be positive and non-empty")
    ceiling = geometry.h - d0
    if os1 > ceiling + GEOM_TOL:
        raise ValueError(
            f"first sensor at {os1} overshoots the top reserve h-d0={ceiling}"
        )
    heights = [os1]
    idx = 0
    while True:
        nxt = heights[-1] + z_gaps[idx % len(z_gaps)]
        if nxt > ceiling + GEOM_TOL:
            break
        heights.append(nxt)
        idx += 1
    if abs(heights[-1] - ceiling) > GEOM_TOL and len(heights) == 1:
        heights.append(ceiling)
    else:
        heights[-1] = ceiling
    return SensorLayout(tuple(heights))


def mark_cycle(d_pool: tuple[float, ...] | list[float]) -> tuple[float, ...]:
    """The mark gaps in the order :func:`place_marks` cycles them.

    The cycle starts just after the first occurrence of the pool minimum,
    which the proximal reserve d0 consumes.  The marks depend on the pool
    only through this cycle, so every rotation of an ordering gives one
    cycle and builds one layout.
    """
    pool = tuple(d_pool)
    start = pool.index(min(pool)) + 1
    return pool[start:] + pool[:start]


def place_marks(
    geometry: RobotGeometry,
    d0: float,
    dn: float,
    d_pool: tuple[float, ...] | list[float],
) -> MarkLayout:
    """Walk mark gaps down the cable from rho_max - d0 to exactly dn.

    The pool is cycled in its given order starting just after the first
    occurrence of its minimum (see :func:`mark_cycle`).  The walk stops as
    soon as the next gap would leave at most one pool-maximum of slack; the
    remainder is then closed by one to three pool gaps, chosen greedily
    largest-first, preferring values distinct from their neighbours so the
    gap variability survives the tail.  Raises :class:`InfeasibleRecipe`
    when no closing combination lands on dn exactly.
    """
    if not d_pool or any(d <= 0 for d in d_pool):
        raise ValueError("mark gaps must be positive and non-empty")
    top = geometry.rho_max - d0
    span = top - dn
    if span < -GEOM_TOL:
        raise ValueError(f"reserves d0={d0}, dn={dn} exceed rho_max={geometry.rho_max}")
    if span <= GEOM_TOL:
        return MarkLayout((dn,))

    pool = tuple(d_pool)
    order = mark_cycle(pool)
    pool_max = max(pool)

    positions = [top]
    remaining = span
    idx = 0
    last_gap: float | None = None
    while True:
        gap = order[idx % len(order)]
        if remaining - gap <= pool_max + GEOM_TOL:
            break
        positions.append(positions[-1] - gap)
        remaining -= gap
        last_gap = gap
        idx += 1

    tail = _closing_gaps(remaining, pool, last_gap)
    if tail is None:
        raise InfeasibleRecipe(
            f"no combination of up to three pool gaps {pool} closes the "
            f"remaining {remaining:.6g} m onto dn={dn}"
        )
    for gap in tail:
        positions.append(positions[-1] - gap)
    positions[-1] = dn  # exact landing; the walk guarantees |error| <= tol
    return MarkLayout(tuple(positions))


def _closing_gaps(
    target: float, pool: tuple[float, ...], prev: float | None
) -> tuple[float, ...] | None:
    """Up to three pool gaps summing exactly to target.

    Two passes: first requiring neighbouring gaps to differ (including from
    the last walked gap), then without that preference.  Within a pass the
    search is depth-first trying larger values first, so the result is
    deterministic.
    """
    values = sorted(set(pool), reverse=True)

    def search(residual: float, previous: float | None, depth: int, distinct: bool):
        if abs(residual) <= GEOM_TOL:
            return ()
        if depth == 3 or residual < -GEOM_TOL:
            return None
        for v in values:
            if v > residual + GEOM_TOL:
                continue
            if distinct and previous is not None and math.isclose(v, previous, abs_tol=GEOM_TOL):
                continue
            rest = search(residual - v, v, depth + 1, distinct)
            if rest is not None:
                return (v,) + rest
        return None

    return search(target, prev, 0, True) or search(target, prev, 0, False)


def build_design(recipe: DesignRecipe) -> BuildResult:
    """Compose the full placement and validate the result.

    d0 is the smallest pool gap; os1 defaults to a third of the support;
    the distal reserve follows from the boost condition.  Deterministic:
    the same recipe always yields a bit-identical design.
    """
    g = recipe.geometry
    d0 = min(recipe.d_pool)
    os1 = recipe.os1 if recipe.os1 is not None else first_sensor_height(g)
    dn = distal_reserve(g, os1)

    if recipe.sensor_heights is not None:
        sensors = SensorLayout(tuple(recipe.sensor_heights))
        if sensors.heights[-1] >= g.h:
            raise ValueError("override sensors must sit below the support top")
    else:
        sensors = place_sensors(g, os1, recipe.z_pool, d0)

    marks = place_marks(g, d0, dn, recipe.d_pool)
    design = CalibrationDesign(g, sensors, marks)
    return BuildResult(design, validate_design(design))
