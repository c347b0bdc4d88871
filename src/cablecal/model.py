"""Geometric domain model for instrumented-cable autocalibration designs.

The cable runs from the winch centre O, over the support top A, down to the
platform attachment B.  Metallic marks are fixed on the cable at known
distances from B; inductive sensors sit on the support at known heights above
O.  Every sensor/mark meeting pins the free cable length exactly, which is
what the rest of the toolkit exploits.

All lengths are metres, speeds metres per second.  Indices are 1-based to
match the usual engineering drawings: mark 1 is the one farthest from B,
sensor 1 the lowest on the support.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

# Equality tolerance for geometric checks.  Desk-scale layouts are specified
# as exact quarter-metre rationals, so this only needs to absorb binary
# floating-point noise.
GEOM_TOL = 1e-9

# How far apart two length gaps may be and still match.  Calibration matches
# measured gaps against the design with it, and the optimiser ranks layouts
# by the strokes that matching needs, so both must use the same value.
DEFAULT_GAP_TOLERANCE = 0.05

MAX_PAIRS = 1_000_000  # most mark/sensor pairs, one event row each, a design may have


def check_gap_tolerance(tolerance: float) -> None:
    """Reject a gap tolerance no gap can be matched with: zero, negative or
    non-finite."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"gap tolerance must be finite and positive, got {tolerance}")

_CONDITION_NAMES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")
_passed = operator.attrgetter("passed")  # a condition's verdict


@dataclass(frozen=True)
class RobotGeometry:
    """Winch and support geometry of a single cable run.

    h         support height ||OA||
    rho_max   maximum free cable length ||AB||
    v         constant winding speed used during calibration
    b         boost reserve that keeps the platform off the support at the
              final detection
    """

    h: float
    rho_max: float
    v: float = 1.0
    b: float = 1.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.h, self.rho_max, self.v, self.b))):
            raise ValueError(
                f"lengths and speed must be finite, got h={self.h} rho_max={self.rho_max} "
                f"v={self.v} b={self.b}"
            )
        if self.h <= 0:
            raise ValueError(f"support height must be positive, got {self.h}")
        if self.rho_max <= 0:
            raise ValueError(f"rho_max must be positive, got {self.rho_max}")
        if self.v <= 0:
            raise ValueError(f"winding speed must be positive, got {self.v}")
        # Every detection time, and every time a drive records, is at most this.
        if not math.isfinite((self.rho_max + GEOM_TOL) / self.v):
            raise ValueError(
                f"winding speed must let a drive of rho_max end in finite time, got {self.v}"
            )
        if self.b < 0:
            raise ValueError(f"boost must be non-negative, got {self.b}")

    @property
    def l_max(self) -> float:
        """Total cable length to provision: support height plus max free length."""
        return self.h + self.rho_max


def _check_lengths(values, element: str, noun: str, ordered, order: str) -> None:
    """Raise the first rule ``values`` break: non-empty, finite, positive, pairwise ``ordered``."""
    if not values:
        raise ValueError(f"a layout needs at least one {element}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{element} {noun} must be finite: {values}")
    if not all(map(operator.lt, repeat(0), values)):
        raise ValueError(f"{element} {noun} must be positive: {values}")
    if not all(map(ordered, values, values[1:])):
        first, then = next(pair for pair in zip(values, values[1:]) if not ordered(*pair))
        raise ValueError(f"{element} {noun} must strictly {order}, got {first} before {then}")


@dataclass(frozen=True)
class SensorLayout:
    """Sensor heights ||OS_j|| above the winch centre, strictly ascending."""

    heights: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_lengths(self.heights, "sensor", "heights", operator.lt, "ascend")

    @property
    def count(self) -> int:
        return len(self.heights)

    @property
    def gaps(self) -> tuple[float, ...]:
        """Distances z_j between successive sensors (empty for one sensor)."""
        heights = self.heights
        return tuple(map(operator.sub, heights[1:], heights))

    def height(self, j: int) -> float:
        """||OS_j|| for 1-based sensor index j."""
        if not 1 <= j <= len(self.heights):
            raise IndexError(f"sensor index {j} out of range 1..{len(self.heights)}")
        return self.heights[j - 1]


@dataclass(frozen=True)
class MarkLayout:
    """Mark distances ||BM_i|| from the platform end, strictly descending.

    Mark 1 is farthest from B (nearest the support at full extension); the
    last mark defines the distal reserve d_n = ||BM_n||.
    """

    positions: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_lengths(self.positions, "mark", "positions", operator.gt, "descend")

    @property
    def count(self) -> int:
        return len(self.positions)

    @property
    def gaps(self) -> tuple[float, ...]:
        """Distances d_i between successive marks (empty for one mark)."""
        positions = self.positions
        return tuple(map(operator.sub, positions, positions[1:]))

    @property
    def distal_reserve(self) -> float:
        """d_n: distance from B to the last mark."""
        return self.positions[-1]

    def position(self, i: int) -> float:
        """||BM_i|| for 1-based mark index i."""
        if not 1 <= i <= len(self.positions):
            raise IndexError(f"mark index {i} out of range 1..{len(self.positions)}")
        return self.positions[i - 1]


@dataclass(frozen=True)
class CalibrationDesign:
    """A complete geometry + sensor + mark configuration.

    Construction only enforces structural sanity (ordered layouts, sensors on
    the support).  Conformance to the placement conditions C1..C7 is a
    report, not a constructor error: non-conforming designs are legitimate
    objects of study and some are shipped as fixtures.
    """

    geometry: RobotGeometry
    sensors: SensorLayout
    marks: MarkLayout

    def __post_init__(self) -> None:
        top = self.sensors.heights[-1]
        if top >= self.geometry.h:
            raise ValueError(
                f"top sensor at {top} must sit below the support top h={self.geometry.h}"
            )
        marks, sensors = self.marks.count, self.sensors.count
        if marks * sensors > MAX_PAIRS:
            raise ValueError(f"{marks} marks and {sensors} sensors make over {MAX_PAIRS} pairs")

    @property
    def proximal_reserve(self) -> float:
        """d_0: distance from A to the first mark at full extension."""
        return self.geometry.rho_max - self.marks.positions[0]

    def rho_at(self, i: int, j: int) -> float:
        """Free cable length ||AB|| when mark i sits at sensor j.

        May be negative for non-conforming designs; callers filter to the
        physical winding window.
        """
        return self.marks.position(i) - (self.geometry.h - self.sensors.height(j))


class Condition(NamedTuple):
    """Outcome of one placement condition check: a row record, like
    :class:`~cablecal.events.Event`, that compares equal to the plain tuple
    ``(name, passed, detail)``."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ConditionReport:
    """Pass/fail verdicts for the seven placement conditions C1..C7."""

    conditions: tuple[Condition, ...]

    def __post_init__(self) -> None:
        names = tuple(c.name for c in self.conditions)
        if names != _CONDITION_NAMES:
            raise ValueError(f"report must contain exactly C1..C7, got {names}")

    def __getitem__(self, name: str) -> Condition:
        for cond in self.conditions:
            if cond.name == name:
                return cond
        raise KeyError(name)

    def __iter__(self):
        return iter(self.conditions)

    def passed(self, *names: str) -> bool:
        return all(self[n].passed for n in names)

    @property
    def hard_pass(self) -> bool:
        """True when the mandatory conditions C1..C5 all hold."""
        return all(map(_passed, self.conditions[:5]))  # C1..C5, in that order

    @property
    def soft_failures(self) -> tuple[str, ...]:
        """Variability conditions (C6/C7) that failed; a warning, not an error."""
        return tuple(n for n in ("C6", "C7") if not self[n].passed)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.conditions)


def validate_design(design: CalibrationDesign, tol: float = GEOM_TOL) -> ConditionReport:
    """Check the seven placement conditions and report each verdict.

    C1  d_0 is the smallest gap of the whole mark layout and the top sensor
        sits exactly d_0 below the support top.
    C2  no two successive marks coincide.
    C3  the distal reserve satisfies h - ||OS_1|| - d_n + b = 0, so the last
        detection leaves exactly the boost length free.
    C4  no two successive sensors coincide.
    C5  after resolving simultaneous detections, every instant maps to one
        event with a strictly positive length gap (checked by enumerating the
        design's event table).
    C6  successive mark gaps differ (gap variability on the cable).
    C7  successive sensor gaps differ (gap variability on the support).

    Pure: identical input yields an identical report.  A ``tol`` that is
    not finite and positive is a ValueError, as for the gap tolerance.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"geometric tolerance must be finite and positive, got {tol}")
    g = design.geometry
    d_gaps = design.marks.gaps
    z_gaps = design.sensors.gaps
    d0 = design.proximal_reserve
    dn = design.marks.distal_reserve
    top_sensor = design.sensors.heights[-1]

    checks: list[Condition] = []

    # C1: d_0 = min of {d_0} U {d_i}, and ||OS_n|| = h - d_0.
    problems = []
    if d0 <= 0:
        problems.append(f"d0={d0:.6g} is not positive")
    elif d0 <= tol:
        problems.append(f"d0={d0:.6g} is within tolerance {tol:.6g} of zero")
    if d_gaps and min(d_gaps) < d0 - tol:
        problems.append(f"d0={d0:.6g} exceeds smallest mark gap {min(d_gaps):.6g}")
    if abs(top_sensor - (g.h - d0)) > tol:
        problems.append(
            f"top sensor at {top_sensor:.6g}, expected h-d0={g.h - d0:.6g}"
        )
    checks.append(
        Condition("C1", not problems, "; ".join(problems) or f"d0={d0:.6g}")
    )

    checks.append(_no_coincidence("C2", "mark", d_gaps, tol))

    # C3: h - ||OS_1|| - d_n + b = 0.
    residual = g.h - design.sensors.heights[0] - dn + g.b
    checks.append(
        Condition(
            "C3",
            abs(residual) <= tol,
            f"h-OS1-dn+b = {residual:.6g}" + ("" if abs(residual) <= tol else " (should be 0)"),
        )
    )

    checks.append(_no_coincidence("C4", "sensor", z_gaps, tol))

    # C5: one event per instant once simultaneities are resolved.
    raw = _events.enumerate_events(design)
    rect = _events.rectify(raw)
    # Each gap rhos[q] - rhos[q + 1] is read once, so the table's cached
    # tuple of them is never built.
    rhos = rect.rho_values
    residual_ties = sum(1 for a, b in zip(rhos, rhos[1:]) if a - b <= tol)
    merged = raw.count - rect.count
    checks.append(
        Condition(
            "C5",
            residual_ties == 0,
            f"{merged} simultaneous detections resolved, {rect.count} exploitable events"
            + (f"; {residual_ties} unresolved ties" if residual_ties else ""),
        )
    )

    checks.append(_gap_variation("C6", "mark", d_gaps, tol))
    checks.append(_gap_variation("C7", "sensor", z_gaps, tol))

    return ConditionReport(tuple(checks))


def _listed(indices: list[int]) -> str:
    """``indices`` as a list, cut to its first 10 and the total count when longer."""
    if len(indices) <= 10:
        return str(indices)
    return f"{str(indices[:10])[:-1]}, ...] ({len(indices)} in all)"


def _no_coincidence(name: str, element: str, gaps: tuple[float, ...], tol: float) -> Condition:
    """C2/C4: no two successive elements coincide, i.e. every gap exceeds tol."""
    bad = [idx + 1 for idx, gap in enumerate(gaps) if gap <= tol]
    detail = (
        f"zero {element} gaps after {element}s {_listed(bad)}" if bad else f"{len(gaps)} {element} gaps"
    )
    return Condition(name, not bad, detail)


def _gap_variation(name: str, element: str, gaps: tuple[float, ...], tol: float) -> Condition:
    """C6/C7: the distance between successive elements varies, i.e. no two
    successive gaps are equal within tol."""
    bad = [idx + 1 for idx, (a, b) in enumerate(zip(gaps, gaps[1:])) if abs(b - a) <= tol]
    detail = f"equal successive {element} gaps at {_listed(bad)}" if bad else f"{element} gaps vary"
    return Condition(name, not bad, detail)


# events builds on this module, so it is bound last, once every name it
# imports from here exists; validate_design reads it only when called.
from . import events as _events  # noqa: E402
