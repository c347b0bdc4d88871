from __future__ import annotations

import random
from pathlib import Path

import pytest

from cablecal import CalibrationDesign, MarkLayout, RobotGeometry, SensorLayout, presets

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Recipe pools on a 5 cm grid for h = 6, rho_max = 11.
FIVE_CENTIMETRE_POOLS = [
    ((0.25, 0.3, 0.5, 0.75), (3.0,)),
    ((0.3, 0.35, 0.55, 0.9), (2.0, 1.5)),
    ((0.5, 0.55, 0.6, 1.0), (3.0,)),
]

# Meets C1-C7, yet a healthy drive can wind more than d_n - d_0 = 1.5 - 0.5 m
# without a detection: the marks reach the sensor at 11.0 m, then 9.5 m.
ONE_SENSOR = CalibrationDesign(
    RobotGeometry(h=6.0, rho_max=12.0),
    SensorLayout((5.5,)),
    MarkLayout((11.5, 10.0, 9.5, 8.0, 7.5, 6.0, 5.5, 4.0, 3.5, 2.0, 1.5)),
)


def raised_workshop(scale: float) -> CalibrationDesign:
    """The workshop layout with h and every sensor 1000 m higher, so the
    same lengths, every length then scaled by ``scale``.  Scaled by 1e200,
    h - height rounds at the ulps of about 1e203, some 70 ulps of the
    longest length."""
    design = presets.workshop()
    g = design.geometry
    return CalibrationDesign(
        RobotGeometry(h=(g.h + 1000) * scale, rho_max=g.rho_max * scale, v=g.v, b=g.b * scale),
        SensorLayout(tuple((height + 1000) * scale for height in design.sensors.heights)),
        MarkLayout(tuple(position * scale for position in design.marks.positions)),
    )


def random_conforming_design(rng: random.Random) -> CalibrationDesign:
    """Conforming by construction: the reserves pin down C1 and C3 exactly."""
    step = 0.05
    d0 = rng.choice([0.25, 0.3, 0.5])
    n_gaps = rng.randint(0, 18)  # up to 19 marks
    mark_gaps = [d0 + step * rng.randint(0, 30) for _ in range(n_gaps)]
    n_sensors = rng.randint(1, 6)
    z_gaps = [0.3 + step * rng.randint(0, 20) for _ in range(n_sensors - 1)]
    os1 = 0.5 + step * rng.randint(0, 20)
    heights = [os1]
    for z in z_gaps:
        heights.append(heights[-1] + z)
    h = heights[-1] + d0
    b = rng.choice([0.25, 0.5, 1.0])
    dn = h - os1 + b
    positions = [dn]
    for gap in mark_gaps:
        positions.append(positions[-1] + gap)
    positions.reverse()
    rho_max = positions[0] + d0
    return CalibrationDesign(
        RobotGeometry(h=h, rho_max=rho_max, v=1.0, b=b),
        SensorLayout(tuple(heights)),
        MarkLayout(tuple(positions)),
    )


@pytest.fixture
def medium():
    return presets.medium_cube()


@pytest.fixture
def large():
    return presets.large_cube()


@pytest.fixture
def xl():
    return presets.xl_cube()


@pytest.fixture
def workshop():
    return presets.workshop()


@pytest.fixture
def all_designs():
    return {name: build() for name, build in presets.ALL.items()}


@pytest.fixture
def config_dir():
    return CONFIG_DIR
