from __future__ import annotations

from pathlib import Path

import pytest

from cablecal import presets

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Recipe pools on a 5 cm grid for h = 6, rho_max = 11.
FIVE_CENTIMETRE_POOLS = [
    ((0.25, 0.3, 0.5, 0.75), (3.0,)),
    ((0.3, 0.35, 0.55, 0.9), (2.0, 1.5)),
    ((0.5, 0.55, 0.6, 1.0), (3.0,)),
]


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
