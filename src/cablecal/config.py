"""Design config files: a single human-editable INI document.

Two variants, exactly one of which must be present:

    [geometry]              [geometry]
    h = 6.0                 h = 12.0
    rho_max = 11.0          rho_max = 21.0
    v = 1.0                 v = 1.0
    b = 1.0                 b = 1.0

    [layout]                [recipe]
    sensor_heights = 2 5    d_pool = 0.5 0.75 1.0 1.25 1.5
    mark_positions = 10 9 8 7 6 5
                            z_pool = 3.75
                            os1 = 4.0              ; optional
                            sensor_heights = ...   ; optional override
    [tolerances]            [tolerances]
    geom = 1e-9             geom = 1e-9
    gap = 0.05              gap = 0.05

Lists accept spaces and/or commas as separators.  A section or option not
shown here is an error, a misspelt one included.  The [tolerances] section
is optional; both values must be finite and positive.  ``gap`` is the gap
match tolerance: ``calibrate`` matches measured gaps with it and
``optimize`` ranks layouts by the strokes that matching needs.  ``geom`` is
the geometric equality tolerance of ``validate`` and affects nothing else.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .designer import DesignRecipe, build_design
from .model import (
    DEFAULT_GAP_TOLERANCE,
    GEOM_TOL,
    CalibrationDesign,
    MarkLayout,
    RobotGeometry,
    SensorLayout,
)


class ConfigError(ValueError):
    """Malformed design config; the message carries file/section/field context."""


@dataclass(frozen=True)
class LoadedConfig:
    """A parsed config resolved to a concrete design.

    ``design`` is None when a recipe is loaded with ``require_design=False``:
    the recipe is then not built, because the optimiser builds and checks
    every ordering it evaluates, the given one first, and other orderings
    may conform where the given one does not.
    """

    design: CalibrationDesign | None
    recipe: DesignRecipe | None
    geom_tol: float
    gap_tol: float


# The options each known section may set.
_OPTIONS = {
    "geometry": ("h", "rho_max", "v", "b"),
    "layout": ("sensor_heights", "mark_positions"),
    "recipe": ("d_pool", "z_pool", "os1", "sensor_heights"),
    "tolerances": ("geom", "gap"),
}


def _check_names(parser: configparser.ConfigParser, where: str) -> None:
    """Reject an unknown section, and an option its section does not know."""
    # Keys of the default section show up in every section, so they are
    # named where they were written.
    for option in parser.defaults():
        raise ConfigError(f"{where}: [{parser.default_section}] unknown option '{option}'")
    for section in parser.sections():
        if section not in _OPTIONS:
            raise ConfigError(f"{where}: unknown section [{section}]")
        for option in parser.options(section):
            if option not in _OPTIONS[section]:
                raise ConfigError(
                    f"{where}: [{section}] unknown option '{option}'"
                    f" (expected {', '.join(_OPTIONS[section])})"
                )


def _floats(raw: str, where: str) -> tuple[float, ...]:
    tokens = raw.replace(",", " ").split()
    if not tokens:
        raise ConfigError(f"{where}: expected at least one number")
    try:
        return tuple(float(tok) for tok in tokens)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _float(parser: configparser.ConfigParser, section: str, option: str, where: str) -> float:
    try:
        return parser.getfloat(section, option)
    except ValueError as exc:
        raise ConfigError(f"{where}: [{section}] {option}: {exc}") from None


def load_config(path: str | Path, require_design: bool = True) -> LoadedConfig:
    """Parse a design config file and build its design.

    Raises :class:`ConfigError` with a field-level message on any problem,
    including a file that cannot be read or decoded, unknown sections and
    options, structurally invalid layouts and infeasible recipes.  One
    leading byte-order mark is ignored.  With ``require_design=False`` a
    recipe is checked but not built.
    """
    path = Path(path)
    # Values are plain text: a % is kept as it is, and a number that holds
    # one fails to parse as any other malformed number does.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    try:
        parser.read_string(text.removeprefix("\ufeff"), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    where = str(path)
    _check_names(parser, where)
    if not parser.has_section("geometry"):
        raise ConfigError(f"{where}: missing [geometry] section")
    for option in ("h", "rho_max"):
        if not parser.has_option("geometry", option):
            raise ConfigError(f"{where}: [geometry] needs '{option}'")
    given = {
        option: _float(parser, "geometry", option, where)
        for option in _OPTIONS["geometry"]
        if parser.has_option("geometry", option)
    }
    try:
        geometry = RobotGeometry(**given)
    except ValueError as exc:
        raise ConfigError(f"{where}: [geometry] {exc}") from None

    geom_tol = GEOM_TOL
    gap_tol = DEFAULT_GAP_TOLERANCE
    if parser.has_section("tolerances"):
        if parser.has_option("tolerances", "geom"):
            geom_tol = _float(parser, "tolerances", "geom", where)
        if parser.has_option("tolerances", "gap"):
            gap_tol = _float(parser, "tolerances", "gap", where)
    if not all(math.isfinite(tol) and tol > 0 for tol in (geom_tol, gap_tol)):
        raise ConfigError(f"{where}: [tolerances] values must be finite and positive")

    has_layout = parser.has_section("layout")
    has_recipe = parser.has_section("recipe")
    if has_layout == has_recipe:
        raise ConfigError(
            f"{where}: exactly one of [layout] or [recipe] must be present"
        )

    if has_layout:
        for option in ("sensor_heights", "mark_positions"):
            if not parser.has_option("layout", option):
                raise ConfigError(f"{where}: [layout] needs '{option}'")
        sensors = _floats(parser.get("layout", "sensor_heights"), f"{where}: [layout] sensor_heights")
        marks = _floats(parser.get("layout", "mark_positions"), f"{where}: [layout] mark_positions")
        try:
            design = CalibrationDesign(geometry, SensorLayout(sensors), MarkLayout(marks))
        except ValueError as exc:
            raise ConfigError(f"{where}: [layout] {exc}") from None
        return LoadedConfig(design, None, geom_tol, gap_tol)

    for option in ("d_pool", "z_pool"):
        if not parser.has_option("recipe", option):
            raise ConfigError(f"{where}: [recipe] needs '{option}'")
    try:
        recipe = DesignRecipe(
            geometry=geometry,
            d_pool=_floats(parser.get("recipe", "d_pool"), f"{where}: [recipe] d_pool"),
            z_pool=_floats(parser.get("recipe", "z_pool"), f"{where}: [recipe] z_pool"),
            os1=_float(parser, "recipe", "os1", where) if parser.has_option("recipe", "os1") else None,
            sensor_heights=(
                _floats(parser.get("recipe", "sensor_heights"), f"{where}: [recipe] sensor_heights")
                if parser.has_option("recipe", "sensor_heights")
                else None
            ),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: [recipe] {exc}") from None
    if not require_design:
        return LoadedConfig(None, recipe, geom_tol, gap_tol)
    try:
        design, _ = build_design(recipe)
    except ValueError as exc:
        raise ConfigError(f"{where}: [recipe] {exc}") from None
    return LoadedConfig(design, recipe, geom_tol, gap_tol)


def dump_design(
    design: CalibrationDesign,
    geom_tol: float = GEOM_TOL,
    gap_tol: float = DEFAULT_GAP_TOLERANCE,
) -> str:
    """Render a design as an explicit-layout config document."""
    g = design.geometry
    sensors = " ".join(repr(x) for x in design.sensors.heights)
    marks = " ".join(repr(x) for x in design.marks.positions)
    return (
        "[geometry]\n"
        f"h = {g.h!r}\n"
        f"rho_max = {g.rho_max!r}\n"
        f"v = {g.v!r}\n"
        f"b = {g.b!r}\n"
        "\n"
        "[layout]\n"
        f"sensor_heights = {sensors}\n"
        f"mark_positions = {marks}\n"
        "\n"
        "[tolerances]\n"
        f"geom = {geom_tol!r}\n"
        f"gap = {gap_tol!r}\n"
    )
