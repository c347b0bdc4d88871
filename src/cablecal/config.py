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

[geometry] must set h and rho_max, [layout] sensor_heights and
mark_positions, and [recipe] d_pool and z_pool; the other options are
optional.  Lists accept spaces and/or commas as separators.  A section or
option not shown here is an error, a misspelt one included.  The
[tolerances] section is optional; both values must be finite and positive.
``gap`` is the gap match tolerance: ``calibrate`` matches measured gaps
with it and ``optimize`` ranks layouts by the strokes that matching needs.
``geom`` is the geometric equality tolerance of ``validate`` and affects
nothing else.  Each section's options, their readers and the options it
must set are one table, ``_SECTIONS``: a new key is one entry there.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .designer import DesignRecipe, build_design
from .model import (
    DEFAULT_GAP_TOLERANCE,
    GEOM_TOL,
    CalibrationDesign,
    MarkLayout,
    RobotGeometry,
    SensorLayout,
    check_tolerance,
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


def _numbers(raw: str) -> tuple[float, ...]:
    tokens = raw.replace(",", " ").split()
    if not tokens:
        raise ValueError("expected at least one number")
    return tuple(map(float, tokens))


# Each known section: the reader of each option it may set, in the order
# they are read, and the options it must set.
_SECTIONS = {
    "geometry": ({"h": float, "rho_max": float, "v": float, "b": float}, ("h", "rho_max")),
    "layout": (
        {"sensor_heights": _numbers, "mark_positions": _numbers},
        ("sensor_heights", "mark_positions"),
    ),
    "recipe": (
        {"d_pool": _numbers, "z_pool": _numbers, "os1": float, "sensor_heights": _numbers},
        ("d_pool", "z_pool"),
    ),
    "tolerances": (
        {"geom": partial(check_tolerance, "geometric"), "gap": partial(check_tolerance, "gap")},
        (),
    ),
}


def _check_names(parser: configparser.ConfigParser, where: str) -> None:
    """Reject an unknown section, and an option its section does not know."""
    # Keys of the default section show up in every section, so they are
    # named where they were written.
    for option in parser.defaults():
        raise ConfigError(f"{where}: [{parser.default_section}] unknown option '{option}'")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{where}: unknown section [{section}]")
        readers = _SECTIONS[section][0]
        for option in parser.options(section):
            if option not in readers:
                raise ConfigError(
                    f"{where}: [{section}] unknown option '{option}'"
                    f" (expected {', '.join(readers)})"
                )


def _values(parser: configparser.ConfigParser, section: str, where: str) -> dict:
    """The values a section sets, by option; an absent section sets none."""
    readers, required = _SECTIONS[section]
    for option in required:
        if not parser.has_option(section, option):
            raise ConfigError(f"{where}: [{section}] needs '{option}'")
    values = {}
    for option, read in readers.items():
        if parser.has_option(section, option):
            try:
                values[option] = read(parser.get(section, option))
            except ValueError as exc:
                raise ConfigError(f"{where}: [{section}] {option}: {exc}") from None
    return values


def _syntax_error(exc: configparser.Error, text: str) -> str:
    """A configparser syntax error on one line, built from its attributes."""
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"line {exc.lineno}: option {exc.option!r} in section {exc.section!r} already exists"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: section {exc.section!r} already exists"
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: expected a section header, got {exc.line.strip()!r}"
    lineno = exc.errors[0][0]  # a ParsingError, whose copy of the line may be a repr
    line = text.split("\n")[lineno - 1]
    return f"line {lineno}: cannot parse {line.strip()!r}"


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
        text = path.read_text().removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {_syntax_error(exc, text)}") from None

    # Names are checked in every section before any value is read; values
    # are read [geometry] first, then [tolerances], then the design.
    where = str(path)
    _check_names(parser, where)
    if not parser.has_section("geometry"):
        raise ConfigError(f"{where}: missing [geometry] section")
    given = _values(parser, "geometry", where)
    try:
        geometry = RobotGeometry(**given)
    except ValueError as exc:
        raise ConfigError(f"{where}: [geometry] {exc}") from None

    tolerances = _values(parser, "tolerances", where)
    geom_tol = tolerances.get("geom", GEOM_TOL)
    gap_tol = tolerances.get("gap", DEFAULT_GAP_TOLERANCE)

    has_layout = parser.has_section("layout")
    if has_layout == parser.has_section("recipe"):
        raise ConfigError(f"{where}: exactly one of [layout] or [recipe] must be present")

    section = "layout" if has_layout else "recipe"
    given = _values(parser, section, where)
    recipe = None
    try:
        if has_layout:
            sensors = SensorLayout(given["sensor_heights"])
            design = CalibrationDesign(geometry, sensors, MarkLayout(given["mark_positions"]))
        else:
            recipe = DesignRecipe(geometry, **given)
            design = build_design(recipe).design if require_design else None
    except ValueError as exc:
        raise ConfigError(f"{where}: [{section}] {exc}") from None
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
