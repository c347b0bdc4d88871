from __future__ import annotations

import io
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cablecal import Status, cli, config, presets, validate_design
from cablecal.cli import EXIT_FOR_STATUS, main
from cablecal.config import ConfigError, dump_design, load_config
from cablecal.events import parse_event_csv, enumerate_events, rectify
from cablecal.simulate import parse_trace_csv
from conftest import ONE_SENSOR

RECIPE_CONFIG = """\
[geometry]
h = 6.0
rho_max = 11.0
v = 1.0
b = 1.0

[recipe]
d_pool = 0.5 0.75 1.0 1.25 1.5
z_pool = 3.0
"""

# Mark gaps 5 cm apart: at gap = 0.05 they match, at 0.01 they do not.
FIVE_CENTIMETRE_RECIPE = """\
[geometry]
h = 6.0
rho_max = 11.0

[recipe]
d_pool = 0.25 0.3 0.5 0.75
z_pool = 3.0

[tolerances]
gap = {gap}
"""

MEDIUM_LAYOUT = (
    "[geometry]\nh = 6\nrho_max = 11\n"
    "[layout]\nsensor_heights = 2 5\nmark_positions = 10 9 8 7 6 5\n"
)


# What `validate` prints for each shipped config at its own geometric
# tolerance and at 0.6 m, where C2, C4, C6 and C7 fail with index lists.
VALIDATE_LINES = {
    ("medium-cube", "1e-9"): (
        0,
        "C1  PASS  d0=1",
        "C2  PASS  5 mark gaps",
        "C3  PASS  h-OS1-dn+b = 0",
        "C4  PASS  1 sensor gaps",
        "C5  PASS  3 simultaneous detections resolved, 9 exploitable events",
        "C6  WARN  equal successive mark gaps at [1, 2, 3, 4]",
        "C7  PASS  sensor gaps vary",
        "result: PASS with warnings (C6)",
    ),
    ("medium-cube", "0.6"): (
        0,
        "C1  PASS  d0=1",
        "C2  PASS  5 mark gaps",
        "C3  PASS  h-OS1-dn+b = 0",
        "C4  PASS  1 sensor gaps",
        "C5  PASS  3 simultaneous detections resolved, 9 exploitable events",
        "C6  WARN  equal successive mark gaps at [1, 2, 3, 4]",
        "C7  PASS  sensor gaps vary",
        "result: PASS with warnings (C6)",
    ),
    ("large-cube", "1e-9"): (
        0,
        "C1  PASS  d0=0.5",
        "C2  PASS  12 mark gaps",
        "C3  PASS  h-OS1-dn+b = 0",
        "C4  PASS  2 sensor gaps",
        "C5  PASS  6 simultaneous detections resolved, 33 exploitable events",
        "C6  PASS  mark gaps vary",
        "C7  WARN  equal successive sensor gaps at [1]",
        "result: PASS with warnings (C7)",
    ),
    ("large-cube", "0.6"): (
        2,
        "C1  FAIL  d0=0.5 is within tolerance 0.6 of zero",
        "C2  FAIL  zero mark gaps after marks [5, 11]",
        "C3  PASS  h-OS1-dn+b = 0",
        "C4  PASS  2 sensor gaps",
        "C5  FAIL  6 simultaneous detections resolved, 33 exploitable events; 17 unresolved ties",
        "C6  WARN  equal successive mark gaps at [1, 2, 3, 5, 6, 7, 8, 10, 11]",
        "C7  WARN  equal successive sensor gaps at [1]",
        "result: FAIL (mandatory condition violated)",
    ),
    ("xl-cube", "1e-9"): (
        0,
        "C1  PASS  d0=0.25",
        "C2  PASS  13 mark gaps",
        "C3  PASS  h-OS1-dn+b = 0",
        "C4  PASS  4 sensor gaps",
        "C5  PASS  17 simultaneous detections resolved, 53 exploitable events",
        "C6  PASS  mark gaps vary",
        "C7  PASS  sensor gaps vary",
        "result: PASS",
    ),
    ("xl-cube", "0.6"): (
        2,
        "C1  FAIL  d0=0.25 is within tolerance 0.6 of zero",
        "C2  FAIL  zero mark gaps after marks [1, 10]",
        "C3  PASS  h-OS1-dn+b = 0",
        "C4  PASS  4 sensor gaps",
        "C5  FAIL  17 simultaneous detections resolved, 53 exploitable events; 35 unresolved ties",
        "C6  WARN  equal successive mark gaps at [1, 2, 3, 4, 5, 6, 7, 8, 11]",
        "C7  WARN  equal successive sensor gaps at [3]",
        "result: FAIL (mandatory condition violated)",
    ),
    ("workshop", "1e-9"): (
        0,
        "C1  PASS  d0=0.25",
        "C2  PASS  10 mark gaps",
        "C3  PASS  h-OS1-dn+b = 0",
        "C4  PASS  2 sensor gaps",
        "C5  PASS  7 simultaneous detections resolved, 26 exploitable events",
        "C6  PASS  mark gaps vary",
        "C7  PASS  sensor gaps vary",
        "result: PASS",
    ),
    ("workshop", "0.6"): (
        2,
        "C1  FAIL  d0=0.25 is within tolerance 0.6 of zero",
        "C2  FAIL  zero mark gaps after marks [1, 7, 8]",
        "C3  PASS  h-OS1-dn+b = 0",
        "C4  FAIL  zero sensor gaps after sensors [1]",
        "C5  FAIL  7 simultaneous detections resolved, 26 exploitable events; 21 unresolved ties",
        "C6  WARN  equal successive mark gaps at [1, 2, 3, 4, 5, 7, 8]",
        "C7  PASS  sensor gaps vary",
        "result: FAIL (mandatory condition violated)",
    ),
}


class TestConfig:
    def test_shipped_configs_match_presets(self, config_dir):
        for name, build in presets.ALL.items():
            loaded = load_config(config_dir / f"{name}.ini")
            assert loaded.design == build()
            assert loaded.geom_tol == 1e-9
            assert loaded.gap_tol == 0.05

    def test_recipe_config(self, tmp_path):
        path = tmp_path / "recipe.ini"
        path.write_text(RECIPE_CONFIG)
        loaded = load_config(path)
        assert loaded.recipe is not None
        # d0 = 0.5, so the top sensor snaps to the h - d0 = 5.5 ceiling.
        assert loaded.design.sensors.heights == (2.0, 5.5)

    def test_recipe_is_built_only_when_required(self, tmp_path, monkeypatch):
        # optimize loads without requiring the design: its search builds the
        # given ordering as its first evaluation, so a build here is waste.
        path = tmp_path / "recipe.ini"
        path.write_text(RECIPE_CONFIG)
        built = []
        build = config.build_design
        monkeypatch.setattr(config, "build_design", lambda recipe: built.append(recipe) or build(recipe))
        loaded = load_config(path, require_design=False)
        assert loaded.design is None and loaded.recipe is not None and built == []
        assert load_config(path).design.sensors.heights == (2.0, 5.5)
        assert built == [loaded.recipe]

    def test_comma_separated_lists(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[geometry]\nh = 6\nrho_max = 11\n"
            "[layout]\nsensor_heights = 2.0, 5.0\nmark_positions = 10, 9, 8, 7, 6, 5\n"
        )
        assert load_config(path).design == presets.medium_cube()

    def test_defaults_for_v_and_b(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[geometry]\nh = 6\nrho_max = 11\n"
            "[layout]\nsensor_heights = 2 5\nmark_positions = 10 9 8 7 6 5\n"
        )
        g = load_config(path).design.geometry
        assert g.v == 1.0 and g.b == 1.0

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("", "missing [geometry]"),
            ("[geometry]\nh = 6\n", "rho_max"),
            ("[geometry]\nh = 6\nrho_max = 11\n", "exactly one"),
            (
                "[geometry]\nh = 6\nrho_max = 11\n[layout]\nsensor_heights = 2 5\n"
                "mark_positions = 10 9\n[recipe]\nd_pool = 1\nz_pool = 1\n",
                "exactly one",
            ),
            (
                "[geometry]\nh = 6\nrho_max = 11\n[layout]\nsensor_heights = 2 x\n"
                "mark_positions = 10 9\n",
                "sensor_heights",
            ),
            (
                "[geometry]\nh = -6\nrho_max = 11\n[layout]\nsensor_heights = 2 5\n"
                "mark_positions = 10 9\n",
                "geometry",
            ),
            (MEDIUM_LAYOUT + "[tolerances]\ngap = nan\n", "finite and positive"),
            (MEDIUM_LAYOUT + "[tolerances]\ngap = inf\n", "finite and positive"),
            (MEDIUM_LAYOUT + "[tolerances]\ngeom = nan\n", "finite and positive"),
            (MEDIUM_LAYOUT + "[tolerances]\ngeom = inf\n", "finite and positive"),
            (MEDIUM_LAYOUT.replace("h = 6", "h = nan"), "must be finite"),
            (MEDIUM_LAYOUT.replace("rho_max = 11", "rho_max = inf"), "must be finite"),
            (MEDIUM_LAYOUT.replace("2 5", "2 inf"), "must be finite"),
            (MEDIUM_LAYOUT.replace("10 9", "nan 9"), "must be finite"),
            (RECIPE_CONFIG.replace("1.0 1.25", "nan 1.25"), "must be finite"),
            (RECIPE_CONFIG.replace("z_pool = 3.0", "z_pool = inf"), "must be finite"),
            (RECIPE_CONFIG + "os1 = nan\n", "must be finite"),
        ],
    )
    def test_parse_errors(self, tmp_path, body, fragment):
        path = tmp_path / "bad.ini"
        path.write_text(body)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "old,new,section",
        [
            ("h = 6", "h = banana", "geometry"),
            ("rho_max = 11", "rho_max = 11\nv = x", "geometry"),
            ("2 5", "2 x", "layout"),
            ("10 9", "10 x", "layout"),
            # A % is plain text: no interpolation error escapes the loader.
            ("h = 6", "h = 18%", "geometry"),
            ("2 5", "2 5%(x)s", "layout"),
        ],
    )
    def test_unreadable_value_names_file_once(self, tmp_path, old, new, section):
        path = tmp_path / "bad.ini"
        path.write_text(MEDIUM_LAYOUT.replace(old, new))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value).startswith(f"{path}: [{section}] ")
        assert str(err.value).count(str(path)) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_dump_round_trip(self, tmp_path, xl):
        path = tmp_path / "dumped.ini"
        path.write_text(dump_design(xl, gap_tol=0.02))
        loaded = load_config(path)
        assert loaded.design == xl
        assert loaded.gap_tol == 0.02


class TestCliValidate:
    def test_conforming_design(self, config_dir, capsys):
        code = main(["validate", str(config_dir / "xl-cube.ini")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") >= 7

    def test_gap_variability_warns_but_passes(self, config_dir, capsys):
        code = main(["validate", str(config_dir / "medium-cube.ini")])
        out = capsys.readouterr().out
        assert code == 0
        assert "C6  WARN" in out
        assert "warnings" in out

    def test_broken_boost_fails(self, tmp_path, capsys):
        path = tmp_path / "broken.ini"
        path.write_text(
            "[geometry]\nh = 6\nrho_max = 11\nv = 1\nb = 1.5\n"
            "[layout]\nsensor_heights = 2 5\nmark_positions = 10 9 8 7 6 5\n"
        )
        code = main(["validate", str(path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "C3  FAIL" in out

    def test_non_finite_mark_is_usage_error(self, config_dir, tmp_path, capsys):
        path = tmp_path / "nan-mark.ini"
        text = (config_dir / "workshop.ini").read_text()
        path.write_text(text.replace("mark_positions = 12.75", "mark_positions = nan"))
        code = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "mark positions must be finite" in captured.err

    @pytest.mark.parametrize("name,geom", VALIDATE_LINES)
    def test_output_lines(self, config_dir, tmp_path, capsys, name, geom):
        path = tmp_path / f"{name}.ini"
        text = (config_dir / f"{name}.ini").read_text()
        path.write_text(text.replace("geom = 1e-9", f"geom = {geom}"))
        code, *lines = VALIDATE_LINES[name, geom]
        assert main(["validate", str(path)]) == code
        assert capsys.readouterr().out.splitlines() == lines

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[geometry]\nh = banana\n")
        assert main(["validate", str(path)]) == 1

    def test_usage_error_exit_code(self):
        assert main(["validate"]) == 1
        assert main(["no-such-command"]) == 1


class TestUnknownNames:
    # A misspelt name must not load the default of the one it stands for.
    @pytest.mark.parametrize(
        "body,where",
        [
            (
                MEDIUM_LAYOUT.replace("rho_max = 11", "rho_max = 11\nbb = 0.5"),
                "[geometry] unknown option 'bb'",
            ),
            (
                MEDIUM_LAYOUT.replace("mark_positions", "mark_position"),
                "[layout] unknown option 'mark_position'",
            ),
            (RECIPE_CONFIG + "os_1 = 4.0\n", "[recipe] unknown option 'os_1'"),
            (MEDIUM_LAYOUT + "[tolerances]\ngapp = 0.3\n", "[tolerances] unknown option 'gapp'"),
            (MEDIUM_LAYOUT + "[tolerance]\ngap = 0.3\n", "unknown section [tolerance]"),
            # Its keys show up in every section, so they are named in it.
            ("[DEFAULT]\nv = 2.0\n" + MEDIUM_LAYOUT, "[DEFAULT] unknown option 'v'"),
        ],
        ids=["geometry", "layout", "recipe", "tolerances", "section", "default"],
    )
    def test_misspelt_name_is_a_config_error(self, tmp_path, capsys, body, where):
        path = tmp_path / "typo.ini"
        path.write_text(body)
        assert main(["validate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}: {where}")


class TestConfigErrors:
    # Each config holds one fault, or several to pin which one is reported:
    # names are checked in every section first, then [geometry] is read,
    # then [tolerances], then [layout] or [recipe].  {path} is the file.
    # A syntax error names its first bad line.
    @pytest.mark.parametrize(
        "body,message",
        [
            (
                RECIPE_CONFIG.replace("d_pool = 0.5 0.75 1.0 1.25 1.5", "d_pool = ,"),
                "{path}: [recipe] d_pool: expected at least one number",
            ),
            (
                MEDIUM_LAYOUT.replace("rho_max = 11", "rho_max = 11\nh = 7"),
                "{path}: line 4: option 'h' in section 'geometry' already exists",
            ),
            (
                MEDIUM_LAYOUT.replace("mark_positions = 10 9 8 7 6 5\n", ""),
                "{path}: [layout] needs 'mark_positions'",
            ),
            (RECIPE_CONFIG.replace("z_pool = 3.0\n", ""), "{path}: [recipe] needs 'z_pool'"),
            (
                RECIPE_CONFIG.replace("0.75", "x"),
                "{path}: [recipe] d_pool: could not convert string to float: 'x'",
            ),
            (
                "[geometry]\nh = 6\nrho_max = 11\n[recipe]\nd_pool = 0.8\nz_pool = 3.0\n",
                "{path}: [recipe] no combination of up to three pool gaps (0.8,)"
                " closes the remaining 1.2 m onto dn=5.0",
            ),
            (
                "[layout]\nsensor_heights = 2 x\nmark_positions = 10 9\n"
                "[geometry]\nh = banana\nrho_max = 11\n",
                "{path}: [geometry] h: could not convert string to float: 'banana'",
            ),
            (
                MEDIUM_LAYOUT + "[recipe]\nd_pool = 1\n",
                "{path}: exactly one of [layout] or [recipe] must be present",
            ),
            (
                MEDIUM_LAYOUT.replace("h = 6", "h = banana") + "mark = 3\n",
                "{path}: [layout] unknown option 'mark' (expected sensor_heights, mark_positions)",
            ),
            (
                MEDIUM_LAYOUT.replace("2 5", "2 x") + "[tolerances]\ngap = 0\n",
                "{path}: [tolerances] gap: gap tolerance must be finite and positive, got 0",
            ),
            (
                MEDIUM_LAYOUT + "[tolerances]\ngap = nan\n",
                "{path}: [tolerances] gap: gap tolerance must be finite and positive, got nan",
            ),
            (
                MEDIUM_LAYOUT + "[tolerances]\ngeom = 0\n",
                "{path}: [tolerances] geom: geometric tolerance must be finite and positive, got 0",
            ),
            (
                MEDIUM_LAYOUT.replace("rho_max = 11\n", "rho_max = 11\n[geometry]\n"),
                "{path}: line 4: section 'geometry' already exists",
            ),
            ("h = 6\n" + MEDIUM_LAYOUT, "{path}: line 1: expected a section header, got 'h = 6'"),
            (
                MEDIUM_LAYOUT.replace("rho_max = 11\n", "rho_max = 11\ngarbage\n  more\nworse\n"),
                "{path}: line 4: cannot parse 'garbage'",
            ),
        ],
        ids=[
            "empty-list",
            "duplicate-option",
            "layout-without-marks",
            "recipe-without-z-pool",
            "bad-d-pool-token",
            "infeasible-recipe",
            "layout-before-geometry",
            "layout-and-recipe-without-z-pool",
            "names-before-values",
            "tolerances-before-layout",
            "nan-gap-tolerance",
            "zero-geom-tolerance",
            "duplicate-section",
            "missing-section-header",
            "unparsable-line",
        ],
    )
    def test_exact_message_and_exit_code(self, tmp_path, capsys, body, message):
        path = tmp_path / "bad.ini"
        path.write_text(body)
        expected = message.format(path=path)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == expected
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {expected}\n")


class TestTinyWindingSpeed:
    """A speed at which a drive of rho_max would never end is a [geometry]
    error that names the file, from every command that loads the config."""

    MESSAGE = (
        "{path}: [geometry] winding speed must let a drive of rho_max end in finite time,"
        " got 1e-320"
    )
    GEOMETRY = "[geometry]\nh = 6\nrho_max = 11\nv = 1e-320\n\n"
    LAYOUT = "[layout]\nsensor_heights = 2.2 4.1\nmark_positions = 10.6 9.6 7.7 5.8\n"
    RECIPE = "[recipe]\nd_pool = 0.5 0.75 1.0 1.25 1.5\nz_pool = 1.0 2.0\n"

    @pytest.mark.parametrize(
        "design,command",
        [
            (LAYOUT, ["validate"]),
            (LAYOUT, ["events"]),
            (LAYOUT, ["events", "--raw", "--precision", "full"]),
            (LAYOUT, ["simulate", "--start", "11", "--stop", "1"]),
            (RECIPE, ["validate"]),
            (RECIPE, ["optimize", "--budget", "60"]),
        ],
        ids=["layout-validate", "layout-events", "layout-raw-events", "layout-simulate",
             "recipe-validate", "recipe-optimize"],
    )
    def test_names_the_file_and_section(self, tmp_path, capsys, design, command):
        path = tmp_path / "tiny.ini"
        path.write_text(self.GEOMETRY + design)
        assert main([command[0], str(path), *command[1:]]) == 1
        assert capsys.readouterr() == ("", f"error: {self.MESSAGE.format(path=path)}\n")


class TestBoundedDesigns:
    # A gap far below the cable's length, or one below float resolution
    # that never moves a placement walk, stops the walk at MAX_PAIRS
    # elements with a config error; a layout of more pairs fails too.
    # Each fails within seconds instead of exhausting memory.
    SECONDS = 10

    @pytest.mark.parametrize(
        "d_pool,z_pool,message",
        [
            ("1e-9", "3.0", "mark gaps (1e-09,) place more than 1000000 marks"),
            ("0.5 0.75 1.0 1.25 1.5", "1e-9", "sensor gaps (1e-09,) place more than 1000000 sensors"),
            ("1e-300", "3.0", "mark gaps (1e-300,) place more than 1000000 marks"),
            ("0.5 1.0", "1e-300", "sensor gaps (1e-300,) place more than 1000000 sensors"),
        ],
        ids=["fine-marks", "fine-sensors", "unmoving-marks", "unmoving-sensors"],
    )
    def test_fine_recipe_gaps_fail_fast(self, tmp_path, capsys, d_pool, z_pool, message):
        path = tmp_path / "fine.ini"
        path.write_text(f"[geometry]\nh = 6\nrho_max = 11\n[recipe]\nd_pool = {d_pool}\nz_pool = {z_pool}\n")
        started = time.perf_counter()
        assert main(["validate", str(path)]) == 1
        assert time.perf_counter() - started < self.SECONDS
        assert capsys.readouterr() == ("", f"error: {path}: [recipe] {message}\n")

    def test_optimize_stops_at_the_first_fine_ordering(self, tmp_path, capsys):
        path = tmp_path / "fine.ini"
        path.write_text("[geometry]\nh = 6\nrho_max = 11\n[recipe]\nd_pool = 1e-9 2e-9 3e-9\nz_pool = 3.0\n")
        started = time.perf_counter()
        assert main(["optimize", str(path), "--budget", "6"]) == 1
        assert time.perf_counter() - started < self.SECONDS
        message = "mark gaps (1e-09, 2e-09, 3e-09) place more than 1000000 marks"
        assert capsys.readouterr() == ("", f"error: {path}: [recipe] {message}\n")

    def test_fine_recipe_under_the_bound_prints_short_details(self, tmp_path, capsys):
        # 60,000 marks, 59,998 of whose successive gaps are equal: C6 lists
        # the first 10 and the count.
        path = tmp_path / "fine.ini"
        path.write_text("[geometry]\nh = 6\nrho_max = 11\n[recipe]\nd_pool = 1e-4\nz_pool = 3.0\n")
        assert main(["validate", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and len(out.encode()) < 4096
        assert "C6  WARN  equal successive mark gaps at [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ...] (59998 in all)\n" in out

    def test_layout_over_the_pair_bound(self, tmp_path, capsys):
        sensors = " ".join(map(str, range(1, 1002)))
        marks = " ".join(map(str, range(1000, 0, -1)))
        path = tmp_path / "dense.ini"
        path.write_text(
            f"[geometry]\nh = 1002\nrho_max = 1001\n"
            f"[layout]\nsensor_heights = {sensors}\nmark_positions = {marks}\n"
        )
        started = time.perf_counter()
        assert main(["validate", str(path)]) == 1
        assert time.perf_counter() - started < self.SECONDS
        message = "1000 marks and 1001 sensors make over 1000000 pairs"
        assert capsys.readouterr() == ("", f"error: {path}: [layout] {message}\n")


class TestInputText:
    def test_byte_order_mark_in_a_config_is_ignored(self, config_dir, tmp_path, capsys):
        source = config_dir / "workshop.ini"
        marked = tmp_path / "workshop.ini"
        marked.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
        assert main(["validate", str(source)]) == 0
        plain = capsys.readouterr()
        assert main(["validate", str(marked)]) == 0
        assert capsys.readouterr() == plain

    def test_undecodable_config_names_its_file(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"\xff" + MEDIUM_LAYOUT.encode())
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_byte_order_mark_in_a_trace_is_ignored(self, config_dir, tmp_path, capsys, monkeypatch):
        # The simulated trace's first line is its metadata comment.
        workshop = str(config_dir / "workshop.ini")
        trace = tmp_path / "trace.csv"
        args = ["--start", "9.1", "--stop", "7.4", "--noise", "0.005", "--seed", "3"]
        assert main(["simulate", workshop, *args, "--out", str(trace)]) == 0
        assert trace.read_text().startswith("# ")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + trace.read_bytes())
        capsys.readouterr()
        assert main(["calibrate", workshop, "--trace", str(trace)]) == 0
        plain = capsys.readouterr()
        assert main(["calibrate", workshop, "--trace", str(marked)]) == 0
        assert capsys.readouterr() == plain
        monkeypatch.setattr(sys, "stdin", io.StringIO(marked.read_text()))
        assert main(["calibrate", workshop, "--trace", "-"]) == 0
        assert capsys.readouterr() == plain

    def test_only_one_byte_order_mark_is_ignored(self):
        text = "t,encoder_reading\n0.5,0.5\n1.5,1.5\n"
        assert parse_trace_csv("\ufeff" + text) == parse_trace_csv(text)
        with pytest.raises(ValueError, match="expected header"):
            parse_trace_csv("\ufeff\ufeff" + text)


class TestCliEvents:
    def test_raw_golden_rows(self, config_dir, capsys):
        code = main(["events", str(config_dir / "medium-cube.ini"), "--raw"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 13
        assert lines[1] == "2.00,1,2,9.00,"

    def test_rectified_golden_rows(self, config_dir, capsys):
        code = main(["events", str(config_dir / "medium-cube.ini"), "--rectified"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10
        assert lines[-1] == "10.00,6,1,1.00,1.00"

    def test_output_file_round_trip(self, config_dir, tmp_path, workshop):
        out_file = tmp_path / "events.csv"
        code = main(
            ["events", str(config_dir / "workshop.ini"), "--rectified", "--out", str(out_file)]
        )
        assert code == 0
        parsed = parse_event_csv(out_file.read_text())
        assert parsed == rectify(enumerate_events(workshop))

    def test_full_precision_flag(self, config_dir, capsys):
        code = main(
            ["events", str(config_dir / "xl-cube.ini"), "--rectified", "--precision", "full"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "31.5" in out


class TestCliSimulate:
    def test_deterministic_output_file(self, config_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "simulate", str(config_dir / "workshop.ini"),
            "--start", "12.0", "--stop", "1.0", "--noise", "0.01", "--seed", "9",
        ]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_window_writes_header_only(self, config_dir, tmp_path):
        out = tmp_path / "empty.csv"
        code = main(
            ["simulate", str(config_dir / "workshop.ini"), "--start", "8.0", "--stop", "8.0",
             "--out", str(out)]
        )
        assert code == 0
        trace = parse_trace_csv(out.read_text())
        assert trace.records == ()

    @pytest.mark.parametrize(
        "flag,value",
        [("--scale", "nan"), ("--scale", "inf"), ("--offset", "nan"), ("--noise", "nan"),
         ("--noise", "inf")],
    )
    def test_non_finite_encoder_is_usage_error(self, config_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "trace.csv"
        code = main(
            ["simulate", str(config_dir / "workshop.ini"), "--start", "9.1", "--stop", "7.4",
             flag, value, "--out", str(out)]
        )
        assert code == 1
        assert "encoder values must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_range_is_usage_error(self, config_dir):
        code = main(
            ["simulate", str(config_dir / "workshop.ini"), "--start", "1.0", "--stop", "9.0"]
        )
        assert code == 1


class TestCliCalibrate:
    def _trace(self, config_dir, tmp_path, start, stop, extra=()):
        out = tmp_path / "trace.csv"
        assert main(
            ["simulate", str(config_dir / "workshop.ini"), "--start", str(start),
             "--stop", str(stop), "--out", str(out), *extra]
        ) == 0
        return out

    def test_walkthrough(self, config_dir, tmp_path, capsys):
        trace = self._trace(config_dir, tmp_path, 9.1, 7.4)
        code = main(["calibrate", str(config_dir / "workshop.ini"), "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: identified" in out
        assert "rho: 7.50" in out
        assert "candidate_history: 26 -> 11 -> 2 -> 1" in out

    @pytest.mark.parametrize("v", ["1e-7", "1.0"])
    def test_full_drive_identifies_at_any_speed(self, tmp_path, capsys, v):
        # Meetings 8.9e-16 m apart are one detection however slowly the
        # cable winds, so the slow drive's trace times strictly increase.
        config = tmp_path / "slow.ini"
        config.write_text(
            f"[geometry]\nh = 6\nrho_max = 11\nv = {v}\n\n"
            "[layout]\nsensor_heights = 2.2 4.1\nmark_positions = 10.6 9.6 7.7 5.8\n"
        )
        trace = tmp_path / "slow.csv"
        assert main(["simulate", str(config), "--start", "11", "--stop", "1", "--out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["calibrate", str(config), "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "status: identified" in out and "rho: 6.80" in out

    def test_trace_from_stdin(self, config_dir, tmp_path, capsys, monkeypatch):
        # "-" reads the trace from stdin and prints what the file gives;
        # an error names the trace "-".
        workshop = str(config_dir / "workshop.ini")
        trace = self._trace(config_dir, tmp_path, 9.1, 7.4, ("--scale", "1.01", "--seed", "7"))
        capsys.readouterr()
        assert main(["calibrate", workshop, "--trace", str(trace)]) == 0
        from_file = capsys.readouterr()
        monkeypatch.setattr(sys, "stdin", io.StringIO(trace.read_text()))
        assert main(["calibrate", workshop, "--trace", "-"]) == 0
        assert capsys.readouterr() == from_file
        monkeypatch.setattr(sys, "stdin", io.StringIO("t,reading\n0.5,0.5\n"))
        assert main(["calibrate", workshop, "--trace", "-"]) == 1
        assert capsys.readouterr().err == (
            "error: -: expected header 't,encoder_reading,truth_rho,truth_i,truth_j'"
            " or 't,encoder_reading'\n"
        )

    def test_a_crlf_log_calibrates_as_its_lf_log(self, config_dir, tmp_path, capsys, monkeypatch):
        # A hardware log headed t,encoder_reading, with CRLF line endings,
        # read from a file and from stdin: the lines and exit code of the LF log.
        workshop = str(config_dir / "workshop.ini")
        trace = self._trace(config_dir, tmp_path, 9.1, 7.4, ("--noise", "0.005", "--seed", "3"))
        rows = trace.read_text().splitlines()[2:]
        lf = "t,encoder_reading\n" + "".join(",".join(row.split(",")[:2]) + "\n" for row in rows)
        crlf = lf.replace("\n", "\r\n")
        lf_log, crlf_log = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf_log.write_bytes(lf.encode())
        crlf_log.write_bytes(crlf.encode())
        capsys.readouterr()
        code = main(["calibrate", workshop, "--trace", str(lf_log)])
        from_lf = capsys.readouterr()
        assert code == 0 and "rho: 7.50" in from_lf.out
        assert main(["calibrate", workshop, "--trace", str(crlf_log)]) == code
        assert capsys.readouterr() == from_lf
        # A StringIO translates no newlines, so the parser reads the CRLF.
        monkeypatch.setattr(sys, "stdin", io.StringIO(crlf))
        assert main(["calibrate", workshop, "--trace", "-"]) == code
        assert capsys.readouterr() == from_lf

    def test_truncated_trace_is_ambiguous(self, config_dir, tmp_path, capsys):
        trace = self._trace(config_dir, tmp_path, 9.1, 8.4)
        code = main(["calibrate", str(config_dir / "workshop.ini"), "--trace", str(trace)])
        assert code == 4

    def test_corrupt_trace_is_no_match(self, config_dir, tmp_path, capsys):
        trace = self._trace(config_dir, tmp_path, 9.1, 7.4)
        text = trace.read_text().splitlines()
        # Push the second reading far outside any plausible gap.
        cols = text[3].split(",")
        cols[1] = repr(float(cols[1]) + 50.0)
        text[3] = ",".join(cols)
        bad = trace.with_name("bad.csv")
        bad.write_text("\n".join(text) + "\n")
        code = main(["calibrate", str(config_dir / "workshop.ini"), "--trace", str(bad)])
        assert code == 3

    def test_empty_drive_is_ambiguous(self, config_dir, tmp_path, capsys):
        trace = tmp_path / "empty.csv"
        trace.write_text("# start_rho=3.8 stop_rho=1.0\nt,encoder_reading,truth_rho,truth_i,truth_j\n")
        code = main(["calibrate", str(config_dir / "workshop.ini"), "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 4
        assert "status: ambiguous" in out
        assert "rho: -" in out

    @pytest.mark.parametrize(
        "stop,nudge,window,code",
        [(7.4, 0.0, True, 0), (7.4, 0.0, False, 0), (8.4, 0.0, True, 4), (7.4, 50.0, True, 3)],
    )
    def test_short_header_log_calibrates_as_the_long_one(
        self, config_dir, tmp_path, capsys, stop, nudge, window, code
    ):
        # The same truth-stripped drive under either header: identified
        # with and without a drive window, truncated, and with a gap no
        # table position has.
        noisy = ("--scale", "1.01", "--noise", "0.005", "--seed", "7")
        meta, _, *rows = self._trace(config_dir, tmp_path, 9.1, stop, noisy).read_text().splitlines()
        cols = [row.split(",")[:2] for row in rows]
        cols[1][1] = repr(float(cols[1][1]) + nudge)
        head = [meta] if window else []
        logs = {
            "long.csv": head + ["t,encoder_reading,truth_rho,truth_i,truth_j"]
            + [f"{t},{reading},,," for t, reading in cols],
            "short.csv": head + ["t,encoder_reading"] + [f"{t},{reading}" for t, reading in cols],
        }
        workshop = str(config_dir / "workshop.ini")
        outputs = []
        for name, lines in logs.items():
            (tmp_path / name).write_text("\n".join(lines) + "\n")
            capsys.readouterr()
            assert main(["calibrate", workshop, "--trace", str(tmp_path / name)]) == code
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].out and not outputs[0].err

    @pytest.mark.parametrize("start,stop", [("10.95", "9.8"), ("9.9", "7.9")])
    def test_long_silent_wind_is_ambiguous(self, tmp_path, capsys, start, stop):
        # A conforming design and a healthy drive that winds more than
        # d_n - d_0 after its start or last detection: no confident length.
        design = tmp_path / "one-sensor.ini"
        design.write_text(dump_design(ONE_SENSOR))
        trace = tmp_path / "trace.csv"
        assert main(
            ["simulate", str(design), "--start", start, "--stop", stop, "--out", str(trace)]
        ) == 0
        code = main(["calibrate", str(design), "--trace", str(trace)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 4
        assert lines[:2] == ["status: ambiguous", "rho: -"]

    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_non_finite_tolerance_is_usage_error(self, config_dir, tmp_path, capsys, tolerance):
        drive = self._trace(config_dir, tmp_path, 9.1, 7.4)
        empty = tmp_path / "empty.csv"
        empty.write_text("# start_rho=3.8 stop_rho=1.0\nt,encoder_reading,truth_rho,truth_i,truth_j\n")
        for trace in (drive, empty):
            code = main(
                ["calibrate", str(config_dir / "workshop.ini"), "--trace", str(trace),
                 "--tolerance", tolerance]
            )
            assert code == 1
            assert "finite and positive" in capsys.readouterr().err

    def test_readme_walkthrough(self, config_dir, tmp_path, capsys, monkeypatch):
        # The commands and the output block of the README's walkthrough.
        monkeypatch.chdir(tmp_path)
        workshop = str(config_dir / "workshop.ini")
        assert main(
            ["simulate", workshop, "--start", "9.1", "--stop", "7.4",
             "--scale", "1.01", "--noise", "0.005", "--seed", "7", "--out", "trace.csv"]
        ) == 0
        assert main(["calibrate", workshop, "--trace", "trace.csv"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "status: identified",
            "rho: 7.50",
            "detections_used: 4",
            "stroke: 1.50",
            "candidate_history: 26 -> 11 -> 2 -> 1",
            "corrector_scale: 1.009060",
            "corrector_offset: 0.000501",
        ]

    def test_start_above_rho_max_is_usage_error(self, config_dir, tmp_path, capsys, monkeypatch):
        # The workshop robot's rho_max is 13 m.  A drive cannot start above
        # it, so the trace is refused rather than fitted to a corrector.
        monkeypatch.chdir(tmp_path)
        workshop = str(config_dir / "workshop.ini")
        assert main(["simulate", workshop, "--start", "9.1", "--stop", "7.4", "--out", "trace.csv"]) == 0
        _, *rows = Path("trace.csv").read_text().splitlines(keepends=True)
        Path("far.csv").write_text("# start_rho=1e17 stop_rho=7.4\n" + "".join(rows))
        capsys.readouterr()
        assert main(["calibrate", workshop, "--trace", "far.csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "start_rho=1e+17 lies above rho_max=13.0" in captured.err

    @pytest.mark.parametrize(
        "meta,key",
        [
            ("start_rho=nan stop_rho=1.0", "start_rho"),
            ("start_rho=3.8 stop_rho=nan", "stop_rho"),
            ("start_rho=inf stop_rho=1.0", "start_rho"),
        ],
    )
    def test_non_finite_drive_window_is_usage_error(self, config_dir, tmp_path, capsys, meta, key):
        # A non-finite drive window is malformed input, whatever the
        # identifier makes of the records.
        trace = tmp_path / "empty.csv"
        trace.write_text(f"# {meta}\nt,encoder_reading,truth_rho,truth_i,truth_j\n")
        code = main(["calibrate", str(config_dir / "workshop.ini"), "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"error: {trace}: line 1: {key} must be finite" in captured.err

    @pytest.mark.parametrize(
        "meta,key",
        [("start_rho=abc stop_rho=1.0", "start_rho"), ("start_rho=3.8 stop_rho=", "stop_rho")],
    )
    def test_unreadable_drive_window_names_line_and_key(
        self, config_dir, tmp_path, capsys, meta, key
    ):
        # The blank line above the comment makes the comment line 2.
        trace = tmp_path / "window.csv"
        trace.write_text(f"\n# {meta}\nt,encoder_reading,truth_rho,truth_i,truth_j\n")
        code = main(["calibrate", str(config_dir / "workshop.ini"), "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"error: {trace}: line 2: {key}: could not convert string to float" in captured.err

    @pytest.mark.parametrize("column,value", [(0, "nan"), (1, "nan"), (1, "inf"), (2, "nan")])
    def test_non_finite_record_is_usage_error(self, config_dir, tmp_path, capsys, column, value):
        # A NaN reading must not end in no_match, which blames the sensors,
        # and the error names the record's line in the file.
        trace = self._trace(config_dir, tmp_path, 9.1, 7.4)
        text = trace.read_text().splitlines()
        cols = text[3].split(",")
        cols[column] = value
        text[3] = ",".join(cols)
        bad = trace.with_name("bad.csv")
        bad.write_text("\n".join(text) + "\n")
        code = main(["calibrate", str(config_dir / "workshop.ini"), "--trace", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"error: {bad}: line 4: values must be finite" in captured.err

    @pytest.mark.parametrize(
        "column,message",
        [(0, "trace times must strictly increase"), (2, "truth lengths must strictly decrease")],
    )
    def test_row_order_fault_names_its_line(self, config_dir, tmp_path, capsys, column, message):
        # The fourth record goes back to the third's value; the blank line
        # above the header moves it from line 6 to line 7 of the file.
        trace = self._trace(config_dir, tmp_path, 9.1, 7.4)
        text = trace.read_text().splitlines()
        third, fourth = text[4].split(","), text[5].split(",")
        fourth[column] = third[column]
        text[5] = ",".join(fourth)
        text.insert(1, "")
        bad = trace.with_name("order.csv")
        bad.write_text("\n".join(text) + "\n")
        code = main(["calibrate", str(config_dir / "workshop.ini"), "--trace", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: line 7: {message}")

    def test_missing_trace_file(self, config_dir):
        code = main(["calibrate", str(config_dir / "workshop.ini"), "--trace", "/nope.csv"])
        assert code == 1


class TestCliOptimize:
    def test_budget_zero_echoes_input_design(self, tmp_path, capsys):
        cfg = tmp_path / "recipe.ini"
        cfg.write_text(RECIPE_CONFIG)
        out = tmp_path / "best.ini"
        code = main(["optimize", str(cfg), "--budget", "0", "--out", str(out)])
        assert code == 0
        from cablecal import DesignRecipe, RobotGeometry, build_design

        expected, _ = build_design(
            DesignRecipe(RobotGeometry(6.0, 11.0, 1.0, 1.0),
                         d_pool=(0.5, 0.75, 1.0, 1.25, 1.5), z_pool=(3.0,))
        )
        assert load_config(out).design == expected

    def test_search_emits_conforming_design_and_report(self, tmp_path, capsys):
        cfg = tmp_path / "recipe.ini"
        cfg.write_text(RECIPE_CONFIG)
        out = tmp_path / "best.ini"
        report = tmp_path / "trail.csv"
        code = main(
            ["optimize", str(cfg), "--budget", "200", "--seed", "1",
             "--out", str(out), "--report", str(report)]
        )
        assert code == 0
        best = load_config(out).design
        assert validate_design(best).hard_pass
        lines = report.read_text().splitlines()
        assert lines[0] == "iteration,mean_gap,std_gap,worst_stroke"
        assert len(lines) >= 2

    def test_constant_pool_keeps_gap_warning(self, tmp_path, capsys):
        cfg = tmp_path / "recipe.ini"
        cfg.write_text(
            "[geometry]\nh = 6\nrho_max = 11\n[recipe]\nd_pool = 1.0\nz_pool = 3.0\n"
        )
        out = tmp_path / "best.ini"
        assert main(["optimize", str(cfg), "--budget", "10", "--out", str(out)]) == 0
        report = validate_design(load_config(out).design)
        assert report.hard_pass and not report["C6"].passed

    @pytest.mark.parametrize(
        "gap,budget,fragment",
        [
            ("0.05", "0", "unidentifiable=3"),
            ("0.05", "200", "worst_stroke=3.200"),
            ("0.01", "0", "unidentifiable=2"),
        ],
    )
    def test_scores_at_config_gap_tolerance(self, tmp_path, capsys, gap, budget, fragment):
        cfg = tmp_path / "recipe.ini"
        cfg.write_text(FIVE_CENTIMETRE_RECIPE.format(gap=gap))
        code = main(
            ["optimize", str(cfg), "--budget", budget,
             "--out", str(tmp_path / "best.ini"), "--report", str(tmp_path / "trail.csv")]
        )
        assert code == 0
        assert fragment in capsys.readouterr().err

    def test_layout_config_is_rejected(self, config_dir):
        assert main(["optimize", str(config_dir / "workshop.ini"), "--budget", "5"]) == 1

    @pytest.mark.parametrize("d_pool", ["0.5 0.75 1.0 1.25 1.5", "1e-9"], ids=["placeable", "fine"])
    def test_negative_budget_is_refused_before_any_placement(self, tmp_path, capsys, d_pool):
        cfg = tmp_path / "recipe.ini"
        cfg.write_text(f"[geometry]\nh = 6\nrho_max = 11\n[recipe]\nd_pool = {d_pool}\nz_pool = 3.0\n")
        assert main(["optimize", str(cfg), "--budget", "-1"]) == 1
        assert capsys.readouterr() == ("", "error: budget must be non-negative\n")

    @pytest.mark.parametrize("budget", ["0", "1", "10"])
    @pytest.mark.parametrize(
        "recipe,code,message",
        [
            # Every ordering fails C1 with these sensors.
            ("d_pool = 0.5 0.75 1.0 1.25 1.5\nsensor_heights = 2.0 4.5\n", 2, "infeasible: "),
            # No ordering closes the span.
            ("d_pool = 0.8\n", 2, "infeasible: "),
            # Recipe errors no ordering can fix are usage errors.
            ("d_pool = 0.5 0.75 1.0\nos1 = 7.0\n", 1,
             "first sensor height 7.0 must lie inside (0, 6.0)"),
            ("d_pool = 0.5 0.75 1.0\nos1 = 5.8\n", 1, "overshoots the top reserve"),
        ],
        ids=["c1-fails", "no-closing-gaps", "os1-above-support", "os1-above-ceiling"],
    )
    def test_outcome_does_not_depend_on_budget(
        self, tmp_path, capsys, budget, recipe, code, message
    ):
        cfg = tmp_path / "recipe.ini"
        cfg.write_text("[geometry]\nh = 6\nrho_max = 11\n[recipe]\nz_pool = 3.0\n" + recipe)
        out = tmp_path / "best.ini"
        assert main(["optimize", str(cfg), "--budget", budget, "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("budget", ["0", "1", "10"])
    def test_two_event_design_is_infeasible(self, tmp_path, capsys, budget):
        # validate passes this design, but its two events give no gap
        # statistics to rank it by.
        cfg = tmp_path / "recipe.ini"
        cfg.write_text("[geometry]\nh = 3\nrho_max = 4\n[recipe]\nd_pool = 1.0\nz_pool = 1.0\n")
        assert main(["validate", str(cfg)]) == 0
        capsys.readouterr()
        out = tmp_path / "best.ini"
        assert main(["optimize", str(cfg), "--budget", budget, "--out", str(out)]) == 2
        assert "infeasible: " in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_recipe_exit_code(self, tmp_path):
        cfg = tmp_path / "recipe.ini"
        cfg.write_text(
            "[geometry]\nh = 6\nrho_max = 11\n[recipe]\nd_pool = 0.8\nz_pool = 3.0\n"
        )
        assert main(["optimize", str(cfg), "--budget", "10"]) == 2


class TestConfigDirEnv:
    def test_fallback_lookup(self, config_dir, monkeypatch, capsys):
        monkeypatch.setenv("CABLECAL_CONFIG_DIR", str(config_dir))
        assert main(["validate", "workshop.ini"]) == 0

    def test_explicit_path_wins(self, config_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("CABLECAL_CONFIG_DIR", str(config_dir))
        local = tmp_path / "workshop.ini"
        local.write_text("[geometry]\nh = banana\n")
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "workshop.ini"]) == 1  # the local broken file is used

    def test_missing_from_both_places_names_the_path_as_given(
        self, config_dir, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("CABLECAL_CONFIG_DIR", str(config_dir))
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "absent.ini"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: absent.ini: ") and str(config_dir) not in err


class TestRepeatedMain:
    """`main` may be called again and again in one process: it builds its
    parser once, and each command behaves as it does on a fresh parser."""

    @staticmethod
    def commands(config_dir):
        workshop = str(config_dir / "workshop.ini")
        return [
            ["validate", workshop],
            ["events", str(config_dir / "medium-cube.ini"), "--raw"],
            ["events", str(config_dir / "large-cube.ini"), "--out", "events.csv"],
            ["simulate", workshop, "--start", "9.1", "--stop", "7.4", "--scale", "1.01",
             "--noise", "0.005", "--seed", "7", "--out", "trace.csv"],
            ["calibrate", workshop, "--trace", "trace.csv"],
            ["optimize", workshop, "--budget", "1"],
            ["optimize", "recipe.ini", "--budget", "1", "--out", "best.ini", "--report", "trail.csv"],
            ["calibrate"],
            ["no-such-command", workshop],
            ["optimize", "--help"],
            ["validate", workshop],
        ]

    @staticmethod
    def run_all(commands, workdir, capsys, fresh):
        """Exit code (or ``SystemExit`` code), stdout and stderr of each command
        run in ``workdir``, and the files the commands leave there."""
        workdir.mkdir()
        (workdir / "recipe.ini").write_text(RECIPE_CONFIG)
        outcomes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(workdir)
            for argv in commands:
                if fresh:
                    cli._shared_parser.cache_clear()
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = ("SystemExit", exc.code)
                outcomes.append((argv, code, *capsys.readouterr()))
        files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
        return outcomes, files

    def test_shared_parser_behaves_as_a_fresh_one(self, config_dir, tmp_path, capsys, monkeypatch):
        commands = self.commands(config_dir)
        expected = self.run_all(commands, tmp_path / "fresh", capsys, fresh=True)

        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._shared_parser.cache_clear()
        shared = self.run_all(commands, tmp_path / "shared", capsys, fresh=False)

        assert len(builds) == 1
        assert shared == expected
        codes = [code for _, code, _, _ in expected[0]]
        assert codes == [0, 0, 0, 0, 0, 1, 0, 1, 1, ("SystemExit", 0), 0]
        assert set(expected[1]) == {"best.ini", "events.csv", "recipe.ini", "trace.csv", "trail.csv"}

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()


class TestShell:
    """`python -m cablecal.cli` in a fresh process: `run` hands the exit code
    of `main` to `sys.exit`, and the process prints what `main` prints."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    def test_each_exit_code_reaches_the_shell(self, config_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        workshop = str(config_dir / "workshop.ini")
        for name, start, stop in (("full.csv", "9.1", "7.4"), ("short.csv", "9.1", "8.4")):
            assert main(["simulate", workshop, "--start", start, "--stop", stop, "--out", name]) == 0
        lines = Path("full.csv").read_text().splitlines()
        cols = lines[3].split(",")
        cols[1] = repr(float(cols[1]) + 50.0)  # a gap no table position has
        Path("corrupt.csv").write_text("\n".join(lines[:3] + [",".join(cols)] + lines[4:]) + "\n")
        Path("broken.ini").write_text(
            "[geometry]\nh = 6\nrho_max = 11\nv = 1\nb = 1.5\n"
            "[layout]\nsensor_heights = 2 5\nmark_positions = 10 9 8 7 6 5\n"
        )
        commands = {
            0: ["calibrate", workshop, "--trace", "full.csv"],
            1: ["calibrate", workshop],
            2: ["validate", "broken.ini"],
            3: ["calibrate", workshop, "--trace", "corrupt.csv"],
            4: ["calibrate", workshop, "--trace", "short.csv"],
        }
        env = {**os.environ, "PYTHONPATH": str(self.SRC)}
        capsys.readouterr()
        for code, argv in commands.items():
            shell = subprocess.run(
                [sys.executable, "-m", "cablecal.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert main(argv) == code
            out, err = capsys.readouterr()
            assert (shell.returncode, shell.stdout, shell.stderr) == (code, out, err)
            assert out or err


    def test_calibrate_reads_a_piped_trace(self, config_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        workshop = str(config_dir / "workshop.ini")
        assert main(["simulate", workshop, "--start", "9.1", "--stop", "7.4", "--out", "t.csv"]) == 0
        capsys.readouterr()
        assert main(["calibrate", workshop, "--trace", "t.csv"]) == 0
        out, err = capsys.readouterr()
        shell = subprocess.run(
            [sys.executable, "-m", "cablecal.cli", "calibrate", workshop, "--trace", "-"],
            input=Path("t.csv").read_text(), capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(self.SRC)}, timeout=60,
        )
        assert (shell.returncode, shell.stdout, shell.stderr) == (0, out, err)
        assert "status: identified" in out

    def _shell(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "cablecal.cli", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(self.SRC)}, timeout=60,
        )

    def test_calibrate_without_a_finite_encoder_fit(self, tmp_path, monkeypatch):
        # The workshop layout scaled by 1e200: its wound lengths square past
        # the float range, so the drive identifies without corrector lines.
        monkeypatch.chdir(tmp_path)
        Path("huge.ini").write_text(
            "[geometry]\nh = 3e200\nrho_max = 13e200\nv = 1.0\nb = 1e200\n\n[layout]\n"
            "sensor_heights = 1e200 1.5e200 2.75e200\nmark_positions = 12.75e200 12.25e200 "
            "11.5e200 10.5e200 9.25e200 7.75e200 6e200 5.75e200 5.25e200 4.5e200 3e200\n"
        )
        assert main(["simulate", "huge.ini", "--start", "9.1e200", "--stop", "7.4e200", "--out", "t.csv"]) == 0
        shell = self._shell(["calibrate", "huge.ini", "--trace", "t.csv"])
        assert shell.returncode == 0
        assert "status: identified" in shell.stdout.splitlines()
        assert "corrector_" not in shell.stdout
        assert "Traceback" not in shell.stderr

    def test_optimize_skips_designs_whose_gap_statistics_overflow(self, tmp_path, monkeypatch):
        # The CI recipe with every length scaled by 2**560 and no boost: its
        # designs pass C1-C7, but their gap deviations square past the float
        # range, so no ordering has a score.
        monkeypatch.chdir(tmp_path)
        scale = 2.0**560
        h, rho_max, d_pool, z_pool = 6.0, 11.0, (0.5, 0.75, 1.0, 1.25, 1.5), (1.0, 2.0)
        Path("vast.ini").write_text(
            f"[geometry]\nh = {h * scale!r}\nrho_max = {rho_max * scale!r}\nb = 0.0\n\n[recipe]\n"
            f"d_pool = {' '.join(repr(d * scale) for d in d_pool)}\n"
            f"z_pool = {' '.join(repr(z * scale) for z in z_pool)}\n"
        )
        assert main(["validate", "vast.ini"]) == 0
        shell = self._shell(["optimize", "vast.ini", "--budget", "5"])
        assert shell.returncode == 2
        assert "infeasible: no conforming design found within the search budget" in shell.stderr.splitlines()
        assert "Traceback" not in shell.stderr

    @pytest.mark.parametrize(
        "old,new,where",
        [("h = 6", "h = 18%", "[geometry] h"), ("2 5", "2 5%(x)s", "[layout] sensor_heights")],
    )
    def test_percent_in_a_value_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, old, new, where
    ):
        # configparser's % interpolation would raise its own errors, which
        # are no ValueError and would end the process with a traceback.
        monkeypatch.chdir(tmp_path)
        Path("pct.ini").write_text(MEDIUM_LAYOUT.replace(old, new))
        argv = ["validate", "pct.ini"]
        shell = subprocess.run(
            [sys.executable, "-m", "cablecal.cli", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(self.SRC)},
            timeout=60,
        )
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert (shell.returncode, shell.stdout, shell.stderr) == (1, out, err)
        assert out == ""
        assert err.startswith(f"error: pct.ini: {where}: could not convert string to float")
        assert "Traceback" not in err


class TestReadmeExitCodes:
    def test_tables_list_every_status_with_its_exit_code(self):
        # Both exit-code tables of the README, so the documented contract
        # cannot drift from `Status` and `EXIT_FOR_STATUS`.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("\n### Exit codes\n", 1)[1].split("\n## ", 1)[0]
        codes, statuses = (
            [[cell.strip() for cell in row.strip("|").split("|")] for row in table.splitlines()[2:]]
            for table in re.findall(r"((?:^\|.*\|\n)+)", section, re.MULTILINE)
        )
        assert set(EXIT_FOR_STATUS) == set(Status)
        assert sorted(
            (status, int(code))
            for code, meaning in codes
            for status in re.findall(r"`(\w+)`", meaning)
        ) == sorted((status.value, code) for status, code in EXIT_FOR_STATUS.items())
        assert sorted(map(tuple, statuses)) == sorted(
            (f"`{status.value}`", f"`{status.name}`", str(code))
            for status, code in EXIT_FOR_STATUS.items()
        )
