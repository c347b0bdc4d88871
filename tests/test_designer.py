from __future__ import annotations

import itertools
import math

import pytest

from cablecal import (
    DesignRecipe,
    InfeasibleRecipe,
    RobotGeometry,
    build_design,
    distal_reserve,
    first_sensor_height,
    mark_cycle,
    place_marks,
    place_sensors,
    sensor_count,
)
from cablecal import presets

G_MEDIUM = RobotGeometry(h=6.0, rho_max=11.0, v=1.0, b=1.0)
G_LARGE = RobotGeometry(h=12.0, rho_max=21.0, v=1.0, b=1.0)
G_XL = RobotGeometry(h=18.0, rho_max=32.0, v=1.0, b=1.0)
G_WORKSHOP = RobotGeometry(h=3.0, rho_max=13.0, v=1.0, b=1.0)

MEDIUM_RECIPE = DesignRecipe(G_MEDIUM, d_pool=(1.0,), z_pool=(3.0,))
LARGE_RECIPE = DesignRecipe(G_LARGE, d_pool=(0.5, 0.75, 1.0, 1.25, 1.5), z_pool=(3.75,))
XL_RECIPE = DesignRecipe(
    G_XL,
    d_pool=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5),
    z_pool=(5.0, 3.0, 2.0, 1.75),
)
WORKSHOP_RECIPE = DesignRecipe(
    G_WORKSHOP, d_pool=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75), z_pool=(0.5, 1.25)
)


class TestFormulas:
    @pytest.mark.parametrize("h,expected", [(6.0, 2.0), (12.0, 4.0), (3.0, 1.0), (18.0, 6.0)])
    def test_first_sensor_height(self, h, expected):
        assert first_sensor_height(RobotGeometry(h=h, rho_max=2 * h)) == expected

    def test_distal_reserve(self):
        assert distal_reserve(G_MEDIUM, 2.0) == 5.0
        assert distal_reserve(G_XL, 6.0) == 13.0

    def test_distal_reserve_needs_sensor_inside_support(self):
        with pytest.raises(ValueError):
            distal_reserve(G_MEDIUM, 6.0)
        with pytest.raises(ValueError):
            distal_reserve(G_MEDIUM, 0.0)

    def test_sensor_count(self):
        assert sensor_count(G_MEDIUM, d0=1.0, os1=2.0, z_bar=3.0) == 2
        assert sensor_count(G_XL, d0=0.25, os1=6.0, z_bar=2.75) == 5
        assert sensor_count(G_LARGE, d0=0.5, os1=4.0, z_bar=3.75) == 3

    def test_sensor_count_bad_inputs(self):
        with pytest.raises(ValueError):
            sensor_count(G_MEDIUM, d0=1.0, os1=2.0, z_bar=0.0)
        with pytest.raises(ValueError):
            sensor_count(G_MEDIUM, d0=1.0, os1=5.5, z_bar=1.0)


class TestPlaceSensors:
    def test_constant_pitch(self):
        layout = place_sensors(G_LARGE, os1=4.0, z_gaps=(3.75,), d0=0.5)
        assert layout.heights == (4.0, 7.75, 11.5)

    def test_cycled_gaps(self):
        layout = place_sensors(G_XL, os1=6.0, z_gaps=(5.0, 3.0, 2.0, 1.75), d0=0.25)
        assert layout.heights == (6.0, 11.0, 14.0, 16.0, 17.75)

    def test_single_sensor_at_ceiling(self):
        layout = place_sensors(G_MEDIUM, os1=5.0, z_gaps=(3.0,), d0=1.0)
        assert layout.heights == (5.0,)

    def test_top_sensor_snaps_to_ceiling(self):
        # 4, 7, 10 would leave the top short of h - d0 = 11.5; the last one moves up.
        layout = place_sensors(G_LARGE, os1=4.0, z_gaps=(3.0,), d0=0.5)
        assert layout.heights == (4.0, 7.0, 11.5)

    def test_lone_low_sensor_gains_a_top_sensor(self):
        layout = place_sensors(G_MEDIUM, os1=2.0, z_gaps=(10.0,), d0=1.0)
        assert layout.heights == (2.0, 5.0)

    def test_overshoot_is_an_error(self):
        with pytest.raises(ValueError):
            place_sensors(G_MEDIUM, os1=5.5, z_gaps=(1.0,), d0=1.0)


class TestPlaceMarks:
    def test_constant_pool_reproduces_constant_gaps(self):
        layout = place_marks(G_MEDIUM, d0=1.0, dn=5.0, d_pool=(1.0,))
        assert layout.positions == (10.0, 9.0, 8.0, 7.0, 6.0, 5.0)
        assert layout.gaps == (1.0,) * 5

    def test_workshop_recipe_count_and_landing(self):
        layout = place_marks(G_WORKSHOP, d0=0.25, dn=3.0, d_pool=WORKSHOP_RECIPE.d_pool)
        assert layout.count == 11
        assert layout.positions[0] == 12.75
        assert layout.positions[-1] == 3.0

    def test_single_mark_when_reserves_meet(self):
        layout = place_marks(RobotGeometry(h=6, rho_max=6, b=1), d0=1.0, dn=5.0, d_pool=(1.0,))
        assert layout.positions == (5.0,)

    def test_positions_stay_inside_reserves(self):
        for recipe in (MEDIUM_RECIPE, LARGE_RECIPE, XL_RECIPE, WORKSHOP_RECIPE):
            d0 = min(recipe.d_pool)
            os1 = first_sensor_height(recipe.geometry)
            dn = distal_reserve(recipe.geometry, os1)
            layout = place_marks(recipe.geometry, d0, dn, recipe.d_pool)
            top = recipe.geometry.rho_max - d0
            assert layout.positions[0] == pytest.approx(top, abs=1e-9)
            assert layout.positions[-1] == pytest.approx(dn, abs=1e-9)
            assert all(dn - 1e-9 <= p <= top + 1e-9 for p in layout.positions)

    def test_infeasible_tail(self):
        # Remaining span 0.5 cannot be closed with 1 m gaps.
        with pytest.raises(InfeasibleRecipe):
            place_marks(RobotGeometry(h=6, rho_max=6.5, b=1), d0=1.0, dn=5.0, d_pool=(1.0,))

    def test_reserves_must_fit(self):
        with pytest.raises(ValueError):
            place_marks(G_MEDIUM, d0=6.0, dn=6.0, d_pool=(1.0,))


class TestMarkCycle:
    @pytest.mark.parametrize("pool", [LARGE_RECIPE.d_pool, (1.25, 0.5, 1.0, 0.75)])
    def test_every_rotation_gives_one_cycle(self, pool):
        rotations = [pool[k:] + pool[:k] for k in range(len(pool))]
        assert {mark_cycle(order) for order in rotations} == {mark_cycle(pool)}
        # The cycle ends with the minimum, which the proximal reserve consumes.
        assert mark_cycle(pool)[-1] == min(pool)
        assert sorted(mark_cycle(pool)) == sorted(pool)

    def test_repeated_minimum_keeps_distinct_layouts_apart(self):
        # Rotations of a pool with a repeated minimum start the walk after
        # different copies of it: the 12 orderings of this pool form 3
        # rotation classes but 6 cycles, each building its own layout.
        pool = (0.5, 1.0, 0.5, 1.5)
        dn = distal_reserve(G_MEDIUM, first_sensor_height(G_MEDIUM))
        layouts: dict[tuple[float, ...], set] = {}
        for order in set(itertools.permutations(pool)):
            built = place_marks(G_MEDIUM, min(pool), dn, order)
            layouts.setdefault(mark_cycle(order), set()).add(built)
        assert all(len(built) == 1 for built in layouts.values())
        assert len(set().union(*layouts.values())) == len(layouts) == 6


class TestBuildDesign:
    def test_medium_recipe_matches_preset(self):
        design, report = build_design(MEDIUM_RECIPE)
        assert design == presets.medium_cube()
        assert report.hard_pass
        assert report.soft_failures == ("C6",)

    def test_workshop_recipe(self):
        design, report = build_design(WORKSHOP_RECIPE)
        assert design.sensors.heights == (1.0, 1.5, 2.75)
        assert design.marks.count == 11
        assert design.marks.positions[-1] == 3.0
        assert report.hard_pass

    def test_sensor_heights_match_reference_layouts(self):
        for recipe, expected in (
            (LARGE_RECIPE, (4.0, 7.75, 11.5)),
            (XL_RECIPE, (6.0, 11.0, 14.0, 16.0, 17.75)),
        ):
            design, report = build_design(recipe)
            assert design.sensors.heights == expected
            assert report.hard_pass

    def test_construction_guarantees(self):
        # C1 and C3 hold exactly for every feasible recipe build.
        for recipe in (MEDIUM_RECIPE, LARGE_RECIPE, XL_RECIPE, WORKSHOP_RECIPE):
            design, report = build_design(recipe)
            assert report.passed("C1", "C3")
            assert design.proximal_reserve == pytest.approx(min(recipe.d_pool), abs=1e-9)

    def test_deterministic(self):
        assert build_design(XL_RECIPE) == build_design(XL_RECIPE)

    def test_sensor_override_used_verbatim(self):
        recipe = DesignRecipe(
            G_XL,
            d_pool=XL_RECIPE.d_pool,
            z_pool=(1.0,),
            sensor_heights=(6.0, 7.0, 9.0, 11.0, 17.75),
        )
        design, _ = build_design(recipe)
        assert design.sensors.heights == (6.0, 7.0, 9.0, 11.0, 17.75)

    def test_single_element_pools(self):
        design, _ = build_design(MEDIUM_RECIPE)
        assert design.marks.gaps == (1.0,) * 5

    def test_recipe_validation(self):
        with pytest.raises(ValueError):
            DesignRecipe(G_MEDIUM, d_pool=(), z_pool=(1.0,))
        with pytest.raises(ValueError):
            DesignRecipe(G_MEDIUM, d_pool=(1.0, -0.5), z_pool=(1.0,))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d_pool=(1.0, math.nan), z_pool=(1.0,)),
            dict(d_pool=(1.0,), z_pool=(math.inf,)),
            dict(d_pool=(1.0,), z_pool=(1.0,), os1=math.nan),
        ],
    )
    def test_recipe_rejects_non_finite_values(self, kwargs):
        # A NaN gap or first-sensor height never ends the placement walk.
        with pytest.raises(ValueError, match="must be finite"):
            DesignRecipe(G_MEDIUM, **kwargs)
