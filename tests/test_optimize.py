from __future__ import annotations

import itertools

import pytest

from cablecal import (
    DesignRecipe,
    InfeasibleRecipe,
    ObjectiveScore,
    RobotGeometry,
    build_design,
    compare,
    score,
    search,
)
from cablecal import optimize
from cablecal.optimize import _distinct_orderings, _orderings, format_trail_csv, sort_key

G_SMALL = RobotGeometry(h=6.0, rho_max=11.0, v=1.0, b=1.0)
FIVE_POOL = (0.5, 0.75, 1.0, 1.25, 1.5)
ORDERING_POOLS = [(3.0,), FIVE_POOL, (1.0, 1.0, 2.0), (0.5, 0.5, 0.75, 0.75, 0.75, 1.0)]
# 4320 orderings with long revisiting climbs: the bench's optimize-climb pools.
CLIMB_RECIPE = DesignRecipe(
    RobotGeometry(h=18.0, rho_max=32.0), (0.5, 0.75, 1.0, 1.25, 1.5, 1.75), (2.0, 3.0, 2.5)
)


def enumerate_best(recipe: DesignRecipe) -> ObjectiveScore:
    """Independent oracle: full enumeration of all pool orderings."""
    best = None
    for d_order in sorted(set(itertools.permutations(recipe.d_pool))):
        for z_order in sorted(set(itertools.permutations(recipe.z_pool))):
            try:
                design, report = build_design(
                    DesignRecipe(recipe.geometry, d_order, z_order, recipe.os1, recipe.sensor_heights)
                )
            except (InfeasibleRecipe, ValueError):
                continue
            if not report.hard_pass:
                continue
            sc = score(design)
            if best is None or sort_key(sc) < sort_key(best):
                best = sc
    assert best is not None
    return best


class TestScore:
    def test_constant_gap_design(self, medium):
        sc = score(medium)
        assert sc.mean_gap == pytest.approx(1.0)
        assert sc.std_gap == pytest.approx(0.0)
        assert sc.unidentifiable_starts == 8
        assert sc.worst_stroke == pytest.approx(8.0)

    def test_variable_gap_design(self, xl):
        sc = score(xl)
        assert sc.mean_gap == pytest.approx(0.5865384615384616)
        assert sc.std_gap == pytest.approx(0.461467754764927)
        assert sc.unidentifiable_starts == 1
        assert sc.worst_stroke == pytest.approx(3.75)

    def test_pure(self, workshop):
        assert score(workshop) == score(workshop)


    @pytest.mark.parametrize("tolerance", [0.0, -0.05, float("nan"), float("inf")])
    def test_rejects_unusable_tolerance(self, workshop, tolerance):
        with pytest.raises(ValueError, match="finite and positive"):
            score(workshop, tolerance)


class TestCompare:
    def test_identical_scores_are_equal(self, medium):
        assert compare(score(medium), score(medium)) == 0

    def test_unidentifiable_starts_dominate(self, medium, xl):
        # The constant-gap design leaves 8 starts blind; the varied one only
        # the final event.
        assert compare(score(xl), score(medium)) < 0

    def test_mean_gap_breaks_stroke_ties(self):
        a = ObjectiveScore(0.5, 0.3, 2.0, 1.5, 0)
        b = ObjectiveScore(0.6, 0.3, 2.0, 1.5, 0)
        assert compare(a, b) < 0
        assert compare(b, a) > 0

    def test_larger_spread_wins_last(self):
        a = ObjectiveScore(0.5, 0.4, 2.0, 1.5, 0)
        b = ObjectiveScore(0.5, 0.3, 2.0, 1.5, 0)
        assert compare(a, b) < 0


class TestSearch:
    def test_exhaustive_matches_enumeration(self):
        recipe = DesignRecipe(G_SMALL, d_pool=FIVE_POOL, z_pool=(3.0,))
        result = search(recipe, budget=200, seed=0)
        assert result.score == enumerate_best(recipe)
        # The emitted design really carries that score.
        assert score(result.design) == result.score

    def test_never_worse_than_initial(self):
        recipe = DesignRecipe(G_SMALL, d_pool=FIVE_POOL, z_pool=(3.0,))
        baseline_design, _ = build_design(recipe)
        baseline = score(baseline_design)
        for budget in (1, 7, 40, 200):
            result = search(recipe, budget=budget, seed=3)
            assert compare(result.score, baseline) <= 0

    def test_budget_zero_returns_seed_design(self):
        recipe = DesignRecipe(G_SMALL, d_pool=FIVE_POOL, z_pool=(3.0,))
        result = search(recipe, budget=0)
        design, _ = build_design(recipe)
        assert result.design == design
        assert result.trail == ()

    def test_budget_zero_rejects_non_conforming_order(self):
        # The sensors override leaves C1 failing for every ordering, so even
        # the echoed ordering must not come back.
        recipe = DesignRecipe(
            G_SMALL, d_pool=FIVE_POOL, z_pool=(3.0,), sensor_heights=(2.0, 4.5)
        )
        _, report = build_design(recipe)
        assert not report.hard_pass
        with pytest.raises(InfeasibleRecipe):
            search(recipe, budget=0)

    def test_single_element_pools(self):
        recipe = DesignRecipe(G_SMALL, d_pool=(1.0,), z_pool=(3.0,))
        result = search(recipe, budget=10, seed=0)
        design, _ = build_design(recipe)
        assert result.design == design

    def test_hill_climb_deterministic(self):
        recipe = DesignRecipe(G_SMALL, d_pool=FIVE_POOL, z_pool=(1.0, 2.0))
        a = search(recipe, budget=60, seed=42)
        b = search(recipe, budget=60, seed=42)
        assert a.design == b.design and a.score == b.score and a.trail == b.trail

    def test_hill_climb_trail_is_pinned(self):
        # Recorded before the search had one evaluation path; any change to
        # the visiting order or the scoring shows up here.
        recipe = DesignRecipe(G_SMALL, d_pool=FIVE_POOL, z_pool=(1.0, 2.0))
        assert format_trail_csv(search(recipe, budget=60, seed=42).trail) == (
            "iteration,mean_gap,std_gap,worst_stroke\n"
            "1,0.6428571428571429,0.30562492275106334,2.25\n"
            "2,0.5625,0.26614532371118854,2.25\n"
            "7,0.6,0.2958039891549808,2.0\n"
            "26,0.6,0.3986584646393093,2.0\n"
        )

    def test_hill_climb_not_worse_than_exhaustive_baseline(self):
        recipe = DesignRecipe(G_SMALL, d_pool=FIVE_POOL, z_pool=(1.0, 2.0))
        baseline_design, _ = build_design(recipe)
        result = search(recipe, budget=80, seed=11)  # space is 240 > budget
        assert compare(result.score, score(baseline_design)) <= 0

    def test_infeasible_recipe(self):
        # 0.8 m gaps can never close the 5.2 m instrumented span exactly.
        recipe = DesignRecipe(G_SMALL, d_pool=(0.8,), z_pool=(3.0,))
        with pytest.raises(InfeasibleRecipe):
            search(recipe, budget=10, seed=0)

    def test_trail_is_monotone_improvement(self):
        recipe = DesignRecipe(G_SMALL, d_pool=FIVE_POOL, z_pool=(3.0,))
        result = search(recipe, budget=200, seed=0)
        keys = [sort_key(sc) for _, sc in result.trail]
        assert all(later < earlier for earlier, later in zip(keys, keys[1:]))
        iterations = [it for it, _ in result.trail]
        assert iterations == sorted(iterations)
        assert result.trail[-1][1] == result.score

    def test_climb_does_not_enumerate_the_orderings(self, monkeypatch):
        # Listing all 9! mark-pool orderings costs far more time and memory
        # than the one evaluation asked for, and each further value multiplies it.
        def refuse(*args):
            raise AssertionError("a hill-climb must not list the orderings")

        monkeypatch.setattr(itertools, "permutations", refuse)
        d_pool = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5)
        recipe = DesignRecipe(RobotGeometry(h=18.0, rho_max=60.0), d_pool, (2.0,))
        assert search(recipe, budget=1).recipe == recipe  # the given ordering

    @pytest.mark.parametrize("pool", ORDERING_POOLS)
    def test_ordering_count_matches_distinct_permutations(self, pool):
        # The count decides between enumeration and hill-climbing.
        assert _orderings(pool) == len(set(itertools.permutations(pool)))

    @pytest.mark.parametrize("pool", ORDERING_POOLS)
    def test_distinct_orderings_in_lexicographic_order(self, pool):
        assert list(_distinct_orderings(pool)) == sorted(set(itertools.permutations(pool)))

    def test_exhaustive_search_streams_repeated_pools(self, monkeypatch):
        # 90 distinct orderings of 5! * 3! = 720 permutations.
        recipe = DesignRecipe(G_SMALL, d_pool=(0.5, 0.5, 0.75, 0.75, 1.0), z_pool=(1.0, 1.0, 2.0))
        expected = search(recipe, budget=90)
        oracle = enumerate_best(recipe)

        def refuse(*args):
            raise AssertionError("distinct orderings must not walk every permutation")

        monkeypatch.setattr(itertools, "permutations", refuse)
        assert search(recipe, budget=90) == expected
        assert expected.score == oracle and expected.revisits == 0

    def test_revisits_are_not_rebuilt(self, monkeypatch):
        expected = search(CLIMB_RECIPE, budget=500, seed=0)
        built = []
        build = optimize.build_design

        def counting(recipe):
            built.append((recipe.d_pool, recipe.z_pool))
            return build(recipe)

        monkeypatch.setattr(optimize, "build_design", counting)
        result = search(CLIMB_RECIPE, budget=500, seed=0)
        assert len(built) == len(set(built))  # each distinct ordering once
        assert result.revisits == 500 - len(built) > 0
        assert result == expected

    @pytest.mark.parametrize("budget", [0, 10, 200])
    @pytest.mark.parametrize("tolerance", [0.0, -0.05, float("nan"), float("inf")])
    def test_rejects_unusable_tolerance(self, budget, tolerance):
        # A usage error, not an infeasible recipe: no ordering could help.
        recipe = DesignRecipe(G_SMALL, d_pool=FIVE_POOL, z_pool=(3.0,))
        with pytest.raises(ValueError, match="finite and positive") as raised:
            search(recipe, budget=budget, tolerance=tolerance)
        assert not isinstance(raised.value, InfeasibleRecipe)
