from __future__ import annotations

import itertools
import random
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from cablecal import (
    DesignRecipe,
    EventTable,
    InfeasibleRecipe,
    ObjectiveScore,
    RobotGeometry,
    build_design,
    compare,
    mark_cycle,
    score,
    search,
)
from cablecal import events, optimize
from cablecal.optimize import (
    SearchResult,
    _distinct_orderings,
    _orderings,
    _swap_adjacent,
    format_trail_csv,
    sort_key,
)

G_SMALL = RobotGeometry(h=6.0, rho_max=11.0, v=1.0, b=1.0)
FIVE_POOL = (0.5, 0.75, 1.0, 1.25, 1.5)
ORDERING_POOLS = [(3.0,), FIVE_POOL, (1.0, 1.0, 2.0), (0.5, 0.5, 0.75, 0.75, 0.75, 1.0)]
# 4320 orderings with long revisiting climbs: the bench's optimize-climb pools.
CLIMB_RECIPE = DesignRecipe(
    RobotGeometry(h=18.0, rho_max=32.0), (0.5, 0.75, 1.0, 1.25, 1.5, 1.75), (2.0, 3.0, 2.5)
)
# 12 orderings of 144-165 events, enumerated: the bench's optimize-long pools.
LONG_RECIPE = DesignRecipe(RobotGeometry(h=18.0, rho_max=60.0), (0.5, 0.75, 1.25), (2.0, 3.0))


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


def reference_climb(recipe: DesignRecipe, budget: int, seed: int) -> SearchResult:
    """Independent oracle: the hill-climb with every ordering scored in full.

    The climb of :func:`search` for pools of two or more values, keyed by
    ordering rather than by layout: each distinct ordering is built and
    scored once, and a revisit reuses that.
    """
    best = None
    trail = []
    evals = revisits = 0
    seen = {}

    def evaluate(d_order, z_order):
        nonlocal best, evals, revisits
        evals += 1
        if (d_order, z_order) in seen:
            revisits += 1
            return seen[d_order, z_order]
        candidate = replace(recipe, d_pool=d_order, z_pool=z_order)
        design, report = build_design(candidate)
        result = seen[d_order, z_order] = (candidate, design, score(design)) if report.hard_pass else None
        if result is not None and (best is None or compare(result[2], best[2]) < 0):
            best = result
            trail.append((evals, result[2]))
        return result

    rng = random.Random(seed)
    current_d, current_z = recipe.d_pool, recipe.z_pool
    current = evaluate(current_d, current_z)
    stall, stall_limit = 0, 2 * (len(current_d) + len(current_z))
    while evals < budget:
        if current is None or stall >= stall_limit:
            d_list, z_list = list(current_d), list(current_z)
            rng.shuffle(d_list)
            rng.shuffle(z_list)
            current_d, current_z = tuple(d_list), tuple(z_list)
            current = evaluate(current_d, current_z)
            stall = 0
            continue
        if rng.random() < 0.5:
            cand_d, cand_z = _swap_adjacent(current_d, rng), current_z
        else:
            cand_d, cand_z = current_d, _swap_adjacent(current_z, rng)
        candidate = evaluate(cand_d, cand_z)
        if candidate is not None and compare(candidate[2], current[2]) < 0:
            current, current_d, current_z, stall = candidate, cand_d, cand_z, 0
        else:
            stall += 1
    candidate, design, best_score = best
    return SearchResult(design, best_score, candidate, tuple(trail), revisits)


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


class TestRecordedScore:
    def test_record_is_keyed_by_the_design(self):
        # Rotations of a mark-pool ordering build equal designs, so the
        # second is answered from the first's entry.
        first, _ = build_design(DesignRecipe(G_SMALL, FIVE_POOL, (1.0, 2.0)))
        rotated, _ = build_design(DesignRecipe(G_SMALL, FIVE_POOL[1:] + FIVE_POOL[:1], (1.0, 2.0)))
        record = {}
        scored = score(first, 0.05, record)
        assert record == {first: scored}
        assert rotated == first and score(rotated, 0.05, record) is scored

    # Every ordering of a 240-ordering recipe.  At 0.3 m gaps of different
    # values match, so matching is no equivalence and the walk profiles them.
    @pytest.mark.parametrize("tolerance", [0.01, 0.05, 0.3])
    def test_shared_record_answers_as_the_full_score(self, tolerance):
        record = {}  # shared by every design, as in one search
        designs = 0
        for d_order in itertools.permutations(FIVE_POOL):
            for z_order in ((1.0, 2.0), (2.0, 1.0)):
                design, report = build_design(DesignRecipe(G_SMALL, d_order, z_order))
                if report.hard_pass:
                    designs += 1
                    assert score(design, tolerance, record) == score(design, tolerance)
        # Rotations of a mark ordering build one layout, answered once scored.
        assert designs > 200 and 0 < len(record) < designs


class TestCompare:
    def test_identical_scores_are_equal(self, medium):
        assert compare(score(medium), score(medium)) == 0

    def test_unidentifiable_starts_dominate(self, medium, xl):
        # The constant-gap design leaves 8 starts blind; the varied one only
        # the final event.
        assert compare(score(xl), score(medium)) < 0

    def test_mean_gap_breaks_stroke_ties(self):
        a = ObjectiveScore(0.5, 0.3, 2.0, 0)
        b = ObjectiveScore(0.6, 0.3, 2.0, 0)
        assert compare(a, b) < 0
        assert compare(b, a) > 0

    def test_larger_spread_wins_last(self):
        a = ObjectiveScore(0.5, 0.4, 2.0, 0)
        b = ObjectiveScore(0.5, 0.3, 2.0, 0)
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

    @pytest.mark.parametrize("budget", [60, 200, 1000])
    def test_sensor_override_ignores_z_pool_orderings(self, budget):
        # With sensor_heights set the z_pool places nothing, so its orderings
        # neither count towards enumerating nor take climbing steps.
        twin = DesignRecipe(G_SMALL, FIVE_POOL, (1.0,), sensor_heights=(2.0, 3.5, 5.5))
        recipe = replace(twin, z_pool=(1.0, 2.0, 1.5))
        for seed in range(5):
            result, expected = search(recipe, budget, seed), search(twin, budget, seed)
            assert result.design == expected.design and result.score == expected.score
            assert result.trail == expected.trail and result.revisits == expected.revisits
            assert build_design(result.recipe).design == result.design

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

    @pytest.mark.parametrize("recipe,every", [(CLIMB_RECIPE, 60), (LONG_RECIPE, 1)])
    def test_rotated_mark_orderings_build_one_design(self, recipe, every):
        # The marks are placed cycling the pool from just after its
        # minimum, so every rotation of an ordering builds the same layout.
        for d_order in itertools.islice(_distinct_orderings(recipe.d_pool), 0, None, every):
            rotations = [d_order[k:] + d_order[:k] for k in range(len(d_order))]
            designs = [build_design(replace(recipe, d_pool=d)).design for d in rotations]
            assert all(design == designs[0] for design in designs[1:])

    def test_repeated_gaps_are_walked_once(self, monkeypatch):
        # The long recipe's 12 orderings build 4 layouts; a search scores
        # each layout's gaps once and answers its other orderings from that.
        expected = search(LONG_RECIPE, budget=500)
        calls = Counter()

        def counting(name, real):
            def count(*args):
                calls[name] += 1
                return real(*args)

            return count

        for name in ("delta_stats", "stroke_profile"):
            monkeypatch.setattr(optimize, name, counting(name, getattr(optimize, name)))
        assert search(LONG_RECIPE, budget=500) == expected
        assert calls == {"delta_stats": 4, "stroke_profile": 4}

    @pytest.mark.parametrize(
        "recipe,builds,calls,rectified_tables",
        [(LONG_RECIPE, 12, 24, 4), (CLIMB_RECIPE, 188, 376, 188)],
        ids=["long", "climb"],
    )
    def test_each_build_rectifies_at_most_once(self, monkeypatch, recipe, builds, calls, rectified_tables):
        # Every build enumerates and rectifies its table twice, for C5 and
        # for the score, and the score's calls return the tables C5's kept.
        # Only a raw table not seen before is rectified: the long recipe's
        # 12 orderings build 4 layouts.
        expected = search(recipe, budget=500, seed=0)
        counts = Counter()
        from_columns = EventTable._from_columns

        def counting(name, real):
            def count(*args):
                counts[name] += 1
                return real(*args)

            return count

        def counting_from_columns(cls, columns, clock, allowance, rectified=False):
            counts["rectified tables"] += rectified
            return from_columns(columns, clock, allowance, rectified)

        # validate_design reads the events module's functions; search and
        # score call the names the optimize module imported.
        for module, name in [(events, "enumerate_events"), (events, "rectify"),
                             (optimize, "enumerate_events"), (optimize, "rectify"),
                             (optimize, "build_design")]:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        # A registry of its own, so the expected result's design shares no table.
        monkeypatch.setattr(events, "_table_builders", weakref.WeakValueDictionary())
        monkeypatch.setattr(EventTable, "_from_columns", classmethod(counting_from_columns))
        assert search(recipe, budget=500, seed=0) == expected
        assert counts == {
            "build_design": builds, "enumerate_events": calls, "rectify": calls, "rectified tables": rectified_tables,
        }

    @pytest.mark.parametrize("recipe,exhaustive", [(LONG_RECIPE, True), (CLIMB_RECIPE, False)])
    def test_only_the_enumeration_keeps_a_gap_record(self, monkeypatch, recipe, exhaustive):
        # The enumeration shares one record across its orderings; the
        # climb's layout keys leave a record nothing to answer, so it passes
        # none.
        records = []
        real_score = optimize.score

        def recording(design, tolerance, record):
            records.append(record)
            return real_score(design, tolerance, record)

        monkeypatch.setattr(optimize, "score", recording)
        search(recipe, budget=500, seed=0)
        if exhaustive:
            assert len(records) == 12
            assert all(record is records[0] for record in records)
            assert len(records[0]) == 4  # one entry per layout
        else:
            assert records and all(record is None for record in records)

    def test_revisits_are_not_rebuilt(self, monkeypatch):
        # A revisited or rotated ordering is answered from its layout's
        # stored score, so every layout is built once.
        built = []
        build = optimize.build_design

        def counting_build(recipe):
            built.append((mark_cycle(recipe.d_pool), recipe.z_pool))
            return build(recipe)

        monkeypatch.setattr(optimize, "build_design", counting_build)
        result = search(CLIMB_RECIPE, budget=500, seed=0)
        assert result == reference_climb(CLIMB_RECIPE, 500, 0)
        assert result.revisits == 282  # 218 distinct orderings
        assert len(built) == len(set(built)) == 188

    def test_rescored_revisit_matches_full_scoring(self, monkeypatch):
        # At seed 13 a restart leaves the climb worse than an ordering it
        # scored before, and the climb comes back to that ordering.  Its
        # stored score is exact, so it is answered without a build: every
        # ordering is built once, and every score comes with its own build.
        expected = reference_climb(CLIMB_RECIPE, 60, 13)
        built, designs, scored = [], [], []
        build, real_score = optimize.build_design, optimize.score

        def counting_build(recipe):
            built.append((recipe.d_pool, recipe.z_pool))
            result = build(recipe)
            designs.append(result.design)  # kept alive, so ids stay unique
            return result

        def counting_score(design, *args):
            assert design is designs[-1]
            scored.append(id(design))
            return real_score(design, *args)

        monkeypatch.setattr(optimize, "build_design", counting_build)
        monkeypatch.setattr(optimize, "score", counting_score)
        assert search(CLIMB_RECIPE, 60, 13) == expected
        assert len(built) == len(set(built)) == 21
        assert len(scored) == len(set(scored)) == 21  # no design scored twice

    def test_rejects_negative_budget(self):
        recipe = DesignRecipe(G_SMALL, d_pool=FIVE_POOL, z_pool=(3.0,))
        with pytest.raises(ValueError, match="^budget must be non-negative$") as raised:
            search(recipe, budget=-1)
        assert not isinstance(raised.value, InfeasibleRecipe)

    @pytest.mark.parametrize("budget", [0, 10, 200])
    @pytest.mark.parametrize("tolerance", [0.0, -0.05, float("nan"), float("inf")])
    def test_rejects_unusable_tolerance(self, budget, tolerance):
        # A usage error, not an infeasible recipe: no ordering could help.
        recipe = DesignRecipe(G_SMALL, d_pool=FIVE_POOL, z_pool=(3.0,))
        with pytest.raises(ValueError, match="finite and positive") as raised:
            search(recipe, budget=budget, tolerance=tolerance)
        assert not isinstance(raised.value, InfeasibleRecipe)
