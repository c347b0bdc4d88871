"""Search over gap-pool orderings for layouts that calibrate quickly.

A good layout yields detections often (small mean gap), spreads the gap
values so sequences disambiguate fast (large gap spread), and above all
leaves no starting position unidentifiable.  The scorer distils a design to
those numbers; the search permutes the pool orderings, exhaustively when the
space fits the budget and by seeded hill-climbing otherwise.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple

from .designer import DesignRecipe, InfeasibleRecipe, build_design
from .events import delta_stats, enumerate_events, rectify, stroke_profile
from .model import DEFAULT_GAP_TOLERANCE, CalibrationDesign, check_gap_tolerance


@dataclass(frozen=True)
class ObjectiveScore:
    """Calibration quality of one design, reproducible from the design alone."""

    mean_gap: float
    std_gap: float
    worst_stroke: float
    mean_stroke: float
    unidentifiable_starts: int


def sort_key(score: ObjectiveScore) -> tuple:
    """Lexicographic merit order, best first when sorted ascending.

    Unidentifiable starts dominate: a layout that cannot calibrate from
    somewhere defeats the purpose.  Then smaller worst-case stroke, smaller
    mean gap, and finally larger gap spread.
    """
    return (
        score.unidentifiable_starts,
        score.worst_stroke,
        score.mean_gap,
        -score.std_gap,
    )


def compare(a: ObjectiveScore, b: ObjectiveScore) -> int:
    """-1, 0 or 1 as a is better than, equal to, or worse than b."""
    ka, kb = sort_key(a), sort_key(b)
    return -1 if ka < kb else (1 if ka > kb else 0)


def score(
    design: CalibrationDesign, tolerance: float = DEFAULT_GAP_TOLERANCE
) -> ObjectiveScore:
    """Gap statistics plus identification strokes for one design.

    ``tolerance`` is the gap match tolerance calibration will use, so the
    strokes are the ones the identifier actually needs.
    """
    table = rectify(enumerate_events(design))
    stats = delta_stats(table)
    profile = stroke_profile(table, tolerance)
    worst = profile.worst_stroke if profile.worst_stroke is not None else float("inf")
    mean = profile.mean_stroke if profile.mean_stroke is not None else float("inf")
    return ObjectiveScore(
        mean_gap=stats.mean,
        std_gap=stats.std,
        worst_stroke=worst,
        mean_stroke=mean,
        unidentifiable_starts=profile.unidentifiable_starts,
    )


def _orderings(pool: tuple[float, ...]) -> int:
    """Distinct orderings of ``pool``: n! over each value's multiplicity factorial."""
    return math.factorial(len(pool)) // math.prod(map(math.factorial, Counter(pool).values()))


class SearchResult(NamedTuple):
    design: CalibrationDesign
    score: ObjectiveScore
    recipe: DesignRecipe
    trail: tuple[tuple[int, ObjectiveScore], ...]


def search(
    recipe: DesignRecipe,
    budget: int,
    seed: int = 0,
    tolerance: float = DEFAULT_GAP_TOLERANCE,
) -> SearchResult:
    """Best pool ordering under the merit order, within an evaluation budget.

    Distinct orderings of the two pools form the space.  When the whole
    space fits the budget it is enumerated and the global optimum returned;
    otherwise seeded hill-climbing over adjacent swaps with random restarts
    explores it.  The given ordering is always evaluated first, so the
    result is never worse than the starting recipe; a zero budget evaluates
    only that ordering.  Only designs that meet C1..C5 are returned.  The
    trail records (evaluation index, score) for every improvement within
    the budget.  Designs are scored at the gap match ``tolerance``.
    Deterministic per seed.
    """
    check_gap_tolerance(tolerance)
    if budget < 0:
        raise ValueError("budget must be non-negative")

    exhaustive = _orderings(recipe.d_pool) * _orderings(recipe.z_pool) <= budget

    best = None
    trail: list[tuple[int, ObjectiveScore]] = []
    evals = 0

    def evaluate(d_order: tuple[float, ...], z_order: tuple[float, ...]):
        """Build, check and score one ordering; None when it does not conform."""
        nonlocal best, evals
        evals += 1
        candidate = replace(recipe, d_pool=d_order, z_pool=z_order)
        try:
            design, report = build_design(candidate)
        except InfeasibleRecipe:
            return None
        if not report.hard_pass:
            return None
        result = candidate, design, score(design, tolerance)
        if best is None or compare(result[2], best[2]) < 0:
            best = result
            trail.append((evals, result[2]))
        return result

    if exhaustive:
        z_perms = sorted(set(itertools.permutations(recipe.z_pool)))
        for d_order in sorted(set(itertools.permutations(recipe.d_pool))):
            for z_order in z_perms:
                evaluate(d_order, z_order)
    else:
        rng = random.Random(seed)
        current_d = tuple(recipe.d_pool)
        current_z = tuple(recipe.z_pool)
        current = evaluate(current_d, current_z)
        stall = 0
        stall_limit = 2 * (len(current_d) + len(current_z))

        while evals < budget:
            if current is None or stall >= stall_limit:
                # Random restart from a fresh shuffle of both pools.
                d_list, z_list = list(current_d), list(current_z)
                rng.shuffle(d_list)
                rng.shuffle(z_list)
                current_d, current_z = tuple(d_list), tuple(z_list)
                current = evaluate(current_d, current_z)
                stall = 0
                continue

            swap_d = len(current_d) > 1 and (len(current_z) <= 1 or rng.random() < 0.5)
            if swap_d:
                k = rng.randrange(len(current_d) - 1)
                cand_d = list(current_d)
                cand_d[k], cand_d[k + 1] = cand_d[k + 1], cand_d[k]
                cand_d, cand_z = tuple(cand_d), current_z
            else:
                k = rng.randrange(len(current_z) - 1)
                cand_z = list(current_z)
                cand_z[k], cand_z[k + 1] = cand_z[k + 1], cand_z[k]
                cand_d, cand_z = current_d, tuple(cand_z)

            candidate = evaluate(cand_d, cand_z)
            if candidate is not None and compare(candidate[2], current[2]) < 0:
                current = candidate
                current_d, current_z = cand_d, cand_z
                stall = 0
            else:
                stall += 1

    if best is None:
        raise InfeasibleRecipe(
            "no pool ordering produces a conforming design"
            if exhaustive
            else "no conforming design found within the search budget"
        )
    candidate, design, best_score = best
    # The budget-0 evaluation only checks the given ordering; it is no step
    # of the search, so it leaves no trail.
    return SearchResult(design, best_score, candidate, tuple(trail) if budget else ())


def format_trail_csv(trail: tuple[tuple[int, ObjectiveScore], ...]) -> str:
    """Improvement trail as CSV: iteration, mean, std, worst_stroke."""
    lines = ["iteration,mean_gap,std_gap,worst_stroke"]
    for iteration, sc in trail:
        lines.append(f"{iteration},{sc.mean_gap!r},{sc.std_gap!r},{sc.worst_stroke!r}")
    return "\n".join(lines) + "\n"
