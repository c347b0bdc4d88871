"""Search over gap-pool orderings for layouts that calibrate quickly.

A good layout yields detections often (small mean gap), spreads the gap
values so sequences disambiguate fast (large gap spread), and above all
leaves no starting position unidentifiable.  The scorer distils a design to
those numbers; the search permutes the pool orderings, exhaustively when the
space fits the budget and by seeded hill-climbing otherwise.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .designer import DesignRecipe, InfeasibleRecipe, build_design, mark_cycle
from .events import delta_stats, enumerate_events, rectify, stroke_profile
from .model import DEFAULT_GAP_TOLERANCE, CalibrationDesign, check_tolerance


@dataclass(frozen=True)
class ObjectiveScore:
    """Calibration quality of one design, reproducible from the design alone."""

    mean_gap: float
    std_gap: float
    worst_stroke: float
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
    design: CalibrationDesign,
    tolerance: float = DEFAULT_GAP_TOLERANCE,
    record: dict[CalibrationDesign, ObjectiveScore] | None = None,
) -> ObjectiveScore:
    """Gap statistics plus identification strokes for one design.

    ``tolerance`` is the gap match tolerance calibration will use, so the
    strokes are the ones the identifier actually needs.

    A ``record`` maps designs to their score at one tolerance and answers a
    design scored before without rectifying it.  :func:`search` keeps one in
    its enumeration, which builds every rotation of a mark-pool ordering,
    and each rotation builds an equal design.  The raw table is read first
    all the same: it is the one :func:`enumerate_events` built for the
    design, as :func:`~cablecal.model.validate_design` did for C5 when the
    design was built, so the read costs no second enumeration.
    """
    raw = enumerate_events(design)
    if record is not None and (scored := record.get(design)) is not None:
        return scored
    table = rectify(raw)
    stats = delta_stats(table)
    profile = stroke_profile(table, tolerance)
    worst = profile.worst_stroke
    scored = ObjectiveScore(
        mean_gap=stats.mean,
        std_gap=stats.std,
        worst_stroke=worst if worst is not None else math.inf,
        unidentifiable_starts=profile.unidentifiable_starts,
    )
    if record is not None:
        record[design] = scored
    return scored


def _orderings(pool: tuple[float, ...]) -> int:
    """Distinct orderings of ``pool``: n! over each value's multiplicity factorial."""
    return math.factorial(len(pool)) // math.prod(map(math.factorial, Counter(pool).values()))


def _distinct_orderings(pool: tuple[float, ...]):
    """Distinct orderings of ``pool`` in lexicographic order.

    Steps from the sorted pool by next permutation, so repeated values
    cost nothing: it yields ``sorted(set(itertools.permutations(pool)))``
    without walking all n! permutations.
    """
    order = sorted(pool)
    while True:
        yield tuple(order)
        i = len(order) - 2  # the last position before a non-increasing tail
        while i >= 0 and order[i] >= order[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(order) - 1  # the last tail value above order[i]
        while order[j] <= order[i]:
            j -= 1
        order[i], order[j] = order[j], order[i]
        order[i + 1 :] = reversed(order[i + 1 :])


class SearchResult(NamedTuple):
    design: CalibrationDesign
    score: ObjectiveScore
    recipe: DesignRecipe
    trail: tuple[tuple[int, ObjectiveScore], ...]
    # Evaluations of an ordering visited before; the climb answers them
    # from their layout's stored score, without a build.
    revisits: int


def _swap_adjacent(pool: tuple[float, ...], rng: random.Random) -> tuple[float, ...]:
    """``pool`` with one adjacent pair, drawn from ``rng``, swapped."""
    k = rng.randrange(len(pool) - 1)
    return pool[:k] + (pool[k + 1], pool[k]) + pool[k + 2 :]


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
    only that ordering.  Only designs that meet C1..C5 and have the 3
    events :func:`score` needs are returned.  The trail records (evaluation
    index, score) for every improvement within the budget.  Designs are
    scored at the gap match ``tolerance``.  Deterministic per seed.  A recipe
    with ``sensor_heights`` is searched with the first value of its
    ``z_pool`` alone, which the design ignores; the result's recipe says so.

    Every evaluation is scored exactly, and a climbing step is taken when
    its score beats the current ordering's.  The climb keeps each layout's
    score: the marks follow the :func:`~cablecal.designer.mark_cycle` of the
    mark pool, so every rotation of an ordering builds the same layout.  A
    revisited or rotated ordering counts against the budget and is answered
    from that score without a build.  ``revisits`` counts evaluations of an
    ordering visited before.  The enumeration visits each ordering once and
    builds every one; a rotation there is answered from its design's record
    entry (see :func:`score`), without rectifying or profiling it again.
    """
    check_tolerance("gap", tolerance)
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if recipe.sensor_heights is not None:
        # build_design places no sensors from the z_pool then, so every
        # ordering of it builds the same design; search one of them.
        recipe = DesignRecipe(
            recipe.geometry, recipe.d_pool, recipe.z_pool[:1], recipe.os1, recipe.sensor_heights
        )

    exhaustive = _orderings(recipe.d_pool) * _orderings(recipe.z_pool) <= budget

    best = None
    trail: list[tuple[int, ObjectiveScore]] = []
    evals = 0
    visited: set[tuple[tuple[float, ...], tuple[float, ...]]] = set()
    # The climb's layout (mark cycle, sensor order) -> its score, or None
    # when it does not conform.  The enumeration visits each ordering once
    # and keeps none.
    seen: dict[tuple[tuple[float, ...], tuple[float, ...]], ObjectiveScore | None] = {}
    # The enumeration's record for :func:`score`.  The climb's layout keys
    # leave it nothing to answer.
    record: dict[CalibrationDesign, ObjectiveScore] | None = {} if exhaustive else None

    def evaluate(d_order: tuple[float, ...], z_order: tuple[float, ...]) -> ObjectiveScore | None:
        """The score of one ordering; None when its design fails C1..C5 or
        has no score.

        A stored score cannot improve on ``best``: it was no better than
        ``best`` when first scored.
        """
        nonlocal best, evals
        evals += 1
        visited.add((d_order, z_order))
        # Without a memo the enumeration builds every ordering, which the
        # benchmark's exhaustive check (bench/workloads.py) needs.
        key = None if exhaustive else (mark_cycle(d_order), z_order)
        if key in seen:
            return seen[key]
        candidate = DesignRecipe(recipe.geometry, d_order, z_order, recipe.os1, recipe.sensor_heights)
        try:
            design, report = build_design(candidate)
            conforms = report.hard_pass
        except InfeasibleRecipe:
            conforms = False
        scored = None
        if conforms:
            try:
                scored = score(design, tolerance, record)
            except ValueError:
                # The tolerance is checked and the table rectified, so score
                # refuses only a design of fewer than 3 events or one whose
                # gap statistics overflow; neither has a score.
                pass
        if key is not None:
            seen[key] = scored
        if scored is not None and (best is None or compare(scored, best[2]) < 0):
            best = candidate, design, scored
            trail.append((evals, scored))
        return scored

    if exhaustive:
        z_orders = list(_distinct_orderings(recipe.z_pool))
        for d_order in _distinct_orderings(recipe.d_pool):
            for z_order in z_orders:
                evaluate(d_order, z_order)
    else:
        rng = random.Random(seed)
        current_d = tuple(recipe.d_pool)
        current_z = tuple(recipe.z_pool)
        current = evaluate(current_d, current_z)
        stall = 0
        max_stall = 2 * (len(current_d) + len(current_z))

        while evals < budget:
            if current is None or stall >= max_stall:
                # Random restart from a fresh shuffle of both pools.
                d_list, z_list = list(current_d), list(current_z)
                rng.shuffle(d_list)
                rng.shuffle(z_list)
                current_d, current_z = tuple(d_list), tuple(z_list)
                current = evaluate(current_d, current_z)
                stall = 0
                continue

            if len(current_d) > 1 and (len(current_z) <= 1 or rng.random() < 0.5):
                cand_d, cand_z = _swap_adjacent(current_d, rng), current_z
            else:
                cand_d, cand_z = current_d, _swap_adjacent(current_z, rng)

            scored = evaluate(cand_d, cand_z)
            if scored is not None and compare(scored, current) < 0:
                current = scored
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
    return SearchResult(
        design, best_score, candidate, tuple(trail) if budget else (), evals - len(visited)
    )


def format_trail_csv(trail: tuple[tuple[int, ObjectiveScore], ...]) -> str:
    """Improvement trail as CSV: iteration, mean, std, worst_stroke."""
    lines = ["iteration,mean_gap,std_gap,worst_stroke"]
    for iteration, sc in trail:
        lines.append(f"{iteration},{sc.mean_gap!r},{sc.std_gap!r},{sc.worst_stroke!r}")
    return "\n".join(lines) + "\n"
