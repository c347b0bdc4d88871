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
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple

from .designer import DesignRecipe, InfeasibleRecipe, build_design, mark_cycle
from .events import EventTable, delta_stats, enumerate_events, rectify, stroke_profile
from .model import DEFAULT_GAP_TOLERANCE, CalibrationDesign, check_gap_tolerance


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
    incumbent: ObjectiveScore | None = None,
    record: dict[bytes, ObjectiveScore | tuple] | None = None,
) -> ObjectiveScore | None:
    """Gap statistics plus identification strokes for one design.

    ``tolerance`` is the gap match tolerance calibration will use, so the
    strokes are the ones the identifier actually needs.

    Given an ``incumbent``, the result is None when the design's score
    would not beat it (``compare(score, incumbent) >= 0``), and the exact
    score otherwise.  The gap statistics come first; the stroke walk then
    stops as soon as its partial ``(unidentifiable_starts, worst_stroke)``
    proves the loss (see :func:`stroke_profile`), so a losing design is
    seldom walked in full.

    A ``record`` answers designs whose rectified gaps were scored before;
    :func:`search` keeps one, because its enumeration builds every rotation
    of a mark-pool ordering and each rotation builds the same layout.  Both
    the statistics and the walk read only the gaps and the tolerance, so one
    record serves calls at one tolerance.  It maps the packed gaps to the
    exact score, or to the sort key of the incumbent the design lost to.  A
    stored loss answers only an incumbent at least as good as that one;
    against a worse incumbent the walk runs again and the record keeps the
    new result.
    """
    table = rectify(enumerate_events(design))
    bar = None if incumbent is None else sort_key(incumbent)
    if record is None:
        return _verdict(_measure(table, tolerance, incumbent), bar)
    key = array("d", table.gaps).tobytes()
    result = record.get(key)
    if not _stands(result, bar):
        result = record[key] = _measure(table, tolerance, incumbent)
    return _verdict(result, bar)


def _measure(table: EventTable, tolerance: float, incumbent: ObjectiveScore | None):
    """The exact score of a rectified table, or the incumbent's sort key
    once the stroke walk proves the table cannot beat it."""
    stats = delta_stats(table)
    limit = None
    if incumbent is not None:
        worst = incumbent.worst_stroke
        if (stats.mean, -stats.std) >= (incumbent.mean_gap, -incumbent.std_gap):
            # The tail does not beat the incumbent's, so a tie on the
            # strokes loses too: the limit is the next float down.
            worst = math.nextafter(worst, -math.inf)
        limit = incumbent.unidentifiable_starts, worst
    profile = stroke_profile(table, tolerance, limit)
    if profile is None:
        return sort_key(incumbent)
    worst = profile.worst_stroke
    return ObjectiveScore(
        mean_gap=stats.mean,
        std_gap=stats.std,
        worst_stroke=worst if worst is not None else math.inf,
        unidentifiable_starts=profile.unidentifiable_starts,
    )


def _stands(result: ObjectiveScore | tuple | None, bar: tuple | None) -> bool:
    """Whether a stored result still decides against an incumbent of sort
    key ``bar`` (None when there is none).

    A result is an exact score, which always decides, or the sort key of
    an incumbent the design lost to.  A design that lost to an incumbent
    loses to any incumbent at least as good, so a loss decides when ``bar``
    is no worse than the key it lost to.
    """
    return isinstance(result, ObjectiveScore) or (
        result is not None and bar is not None and bar <= result
    )


def _verdict(result: ObjectiveScore | tuple, bar: tuple | None) -> ObjectiveScore | None:
    """The exact score of a deciding result when it beats ``bar``, else None."""
    if isinstance(result, ObjectiveScore) and (bar is None or sort_key(result) < bar):
        return result
    return None


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
    # Evaluations of an ordering visited before; one whose layout's stored
    # result still decides is not rebuilt.
    revisits: int


def _assess(
    candidate: DesignRecipe,
    tolerance: float,
    incumbent: ObjectiveScore | None,
    record: dict[bytes, ObjectiveScore | tuple],
):
    """(candidate, design, score) for a recipe whose design meets C1..C5 and
    can be scored, else None.  The score is None when it does not beat
    ``incumbent`` (see :func:`score`, which keeps its result in ``record``)."""
    try:
        design, report = build_design(candidate)
    except InfeasibleRecipe:
        return None
    if not report.hard_pass:
        return None
    try:
        scored = score(design, tolerance, incumbent, record)
    except ValueError:
        # The tolerance is checked and the table rectified, so score refuses
        # only a design of fewer than 3 events, which has no gap statistics.
        return None
    return candidate, design, scored


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
    scored at the gap match ``tolerance``.  Deterministic per seed.

    Scoring is bounded: an enumerated ordering is scored against the best
    so far and a climbing step against the current ordering, and its walk
    stops once it cannot beat that incumbent.  The given ordering and each
    restart are scored in full.  The result is the same as with every
    ordering scored in full.

    The climb keeps each layout's result: the marks follow the
    :func:`~cablecal.designer.mark_cycle` of the mark pool, so every
    rotation of an ordering builds the same layout.  A revisited or rotated
    ordering counts against the budget and is answered from that result
    without a build while the result still decides: an exact score always
    does, and a layout that lost to an incumbent still loses to any
    incumbent at least as good.  Only after a restart can the incumbent be
    worse; the stale result is then dropped and the ordering built and
    scored like a new one.  ``revisits`` counts evaluations of an ordering
    visited before.  The enumeration visits each ordering once and builds
    every one; a rotation there is answered from the gaps its layout's
    first ordering scored (see :func:`score`) instead of walking again.
    """
    check_gap_tolerance(tolerance)
    if budget < 0:
        raise ValueError("budget must be non-negative")

    exhaustive = _orderings(recipe.d_pool) * _orderings(recipe.z_pool) <= budget

    best = None
    trail: list[tuple[int, ObjectiveScore]] = []
    evals = 0
    visited: set[tuple[tuple[float, ...], tuple[float, ...]]] = set()
    # Climb layout (mark cycle, sensor order), or enumerated ordering ->
    # None when it does not conform, else its exact score or the sort key
    # of the incumbent it lost to.
    seen: dict[tuple[tuple[float, ...], tuple[float, ...]], ObjectiveScore | tuple | None] = {}
    # Packed rectified gaps -> the same kind of result, for :func:`score`.
    record: dict[bytes, ObjectiveScore | tuple] = {}

    def evaluate(
        d_order: tuple[float, ...],
        z_order: tuple[float, ...],
        incumbent: ObjectiveScore | None = None,
    ) -> ObjectiveScore | None:
        """The exact score of one ordering; None when it does not conform or
        does not beat ``incumbent``.

        A stored result cannot improve on ``best``: it was no better than
        ``best`` when first scored.
        """
        nonlocal best, evals
        evals += 1
        visited.add((d_order, z_order))
        # The enumeration keeps one key per ordering and so builds each one,
        # which the benchmark's exhaustive check (bench/workloads.py) needs.
        key = (d_order if exhaustive else mark_cycle(d_order)), z_order
        bar = None if incumbent is None else sort_key(incumbent)
        if key in seen:
            result = seen[key]
            if result is None:
                return None
            if _stands(result, bar):
                return _verdict(result, bar)
        assessed = _assess(
            replace(recipe, d_pool=d_order, z_pool=z_order), tolerance, incumbent, record
        )
        if assessed is None:
            seen[key] = None
            return None
        candidate, design, scored = assessed
        # A design that does not beat the incumbent lost to it.
        seen[key] = bar if scored is None else scored
        if scored is not None and (best is None or compare(scored, best[2]) < 0):
            best = candidate, design, scored
            trail.append((evals, scored))
        return scored

    if exhaustive:
        z_orders = list(_distinct_orderings(recipe.z_pool))
        for d_order in _distinct_orderings(recipe.d_pool):
            for z_order in z_orders:
                evaluate(d_order, z_order, None if best is None else best[2])
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

            if len(current_d) > 1 and (len(current_z) <= 1 or rng.random() < 0.5):
                cand_d, cand_z = _swap_adjacent(current_d, rng), current_z
            else:
                cand_d, cand_z = current_d, _swap_adjacent(current_z, rng)

            scored = evaluate(cand_d, cand_z, current)
            if scored is not None:
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
