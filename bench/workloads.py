"""The benchmark's workloads: inputs made from a seed, commands, output checks.

Every workload is a closed loop of CLI commands run in-process through
``cablecal.cli.main``.  A workload writes its inputs in ``prepare``, hands
out one pass of commands at a time, and classifies each command's output
as ``ok``, ``wrong`` (a confident but wrong cable length), ``unsure``
(exit 3 or 4) or ``error`` (the command broke its contract: an exception,
an exit code that does not match its output, or a failed check).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# (h, rho_max, d_pool, z_pool) of the recipes the optimize workloads search.
CLIMB_RECIPE = (18.0, 32.0, (0.5, 0.75, 1.0, 1.25, 1.5, 1.75), (2.0, 3.0, 2.5))
LONG_RECIPE = (18.0, 60.0, (0.5, 0.75, 1.25), (2.0, 3.0))
SMALL_LONG_RECIPE = (18.0, 32.0, (0.5, 0.75, 1.25), (2.0, 3.0))
OPTIMIZE_BUDGET = 500
SMALL_OPTIMIZE_BUDGET = 20

CONFIDENT = ("identified", "identified_by_exhaustion")
EXIT_FOR_STATUS = {"identified": 0, "identified_by_exhaustion": 0, "no_match": 3, "ambiguous": 4}
RHO_TOLERANCE = 0.01  # metres; a confident length further from the truth is wrong
WARMUP_CALIBRATIONS = 20


@dataclass
class Phase:
    """Everything measured over one timed loop."""

    traced: bool
    durations: list[float] = field(default_factory=list)
    passes: int = 0
    peak_rss_mb: float = 0.0  # of the whole process, read when the loop ends
    references: list[float] = field(default_factory=list)  # reference-loop samples, s per unit
    scaled: list[float] = field(default_factory=list)  # durations at the nominal host speed
    counts: Counter = field(default_factory=Counter)  # (kind, outcome) -> commands
    outputs: list = field(default_factory=list)  # kept for checks after the loop
    problems: list[str] = field(default_factory=list)

    def outcomes(self, outcome: str, kind: str | None = None) -> int:
        return sum(n for (k, o), n in self.counts.items() if o == outcome and kind in (None, k))

    def commands(self, kind: str | None = None) -> int:
        return sum(n for (k, _), n in self.counts.items() if kind in (None, k))

    def failed_ratio(self) -> float:
        """Commands that broke their contract or gave a wrong length."""
        return (self.outcomes("error") + self.outcomes("wrong")) / self.commands()

    def shares(self) -> dict[str, tuple[float, int]]:
        """Share of faulty traces, and of wrong and unsure outcomes among
        clean and faulty ones: metric name -> (value, sample count)."""
        total = self.commands()
        shares = {"calibrate.faulty_share": (self.commands("faulty") / total, total)}
        for kind in ("clean", "faulty"):
            n = self.commands(kind)
            for outcome in ("wrong", "unsure"):
                shares[f"calibrate.{kind}.{outcome}_ratio"] = (self.outcomes(outcome, kind) / n if n else 0.0, n)
        return shares

    def fail(self, kind: str, message: str) -> None:
        self.counts[kind, "error"] += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def recipe_config(recipe) -> str:
    h, rho_max, d_pool, z_pool = recipe
    return (
        f"[geometry]\nh = {h!r}\nrho_max = {rho_max!r}\n\n"
        f"[recipe]\nd_pool = {' '.join(map(repr, d_pool))}\n"
        f"z_pool = {' '.join(map(repr, z_pool))}\n"
    )


def _status_lines(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


class OptimizeWorkload:
    """`cablecal optimize` on one recipe; each pass is one command.

    Search seeds are drawn from the workload seed.  The checks after the loop
    recompute the best score from the returned design, and repeat the first
    command's search to confirm it is deterministic and strictly improving.
    """

    reference_every = 1  # commands between reference-loop samples
    reference_units = 200  # reference-loop units per sample

    def __init__(self, name: str, recipe, budget: int, seed: int, exhaustive: bool):
        self.name = name
        self.recipe = recipe
        self.budget = budget
        self.exhaustive = exhaustive
        self._search_seeds = random.Random(seed)
        self.repeat_checked = False

    def prepare(self, api, workdir: Path, capture) -> None:
        self.workdir = workdir
        self.config = workdir / f"{self.name}.ini"
        self.config.write_text(recipe_config(self.recipe))
        self.out = workdir / "best.ini"
        self.report = workdir / "trail.csv"
        capture(self._argv(seed=0, budget=1))  # warm-up: one evaluation

    def _argv(self, seed: int, budget: int) -> list[str]:
        return [
            "optimize", str(self.config), "--budget", str(budget), "--seed", str(seed),
            "--out", str(self.out), "--report", str(self.report),
        ]

    def pass_commands(self):
        seed = self._search_seeds.randrange(2**31)
        return [(self._argv(seed, self.budget), seed)]

    def record(self, phase: Phase, seed, rc, stdout: str, stderr: str) -> None:
        design = self.out.read_text() if rc == 0 else ""
        trail = self.report.read_text() if rc == 0 else ""
        phase.outputs.append((seed, rc, design, trail, stderr))

    def check(self, api, phase: Phase) -> None:
        for seed, rc, design_text, trail_text, stderr in phase.outputs:
            try:
                problem = self._check_command(api, seed, rc, design_text, trail_text, stderr)
            except (ValueError, IndexError) as exc:  # includes ConfigError on a bad design
                problem = f"unreadable output: {exc!r}"
            if problem is None and not self.repeat_checked:
                problem = self._check_repeat(api, seed, design_text, trail_text)
                self.repeat_checked = True
            if problem is None:
                phase.counts["search", "ok"] += 1
            else:
                phase.fail("search", f"optimize seed {seed}: {problem}")
        phase.outputs.clear()

    def _check_command(self, api, seed, rc, design_text, trail_text, stderr):
        if rc != 0:
            return f"exit code {rc!r}: {stderr.strip()}"
        rows = [line.split(",") for line in trail_text.splitlines()[1:]]
        if not rows:
            return "empty improvement trail"
        iterations = [int(row[0]) for row in rows]
        if iterations != sorted(set(iterations)) or iterations[0] < 1:
            return f"trail iterations do not strictly increase: {iterations}"
        check_config = self.workdir / "check.ini"
        check_config.write_text(design_text)
        design = api.config.load_config(check_config).design
        sc = api.optimize.score(design)
        if rows[-1][1:] != [repr(sc.mean_gap), repr(sc.std_gap), repr(sc.worst_stroke)]:
            return f"reported best {rows[-1][1:]} differs from the recomputed {sc}"
        best = (
            f"best: mean_gap={sc.mean_gap:.3f} std_gap={sc.std_gap:.3f} "
            f"worst_stroke={sc.worst_stroke:.3f} unidentifiable={sc.unidentifiable_starts}"
        )
        if best not in stderr:
            return f"summary line {stderr.strip()!r} differs from the recomputed {best!r}"
        return None

    def _check_repeat(self, api, seed, design_text, trail_text):
        loaded = api.config.load_config(self.config, require_design=False)
        built: list[tuple] = []
        original = api.optimize.build_design

        def recording(recipe):
            built.append((recipe.d_pool, recipe.z_pool))
            return original(recipe)

        api.optimize.build_design = recording
        try:
            result = api.optimize.search(loaded.recipe, budget=self.budget, seed=seed)
        finally:
            api.optimize.build_design = original
        if api.optimize.format_trail_csv(result.trail) != trail_text:
            return "a repeat of the search gave another trail"
        if api.config.dump_design(result.design, loaded.geom_tol, loaded.gap_tol) != design_text:
            return "a repeat of the search gave another design"
        scores = [sc for _, sc in result.trail]
        if any(api.optimize.compare(b, a) >= 0 for a, b in zip(scores, scores[1:])):
            return "the trail does not strictly improve"
        if api.optimize.score(result.design) != result.score:
            return "the returned score differs from the recomputed one"
        if self.exhaustive:
            _, _, d_pool, z_pool = self.recipe
            space = set(itertools.product(set(itertools.permutations(d_pool)), set(itertools.permutations(z_pool))))
            if len(built) != len(space) or set(built) != space:
                return f"exhaustive search evaluated {len(set(built))} of {len(space)} orderings"
        return None


class CalibrateWorkload:
    """`cablecal calibrate` over seeded drives on five designs.

    For every rectified start of every design one drive starts just above
    that event and winds to b; drives with three or more detections are
    replayed a second time with one of their first three detections dropped
    (kind ``faulty``).  A pass runs every trace once, in a seeded order.
    """

    reference_every = 50
    reference_units = 10

    def __init__(self, seed: int, small: bool):
        self.seed = seed
        self.small = small

    def designs(self, api):
        names = ("workshop", "medium-cube") if self.small else tuple(api.presets.ALL)
        designs = {name: api.presets.ALL[name]() for name in names}
        if not self.small:
            h, rho_max, d_pool, z_pool = LONG_RECIPE
            recipe = api.designer.DesignRecipe(api.model.RobotGeometry(h, rho_max), d_pool, z_pool)
            designs["long-recipe"] = api.designer.build_design(recipe).design
        return designs

    def prepare(self, api, workdir: Path, capture) -> None:
        rng = random.Random(self.seed)
        self.commands: list[tuple[list[str], int]] = []
        self.truths: list[tuple[float, ...]] = []
        self.kinds: list[str] = []
        for name, design in self.designs(api).items():
            config = workdir / f"{name}.ini"
            config.write_text(api.config.dump_design(design))
            events = api.events.rectify(api.events.enumerate_events(design)).events
            geometry = design.geometry
            for p, event in enumerate(events):
                above = events[p - 1].rho if p else geometry.rho_max
                start = event.rho + rng.uniform(0.1, 0.9) * (above - event.rho)
                encoder = api.simulate.EncoderModel(
                    scale=rng.uniform(0.98, 1.02),
                    offset=rng.uniform(-50.0, 50.0),
                    noise_sd=0.005,
                    seed=rng.randrange(2**31),
                )
                trace = api.simulate.simulate(design, encoder, start, geometry.b)
                variants = [("clean", trace)]
                if trace.count >= 3:
                    drop = rng.randrange(3)
                    records = trace.records[:drop] + trace.records[drop + 1 :]
                    variants.append(
                        ("faulty", api.simulate.ObservationTrace(records, trace.start_rho, trace.stop_rho))
                    )
                for kind, replay in variants:
                    path = workdir / f"{name}-{p + 1}-{kind}.csv"
                    path.write_text(api.simulate.format_trace_csv(replay))
                    key = len(self.commands)
                    self.commands.append((["calibrate", str(config), "--trace", str(path)], key))
                    self.truths.append(tuple(r.truth_rho for r in replay.records))
                    self.kinds.append(kind)
        rng.shuffle(self.commands)
        for argv, _ in self.commands[:WARMUP_CALIBRATIONS]:
            capture(argv)

    def pass_commands(self):
        return self.commands

    def record(self, phase: Phase, key: int, rc, stdout: str, stderr: str) -> None:
        kind = self.kinds[key]
        fields = _status_lines(stdout)
        status = fields.get("status")
        if status not in EXIT_FOR_STATUS or rc != EXIT_FOR_STATUS[status]:
            phase.fail(kind, f"trace {key}: exit code {rc!r} with status {status!r}: {stderr.strip()}")
            return
        if status not in CONFIDENT:
            phase.counts[kind, "unsure"] += 1
            return
        try:
            rho = float(fields["rho"])
            used = int(fields["detections_used"])
            if not 1 <= used <= len(self.truths[key]):
                raise IndexError(f"detections_used {used} outside the trace")
            truth = self.truths[key][used - 1]
        except (KeyError, ValueError, IndexError) as exc:
            phase.fail(kind, f"trace {key}: unreadable {status} result ({exc!r})")
            return
        outcome = "ok" if abs(rho - truth) <= RHO_TOLERANCE else "wrong"
        phase.counts[kind, outcome] += 1

    def check(self, api, phase: Phase) -> None:
        pass  # every command was classified as it finished


def make(name: str, seed: int, small: bool):
    if name == "optimize-climb":
        budget = SMALL_OPTIMIZE_BUDGET if small else OPTIMIZE_BUDGET
        return OptimizeWorkload(name, CLIMB_RECIPE, budget, seed, exhaustive=False)
    if name == "optimize-long":
        recipe = SMALL_LONG_RECIPE if small else LONG_RECIPE
        return OptimizeWorkload(name, recipe, OPTIMIZE_BUDGET, seed, exhaustive=True)
    if name == "calibrate-sweep":
        return CalibrateWorkload(seed, small)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("optimize-climb", "optimize-long", "calibrate-sweep")
