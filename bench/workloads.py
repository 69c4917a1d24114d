"""The benchmark workloads and the loop that runs them.

Every workload is a closed loop: one caller in one process runs items back
to back, in cycles.  A run repeats whole cycles until at least the given
number of seconds has passed (and at least ``min_cycles`` cycles), so each
run executes the same mix of items.  Inputs derive from the workload seed
only.  spanlab functions are always looked up on their module at call
time, so a traced run sees every call.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks
from spanlab import analytic, configs, mc, metrics, nets
from spanlab.configs import Window


@dataclass(frozen=True)
class Scale:
    pipeline_side: float
    small_min_cycles: int
    length_side: float
    crossing_mean_replicates: int
    crossing_grid_replicates: int


# FULL is what the benchmark measures; SMOKE is a seconds-long version of
# every workload for the benchmark's own tests.
FULL = Scale(pipeline_side=40.0, small_min_cycles=22, length_side=40.0,
             crossing_mean_replicates=1500, crossing_grid_replicates=600)
SMOKE = Scale(pipeline_side=12.0, small_min_cycles=1, length_side=12.0,
              crossing_mean_replicates=60, crossing_grid_replicates=30)
SCALES = {"full": FULL, "smoke": SMOKE}


def derive_seed(seed: int, *keys: int) -> int:
    """Independent 32-bit seed for one input, from the workload seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclass
class Item:
    kind: str
    n: int
    seconds: float
    result: object = None
    error: str | None = None


@dataclass
class Recorder:
    """Times items and counts them as attempted or failed."""

    tracer: object = None
    attempted: int = 0
    failed: int = 0
    windows: list = field(default_factory=list)  # (start, end) of every call
    samples: list = field(default_factory=list)  # per-item seconds
    seconds_by_kind: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def item(self, kind: str, work, n: int = 1, sample: bool = True) -> Item:
        """Run ``work()`` as one timed call covering ``n`` items.

        ``sample=False`` keeps the call out of the per-item time samples.
        """
        t0 = perf_counter()
        try:
            if self.tracer is None:
                result = work()
            else:
                with self.tracer.span("bench." + kind):
                    result = work()
        except Exception as exc:  # a failing item is counted; the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        t1 = perf_counter()
        it = Item(kind, n, t1 - t0, result, error)
        self.windows.append((t0, t1))
        self.attempted += n
        self.seconds_by_kind.setdefault(kind, []).append(it.seconds)
        if sample:  # every item of the call is a sample of the call's per-item time
            self.samples.extend([it.seconds / n] * n)
        if it.error is not None:
            self._fail(it, it.error)
        return it

    def check(self, it: Item, reason: str | None) -> None:
        """Count the item as failed when its check gave a reason."""
        if reason is not None and it.error is None:
            it.error = reason
            self._fail(it, reason)

    def _fail(self, it: Item, reason: str) -> None:
        self.failed += it.n
        if len(self.failures) < 20:
            self.failures.append(f"{it.kind}: {reason}")

    def ok(self, it: Item) -> bool:
        return it.error is None


def _quantile(values, q: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


# ---------------------------------------------------------------------------
# pipeline_torus40: ROADMAP's baseline instance, one replicate per construction
# ---------------------------------------------------------------------------


class PipelineTorus40:
    name = "pipeline_torus40"
    min_cycles = 1

    def __init__(self, seed: int, scale: Scale):
        side = scale.pipeline_side
        self.config = configs.poisson(Window.square(side), seed=seed, torus=True)
        self.area = side * side
        # (name, builder, length partner, relative floor, stretch bound, slack)
        self.constructions = (
            ("delaunay", lambda c: nets.delaunay(c), checks.DELAUNAY_LENGTH, 0.03,
             checks.DELAUNAY_STRETCH, checks.STRETCH_SLACK),
            ("theta6", lambda c: nets.theta_graph(c, 6), analytic.theta_mean_length(6),
             0.02, analytic.s_m_bound(6), checks.STRETCH_SLACK),
            ("cone4", lambda c: nets.cone_road_network(c, 4), 4 * analytic.cone_Lk(4),
             0.02, checks.cone_stretch_bound(4), checks.CONE_STRETCH_SLACK),
        )

    def cycle(self, c: int, rec: Recorder) -> None:
        for name, build, length_target, floor, bound, slack in self.constructions:
            def replicate(build=build):
                net = build(self.config)
                return (metrics.normalized_length(net, 0.0),
                        metrics.stretch(net, "steiner"))

            it = rec.item(name, replicate)
            if rec.ok(it):
                length, report = it.result
                rec.check(it, checks.length(length, length_target, floor, self.area)
                          or checks.stretch(report, bound, slack))


# ---------------------------------------------------------------------------
# small_exact: many small planar instances, every pair scored exactly
# ---------------------------------------------------------------------------


GRID_VARIANTS = (("N1", 1.0), ("N2", math.sqrt(2.0)), ("N3", math.sqrt(3.0)))


class SmallExact:
    name = "small_exact"

    def __init__(self, seed: int, scale: Scale):
        self.seed = seed
        self.min_cycles = scale.small_min_cycles
        self.theta_bound = analytic.s_m_bound(6)

    def cycle(self, c: int, rec: Recorder) -> None:
        grid_cfg = configs.uniform_n(100, Window.square(10),
                                     seed=derive_seed(self.seed, 1, c, 0))
        theta_cfg = configs.uniform_n(40, Window.square(12),
                                      seed=derive_seed(self.seed, 1, c, 1))
        for variant, t in GRID_VARIANTS:
            it = rec.item(f"grid_{variant}", lambda: metrics.stretch(
                nets.grid_freeway(grid_cfg, t, variant), "steiner", pair_filter="all"))
            if rec.ok(it):
                rec.check(it, checks.stretch(it.result,
                                             checks.GRID_FREEWAY_STRETCH[variant],
                                             need_exact=True))
        modes = {}
        for mode in ("steiner", "graph"):
            it = rec.item(f"theta6_{mode}", lambda: metrics.stretch(
                nets.theta_graph(theta_cfg, 6), mode, pair_filter="all"))
            if rec.ok(it):
                rec.check(it, checks.stretch(it.result, self.theta_bound,
                                             need_exact=True))
            modes[mode] = it
        steiner, graph = modes["steiner"], modes["graph"]
        if rec.ok(steiner) and rec.ok(graph):
            reason = checks.mode_dominance(steiner.result, graph.result)
            rec.check(steiner, reason)
            rec.check(graph, reason)


# ---------------------------------------------------------------------------
# length_mc: builder-heavy length replicates and the length identity
# ---------------------------------------------------------------------------


class LengthMC:
    name = "length_mc"
    min_cycles = 1

    def __init__(self, seed: int, scale: Scale):
        self.seed = seed
        side = scale.length_side
        self.window = Window.square(side)
        self.area = side * side
        self.theta_target = analytic.theta_mean_length(10)
        self.cone_target = analytic.cone_Lk(8)

    def cycle(self, c: int, rec: Recorder) -> None:
        it = rec.item("Lm10", lambda: mc.empirical_Lm(
            10, self.window, replicates=1, master_seed=derive_seed(self.seed, 2, c, 0)))
        if rec.ok(it):
            rec.check(it, checks.length(it.result.mean, self.theta_target, 0.02,
                                        self.area))
        it = rec.item("Lk8", lambda: mc.empirical_Lk(
            8, self.window, replicates=1, master_seed=derive_seed(self.seed, 2, c, 1)))
        if rec.ok(it):
            rec.check(it, checks.length(it.result.mean, self.cone_target, 0.02,
                                        self.area))

        def identity():
            cfg = configs.poisson(self.window, seed=derive_seed(self.seed, 2, c, 2))
            net = nets.delaunay(cfg)
            rate, se = metrics.intersection_rate(
                net, n_lines=10_000, seed=derive_seed(self.seed, 2, c, 3))
            return metrics.normalized_length(net, 0.1), rate, se

        it = rec.item("identity", identity)
        if rec.ok(it):
            rec.check(it, checks.identity(*it.result))


# ---------------------------------------------------------------------------
# crossing_mc: the crossing-count model and the analytic partners
# ---------------------------------------------------------------------------


CROSSING_MEANS = ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0))
# the h = 1.2 column of the acceptance suite's 4 x 5 second-moment grid; a
# fixed slice keeps every cycle the same mix of work
GRID_SLICE = tuple((1.2, L) for L in (0.3, 0.6, 1.0, 1.4))


class CrossingMC:
    name = "crossing_mc"
    min_cycles = 1

    def __init__(self, seed: int, scale: Scale):
        self.seed = seed
        self.mean_reps = scale.crossing_mean_replicates
        self.grid_reps = scale.crossing_grid_replicates

    def cycle(self, c: int, rec: Recorder) -> None:
        for i, (h, L) in enumerate(CROSSING_MEANS):
            it = rec.item("crossing_mean", lambda: mc.crossing_experiment(
                h, L, replicates=self.mean_reps,
                master_seed=derive_seed(self.seed, 3, c, i)), n=self.mean_reps)
            if rec.ok(it):
                first, _ = it.result
                rec.check(it, checks.mean(first.mean, first.se,
                                          analytic.expected_crossings(h, L)))
        for i, (h, L) in enumerate(GRID_SLICE):
            it = rec.item("crossing_grid", lambda: mc.crossing_experiment(
                h, L, replicates=self.grid_reps,
                master_seed=derive_seed(self.seed, 3, c, 10 + i)), n=self.grid_reps)
            if rec.ok(it):
                _, second = it.result
                rec.check(it, checks.below(second.mean, second.se,
                                           analytic.second_moment_upper(h, L)))
        self._partners(rec)

    @staticmethod
    def _partners(rec: Recorder) -> None:
        """The acceptance suite's analytic checks, one item each."""
        excesses = (1e-4, 1e-3, 1e-2)
        it = rec.item("prop38", lambda: [analytic.prop38_lower_bound(s)[0]
                                         for s in excesses], sample=False)
        if rec.ok(it):
            reason = checks.band([v * s ** 0.375 for v, s in zip(it.result, excesses)],
                                 3.0, "prop38 * s^(3/8)")
            for v, s in zip(it.result, excesses):
                k = math.ceil(math.pi / math.acos(1.0 / (1.0 + s)))
                reason = reason or checks.at_most(v, k * analytic.cone_Lk(k),
                                                  f"prop38({s:g})")
            rec.check(it, reason)
        js = (2, 3, 4, 5)
        it = rec.item("psi_star", lambda: [analytic.psi_star(1.0 + 10.0 ** -j)
                                           for j in js], sample=False)
        if rec.ok(it):
            reason = None
            for v, j in zip(it.result, js):
                reason = reason or checks.relative(
                    v * (10.0 ** -j) ** 1.25, 2.0 ** 0.25 * math.pi, 0.10,
                    f"psi_star(1+1e-{j}) scaled")
            rec.check(it, reason)
        ms = range(6, 65, 2)
        it = rec.item("theta_length", lambda: [analytic.theta_mean_length(m)
                                               for m in ms], sample=False)
        if rec.ok(it):
            rec.check(it, checks.band([v / m ** 1.5 for v, m in zip(it.result, ms)],
                                      2.0, "L_m / m^1.5"))
        ks = range(2, 65)
        it = rec.item("cone_length", lambda: [analytic.cone_Lk(k) for k in ks],
                      sample=False)
        if rec.ok(it):
            reason = None
            for v, k in zip(it.result, ks):
                reason = reason or checks.at_most(k * v, math.sqrt(2.0) * k ** 1.5,
                                                  f"{k} * L_{k}")
            rec.check(it, reason)


WORKLOADS = {w.name: w for w in (SmallExact, CrossingMC, LengthMC, PipelineTorus40)}


def run(workload, rec: Recorder, seconds: float, cycles: int | None = None) -> dict:
    """Repeat whole cycles for ``seconds`` (or exactly ``cycles`` times)."""
    t0 = perf_counter()
    c = 0
    while True:
        workload.cycle(c, rec)
        c += 1
        elapsed = perf_counter() - t0
        if cycles is not None:
            if c >= cycles:
                break
        elif c >= workload.min_cycles and elapsed >= seconds:
            break
    wall = perf_counter() - t0
    samples = rec.samples
    passed = rec.attempted - rec.failed
    return {
        "cycles": c,
        "wall_s": wall,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "passed": passed,
        "items_per_s": passed / sum(t1 - t0 for t0, t1 in rec.windows),
        "item_samples": len(samples),
        "item_p50_s": _quantile(samples, 0.5),
        "item_p90_s": _quantile(samples, 0.9),
        "seconds_by_kind": rec.seconds_by_kind,
    }
