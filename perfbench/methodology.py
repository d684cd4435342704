"""``tddft-cs1``: one ``TuningMethodology.run()`` per campaign.

RT-TDDFT case study 1 at the ``repro tddft`` defaults, bound by
candidate generation with constraint repair.  A closed loop of one
client: the next campaign starts when the previous one returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import layers
from . import spans as sp
from .stats import median

# Nominal length of one campaign: a run of ``--seconds S`` makes
# ``round(S / CAMPAIGN_S)`` campaigns, a count that depends on nothing
# else, so the deterministic figures repeat at the same seed and seconds.
CAMPAIGN_S = 15.0


def n_campaigns(seconds: float) -> int:
    return max(1, round(seconds / CAMPAIGN_S))


def campaign_seeds(seed: int, n: int = 256) -> list[int]:
    """Campaign seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n) % (2**31)]


def _traced_routines(routines, recorder: sp.SpanRecorder):
    """The same routines with every objective and the profiler timed."""
    from repro.core.routine import Routine, RoutineSet

    timed = lambda fn: sp.timed(recorder, "tddft.eval", fn)  # noqa: E731
    return RoutineSet(
        [Routine(r.name, r.parameters, timed(r.objective), r.weight) for r in routines],
        profiler=timed(routines.profiler),
    )


def build(seed: int, recorder: sp.SpanRecorder | None = None):
    """``(app, methodology)`` for one campaign, through the public API.

    The ``repro tddft`` defaults (cutoff 0.10, V=5, 5 baselines, random
    variations, the app's hierarchy), except 32 BO candidates per
    iteration instead of 512, so that a campaign takes ~10 s, not ~80 s.
    """
    from repro.core import TuningMethodology
    from repro.tddft import RTTDDFTApplication, case_study

    app = RTTDDFTApplication(case_study(1), random_state=seed)
    routines = app.routines()
    if recorder is not None:
        routines = _traced_routines(routines, recorder)
    tm = TuningMethodology(
        app.search_space(),
        routines,
        cutoff=0.10,
        n_variations=5,
        n_baselines=5,
        variation_mode="random",
        hierarchy=app.hierarchy(),
        engine_options={"n_candidates": 32},
        random_state=seed,
    )
    return app, tm


def tuned_ms(app, best: dict) -> float:
    """Noise-free ms per iteration of ``best``."""
    from repro.tddft import RTTDDFTApplication

    clean = RTTDDFTApplication(app.system, noise_scale=0.0)
    return 1000.0 * float(clean.total_runtime(best))


def check(app, result) -> list[str]:
    """Correctness of one methodology result (empty when it holds)."""
    problems = []
    if not app.search_space().is_valid(result.best_config):
        problems.append("best configuration violates the search space")
    planned = sum(p.budget for p in result.plan.searches)
    if result.total_evaluations != result.analysis_evaluations + planned:
        problems.append(
            f"evaluations {result.total_evaluations} != analysis "
            f"{result.analysis_evaluations} + planned budgets {planned}"
        )
    return problems


@dataclass
class Campaign:
    seed: int
    wall: float
    tuned_objective: float
    evaluations: int
    simulated_search_s: float
    failed_records: int
    best: dict
    problems: list[str]


def run_campaign(seed: int, recorder: sp.SpanRecorder | None = None) -> Campaign:
    app, tm = build(seed, recorder)
    t1 = time.perf_counter()
    if recorder is None:
        result = tm.run()
    else:
        recorder.set_trace(f"campaign-{seed}")
        result = sp.timed(recorder, "core.methodology", tm.run)()
    t2 = time.perf_counter()
    return Campaign(
        seed=seed,
        wall=t2 - t1,
        tuned_objective=tuned_ms(app, result.best_config),
        evaluations=int(result.total_evaluations),
        simulated_search_s=float(result.staged_wall_time),
        failed_records=sum(
            1 for s in result.campaign.searches for rec in s.database if not rec.ok
        ),
        best=dict(result.best_config),
        problems=check(app, result),
    )


def measure(seed: int, seconds: float, pause: Callable[[int, int], None]) -> dict[str, Any]:
    """Untraced run: ``n_campaigns(seconds)`` campaigns on successive
    derived seeds, with ``pause(i, n)`` called before, between and after
    them (nothing in a pause is timed)."""
    seeds = campaign_seeds(seed)
    n = n_campaigns(seconds)
    done: list[Campaign] = []
    for i in range(n):
        pause(i, n + 1)
        done.append(run_campaign(seeds[i]))
    pause(n, n + 1)
    return {
        "metrics": {
            "campaign_s": median([c.wall for c in done]),
            "tuned_objective": median([c.tuned_objective for c in done]),
            "evaluations": median([c.evaluations for c in done]),
            "simulated_search_s": median([c.simulated_search_s for c in done]),
        },
        "attempted": len(done),
        "failed": sum(1 for c in done if c.problems),
        "problems": [f"campaign seed {c.seed}: {p}" for c in done for p in c.problems],
        "notes": {
            "campaigns": len(done),
            "campaign_walls_s": [round(c.wall, 3) for c in done],
            "failed_records": sum(c.failed_records for c in done),
        },
    }


def traced(seed: int) -> dict[str, Any]:
    """Traced run of the first campaign, between two untraced runs of it.

    The first untraced run warms the process up; the second is the wall
    time the traced run is compared with.  All three must agree.
    """
    first = campaign_seeds(seed)[0]
    warm = run_campaign(first)
    recorder = sp.SpanRecorder()
    with sp.Patcher(recorder) as patcher:
        layers.instrument(patcher)
        with_trace = run_campaign(first, recorder)
    plain = run_campaign(first)
    runs = (warm, with_trace, plain)
    problems = [p for c in runs for p in c.problems]
    outcomes = {(repr(c.best), c.evaluations, c.simulated_search_s) for c in runs}
    if len(outcomes) != 1:
        problems.append("traced and untraced runs of one campaign differ")
    spans, counters = sp.merge([recorder.drain()])
    metrics = layers.layer_metrics(spans, counters)
    metrics.update({
        "failed_ratio": with_trace.failed_records / with_trace.evaluations,
        "trace.wall_s": with_trace.wall,
        "trace.untraced_wall_s": plain.wall,
        "tracing_overhead": with_trace.wall / plain.wall,
        "trace.unattributed_share": layers.unattributed_share(spans, "core.methodology"),
    })
    return {
        "metrics": metrics,
        "attempted": len(runs),
        "failed": sum(1 for c in runs if c.problems),
        "problems": problems,
        "spans": spans,
    }
