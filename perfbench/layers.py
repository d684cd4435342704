"""Which public functions the traced run times, and the per-layer figures.

Every span is opened at a call into a layer's public function, patched
where it is called from (``repro.bo.gp.minimize`` is the name the GP
looks up, ``repro.bo.optimizer.maximize_acquisition`` the one the BO
loop calls).  The table below turns spans and counters into the
``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from . import spans as sp

# span name -> (self-time metric, call-count metric)
SPAN_METRICS: dict[str, tuple[str, str | None]] = {
    "bo.gp_fit": ("bo.gp_fit_s", "bo.gp_fit_calls"),
    "bo.gp_update": ("bo.gp_update_s", "bo.gp_update_calls"),
    "bo.mle": ("bo.mle_s", "bo.mle_calls"),
    "bo.acquire": ("bo.acquire_s", None),
    "bo.score": ("bo.score_s", None),
    "bo.search": ("bo.search_self_s", None),
    "space.sample": ("space.sample_s", "space.sample_calls"),
    "insights.sensitivity": ("insights.sensitivity_s", None),
    "core.plan": ("core.plan_s", None),
    "core.methodology": ("core.methodology_self_s", None),
    "synthetic.eval": ("synthetic.eval_s", "synthetic.evals"),
    "tddft.eval": ("tddft.eval_s", "tddft.evals"),
    "search.campaign": ("search.campaign_self_s", None),
    "service.job": ("service.job_self_s", "service.jobs_run"),
    "service.tick": ("service.tick_s", None),
    "service.registry": ("service.registry_append_s", "service.registry_appends"),
    "service.submit": ("service.submit_s", None),
    "client": ("client.self_s", None),
}

# counter -> metric (counters are summed as they are)
COUNTER_METRICS = {
    "bo.mle_nfev": "bo.mle_nfev",
    "bo.candidates_scored": "bo.candidates_scored",
    "space.values_drawn": "space.values_drawn",
}

# Metrics a workload sets itself.
OTHER_METRICS = (
    "space.draw_yield",
    "insights.measurements",
    "search.store_hit_ratio",
    "search.store_records",
    "service.submit_ms_p50",
    "service.job_latency_p50_s",
    "service.jobs_per_s",
    "service.queue_wait_s_p50",
    "service.execute_s_p50",
    "service.requeues",
    "telemetry.job_trace_bytes",
    "client.late_max_ms",
    "failed_ratio",
    "trace.wall_s",
    "trace.untraced_wall_s",
    "tracing_overhead",
    "trace.unattributed_share",
)


def instrument(patcher: sp.Patcher, *, service: bool = False) -> None:
    """Install the call-site wrappers of every layer."""
    from repro.bo import acquisition, batch, gp, optimizer
    from repro.core.influence import InfluenceMatrix
    from repro.core.planner import SearchPlanner
    from repro.insights.sensitivity import SensitivityAnalysis
    from repro.search.runner import SearchCampaign
    from repro.space import parameters
    from repro.space.space import SearchSpace

    p = patcher
    p.span(gp, "minimize", "bo.mle", counts=lambda a, k, r: {"bo.mle_nfev": r.nfev})
    p.span(gp.GaussianProcess, "fit", "bo.gp_fit")
    p.span(gp.GaussianProcess, "update", "bo.gp_update")
    p.span(optimizer, "maximize_acquisition", "bo.acquire")
    scored = lambda a, k, r: {"bo.candidates_scored": len(r)}  # noqa: E731
    p.span(acquisition, "score_candidates", "bo.score", counts=scored)
    p.span(batch, "score_candidates", "bo.score", counts=scored)
    p.span(optimizer.BayesianOptimizer, "run", "bo.search")
    p.span(
        SearchSpace, "sample_batch", "space.sample",
        counts=lambda a, k, r: {"space.values_returned": len(r) * len(a[0].names)},
    )
    for cls in (parameters.Real, parameters.Integer, parameters.Ordinal,
                parameters.Categorical, parameters.Constant):
        p.count(cls, "sample_batch", lambda a, k, r: {"space.values_drawn": len(r)})
    p.span(SensitivityAnalysis, "run", "insights.sensitivity")
    p.span(SensitivityAnalysis, "run_averaged", "insights.sensitivity")
    p.span(InfluenceMatrix, "from_sensitivity", "core.plan")
    p.span(SearchPlanner, "plan", "core.plan")
    p.span(SearchPlanner, "build_dag", "core.plan")
    p.span(SearchCampaign, "run", "search.campaign")
    if service:
        import repro.service
        from repro.service import registry, supervisor
        from repro.synthetic import SyntheticFunction

        p.span(SyntheticFunction, "__call__", "synthetic.eval")
        p.span(supervisor.Supervisor, "tick", "service.tick")
        for method in ("submit", "transition", "lease"):
            p.span(registry.JobRegistry, method, "service.registry")
        p.span(repro.service, "submit_job", "service.submit")


def layer_metrics(spans: Iterable[sp.Span], counters: Mapping[str, float]) -> dict[str, float]:
    """Self time and call count of every layer, plus its counters.

    Metrics a workload computes itself start at 0, the value they keep
    on workloads that never reach that layer.
    """
    spans = list(spans)
    totals = sp.totals_by_name(spans)
    out: dict[str, float] = dict.fromkeys(OTHER_METRICS, 0.0)
    for name, (self_metric, calls_metric) in SPAN_METRICS.items():
        row = totals.get(name, {"self_s": 0.0, "calls": 0})
        out[self_metric] = row["self_s"]
        if calls_metric:
            out[calls_metric] = row["calls"]
    for counter, metric in COUNTER_METRICS.items():
        out[metric] = counters.get(counter, 0)
    drawn = counters.get("space.values_drawn", 0)
    out["space.draw_yield"] = (
        counters.get("space.values_returned", 0) / drawn if drawn else 0.0
    )
    # Application runs made while a sensitivity analysis was open.
    by_id = {s.id: s for s in spans}

    def under_sensitivity(s: sp.Span) -> bool:
        while s.parent is not None and s.parent in by_id:
            s = by_id[s.parent]
            if s.name == "insights.sensitivity":
                return True
        return False

    out["insights.measurements"] = sum(
        1 for s in spans
        if s.name in ("synthetic.eval", "tddft.eval") and under_sensitivity(s)
    )
    return out


def unattributed_share(spans: Iterable[sp.Span], root_name: str) -> float:
    """Share of the ``root_name`` spans' time that no layer span inside
    them covers (the roots' own self time over their duration)."""
    spans = list(spans)
    own = sp.self_times(spans)
    roots = [s for s in spans if s.name == root_name and s.end is not None]
    wall = sum(s.duration for s in roots)
    return sum(own[s.id] for s in roots) / wall if wall else 0.0
