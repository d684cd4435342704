"""Adapters publishing the BO engines through the sampler registry.

GP-BO and batch BO predate the
:class:`~repro.search.samplers.base.BaseSampler` interface and run their
own loops (surrogate refits, acquisition schedules) rather than a
suggest-per-iteration protocol.  Each adapter here overrides
:meth:`run_search` to construct its engine **exactly** as the campaign
executor's dispatch historically did — same constructor arguments, same
seed handling, same result assembly — which is what keeps every GP-BO
fingerprint and simulated Table-III cost-ledger number byte-for-byte
unchanged across the refactor.

Their :meth:`suggest` is a uniform feasible draw (the engines' initial
design), kept for interactive use and the conformance harness's
interface checks.  The authoritative execution path is ``run_search``.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ...bo.optimizer import BayesianOptimizer
from ..result import SearchResult
from .base import BaseSampler, SamplerCapabilities, register_sampler

__all__ = ["GPBOSamplerAdapter", "BatchBOSamplerAdapter"]


@register_sampler
class GPBOSamplerAdapter(BaseSampler):
    """The GP-based Bayesian optimizer (the paper's engine)."""

    name = "gp-bo"
    aliases = ("bo",)
    capabilities = SamplerCapabilities(
        floats=True,
        integers=True,
        categorical=True,
        multivariate=True,
        conditional=True,
        warm_start=True,
    )
    #: ``SearchResult.engine`` label (historical ``"bo"``, not ``"gp-bo"``).
    _label = "bo"

    @staticmethod
    def _optimizer():
        return BayesianOptimizer

    def suggest(
        self, history: Sequence, space, rng: np.random.Generator
    ) -> dict[str, Any]:
        return space.sample(rng)

    @classmethod
    def run_search(cls, spec, seed, objective, database, tracer=None):
        kwargs: dict[str, Any] = {}
        if database is not None:
            kwargs["database"] = database
        if tracer is not None:
            kwargs["tracer"] = tracer
        if spec.quarantine_threshold is not None:
            kwargs["quarantine_threshold"] = spec.quarantine_threshold
            kwargs["quarantine_resolution"] = spec.quarantine_resolution
        pool = getattr(spec, "candidate_pool", None)
        if pool is not None:
            kwargs["candidate_pool"] = pool
        r = cls._optimizer()(
            spec.space,
            objective,
            max_evaluations=spec.budget(),
            random_state=seed,
            **kwargs,
            **spec.engine_options,
        ).run()
        return SearchResult(
            name=spec.space.name,
            engine=cls._label,
            best_config=r.best_config,
            best_objective=r.best_objective,
            search_time=r.search_time,
            n_evaluations=r.n_evaluations,
            database=r.database,
            tuned_names=tuple(spec.space.names),
            meta=dict(r.meta),
        )


@register_sampler
class BatchBOSamplerAdapter(GPBOSamplerAdapter):
    """Batched-acquisition BO (q proposals per surrogate refit)."""

    name = "batch-bo"
    aliases = ()
    _label = "batch-bo"

    @staticmethod
    def _optimizer():
        from ...bo.batch import BatchBayesianOptimizer

        return BatchBayesianOptimizer
