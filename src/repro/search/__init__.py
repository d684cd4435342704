"""Search engines and campaign orchestration.

The :class:`SearchCampaign` runner executes a *set* of searches as a
strategy with the paper's parallel-wall-clock cost accounting.  Every
engine — the baselines (random, grid, hill climbing, annealing) and the
newer samplers (TPE, CMA-ES-lite, QMC) in :mod:`repro.search.samplers`
as much as GP-BO — is published through the :class:`BaseSampler`
registry and selected by ``SearchSpec.engine`` name; run one with
:func:`run_search_spec`.
"""

from .cache import MemoizingObjective, RetryingObjective, canonical_key
from .evaluate import evaluate_config, schedule_makespan
from .executor import CampaignExecutor, run_search_spec, spec_seed_sequences
from .result import CampaignResult, SearchResult
from .runner import SearchCampaign, SearchSpec
from .samplers import (
    BaseSampler,
    CmaEsLiteSampler,
    QMCSampler,
    SamplerCapabilities,
    SamplerSearch,
    TPESampler,
    canonical_engine_name,
    register_sampler,
    registered_samplers,
    sampler_by_name,
)
from .scalarize import Scalarization, ScalarizedObjective
from .store import EvaluationStore, StoredEvaluation, space_fingerprint

__all__ = [
    "SearchResult",
    "CampaignResult",
    "SearchCampaign",
    "SearchSpec",
    "CampaignExecutor",
    "run_search_spec",
    "spec_seed_sequences",
    "MemoizingObjective",
    "RetryingObjective",
    "canonical_key",
    "EvaluationStore",
    "StoredEvaluation",
    "space_fingerprint",
    "evaluate_config",
    "schedule_makespan",
    "BaseSampler",
    "SamplerCapabilities",
    "SamplerSearch",
    "TPESampler",
    "CmaEsLiteSampler",
    "QMCSampler",
    "register_sampler",
    "registered_samplers",
    "sampler_by_name",
    "canonical_engine_name",
    "Scalarization",
    "ScalarizedObjective",
]
