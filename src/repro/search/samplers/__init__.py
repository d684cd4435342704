"""Pluggable sampler architecture.

Every search engine — the paper's GP-BO, the Table-III baselines, and
the newer TPE / CMA-ES-lite / QMC samplers — is published through one
:class:`BaseSampler` interface with a declared capability matrix, and
the campaign executor dispatches ``SearchSpec.engine`` names purely
through this registry.  All of them except GP-BO and batch BO are
suggest-only samplers run by the one :class:`SamplerSearch` loop.  See
``docs/samplers.md`` for the add-a-sampler quick start and
``tests/samplers/`` for the conformance gauntlet every registered
sampler must pass.
"""

from .adapters import BatchBOSamplerAdapter, GPBOSamplerAdapter
from .base import (
    BaseSampler,
    SamplerCapabilities,
    canonical_engine_name,
    register_sampler,
    registered_samplers,
    sampler_by_name,
    space_features,
    unsupported_features,
)
from .baselines import AnnealSampler, GridSampler, HillClimbSampler, RandomSampler
from .cmaes import CmaEsLiteSampler
from .driver import SamplerSearch
from .qmc import QMCSampler
from .tpe import TPESampler

__all__ = [
    "BaseSampler",
    "SamplerCapabilities",
    "SamplerSearch",
    "register_sampler",
    "registered_samplers",
    "sampler_by_name",
    "canonical_engine_name",
    "space_features",
    "unsupported_features",
    "RandomSampler",
    "GridSampler",
    "HillClimbSampler",
    "AnnealSampler",
    "TPESampler",
    "CmaEsLiteSampler",
    "QMCSampler",
    "GPBOSamplerAdapter",
    "BatchBOSamplerAdapter",
]
