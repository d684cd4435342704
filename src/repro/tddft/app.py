"""The GPU-offloaded RT-TDDFT application (simulated QBox, Sections V-VI).

:class:`RTTDDFTApplication` binds a physical system, a cluster, and a GPU
model into the 20-parameter tuning problem of the paper's Table IV:

====================  =========================================
MPI grid              ``nstb, nkpb, nspb`` (ngb = 1 in the GPU port)
per-kernel (x5)       ``u_K, tb_K, tb_sm_K`` for K in
                      {dscal, pair, zcopy, vec, zvec}
band loop             ``nstreams, nbatches``
====================  =========================================

with the paper's validity constraints (``tb_K * tb_sm_K`` within the SM
thread bound; the MPI grid within the allocation) and, optionally, the
expert constraints of Section VIII (grid factors restricted to divisors of
the system extents; degenerate dimensions pinned).

The observables — total application runtime, Slater-determinant region
runtime, and per-group single-invocation runtimes — are exactly the four
regions the paper's sensitivity analysis probes, exposed as a
:class:`repro.core.RoutineSet` (plus the region hierarchy) so the
methodology runs on this application unchanged.

Runtimes carry multiplicative log-normal noise ("runtime uncertainty in
HPC applications"); set ``noise_scale=0`` for deterministic values.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..core.routine import Routine, RoutineSet
from ..mpisim.cluster import ClusterSpec, perlmutter_gpu
from ..mpisim.collectives import allreduce_time
from ..mpisim.comm import CartGrid
from ..space import (
    Constant,
    Constraint,
    ExpressionConstraint,
    Integer,
    Ordinal,
    Parameter,
    SearchSpace,
)
from .gpu import GpuSpec, a100
from .slater import SlaterPipeline
from .systems import PhysicalSystem

__all__ = ["RTTDDFTApplication", "KERNEL_KEYS", "UNROLL_VALUES"]

KERNEL_KEYS = ("dscal", "pair", "zcopy", "vec", "zvec")
UNROLL_VALUES = [1, 2, 4, 8]


class RTTDDFTApplication:
    """The paper's tuning target as a black-box objective suite.

    Parameters
    ----------
    system:
        Physical input (:func:`repro.tddft.systems.case_study`).
    cluster:
        Allocation (paper: "a maximum of 10 computing nodes", 4 MPI
        tasks/GPUs each).
    gpu:
        GPU model (A100 by default).
    expert_constraints:
        Apply the Section-VIII expert space reduction: MPI grid factors
        restricted to divisors of the system extents (work balance),
        degenerate dimensions pinned to 1.
    noise_scale:
        Sigma of the multiplicative log-normal runtime noise.
    random_state:
        Noise stream seed.
    """

    def __init__(
        self,
        system: PhysicalSystem,
        *,
        cluster: ClusterSpec | None = None,
        gpu: GpuSpec | None = None,
        expert_constraints: bool = True,
        noise_scale: float = 0.02,
        random_state: int | np.random.Generator | None = None,
    ):
        self.system = system
        self.cluster = cluster if cluster is not None else perlmutter_gpu()
        self.gpu = gpu if gpu is not None else a100()
        self.expert_constraints = bool(expert_constraints)
        if noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        self.noise_scale = float(noise_scale)
        self.rng = (
            random_state
            if isinstance(random_state, np.random.Generator)
            else np.random.default_rng(random_state)
        )
        self.pipeline = SlaterPipeline(system, self.gpu)

    # ------------------------------------------------------------------
    # Noise
    # ------------------------------------------------------------------
    def _noisy(self, t: float) -> float:
        if self.noise_scale == 0.0:
            return t
        return t * float(np.exp(self.rng.normal(0.0, self.noise_scale)))

    # ------------------------------------------------------------------
    # Search space (Table IV)
    # ------------------------------------------------------------------
    def _mpi_parameter(self, name: str, extent: int) -> Parameter:
        max_ranks = self.cluster.total_ranks
        if self.expert_constraints:
            if extent == 1:
                return Constant(name, 1)
            values = [d for d in range(1, extent + 1) if extent % d == 0 and d <= max_ranks]
            if len(values) < 2:
                return Constant(name, values[0] if values else 1)
            return Ordinal(name, values, default=values[0])
        high = min(extent, max_ranks)
        if high <= 1:
            return Constant(name, 1)
        return Integer(name, 1, high, default=1)

    def search_space(self) -> SearchSpace:
        """The full 20-parameter constrained space of Table IV."""
        params: list[Parameter] = [
            self._mpi_parameter("nstb", self.system.nbands),
            self._mpi_parameter("nkpb", self.system.nkpoints),
            self._mpi_parameter("nspb", self.system.nspin),
        ]
        tb_vals = self.gpu.tb_values()
        tb_sm_vals = self.gpu.tb_sm_values()
        for k in KERNEL_KEYS:
            params.append(Ordinal(f"u_{k}", UNROLL_VALUES, default=1))
            params.append(Ordinal(f"tb_{k}", tb_vals, default=256))
            params.append(Integer(f"tb_sm_{k}", tb_sm_vals[0], tb_sm_vals[-1], default=4))
        params.append(Integer("nstreams", 1, 32, default=1))
        params.append(Integer("nbatches", 1, 32, default=4))

        # Declarative, so numpy checks whole candidate batches at once (and
        # the space serializes); limits are written in as int literals.
        limit = int(self.gpu.max_threads_per_sm)
        constraints: list[Constraint] = [
            ExpressionConstraint(f"tb_{k} * tb_sm_{k} <= {limit}", name=f"occupancy_{k}")
            for k in KERNEL_KEYS
        ]
        constraints.append(
            ExpressionConstraint(
                f"nstb * nkpb * nspb <= {int(self.cluster.total_ranks)}",
                name="mpi_grid_fits_allocation",
            )
        )
        return SearchSpace(params, constraints, name=f"rt-tddft-{self.system.name}")

    def defaults(self) -> dict[str, Any]:
        """The untuned default configuration (the paper's baseline where
        kernels 'use default tuning values')."""
        return self.search_space().defaults()

    # ------------------------------------------------------------------
    # Workload decomposition
    # ------------------------------------------------------------------
    def grid(self, config: Mapping[str, Any]) -> CartGrid:
        return CartGrid(
            nspb=int(config["nspb"]),
            nkpb=int(config["nkpb"]),
            nstb=int(config["nstb"]),
            ngb=1,
        )

    def local_work(self, config: Mapping[str, Any]) -> tuple[int, int, int]:
        """(spins_loc, kpoints_loc, bands_loc) of the busiest rank."""
        return self.grid(config).local_counts(
            self.system.nspin, self.system.nkpoints, self.system.nbands
        )

    # ------------------------------------------------------------------
    # Observables (the methodology's targets)
    # ------------------------------------------------------------------
    def group_runtime(self, group: str, config: Mapping[str, Any]) -> float:
        """Runtime of one batched invocation of a kernel group.

        The batch is the tuned ``nbatches`` capped by the system's band
        count (one invocation can never pack more bands than exist); the
        *local* band count only shapes how many invocations the Slater
        loop issues, not the cost of one.
        """
        batch = self.pipeline.effective_batch(self.system.nbands, int(config["nbatches"]))
        return self._noisy(self.pipeline.group_time(group, batch, config))

    def slater_runtime(self, config: Mapping[str, Any]) -> float:
        """The Slater-determinant region: the full streamed band loop over
        every local spin and k-point of the busiest rank."""
        spins_loc, kpts_loc, bands_loc = self.local_work(config)
        per_kpoint = self.pipeline.slater_time(bands_loc, config)
        return self._noisy(spins_loc * kpts_loc * per_kpoint)

    def communication_time(self, config: Mapping[str, Any]) -> float:
        """End-of-iteration accumulations: allreduce of the potential over
        all active ranks (Figure 4's 'accumulations and MPI reductions')."""
        grid = self.grid(config)
        return allreduce_time(
            self.cluster, self.system.band_bytes, min(grid.size, self.cluster.total_ranks)
        )

    def total_runtime(self, config: Mapping[str, Any]) -> float:
        """One rt-iteration of the application on the busiest rank:
        Slater region + daxpy accumulation + MPI reductions."""
        slater = self.slater_runtime(config)
        _, _, bands_loc = self.local_work(config)
        # daxpy over the local wavefunction block (host-side, bandwidth bound)
        daxpy = (
            2.0 * bands_loc * self.system.band_bytes
            / self.cluster.node.memory_bandwidth
        )
        return slater + daxpy + self.communication_time(config)

    def profile(self, config: Mapping[str, Any]) -> dict[str, float]:
        """All five region runtimes from **one** simulated application run.

        A real profiled run times every instrumented region at once; here
        it is accounted as a single run by the Phase-1 engine.  Each
        observable keeps its own independent measurement-noise draw, in
        the same order the per-target path issues them, so a profiled
        analysis produces bit-identical observations to the legacy
        one-call-per-target path at every seed — only the *run count*
        changes.
        """
        return {
            "MPI Grid": self.total_runtime(config),
            "Slater Determinant": self.slater_runtime(config),
            "Group 1": self.group_runtime("Group 1", config),
            "Group 2": self.group_runtime("Group 2", config),
            "Group 3": self.group_runtime("Group 3", config),
        }

    def gpu_profile(self, config: Mapping[str, Any] | None = None) -> dict[str, float]:
        """Per-kernel share of GPU compute time (Section V-A's profile).

        Returns fractions summing to 1, excluding memory transfers.
        """
        cfg = dict(self.defaults())
        if config:
            cfg.update(config)
        _, _, bands_loc = self.local_work(cfg)
        batch = self.pipeline.effective_batch(bands_loc, int(cfg["nbatches"]))
        breakdown = self.pipeline.kernel_breakdown(batch, cfg)
        total = sum(breakdown.values())
        return {k: v / total for k, v in breakdown.items()}

    # ------------------------------------------------------------------
    # Methodology plumbing
    # ------------------------------------------------------------------
    def routines(self) -> RoutineSet:
        """The five tunable regions with ownership and impact weights.

        Weights are the deterministic default-configuration runtimes of
        each region (noise suppressed), giving the planner's rule 5 its
        "highest impact" signal.
        """
        saved = self.noise_scale
        self.noise_scale = 0.0
        try:
            d = self.defaults()
            weights = {
                "MPI Grid": self.total_runtime(d),
                "Slater Determinant": self.slater_runtime(d),
                "Group 1": self.group_runtime("Group 1", d),
                "Group 2": self.group_runtime("Group 2", d),
                "Group 3": self.group_runtime("Group 3", d),
            }
        finally:
            self.noise_scale = saved

        kernel_params = lambda k: (f"u_{k}", f"tb_{k}", f"tb_sm_{k}")  # noqa: E731
        return RoutineSet(
            [
                Routine(
                    "MPI Grid",
                    ("nstb", "nkpb", "nspb"),
                    self.total_runtime,
                    weight=weights["MPI Grid"],
                ),
                Routine(
                    "Slater Determinant",
                    ("nbatches", "nstreams"),
                    self.slater_runtime,
                    weight=weights["Slater Determinant"],
                ),
                Routine(
                    "Group 1",
                    kernel_params("vec") + kernel_params("zcopy"),
                    lambda c: self.group_runtime("Group 1", c),
                    weight=weights["Group 1"],
                ),
                Routine(
                    "Group 2",
                    kernel_params("pair"),
                    lambda c: self.group_runtime("Group 2", c),
                    weight=weights["Group 2"],
                ),
                Routine(
                    "Group 3",
                    kernel_params("zcopy") + kernel_params("dscal") + kernel_params("zvec"),
                    lambda c: self.group_runtime("Group 3", c),
                    weight=weights["Group 3"],
                ),
            ],
            profiler=self.profile,
        )

    def hierarchy(self) -> dict[str, list[str]]:
        """Region nesting for the planner's staged execution: the MPI grid
        encloses the Slater region, which encloses the kernel groups."""
        return {
            "MPI Grid": ["Slater Determinant"],
            "Slater Determinant": ["Group 1", "Group 2", "Group 3"],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RTTDDFTApplication(system={self.system.name!r}, "
            f"ranks={self.cluster.total_ranks})"
        )
