"""Conditional search spaces: parameters active only under a parent value.

HPC tuning spaces are full of structural switches — a tiling factor that
only matters when the blocked kernel variant is selected, an MPI overlap
depth that only exists when communication/computation overlap is on.
None of the flat :class:`~repro.space.SearchSpace` machinery can express
this; a :class:`ConditionalSpace` can: each *child* parameter carries a
:class:`Condition` naming its *parent* parameter and the parent values
under which the child is active.

The key design decision is **masking**: an inactive child is not absent
from configurations — it is pinned to its declared default (the
``inactive_value``).  This keeps every configuration a full dict over all
parameters, so objectives, the unit-cube encoding, the evaluation
database, and the memoization cache all keep working unchanged.  Masking
is enforced everywhere configurations are produced:

* ``sample_batch`` — drawn and repair-redrawn columns are masked in
  place (the ``_mask_columns`` hook of the column sampler), so repair
  sampling can never activate a dead branch;
* ``decode`` / ``decode_batch`` — any sampler that proposes through the
  unit-cube codec (BO, QMC, CMA-ES-lite, LHS initial designs) is
  conditionally-safe by construction;
* ``is_valid`` / ``validate`` — a configuration whose inactive child
  deviates from its inactive value is *invalid*, which is what the
  sampler conformance gauntlet asserts ("never proposes an inactive
  parameter").

Conditions may chain (a parent may itself be conditional on a
grandparent); activity is resolved in parameter order, so parents must be
declared before their children.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from .constraints import Constraint
from .parameters import Parameter
from .space import SearchSpace

__all__ = ["Condition", "ConditionalSpace"]


class Condition:
    """Activation rule for one child parameter.

    The child is active when its parent's value is one of ``values`` *and*
    the parent itself is active (conditions chain).

    Parameters
    ----------
    parent:
        Name of the controlling parameter.
    values:
        Parent values under which the child is active.  Membership is by
        equality (``==``), matching how constraints compare values.
    """

    def __init__(self, parent: str, values: Sequence[Any] | Any):
        if not parent or not isinstance(parent, str):
            raise ValueError(f"condition parent must be a non-empty string, got {parent!r}")
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            values = (values,)
        vals = tuple(values)
        if not vals:
            raise ValueError(f"condition on {parent!r} needs at least one value")
        self.parent = parent
        self.values = vals

    def holds(self, parent_value: Any) -> bool:
        """True when ``parent_value`` activates the child."""
        return any(parent_value == v for v in self.values)

    def to_dict(self) -> dict[str, Any]:
        return {"parent": self.parent, "values": list(self.values)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Condition":
        return cls(d["parent"], d["values"])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Condition)
            and self.parent == other.parent
            and self.values == other.values
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Condition({self.parent!r}, {list(self.values)!r})"


class ConditionalSpace(SearchSpace):
    """A :class:`SearchSpace` where some parameters are conditionally active.

    Parameters
    ----------
    parameters:
        As for :class:`SearchSpace`.  A condition's parent must be declared
        *before* its child (activity resolves in one forward pass).
    constraints:
        As for :class:`SearchSpace`; constraints see masked configurations.
    conditions:
        Mapping ``child name -> Condition``.
    name:
        Label used in reports.
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        constraints: Sequence[Constraint] = (),
        conditions: Mapping[str, Condition] | None = None,
        name: str = "space",
    ):
        super().__init__(parameters, constraints, name)
        self.conditions: dict[str, Condition] = dict(conditions or {})
        order = {p.name: i for i, p in enumerate(self.parameters)}
        for child, cond in self.conditions.items():
            if child not in order:
                raise KeyError(f"condition on unknown parameter {child!r}")
            if cond.parent not in order:
                raise KeyError(
                    f"condition parent {cond.parent!r} of {child!r} is not in the space"
                )
            if cond.parent == child:
                raise ValueError(f"parameter {child!r} cannot condition on itself")
            if order[cond.parent] >= order[child]:
                raise ValueError(
                    f"condition parent {cond.parent!r} must be declared before "
                    f"its child {child!r}"
                )

    # ------------------------------------------------------------------
    # Activity and masking
    # ------------------------------------------------------------------
    def inactive_value(self, name: str) -> Any:
        """The value an inactive parameter is pinned to (its default)."""
        return self._by_name[name].default

    def is_active(self, name: str, config: Mapping[str, Any]) -> bool:
        """True when ``name`` is active under ``config`` (chains resolved)."""
        cond = self.conditions.get(name)
        if cond is None:
            return True
        if not self.is_active(cond.parent, config):
            return False
        return cond.holds(config[cond.parent])

    def active_names(self, config: Mapping[str, Any]) -> list[str]:
        """Names of the parameters active under ``config``, in order."""
        return [p.name for p in self.parameters if self.is_active(p.name, config)]

    def mask(self, config: Mapping[str, Any]) -> dict[str, Any]:
        """Pin every inactive child to its inactive value.

        One forward pass in parameter order: parents are declared before
        children, so each child's activity is decided on already-masked
        ancestor values (a child of a deactivated switch is deactivated
        too, even if the raw draw happened to activate it).
        """
        out = dict(config)
        for name in self._masked_off(config):
            out[name] = self.inactive_value(name)
        return out

    def _masked_off(self, config: Mapping[str, Any]) -> set[str]:
        """Names pinned inactive in ``config`` (helper for chained masks)."""
        off: set[str] = set()
        for p in self.parameters:
            cond = self.conditions.get(p.name)
            if cond is None:
                continue
            if cond.parent in off or not cond.holds(config[cond.parent]):
                off.add(p.name)
        return off

    # ------------------------------------------------------------------
    # Validity: inactive children must sit at their inactive value
    # ------------------------------------------------------------------
    def is_valid(self, config: Mapping[str, Any]) -> bool:
        if not super().is_valid(config):
            return False
        for name in self._masked_off(config):
            if config[name] != self.inactive_value(name):
                return False
        return True

    def validate(self, config: Mapping[str, Any]) -> None:
        super().validate(config)
        for name in self._masked_off(config):
            if config[name] != self.inactive_value(name):
                cond = self.conditions[name]
                raise ValueError(
                    f"parameter {name!r} is inactive (condition on "
                    f"{cond.parent!r} not met) but holds {config[name]!r} "
                    f"instead of its inactive value "
                    f"{self.inactive_value(name)!r}"
                )

    # ------------------------------------------------------------------
    # Sampling and decoding: mask at every production site
    # ------------------------------------------------------------------
    def _mask_columns(self, columns: dict[str, list], n: int) -> bool:
        # Mask drawn rows, and re-mask repaired ones: a repair redraw of a
        # parent can flip a child's activity, and a redraw of an inactive
        # child must never stick (repair can never activate a dead branch).
        off: dict[str, list[bool]] = {}
        for p in self.parameters:
            cond = self.conditions.get(p.name)
            if cond is None:
                continue
            parent_off = off.get(cond.parent, [False] * n)
            parent = columns[cond.parent]
            child_off = [
                parent_off[i] or not cond.holds(parent[i]) for i in range(n)
            ]
            off[p.name] = child_off
            column = columns[p.name]
            inactive = self.inactive_value(p.name)
            for i in range(n):
                if child_off[i]:
                    column[i] = inactive
        return True

    def decode(self, x: np.ndarray | Sequence[float]) -> dict[str, Any]:
        return self.mask(super().decode(x))

    def decode_batch(self, X: np.ndarray) -> list[dict[str, Any]]:
        return [self.mask(cfg) for cfg in super().decode_batch(X)]

    def neighbors(self, config: Mapping[str, Any]) -> list[dict[str, Any]]:
        """Feasible one-parameter moves; parent moves re-mask their subtree."""
        out: list[dict[str, Any]] = []
        seen: set[tuple] = set()
        for p in self.parameters:
            if not self.is_active(p.name, config):
                continue  # moving an inactive child is meaningless
            for v in p.neighbors(config[p.name]):
                cand = self.mask({**config, p.name: v})
                key = tuple(repr(cand[n]) for n in self.names)
                if key not in seen and self.is_valid(cand):
                    seen.add(key)
                    out.append(cand)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConditionalSpace({self.name!r}, d={self.dimension}, "
            f"conditional={len(self.conditions)})"
        )
