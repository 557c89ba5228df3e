"""Execution-layer runtime systems and fail-safe switching.

The Execution Layer of the 4-layer workflow abstraction connects a compiled
task instruction to an *underlying runtime system* — bare-metal launch,
container runtime, or a specialised distributed framework.  More than one
runtime is live at a time; the layer picks per task and, when provisioning
fails, *fail-safe switches* to the next candidate (Table 1 of the TACC
design).

This module models the part that matters to end-to-end task latency and
reliability: per-runtime provisioning time (with image/dependency caching)
and provisioning failure probability, plus the switching chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import require_fraction, require_non_negative
from ..errors import ConfigError, RuntimeSwitchError


@dataclass(frozen=True)
class RuntimeSystem:
    """One underlying runtime the execution layer can provision onto.

    Attributes:
        name: Registry key (e.g. ``"bare"``, ``"container"``, ``"ray"``).
        cold_provision_s: Provisioning time on a node that has no cached
            environment (image pull, dependency install).
        warm_provision_s: Provisioning time when the environment is cached.
        provision_failure_prob: Probability one provisioning attempt fails
            (registry hiccup, image corruption) and triggers a switch.
        supports_multi_node: Whether distributed jobs can run here.
        overhead_factor: Steady-state runtime overhead multiplier on job
            work (containerisation costs a few percent).
    """

    name: str
    cold_provision_s: float
    warm_provision_s: float
    provision_failure_prob: float = 0.0
    supports_multi_node: bool = True
    overhead_factor: float = 1.0

    def __post_init__(self) -> None:
        require_non_negative("cold_provision_s", self.cold_provision_s)
        require_non_negative("warm_provision_s", self.warm_provision_s)
        require_fraction("provision_failure_prob", self.provision_failure_prob)
        if self.warm_provision_s > self.cold_provision_s:
            raise ConfigError(f"runtime {self.name}: warm provision exceeds cold")
        if self.overhead_factor < 1.0:
            raise ConfigError(f"runtime {self.name}: overhead_factor must be >= 1")


#: Default runtime chain, ordered by preference.
DEFAULT_RUNTIMES: tuple[RuntimeSystem, ...] = (
    RuntimeSystem(
        "container",
        cold_provision_s=180.0,
        warm_provision_s=8.0,
        provision_failure_prob=0.02,
        overhead_factor=1.02,
    ),
    RuntimeSystem(
        "bare",
        cold_provision_s=45.0,
        warm_provision_s=3.0,
        provision_failure_prob=0.005,
        overhead_factor=1.0,
    ),
    RuntimeSystem(
        "ray",
        cold_provision_s=240.0,
        warm_provision_s=20.0,
        provision_failure_prob=0.03,
        overhead_factor=1.05,
    ),
)


@dataclass(frozen=True)
class ProvisionResult:
    """Outcome of provisioning one task."""

    runtime: str
    provision_s: float
    attempts: int
    switched: bool
    warm: bool


@dataclass
class RuntimeRegistry:
    """Ordered runtime chain with fail-safe switching and a warm-env cache.

    The warm cache is keyed by ``(runtime, env_key)``: the first task using
    an environment pays the cold cost; later tasks with the same
    environment hash provision warm — the execution-layer counterpart of
    the compiler layer's content cache.
    """

    runtimes: tuple[RuntimeSystem, ...] = DEFAULT_RUNTIMES
    _warm: set[tuple[str, str]] = field(default_factory=set)
    provision_count: int = 0
    switch_count: int = 0

    def __post_init__(self) -> None:
        if not self.runtimes:
            raise ConfigError("runtime registry needs at least one runtime")
        names = [r.name for r in self.runtimes]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate runtime names: {names}")

    def get(self, name: str) -> RuntimeSystem:
        for runtime in self.runtimes:
            if runtime.name == name:
                return runtime
        known = [r.name for r in self.runtimes]
        raise ConfigError(f"unknown runtime {name!r}; known: {known}")

    def chain_for(
        self, preferred: str | None = None, multi_node: bool = False
    ) -> tuple[RuntimeSystem, ...]:
        """The fail-safe chain, preferred runtime first, then the rest."""
        chain = [r for r in self.runtimes if r.supports_multi_node or not multi_node]
        if not chain:
            raise RuntimeSwitchError("no runtime supports this task shape")
        if preferred is not None:
            head = self.get(preferred)
            if multi_node and not head.supports_multi_node:
                raise RuntimeSwitchError(
                    f"runtime {preferred!r} does not support multi-node tasks"
                )
            chain = [head] + [r for r in chain if r.name != preferred]
        return tuple(chain)

    def provision(
        self,
        env_key: str,
        rng: np.random.Generator,
        preferred: str | None = None,
        multi_node: bool = False,
    ) -> ProvisionResult:
        """Provision a task, switching runtimes on failure.

        Each runtime in the chain is tried once; a failed attempt still
        costs its provisioning time (the time is spent before the failure
        surfaces).  Raises :class:`RuntimeSwitchError` when the whole chain
        fails.
        """
        chain = self.chain_for(preferred, multi_node)
        elapsed = 0.0
        for attempt, runtime in enumerate(chain, start=1):
            warm = (runtime.name, env_key) in self._warm
            cost = runtime.warm_provision_s if warm else runtime.cold_provision_s
            elapsed += cost
            if rng.uniform() >= runtime.provision_failure_prob:
                self._warm.add((runtime.name, env_key))
                self.provision_count += 1
                self.switch_count += attempt - 1
                return ProvisionResult(
                    runtime=runtime.name,
                    provision_s=elapsed,
                    attempts=attempt,
                    switched=attempt > 1,
                    warm=warm,
                )
        raise RuntimeSwitchError(
            f"all {len(chain)} runtimes failed to provision env {env_key!r}"
        )
