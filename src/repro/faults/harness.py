"""Canonical chaos runs: one seeded workload + fault schedule + engine.

Shared by the ``repro chaos`` CLI, the ``chaos`` replay scenario
(:mod:`repro.scenarios`), the ``ext_resilience`` experiment and the
invariant test suite, so all of them exercise the same code path.  A
chaos run is a pure function of its seeds: the same ``(workload seed,
fault seed)`` pair always produces a bit-identical event log and request
outcomes (asserted via :func:`repro.faults.invariants.run_digest`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.injector import FaultDomain, FaultInjector
from repro.faults.policies import (
    DegradePolicy,
    FailFastPolicy,
    RecoveryPolicy,
    RetryPolicy,
)
from repro.faults.schedule import FaultSchedule
from repro.hardware.gpus import H100_SXM
from repro.models.zoo import get_model
from repro.parallel.expert_parallel import replicated_round_robin_placement
from repro.perfmodel.inference import InferencePerfModel
from repro.serving.engine import ServingEngine, ServingResult
from repro.serving.scheduler import SchedulerConfig
from repro.workloads.generator import FixedShapeWorkload

__all__ = ["ChaosConfig", "ChaosRun", "make_policy", "build_chaos_engine",
           "chaos_serving_run"]

CHAOS_MODEL = "OLMoE-1B-7B"
"""Default chaos workload model (matches the observability reference)."""


@dataclass(frozen=True)
class ChaosConfig:
    """Everything a chaos run depends on (all seeds explicit)."""

    model_name: str = CHAOS_MODEL
    num_requests: int = 24
    input_tokens: int = 256
    output_tokens: int = 64
    arrival_interval: float = 0.005
    kv_pool_tokens: int | None = 32_768
    num_devices: int = 4
    ep: int = 4
    replicas: int = 2
    fault_seed: int = 0
    fault_rate: float = 2.0
    horizon_s: float = 8.0
    policy: str = "retry"
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if self.policy not in ("retry", "failfast"):
            raise ValueError(
                f"policy must be 'retry' or 'failfast', got {self.policy!r}"
            )


@dataclass
class ChaosRun:
    """A finished chaos run with its injector (for health / counters)."""

    result: ServingResult
    injector: FaultInjector
    schedule: FaultSchedule

    @property
    def summary(self) -> dict:
        res, inj = self.result, self.injector
        return {
            "requests": res.num_requests,
            "finished": res.num_requests - res.num_failed,
            "failed": res.num_failed,
            "availability": res.availability,
            "fault_retries": res.num_fault_retries,
            "makespan_s": res.makespan,
            "throughput_tok_s": res.throughput_tok_s,
            **inj.summary(),
        }


def make_policy(name: str) -> RecoveryPolicy:
    """Recovery policy from its CLI name."""
    if name == "retry":
        return RetryPolicy()
    if name == "failfast":
        return FailFastPolicy()
    raise ValueError(f"unknown recovery policy {name!r}")


def build_injector(config: ChaosConfig,
                   schedule: FaultSchedule | None = None) -> FaultInjector:
    """Injector for ``config`` (schedule generated from the fault seed
    unless an explicit one is supplied)."""
    model = get_model(config.model_name)
    if schedule is None:
        schedule = FaultSchedule.generate(
            seed=config.fault_seed,
            horizon_s=config.horizon_s,
            rate_per_s=config.fault_rate,
            num_targets=config.num_devices,
        )
    placement = None
    if model.moe is not None and \
            model.moe.num_experts % config.ep == 0 and config.ep > 1:
        placement = replicated_round_robin_placement(
            model.moe.num_experts, config.ep,
            replicas=min(config.replicas, config.ep),
        )
    domain = FaultDomain(
        num_devices=config.num_devices,
        ep=config.ep,
        top_k=model.moe.top_k if model.moe is not None else 0,
        placement=placement,
    )
    return FaultInjector(
        schedule,
        domain=domain,
        policy=make_policy(config.policy),
        degrade=DegradePolicy() if config.degrade else None,
    )


def build_chaos_engine(config: ChaosConfig | None = None,
                       schedule: FaultSchedule | None = None,
                       instrumentation=None
                       ) -> tuple[ServingEngine, FaultInjector]:
    """The canonical chaos deployment, loaded but not yet run — for callers
    (the invariant suite) that step the engine themselves."""
    config = config or ChaosConfig()
    injector = build_injector(config, schedule)
    injector.obs = instrumentation
    model = get_model(config.model_name)
    perf = InferencePerfModel(model, H100_SXM,
                              instrumentation=instrumentation)
    engine = ServingEngine(
        perf,
        scheduler_config=SchedulerConfig(max_num_seqs=64),
        kv_pool_tokens=config.kv_pool_tokens,
        instrumentation=instrumentation,
        fault_injector=injector,
    )
    workload = FixedShapeWorkload(
        batch_size=config.num_requests,
        input_tokens=config.input_tokens,
        output_tokens=config.output_tokens,
    )
    for i, request in enumerate(workload.requests()):
        request.arrival_time = i * config.arrival_interval
        engine.submit(request)
    return engine, injector


def chaos_serving_run(config: ChaosConfig | None = None,
                      schedule: FaultSchedule | None = None,
                      instrumentation=None) -> ChaosRun:
    """Serve the canonical fixed-shape workload under a fault schedule."""
    engine, injector = build_chaos_engine(config, schedule, instrumentation)
    result = engine.run()
    return ChaosRun(result=result, injector=injector,
                    schedule=injector.schedule)
