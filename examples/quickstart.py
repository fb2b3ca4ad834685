#!/usr/bin/env python3
"""Quickstart: a multi-tenant WiSeDB service with persistent models.

This example walks the service-layer API end to end:

1. describe two tenants (templates + performance goal each);
2. train both through the model registry — the second tenant shares the first
   one's workload specification, so it retrains *adaptively* (Section 5)
   instead of from scratch;
3. schedule a batch for each tenant through the unified Scheduler protocol
   and inspect the SchedulingOutcome (schedule, Equation-1 cost, overheads);
4. save the whole deployment to disk and reload it — nothing retrains, and
   the reloaded tenants schedule bit-identically.

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import TrainingConfig, WiSeDBService, tpch_templates, units
from repro.sla import MaxLatencyGoal, PercentileGoal, PerQueryDeadlineGoal
from repro.workloads import WorkloadGenerator


def main() -> None:
    # 1. Workload specification: the paper's TPC-H templates, two tenants with
    #    different SLAs over the same specification.
    templates = tpch_templates(10)
    acme_goal = MaxLatencyGoal.from_factor(templates, factor=2.5)
    globex_goal = PerQueryDeadlineGoal.from_factor(templates, factor=3.0)
    print(f"Workload specification: {len(templates)} templates")

    service = WiSeDBService()  # pass registry="./models" to persist across runs
    config = TrainingConfig.fast(seed=1)
    service.register("acme", templates, acme_goal, config=config)
    service.register("globex", templates, globex_goal, config=config)

    # 2. Train through the registry.  "acme" trains fresh; "globex" differs
    #    only in its goal, so the service retrains adaptively from acme's
    #    stored samples (Section 5) instead of starting over.
    for name, result in service.train_all().items():
        tenant = service.tenant(name)
        print(
            f"  {name:<7} {tenant.spec.goal.describe():<32} "
            f"trained [{tenant.provenance}] in {result.training_time:.1f}s "
            f"({result.num_examples} decisions)"
        )

    # 2b. Per-tenant search-engine selection: tenants whose workloads make
    #     exact training search too slow can opt into a relaxed strategy
    #     (weighted A* / beam) and/or the tighter "tight" future-cost bound.
    #     Relaxed training is never silent — the model records its worst
    #     cost-vs-optimal ratio — and the engine choice is part of the
    #     registry fingerprint, so differently-engined tenants never share
    #     artifacts.
    initech_goal = PercentileGoal.from_factor(templates)
    service.register(
        "initech",
        templates,
        initech_goal,
        config=TrainingConfig.tiny(seed=2),
        search_strategy="beam:16",
        future_bound="tight",
    )
    initech = service.train("initech")
    print(
        f"  initech {initech_goal.describe():<32} "
        f"trained [beam:16 + tight bound], worst cost-vs-optimal ratio "
        f"{initech.worst_optimality_ratio:.3f}"
    )

    # 3. Schedule a 60-query batch for each tenant.  Every scheduler family
    #    returns the same SchedulingOutcome shape.
    workload = WorkloadGenerator(templates, seed=7).uniform(60)
    for name in service.tenant_names():
        outcome = service.schedule_batch(name, workload)
        print(f"\n{outcome.describe()}")
        print(f"  provisioning : {units.format_cents(outcome.cost.startup_cost)}")
        print(f"  execution    : {units.format_cents(outcome.cost.execution_cost)}")
        print(f"  SLA penalty  : {units.format_cents(outcome.cost.penalty_cost)}")
        print(f"  total        : {units.format_cents(outcome.cost.total)}")
        print(f"  scheduled in : {outcome.overhead.wall_time_seconds * 1000:.0f} ms")

    # 4. Persist the deployment and restore it: registry hits, no retraining,
    #    bit-identical schedules.
    with tempfile.TemporaryDirectory() as tmp:
        deployment = Path(tmp) / "deployment"
        service.save(deployment)
        reloaded = WiSeDBService.load(deployment)
        original = service.schedule_batch("acme", workload)
        restored = reloaded.schedule_batch("acme", workload)
        identical = (
            restored.schedule.signature() == original.schedule.signature()
            and restored.cost == original.cost
        )
        print(
            f"\nSaved + reloaded from {deployment.name}/: "
            f"{len(reloaded)} tenants, retrained nothing, "
            f"bit-identical schedules: {identical}"
        )


if __name__ == "__main__":
    main()
