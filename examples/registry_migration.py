#!/usr/bin/env python3
"""Migrating a v1 JSON model registry to the SQLite-WAL store.

Before PR 8 the model registry was one JSON file per trained model.  This
example walks the migration path end to end (CI runs it as the
registry-migration smoke step):

1. build a v1-layout directory — plain ``<fingerprint>.json`` artifacts — the
   way an old deployment left it and ``service.save()`` still writes it;
2. import it into a durable SQLite registry with
   ``ModelRegistry.from_json_dir(..., db_path=...)``;
3. query what only the new store can answer: the metadata projection
   (no model blob materialized) and the run-history log written by
   ``service.schedule_batch`` / ``service.run_online``;
4. round-trip back out with ``registry.export_json`` — byte-identical to the
   v1 files, so the layouts stay interchangeable;
5. bound the store with ``registry.gc``: a second goal adds an artifact, and
   a ``keep_latest=1`` pass evicts the one used least recently.

Run with ``python examples/registry_migration.py``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import TrainingConfig, WiSeDBService, tpch_templates
from repro.service import ModelRegistry
from repro.sla import MaxLatencyGoal
from repro.workloads import WorkloadGenerator


def main() -> None:
    templates = tpch_templates(6)
    goal = MaxLatencyGoal.from_factor(templates, factor=2.5)
    config = TrainingConfig.tiny(seed=11)

    with tempfile.TemporaryDirectory() as tmp:
        legacy_dir = Path(tmp) / "v1-deployment" / "models"
        db_path = Path(tmp) / "registry.db"
        export_dir = Path(tmp) / "exported"

        # 1. A v1-era deployment: a saved service is one plain file per model.
        legacy_service = WiSeDBService()
        legacy_service.register("acme", templates, goal, config=config)
        legacy_service.train("acme")
        legacy_service.save(legacy_dir.parent)
        legacy_service.close()
        v1_files = sorted(legacy_dir.glob("*.json"))
        print(
            f"v1 layout: {len(v1_files)} JSON artifact(s) under "
            f"{legacy_dir.parent.name}/models/"
        )

        # 2. One-shot migration into a durable SQLite database.
        registry = ModelRegistry.from_json_dir(legacy_dir, db_path=db_path)
        print(
            f"migrated into {db_path.name}: {len(registry)} artifact(s), "
            f"schema v{registry.schema_version}"
        )

        # 3a. The metadata projection answers without touching a blob.
        (fingerprint,) = registry.fingerprints()
        meta = registry.model_metadata(fingerprint)
        print(
            f"metadata[{fingerprint[:12]}…]: goal={meta['goal_kind']} "
            f"strategy={meta['search_strategy']} "
            f"depth={meta['tree_depth']}"
        )

        # 3b. Scheduling through a service over the migrated registry writes
        #     the run-history log — per-tenant cost/SLA over time.
        service = WiSeDBService(registry=registry)
        service.register("acme", templates, goal, config=config)
        workload = WorkloadGenerator(templates, seed=3).uniform(30)
        service.schedule_batch("acme", workload)
        service.run_online("acme", workload)
        for run in service.history(tenant="acme"):
            print(
                f"history #{run.row_id}: {run.source:<6} "
                f"{run.num_queries} queries on {run.num_vms} VMs, "
                f"cost {run.total_cost:.1f}c, degraded={run.degraded}"
            )
        summary = service.run_summaries()["acme"]
        print(
            f"summary: {summary.runs} runs, mean cost {summary.mean_cost:.1f}c, "
            f"SLA compliance {summary.sla_compliance:.0%}"
        )
        service.close()

        # 4. Export back to the v1 layout — byte-identical files.
        (exported,) = registry.export_json(export_dir)
        identical = exported.read_bytes() == v1_files[0].read_bytes()
        print(f"export_json round trip byte-identical: {identical}")
        if not identical:
            raise SystemExit("export_json round trip diverged from the v1 layout")

        # 5. Eviction by access recency: a stricter goal adds an artifact,
        #    and a pass that keeps one servable artifact evicts the other.
        service = WiSeDBService(registry=registry)
        strict = goal.with_deadline(goal.deadline * 0.8)
        service.register("acme-strict", templates, strict, config=config)
        service.train("acme-strict")
        service.close()
        before = len(registry)
        report = registry.gc(keep_latest=1)
        print(
            f"gc(keep_latest=1): examined {report.examined}, "
            f"evicted {len(report.evicted)}, {before} -> {len(registry)} artifact(s)"
        )
        if not report.evicted or len(registry) != 1:
            raise SystemExit("gc evicted nothing from a two-artifact registry")


if __name__ == "__main__":
    main()
