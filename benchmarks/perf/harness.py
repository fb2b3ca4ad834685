"""Pieces every workload shares: the run context, the host meter, set-up, statistics.

Nothing here knows a workload by name.  The program under test only ever
sees generated inputs — the seed stops at ``repro.workloads`` generators and
at the trainer's sample seed.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import TrainingConfig, WiSeDBService, tpch_templates
from repro.serving.metrics import percentile
from repro.sla.factory import default_goal

from benchmarks.perf.meter import HostMeter
from benchmarks.perf.trace import NullTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space for registries; inside the checkout, ignored by git.
WORK = HERE / ".work"
SHM = Path("/dev/shm")

TEMPLATES = 10
#: Run length the work tables in the workload modules are sized for.
TABLE_SECONDS = 10.0
#: Times a run sets up (the reported ``setup_s`` is the median).
SETUP_REPEATS = 3


# -- the run context ----------------------------------------------------------------


@dataclass
class Context:
    """What one run was asked to do, and what it measured so far."""

    seed: int
    seconds: float
    smoke: bool = False
    tracer: object = field(default_factory=NullTracer)
    meter: HostMeter = field(default_factory=HostMeter)
    core: int | None = None
    import_seconds: float = 0.0
    _dirs: int = 0

    @property
    def traced(self) -> bool:
        return not isinstance(self.tracer, NullTracer)

    @contextmanager
    def untraced(self):
        """Record no spans for a stretch of a traced run (no-op otherwise)."""
        tracer = self.tracer
        was, tracer.on = tracer.on, False
        try:
            yield
        finally:
            tracer.on = was

    def scaled(self, at_table_seconds: int) -> int:
        """A work count sized for ``--seconds`` (the tables are for 10 s)."""
        if self.smoke:
            return max(1, at_table_seconds // 20)
        return max(1, round(at_table_seconds * self.seconds / TABLE_SECONDS))

    def new_dir(self) -> Path:
        self._dirs += 1
        path = WORK / f"{os.getpid()}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def config(self, num_samples: int = 40, seed: int = 0) -> TrainingConfig:
        """The training configuration of a workload's tenants."""
        if self.smoke:
            num_samples = 12
        return TrainingConfig(
            num_samples=num_samples,
            queries_per_sample=8,
            seed=seed,
            max_expansions=120_000,
            min_samples_leaf=5,
            max_depth=30,
        )


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run's directory is still there, or WORK is already gone


def build_service(directory: Path, kinds, config: TrainingConfig) -> WiSeDBService:
    """A service on a SQLite registry with one trained tenant per goal kind.

    ``train`` in its default mode trains the first kind fresh and derives the
    rest adaptively from it (same spec, another goal) — the paper's §5 path.
    """
    templates = tpch_templates(TEMPLATES)
    service = WiSeDBService(registry=directory, n_jobs=1)
    for kind in kinds:
        service.register(kind, templates, default_goal(kind, templates), config=config)
        service.train(kind)
    return service


def close_service(service: WiSeDBService) -> None:
    service.close()
    service.registry.close()


def repeated_setup(ctx: Context, build, discard):
    """Set up ``SETUP_REPEATS`` times; keep the last, report the median.

    ``build(directory)`` returns whatever the workload needs; ``discard``
    closes one.  Returns ``(kept, directory, setup seconds, each repeat)``:
    the import time of the program plus the median repeat, both scaled.
    """
    meter = ctx.meter
    repeats = 1 if ctx.smoke else SETUP_REPEATS
    each = []
    kept = directory = None
    for index in range(repeats):
        if kept is not None:
            discard(kept)
            remove_dir(directory)
        directory = ctx.new_dir()
        meter.probe()
        started = time.perf_counter()
        try:
            with ctx.tracer.span("bench.setup"):
                kept = build(directory)
        except BaseException:
            remove_dir(directory)
            raise
        ended = time.perf_counter()
        meter.probe()
        each.append(meter.scaled(started, ended))
    return kept, directory, ctx.import_seconds + statistics.median(each), each


# -- timing loops -------------------------------------------------------------------


def timed_ops(ctx: Context, ops, span: str = "bench.op"):
    """Run each callable of *ops* once, probing between them when due.

    Returns ``(results, spans)`` with ``spans`` the raw ``(start, end)`` pairs;
    scale them with :func:`scaled_durations` once the closing probe is in.
    """
    meter, tracer = ctx.meter, ctx.tracer
    results, spans = [], []
    meter.probe()
    for number, op in enumerate(ops):
        meter.probe_if_due()
        with tracer.span(span, number):
            started = time.perf_counter()
            results.append(op())
            ended = time.perf_counter()
        spans.append((started, ended))
    meter.probe()
    return results, spans


def scaled_durations(meter: HostMeter, spans) -> list[float]:
    return [meter.scaled(started, ended) for started, ended in spans]


def phase_rate(meter: HostMeter, work: int, spans) -> tuple[float, float]:
    """``(work per scaled second, work per raw second)`` over *spans*.

    The phase's factor is the mean of every probe from its first span to its
    last; dividing the summed raw time by it is steadier than scaling span by
    span when the spans are as short as the probes.
    """
    raw = sum(ended - started for started, ended in spans)
    factor = meter.factor(spans[0][0], spans[-1][1])
    return work * factor / raw, work / raw


# -- statistics ---------------------------------------------------------------------


def latency_summary(durations, tail: float, limit_ms: float, ok=None) -> dict:
    """p50, the workload's tail percentile, p99 and the in-limit share, in ms."""
    millis = [value * 1e3 for value in durations]
    ok = [True] * len(millis) if ok is None else ok
    inside = sum(1 for value, fine in zip(millis, ok) if fine and value <= limit_ms)
    return {
        "ops": len(millis),
        "p50_ms": percentile(millis, 0.50),
        "tail_ms": percentile(millis, tail),
        "p99_ms": percentile(millis, 0.99),
        "max_ms": max(millis),
        "slowest_op": millis.index(max(millis)),
        "tail_percentile": tail,
        "limit_ms": limit_ms,
        "in_limit_share": inside / len(millis),
    }


def outcome(ctx: Context, checks, setup, rate, summary, cost, fine, detail) -> dict:
    """One workload's outcome, in the shape the command line reports.

    *setup* is ``repeated_setup``'s ``(seconds, each repeat)``, *rate* the
    capacity phase's work per scaled second, *summary* the latency phase's
    :func:`latency_summary`, *fine* one flag per latency-phase op.
    """
    setup_s, setup_each = setup
    detail["setup"] = {"each_s": setup_each, "import_s": ctx.import_seconds}
    return {
        "end_to_end": {
            "setup_s": setup_s,
            "queries_per_s": rate,
            "op_p50_ms": summary["p50_ms"],
            "op_tail_ms": summary["tail_ms"],
            "in_limit_share": summary["in_limit_share"],
            "schedule_cost_cents": cost,
        },
        "attempted": len(fine),
        "failed": len(fine) - sum(fine),
        "checks": checks,
        "detail": detail,
    }


# -- host -------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cpu_seconds() -> tuple[float, float]:
    """``(this process, reaped children)`` user + system CPU seconds."""
    times = os.times()
    return times.user + times.system, times.children_user + times.children_system


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def stamp(ctx: Context) -> dict:
    return {
        "commit": commit(),
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "scale": "smoke" if ctx.smoke else "full",
        "traced": ctx.traced,
        "cpu_count": os.cpu_count(),
        "core": ctx.core,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host.calib_ms": ctx.meter.calib_ms(),
        "probes": len(ctx.meter.took),
    }


def shm_segments() -> set[str]:
    """Names of the ``multiprocessing.shared_memory`` segments that exist now."""
    try:
        return {name for name in os.listdir(SHM) if name.startswith("psm_")}
    except OSError:
        return set()
