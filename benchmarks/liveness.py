"""Which functions of ``src/repro`` no entry point of the repository reaches.

The entry points are the six referee workloads of ``benchmarks/perf`` at
``--scale smoke``, untraced and traced, the seven examples (``serve_demo`` also across two process
shards, as CI runs it) and every ``benchmarks/bench_*.py`` under pytest with
``--benchmark-disable``, so each benchmarked call runs once.  The tier-1 suite
is not an entry point: a function only a test calls has no user.  Each entry
point runs in its own interpreter with a call hook that a generated
``sitecustomize`` module installs (``sys.settrace`` and ``threading.settrace``,
global events only); every process, forked workers included, writes the code
objects it ran at exit or at ``os._exit``.

A function no entry point reaches is deleted, moved into ``tests/``, or kept
in :data:`KEEP` with a one-line reason that starts with one of the
:data:`BUCKETS`.  A run prints the unreached functions missing from
:data:`KEEP` and the :data:`KEEP` entries that were reached, and exits
non-zero unless both lists are empty; an entry point that exits non-zero is
reported, since a run cut short shows up in those lists anyway.  It also
prints which of ``benchmarks/perf/trace.py``'s targets each referee workload
reaches (that file is read, never imported or edited).

Run it from anywhere, with numpy, pytest and pytest-benchmark installed::

    python benchmarks/liveness.py

The figure scripts, which take almost all of the time, run one per
interpreter and two at a time.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACE = ROOT / "benchmarks" / "perf" / "trace.py"

#: Bucket -> when a function no entry point reaches may stay in ``src/``.
BUCKETS = {
    "trace": "a target the frozen benchmarks/perf/trace.py resolves by name, or what one calls",
    "safety": "an error or failure path, input validation or platform code",
    "abstract": "an abstract or protocol default that live subclasses override",
    "roadmap": "a ROADMAP item names its consumer",
    "dunder": "a dunder that defines equality, hashing or printing",
    "mentioned": "an example or a benchmark script names it",
}

#: ``module:qualname`` -> ``"<bucket>: <why>"`` for every function kept
#: although no entry point reaches it.
KEEP: dict[str, str] = {
    "repro.learning.decision_tree:CompiledTreeEvaluator.predict_row": (
        "trace: learning.decision_tree.predict; decisions run the generated walk instead"
    ),
    "repro.learning.features:FeatureExtractor.extract_into": (
        "trace: learning.features.extract; training writes rows with vertex_values and block"
    ),
    "repro.learning.features:FeatureExtractor.matrix": (
        "trace: learning.features.matrix; training writes rows with vertex_values and block"
    ),
    "repro.runtime.batch:RuntimeSchedulingContext.placement_cost_row": (
        "trace: runtime.batch.cost_row; a thin name over ProblemTables.placement_cost_row "
        "that no run builds, as runtime decisions price one template at a time"
    ),
    "repro.search.problem:SchedulingProblem.template_counts": (
        "trace: FeatureExtractor.matrix, a trace target, reads it"
    ),
    "repro.service.registry:ModelRegistry.find_base": (
        "trace: service.registry.find_base; adaptation walks base_results"
    ),
    "repro.cloud.latency:TabularLatencyModel.__init__": (
        "safety: restores a non-deterministic latency model from its table on load"
    ),
    "repro.cloud.latency:TabularLatencyModel.latencies": (
        "safety: restores a non-deterministic latency model from its table on load"
    ),
    "repro.cloud.latency:TabularLatencyModel.latency": (
        "safety: restores a non-deterministic latency model from its table on load"
    ),
    "repro.core.outcome:QueryOutcome._make": (
        "safety: routes _replace through __new__, which validates the times"
    ),
    "repro.exceptions:UnknownTemplateError.__init__": (
        "safety: raised on a template the catalogue lacks"
    ),
    "repro.exceptions:UnknownVMTypeError.__init__": (
        "safety: raised on a VM type the catalogue lacks"
    ),
    "repro.exceptions:UnsupportedQueryError.__init__": (
        "safety: raised when a VM type cannot run a template"
    ),
    "repro.faults.plan:BackoffPolicy.delay_for_attempt": (
        "safety: the retry delay of a VM start that failed"
    ),
    "repro.faults.plan:SlowStart.__post_init__": "safety: validates a fault event",
    "repro.faults.plan:SpotRevocation.__post_init__": "safety: validates a fault event",
    "repro.faults.plan:VMFailure.__post_init__": "safety: validates a fault event",
    "repro.learning.model:DecisionModel._settlers.<locals>.fallback": (
        "safety: a leaf label the vertex cannot take falls back here"
    ),
    "repro.learning.model:DecisionModel._settlers.<locals>.fallback.<locals>.settle": (
        "safety: a leaf label the vertex cannot take falls back here"
    ),
    "repro.learning.shm:SharedArrayBundle.__enter__": (
        "safety: releases the shared-memory segment on with-exit"
    ),
    "repro.learning.shm:SharedArrayBundle.__exit__": (
        "safety: releases the shared-memory segment on with-exit"
    ),
    "repro.learning.shm:SharedArrayView.__enter__": (
        "safety: releases the shared-memory mapping on with-exit"
    ),
    "repro.learning.shm:SharedArrayView.__exit__": (
        "safety: releases the shared-memory mapping on with-exit"
    ),
    "repro.learning.shm:_untrack": (
        "safety: platform code for the resource tracker of an attached segment"
    ),
    "repro.parallel.backend:ExecutionBackend.__enter__": "safety: closes the backend on with-exit",
    "repro.parallel.backend:ExecutionBackend.__exit__": "safety: closes the backend on with-exit",
    "repro.service.registry:ModelRegistry._quarantine_file": (
        "safety: moves an unloadable JSON artifact aside"
    ),
    "repro.service.registry:ModelRegistry.quarantined": (
        "safety: lists the rows the registry refused to serve"
    ),
    "repro.service.service:WiSeDBService._degraded_outcome": (
        "safety: the FFD fallback when a tenant's learned path fails"
    ),
    "repro.service.storage:SQLiteStore.quarantine": "safety: marks an unloadable row",
    "repro.service.storage:SQLiteStore.quarantined": (
        "safety: lists the rows the registry refused to serve"
    ),
    "repro.serving.channel:_Channel._stop_writing": (
        "safety: stops a pipe writer whose peer went away"
    ),
    "repro.serving.channel:_pickle_error": "safety: ships a worker exception across the pipe",
    "repro.serving.channel:_unpickle_error": "safety: rebuilds a worker exception from the pipe",
    "repro.serving.engine:ServingEngine._decide_degraded": (
        "safety: the FFD fallback when a lane's learned path fails"
    ),
    "repro.serving.engine:ServingEngine._fail": "safety: fails a lane and its waiting tickets",
    "repro.serving.sharded:_Shard._abandon": "safety: tears down a shard whose worker died",
    "repro.serving.sharded:_Shard._abort": "safety: tears down a shard whose worker died",
    "repro.serving.worker:_TicketShipper.failed": "safety: ships a failed ticket's error",
    "repro.cloud.latency:LatencyModel.latency": "abstract: LatencyModel protocol",
    "repro.core.scheduler:Scheduler.name": "abstract: Scheduler protocol",
    "repro.core.scheduler:Scheduler.run": "abstract: Scheduler protocol",
    "repro.parallel.backend:ExecutionBackend.map_tasks": "abstract: ExecutionBackend protocol",
    "repro.search.bounds:FutureCostBound.attach": "abstract: FutureCostBound protocol",
    "repro.search.bounds:FutureCostBound.node_bound": "abstract: FutureCostBound protocol",
    "repro.search.bounds:FutureCostBound.placement_bound": "abstract: FutureCostBound protocol",
    "repro.search.bounds:FutureCostBound.provision_bound": "abstract: FutureCostBound protocol",
    "repro.search.strategy:SearchStrategy.from_parameter": "abstract: SearchStrategy protocol",
    "repro.search.strategy:SearchStrategy.search": "abstract: SearchStrategy protocol",
    "repro.search.strategy:SearchStrategy.spec": "abstract: SearchStrategy protocol",
    "repro.sla.accumulators:PercentileViolationAccumulator.copy": (
        "abstract: the percentile goal's ViolationAccumulator.copy"
    ),
    "repro.sla.accumulators:ViolationAccumulator.add": "abstract: ViolationAccumulator protocol",
    "repro.sla.accumulators:ViolationAccumulator.copy": "abstract: ViolationAccumulator protocol",
    "repro.sla.accumulators:ViolationAccumulator.violation": (
        "abstract: ViolationAccumulator protocol"
    ),
    "repro.sla.accumulators:ViolationAccumulator.violation_with": (
        "abstract: ViolationAccumulator protocol"
    ),
    "repro.sla.base:PerformanceGoal.accumulator": "abstract: PerformanceGoal protocol",
    "repro.sla.base:PerformanceGoal.deadline": "abstract: PerformanceGoal protocol",
    "repro.sla.base:PerformanceGoal.future_cost_lower_bound": "abstract: PerformanceGoal protocol",
    "repro.sla.base:PerformanceGoal.is_linearly_shiftable": "abstract: PerformanceGoal protocol",
    "repro.sla.base:PerformanceGoal.is_monotonic": "abstract: PerformanceGoal protocol",
    "repro.sla.base:PerformanceGoal.strictest_value": "abstract: PerformanceGoal protocol",
    "repro.sla.base:PerformanceGoal.violation_period": "abstract: PerformanceGoal protocol",
    "repro.sla.base:PerformanceGoal.with_deadline": "abstract: PerformanceGoal protocol",
    "repro.learning.decision_tree:DecisionTreeClassifier.decision_path": (
        "roadmap: items 6(i) and 20, the per-decision record"
    ),
    "repro.learning.model:DecisionModel.training_optimality_ratio": (
        "roadmap: item 16, the relaxed strategies' provenance"
    ),
    "repro.parallel.backend:ProcessPoolBackend.__init__": (
        "roadmap: item 16, training with n_jobs >= 2"
    ),
    "repro.parallel.backend:ProcessPoolBackend.close": (
        "roadmap: item 16, training with n_jobs >= 2"
    ),
    "repro.parallel.backend:ProcessPoolBackend.map_tasks": (
        "roadmap: item 16, training with n_jobs >= 2"
    ),
    "repro.parallel.backend:ProcessPoolBackend.n_jobs": (
        "roadmap: item 16, training with n_jobs >= 2"
    ),
    "repro.parallel.backend:_run_task": "roadmap: item 16, training with n_jobs >= 2",
    "repro.parallel.backend:available_cpus": "roadmap: item 16, training with n_jobs >= 2",
    "repro.cloud.vm:VMType.__eq__": "dunder: equality",
    "repro.cloud.vm:VMType.__hash__": "dunder: hashing",
    "repro.cloud.vm:VMType.__str__": "dunder: printing",
    "repro.cloud.vm:VMTypeCatalog.__eq__": "dunder: equality",
    "repro.cloud.vm:VMTypeCatalog.__repr__": "dunder: printing",
    "repro.core.schedule:Schedule.__eq__": "dunder: equality",
    "repro.core.schedule:Schedule.__hash__": "dunder: hashing",
    "repro.core.schedule:VMAssignment.__str__": "dunder: printing",
    "repro.faults.plan:FaultPlan.__repr__": "dunder: printing",
    "repro.search.actions:PlaceQuery.__str__": "dunder: printing",
    "repro.search.actions:ProvisionVM.__str__": "dunder: printing",
    "repro.workloads.query:Query.__str__": "dunder: printing",
    "repro.workloads.templates:QueryTemplate.__str__": "dunder: printing",
    "repro.workloads.templates:TemplateSet.__eq__": "dunder: equality",
    "repro.workloads.templates:TemplateSet.__hash__": "dunder: hashing",
    "repro.workloads.templates:TemplateSet.__repr__": "dunder: printing",
    "repro.workloads.workload:Workload.__repr__": "dunder: printing",
}


def _module_name(path: Path, src: Path = SRC) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def functions(src: Path = SRC) -> dict[str, tuple[Path, int]]:
    """``module:qualname`` -> (file, lines) of every def under ``src/repro``.

    Qualified names follow ``__qualname__`` (``Outer.method``,
    ``outer.<locals>.inner``); lambdas are not counted.  Two defs with one
    name (a property's getter and setter) count as one function, reached
    when either runs.
    """
    found: dict[str, tuple[Path, int]] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = _module_name(path, src)
        stack: list[tuple[ast.AST, str]] = [
            (ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")
        ]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    lines = child.end_lineno - child.lineno + 1
                    _, before = found.get(f"{module}:{qualname}", (path, 0))
                    found[f"{module}:{qualname}"] = (path, before + lines)
                    stack.append((child, qualname + ".<locals>."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, prefix + child.name + "."))
                else:
                    stack.append((child, prefix))
    return found


def trace_targets(trace: Path = TRACE) -> dict[str, str]:
    """Span name -> ``module:qualname`` of every target ``trace.py`` wraps."""
    tree = ast.parse(trace.read_text(encoding="utf-8"), filename=str(trace))
    targets: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            for entry in node.value.elts:
                name, module, owner, attribute = (
                    element.value for element in entry.elts[:4]
                )
                qualname = f"{owner}.{attribute}" if owner else attribute
                targets[name] = f"{module}:{qualname}"
    return targets


#: The hook also gives SIGINT Python's default handler.  A process started
#: with SIGINT ignored (a background job) keeps it ignored, and then
#: ``asyncio.run`` installs no handler of its own; with one installed it
#: reprs its main task, result included, when it restores the handler.  So
#: whether a serving workload reaches the ``__repr__`` of the outcomes its
#: main coroutine returns would depend on how the probe was launched.
_HOOK = """\
import atexit, os, signal, sys, threading

_SEEN = set()


def _hook(frame, event, arg):
    _SEEN.add(frame.f_code)


def _dump():
    sys.settrace(None)
    prefix = {prefix!r}
    names = sorted({{
        code.co_filename + "\\t" + code.co_qualname
        for code in list(_SEEN)
        if os.path.abspath(code.co_filename).startswith(prefix)
    }})
    path = os.path.join({out!r}, "%d-%d.txt" % (os.getpid(), len(os.listdir({out!r}))))
    with open(path, "w") as handle:
        handle.write("\\n".join(names))


def _exit(code, _exit=os._exit):
    _dump()
    _exit(code)


os._exit = _exit
signal.signal(signal.SIGINT, signal.default_int_handler)
atexit.register(_dump)
threading.settrace(_hook)
sys.settrace(_hook)
"""


def entry_points(benchmark: dict) -> tuple[list, list]:
    """``(label, argv)`` of every entry point: the ones run one at a time,
    then the figure scripts, which run two at a time."""
    python = sys.executable
    serial = [
        (
            f"referee {workload['name']}{' traced' if trace else ''}",
            [python, "benchmarks/perf/run.py", "--workload", workload["name"], "--scale", "smoke",
             "--trace", str(trace)],
        )
        for workload in benchmark["workloads"]
        for trace in (0, 1)
    ]
    for example in sorted((ROOT / "examples").glob("*.py")):
        serial.append((f"example {example.stem}", [python, str(example.relative_to(ROOT))]))
    serial.append(
        ("example serve_demo --shards 2", [python, "examples/serve_demo.py", "--shards", "2"])
    )
    figures = [
        (
            path.stem,
            # Plain asserts and no tracebacks: a failed check must not reach
            # the __repr__ methods its report would print.
            [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
             "--assert=plain", "--tb=no", str(path.relative_to(ROOT))],
        )
        for path in sorted(ROOT.glob("benchmarks/bench_*.py"))
    ]
    return serial, figures


def run(label: str, argv: list[str], scratch: Path) -> tuple[set[str], bool]:
    """Run one entry point under the hook; the names it reached, and success."""
    out = scratch / "calls"
    hook = scratch / "hook"
    out.mkdir(parents=True)
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(
        _HOOK.format(prefix=str(SRC / "repro") + os.sep, out=str(out)), encoding="utf-8"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(hook), str(SRC))))
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    took = time.perf_counter() - started
    print(f"  {label:40} {took:7.1f} s  exit {done.returncode}", flush=True)
    if done.returncode:
        print((done.stdout + done.stderr)[-3000:], flush=True)
    reached = set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text(encoding="utf-8").splitlines():
            filename, qualname = line.split("\t")
            reached.add(f"{_module_name(Path(os.path.abspath(filename)))}:{qualname}")
    return reached, done.returncode == 0


def main() -> int:
    started = time.perf_counter()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    defined = functions()
    targets = trace_targets()
    serial, figures = entry_points(benchmark)
    print("entry points:")
    with tempfile.TemporaryDirectory(prefix="liveness-") as scratch:
        jobs = [
            (label, argv, Path(scratch) / str(number))
            for number, (label, argv) in enumerate(serial + figures)
        ]
        results = [run(*job) for job in jobs[: len(serial)]]
        with ThreadPoolExecutor(max_workers=2) as pool:
            results += pool.map(lambda job: run(*job), jobs[len(serial) :])
    reached_by = {job[0]: reached for job, (reached, _) in zip(jobs, results)}
    failed = [job[0] for job, (_, ok) in zip(jobs, results) if not ok]
    reached = set().union(*reached_by.values())
    unreached = set(defined) - reached
    body = sum(lines for _, lines in defined.values())
    print(
        f"\n{len(unreached)} of {len(defined)} functions unreached, "
        f"{sum(defined[name][1] for name in unreached)} of {body} def lines"
    )

    print("\ntrace.py targets each referee workload reaches (untraced and traced run):")
    by_target = defaultdict(list)
    for workload in (workload["name"] for workload in benchmark["workloads"]):
        runs = reached_by[f"referee {workload}"] | reached_by[f"referee {workload} traced"]
        hit = [span for span, name in targets.items() if name in runs]
        print(f"  {workload:16} {len(hit):2} of {len(targets)}")
        for span in hit:
            by_target[span].append(workload)
    for span in targets:
        print(f"  {span:36} {', '.join(by_target[span]) or '-- none --'}")

    unlisted = sorted(unreached - KEEP.keys())
    now_reached = sorted(name for name in KEEP if name in reached)
    print(f"\nunreached and not in KEEP ({len(unlisted)}):")
    for name in unlisted:
        print(f"  {name}  ({defined[name][1]} lines)")
    print(f"\nin KEEP but reached ({len(now_reached)}):")
    for name in now_reached:
        print(f"  {name}")
    if failed:
        # A failed check (a wall-time bound under the hook, say) says nothing
        # about reach; a run cut short leaves functions unreached, which the
        # two lists above show.
        print(f"\nentry points that exited non-zero: {', '.join(failed)}")
    print(f"\nliveness probe took {time.perf_counter() - started:.0f} s")
    return 1 if unlisted or now_reached else 0


if __name__ == "__main__":
    sys.exit(main())
