"""The liveness probe's keep-list cannot go stale.

``benchmarks/liveness.py`` lists every function of ``src/repro`` that no
entry point reaches and that stays anyway, each with a one-line reason from a
fixed set of buckets.  The probe itself runs for minutes (CI's ``liveness``
job); these checks read the list and the source only: every entry names a
function that still exists, every reason is one line that starts with a
bucket, and every ``trace`` entry is a target ``benchmarks/perf/trace.py``
resolves or names the target that calls it.  The probe's parts are checked
on small inputs: its entry points cover every referee workload, example and
figure script, it parses a planted targets table, and its call hook records
what a forked worker runs before ``os._exit``.
"""

from __future__ import annotations

import importlib.util
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_liveness():
    spec = importlib.util.spec_from_file_location(
        "liveness", ROOT / "benchmarks" / "liveness.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


liveness = _load_liveness()


def test_every_kept_function_still_exists():
    gone = sorted(set(liveness.KEEP) - set(liveness.functions()))
    assert not gone, f"KEEP names functions that no longer exist: {gone}"


def test_every_reason_is_one_line_from_a_bucket():
    for name, reason in liveness.KEEP.items():
        bucket, _, why = reason.partition(": ")
        assert bucket in liveness.BUCKETS, f"{name}: {bucket!r} is not a bucket"
        assert why.strip(), f"{name} gives no reason after its bucket"
        assert "\n" not in reason, f"{name} has a multi-line reason"


def test_trace_entries_are_or_serve_what_trace_py_resolves():
    targets = liveness.trace_targets()
    assert len(targets) == 34
    for name, reason in liveness.KEEP.items():
        if reason.startswith("trace: "):
            served = [
                target
                for target in targets.values()
                if target == name or target.split(":")[1] in reason
            ]
            assert served, f"{name} is kept for trace.py, but neither is nor names a target"


def test_function_names_follow_qualname(tmp_path):
    source = (
        "def top():\n"
        "    def inner():\n        pass\n\n"
        "    return inner\n\n\n"
        "class Box:\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    @size.setter\n    def size(self, value):\n        pass\n\n"
        "    class Lid:\n        async def open(self):\n            pass\n"
    )
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text("def exported():\n    pass\n")
    (package / "planted.py").write_text(source)
    found = liveness.functions(tmp_path)
    namespace: dict = {}
    exec(compile(source, "planted", "exec"), namespace)
    box = namespace["Box"]
    qualnames = {
        namespace["top"].__qualname__,
        namespace["top"]().__qualname__,
        box.size.fget.__qualname__,
        box.Lid.open.__qualname__,
    }
    assert set(found) == {"repro:exported"} | {f"repro.planted:{name}" for name in qualnames}
    # The getter and setter share one name; their lines add up.
    assert found["repro.planted:Box.size"][1] == 4


def test_entry_points_cover_every_workload_example_and_figure():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    serial, figures = liveness.entry_points(benchmark)
    labels = [label for label, _ in serial]
    for workload in benchmark["workloads"]:
        assert f"referee {workload['name']}" in labels
        assert f"referee {workload['name']} traced" in labels
    for example in (ROOT / "examples").glob("*.py"):
        assert f"example {example.stem}" in labels
    assert "example serve_demo --shards 2" in labels
    assert sorted(label for label, _ in figures) == sorted(
        path.stem for path in ROOT.glob("benchmarks/bench_*.py")
    )
    for _, argv in figures:
        # Each benchmarked call runs once, and a failed check prints no
        # report that would reach a __repr__.
        assert {"--benchmark-disable", "--assert=plain", "--tb=no"} <= set(argv)


def test_trace_targets_reads_the_targets_table(tmp_path):
    trace = tmp_path / "trace.py"
    trace.write_text(
        "TARGETS = (\n"
        '    ("a.free", "repro.a", None, "free", None),\n'
        '    ("b.method", "repro.b", "Owner", "method", lambda self: 1),\n'
        ")\n"
        'OTHER = (("c", "repro.c", None, "ignored", None),)\n'
    )
    assert liveness.trace_targets(trace) == {
        "a.free": "repro.a:free",
        "b.method": "repro.b:Owner.method",
    }


def test_run_collects_the_calls_of_a_forked_worker(tmp_path):
    script = tmp_path / "entry.py"
    script.write_text(
        "import os\n"
        "from repro import units\n"
        "units.format_cents(1)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    units.seconds_to_minutes(1)\n"
        "    os._exit(0)\n"
        "os.waitpid(pid, 0)\n"
    )
    reached, ok = liveness.run(
        "planted", [sys.executable, str(script)], tmp_path / "scratch"
    )
    assert ok
    # The parent dumps at exit; the child only at os._exit.
    assert {"repro.units:format_cents", "repro.units:seconds_to_minutes"} <= reached
    assert "repro.units:format_dollars" not in reached


def test_run_gives_sigint_the_default_handler(tmp_path):
    """Reach must not depend on how the probe was launched: an entry point
    started with SIGINT ignored runs with Python's default handler."""
    script = tmp_path / "entry.py"
    script.write_text(
        "import signal, sys\n"
        "sys.exit(signal.getsignal(signal.SIGINT) is not signal.default_int_handler)\n"
    )
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        _, ok = liveness.run("planted", [sys.executable, str(script)], tmp_path / "scratch")
    finally:
        signal.signal(signal.SIGINT, previous)
    assert ok
