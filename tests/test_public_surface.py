"""Every public name in ``src/repro`` has a user outside the tests.

The scan covers every public top-level ``def``/``class``, and every public
method of a top-level class, in each non-``__init__`` module under
``src/repro``.  A name counts as used when it appears as an ``ast.Name`` id,
an ``ast.Attribute`` attr, an import alias, or an identifier-shaped string
constant in any non-``__init__`` file under ``src/``, ``examples/`` or
``benchmarks/``.  String constants count because ``benchmarks/perf/trace.py``
resolves the functions it wraps by name.  Re-exports in ``__init__`` files
and uses in ``tests/`` do not count.

A public name nothing uses is deleted, or listed in :data:`ALLOWED_UNUSED`
with a one-line reason.  The list cannot go stale: an entry whose name is
gone, or is now used, fails the suite too.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Directories whose files count as users of a public name.
USER_DIRS = ("src", "examples", "benchmarks")

#: Qualified name -> why it stays although nothing outside the tests uses it.
ALLOWED_UNUSED: dict[str, str] = {
    "repro.baselines.trivial.OneQueryPerVMScheduler": (
        "trivial upper bound the search-property and batch tests price against"
    ),
    "repro.baselines.trivial.SingleVMScheduler": (
        "trivial upper bound the search-property tests price against"
    ),
    "repro.core.schedule.Schedule.validate_complete": (
        "the exactly-once oracle scheduler tests run on every schedule"
    ),
    "repro.learning.decision_tree.DecisionTreeClassifier.predict": (
        "dict-row reference the compiled-tree equivalence tests check against"
    ),
    "repro.learning.decision_tree.DecisionTreeClassifier.decision_path": (
        "the node path a per-decision provenance record will carry"
    ),
    "repro.learning.decision_tree.DecisionTreeClassifier.feature_importances": (
        "the split-gain summary a per-decision provenance record will carry"
    ),
    "repro.search.state.SearchState.last_queue_counts": (
        "called from the source a decision model generates, which is a string"
    ),
    "repro.search.state.SearchState.with_new_vm": (
        "checked transition the state and A* tests replay an optimal path with"
    ),
    "repro.search.state.SearchState.with_placement": (
        "checked transition the state and A* tests replay an optimal path with"
    ),
    "repro.sla.accumulators.ViolationAccumulator.violation_for_deadline": (
        "the reference violation_for_deadline_with, the search's, is property-tested against"
    ),
    "repro.sla.accumulators.AverageLatencyViolationAccumulator.violation_for_deadline": (
        "the reference violation_for_deadline_with, the search's, is property-tested against"
    ),
    "repro.sla.accumulators.PercentileViolationAccumulator.violation_for_deadline": (
        "the reference violation_for_deadline_with, the search's, is property-tested against"
    ),
    "repro.workloads.arrivals.bursty_arrivals": (
        "the bursty input shape of the serving-equivalence grid"
    ),
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (*_FUNCTIONS, ast.ClassDef)


def _modules(directory: Path) -> list[Path]:
    return [
        path for path in sorted(directory.rglob("*.py")) if path.name != "__init__.py"
    ]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions(root: Path) -> dict[str, str]:
    """Qualified name -> bare name of every public def the scan covers."""
    src = root / "src"
    found: dict[str, str] = {}
    for path in _modules(src / "repro"):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for node in _parse(path).body:
            if not isinstance(node, _DEFINITIONS) or node.name.startswith("_"):
                continue
            found[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _FUNCTIONS) and not member.name.startswith("_"):
                        found[f"{module}.{node.name}.{member.name}"] = member.name
    return found


def used_names(root: Path) -> set[str]:
    """Every identifier the user directories mention."""
    used: set[str] = set()
    for directory in USER_DIRS:
        for path in _modules(root / directory):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.update(node.name.split("."))
                    if node.asname:
                        used.add(node.asname)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if _IDENTIFIER.match(node.value):
                        used.add(node.value)
    return used


def scan(root: Path) -> tuple[dict[str, str], set[str]]:
    """The public defs under *root*, and the qualified names nothing uses."""
    definitions = public_definitions(root)
    used = used_names(root)
    unused = {qualified for qualified, name in definitions.items() if name not in used}
    return definitions, unused


def stale_entries(
    allowlist: dict[str, str], definitions: dict[str, str], unused: set[str]
) -> tuple[list[str], list[str]]:
    """Allowlist entries whose name is gone, and those whose name is now used."""
    gone = sorted(name for name in allowlist if name not in definitions)
    now_used = sorted(
        name for name in allowlist if name in definitions and name not in unused
    )
    return gone, now_used


@pytest.fixture(scope="module")
def surface():
    return scan(ROOT)


def test_every_public_name_has_a_user_or_a_reason(surface):
    _, unused = surface
    unlisted = sorted(unused - ALLOWED_UNUSED.keys())
    assert not unlisted, (
        "public names nothing in src/, examples/ or benchmarks/ uses; delete "
        "them or add each to ALLOWED_UNUSED with a reason:\n  "
        + "\n  ".join(unlisted)
    )


def test_allowlist_has_no_stale_entries(surface):
    gone, now_used = stale_entries(ALLOWED_UNUSED, *surface)
    assert not gone, f"ALLOWED_UNUSED names that no longer exist: {gone}"
    assert not now_used, f"ALLOWED_UNUSED names that now have a user: {now_used}"


def test_every_allowlist_reason_is_one_line():
    for name, reason in ALLOWED_UNUSED.items():
        assert reason.strip(), f"{name} has an empty reason"
        assert "\n" not in reason, f"{name} has a multi-line reason"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_scanner_flags_a_planted_unused_def(tmp_path):
    _write(
        tmp_path / "src/repro/planted.py",
        "def planted():\n    pass\n\n\n"
        "def _private():\n    pass\n\n\n"
        "class Box:\n"
        "    def opened(self):\n        pass\n\n"
        "    def _hidden(self):\n        pass\n",
    )
    # Neither a re-export nor a test is a user.
    _write(tmp_path / "src/repro/__init__.py", "from repro.planted import Box, planted\n")
    _write(tmp_path / "tests/test_planted.py", "from repro.planted import planted\nplanted()\n")
    _write(tmp_path / "examples/box.py", "from repro import Box\n")
    assert scan(tmp_path)[1] == {
        "repro.planted.planted",
        "repro.planted.Box.opened",
    }


def test_scanner_counts_string_constants_and_attributes(tmp_path):
    _write(
        tmp_path / "src/repro/targets.py",
        "def by_string():\n    pass\n\n\n"
        "class Box:\n"
        "    def by_attribute(self):\n        pass\n",
    )
    _write(
        tmp_path / "benchmarks/trace.py",
        'TARGETS = ("by_string", "Box")\n'
        "def call(box):\n    return box.by_attribute()\n",
    )
    definitions, unused = scan(tmp_path)
    assert set(definitions) == {
        "repro.targets.by_string",
        "repro.targets.Box",
        "repro.targets.Box.by_attribute",
    }
    assert unused == set()


_TARGET = "def target():\n    pass\n"


@pytest.mark.parametrize(
    "user, text",
    [
        ("src/repro/caller.py", "from repro.lib import *\n\nRUN = target\n"),
        ("examples/demo.py", "import repro.lib as lib\nlib.target()\n"),
        ("benchmarks/bench.py", "from repro.lib import target\n"),
        ("examples/demo.py", "from repro.lib import target as run\nrun()\n"),
        ("benchmarks/perf/trace.py", 'TARGETS = ("repro.lib", "target")\n'),
    ],
    ids=["name", "attribute", "import", "aliased-import", "string-constant"],
)
def test_scanner_counts_each_kind_of_use(tmp_path, user, text):
    _write(tmp_path / "src/repro/lib.py", _TARGET)
    _write(tmp_path / user, text)
    assert scan(tmp_path)[1] == set()


@pytest.mark.parametrize(
    "user, text",
    [
        ("tests/test_lib.py", "from repro.lib import target\ntarget()\n"),
        ("src/repro/__init__.py", "from repro.lib import target\n"),
        ("examples/__init__.py", "from repro.lib import target\n"),
        ("docs/conf.py", "from repro.lib import target\ntarget()\n"),
        ("examples/demo.py", '"""Call target() to run the demo."""\n'),
        ("examples/demo.py", "# target()\nVALUE = 1\n"),
        ("examples/demo.py", "def go(target=None):\n    return go\n"),
    ],
    ids=[
        "tests",
        "package-re-export",
        "examples-init",
        "other-directory",
        "non-identifier-string",
        "comment",
        "parameter-name",
    ],
)
def test_scanner_ignores_what_is_not_a_use(tmp_path, user, text):
    _write(tmp_path / "src/repro/lib.py", _TARGET)
    _write(tmp_path / user, text)
    assert scan(tmp_path)[1] == {"repro.lib.target"}


@pytest.mark.parametrize(
    "text, expected",
    [
        ("def _private():\n    pass\n\nVALUE = 3\n", set()),
        ("class _Hidden:\n    def shown(self):\n        pass\n", set()),
        ("class Box:\n    size = 3\n\n    def __len__(self):\n        return 0\n", {"Box"}),
        ("def outer():\n    def inner():\n        pass\n\n    return inner\n", {"outer"}),
        (
            "class Box:\n    class Lid:\n        def open(self):\n            pass\n",
            {"Box"},
        ),
        (
            "async def fetch():\n    pass\n\n\n"
            "class Box:\n    async def fill(self):\n        pass\n",
            {"fetch", "Box", "Box.fill"},
        ),
    ],
    ids=[
        "private-def",
        "private-class",
        "dunder-method",
        "nested-function",
        "nested-class",
        "async",
    ],
)
def test_scanner_covers_public_top_level_defs_and_their_methods(
    tmp_path, text, expected
):
    _write(tmp_path / "src/repro/lib.py", text)
    definitions, unused = scan(tmp_path)
    qualified = {f"repro.lib.{name}" for name in expected}
    assert set(definitions) == qualified
    assert unused == qualified


@pytest.mark.parametrize(
    "module, expected",
    [
        ("src/repro/__init__.py", set()),
        ("src/repro/pkg/__init__.py", set()),
        ("src/repro/pkg/mod.py", {"repro.pkg.mod.orphan"}),
    ],
    ids=["package-init", "subpackage-init", "subpackage-module"],
)
def test_scanner_skips_init_modules_and_names_by_module_path(
    tmp_path, module, expected
):
    _write(tmp_path / module, "def orphan():\n    pass\n")
    assert set(public_definitions(tmp_path)) == expected


def test_stale_check_reports_an_allowlisted_name_that_is_gone(tmp_path):
    _write(tmp_path / "src/repro/lib.py", _TARGET)
    allowlist = {"repro.lib.target": "kept", "repro.lib.deleted": "was kept"}
    assert stale_entries(allowlist, *scan(tmp_path)) == (["repro.lib.deleted"], [])


def test_stale_check_reports_an_allowlisted_name_that_gained_a_user(tmp_path):
    _write(tmp_path / "src/repro/lib.py", _TARGET + "\n\ndef spare():\n    pass\n")
    _write(tmp_path / "examples/demo.py", "from repro.lib import target\n")
    allowlist = {"repro.lib.target": "kept", "repro.lib.spare": "kept"}
    assert stale_entries(allowlist, *scan(tmp_path)) == ([], ["repro.lib.target"])
