"""The invariant linter is green on the tree and catches seeded violations."""

import ast
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import repro_lint  # noqa: E402


def _trees(**sources):
    """Build {path: ast} from name -> source, paths rooted in src/repro."""
    return {repro_lint.SRC_ROOT / name: ast.parse(text)
            for name, text in sources.items()}


def test_the_tree_is_clean():
    assert repro_lint.run_lint() == []
    assert repro_lint.main([]) == 0


def test_wall_clock_behind_a_call_chain_is_caught():
    trees = _trees(**{"core/results.py": (
        "import time\n"
        "class R:\n"
        "    def canonical_dict(self):\n"
        "        return self._stamp_payload()\n"
        "    def _stamp_payload(self):\n"
        "        return {'at': time.time()}\n"
    )})
    findings = repro_lint.check_canonical_paths_are_clock_free(trees)
    assert len(findings) == 1
    assert "time.time" in findings[0][2]
    assert "canonical_dict via canonical_dict -> _stamp_payload" in findings[0][2]


def test_clock_outside_the_canonical_path_is_fine():
    trees = _trees(**{"core/results.py": (
        "import time\n"
        "class R:\n"
        "    def canonical_dict(self):\n"
        "        return {}\n"
        "    def elapsed(self):\n"
        "        return time.perf_counter()\n"
    )})
    assert repro_lint.check_canonical_paths_are_clock_free(trees) == []


def test_bytes_copy_in_storage_is_caught_but_block_py_is_allowed():
    source = "def replay(payload):\n    return bytes(payload)\n"
    flagged = repro_lint.check_storage_stays_zero_copy(
        _trees(**{"storage/cow_device.py": source}))
    assert len(flagged) == 1 and "bytes(...)" in flagged[0][2]
    assert repro_lint.check_storage_stays_zero_copy(
        _trees(**{"storage/block.py": source})) == []


def test_tobytes_in_storage_is_caught():
    findings = repro_lint.check_storage_stays_zero_copy(
        _trees(**{"storage/cow_device.py":
                  "def read(view):\n    return view.tobytes()\n"}))
    assert len(findings) == 1
    assert ".tobytes()" in findings[0][2]


def test_unaccounted_result_field_is_caught():
    trees = repro_lint.parse_tree()
    path = repro_lint.SRC_ROOT / "crashmonkey" / "report.py"
    result = repro_lint._class_def(trees[path], "CrashTestResult")
    # Seed a new annotated field the serialization tuples don't know about.
    result.body.append(ast.parse("sneaky_counter: int = 0").body[0])
    findings = repro_lint.check_result_fields_are_accounted(trees)
    assert any("sneaky_counter" in f[2] for f in findings)


def test_unreferenced_planner_is_caught(tmp_path):
    trees = _trees(**{"crashmonkey/crashplan.py":
                      "PLAN_NAMES = ('torn', 'quantum')\n"})
    soundness = tmp_path / "test_mechanism_soundness.py"
    soundness.write_text("PLANS = ['torn']\n")
    findings = repro_lint.check_planners_have_soundness_coverage(
        trees, soundness_path=soundness)
    assert len(findings) == 1
    assert "`quantum`" in findings[0][2]


def test_missing_soundness_module_is_caught(tmp_path):
    trees = _trees(**{"crashmonkey/crashplan.py": "PLAN_NAMES = ('torn',)\n"})
    findings = repro_lint.check_planners_have_soundness_coverage(
        trees, soundness_path=tmp_path / "gone.py")
    assert len(findings) == 1
    assert "missing" in findings[0][2]


def test_every_registered_planner_is_soundness_covered():
    trees = repro_lint.parse_tree()
    assert repro_lint.check_planners_have_soundness_coverage(trees) == []


def test_analysis_importing_the_harness_is_caught():
    for source in (
        "from ..crashmonkey.harness import CrashMonkey\n",
        "from ..crashmonkey import harness\n",
        "import repro.crashmonkey.harness\n",
    ):
        findings = repro_lint.check_analysis_does_not_import_harness(
            _trees(**{"analysis/mechanisms.py": source}))
        assert len(findings) == 1, source
        assert "crashmonkey.harness" in findings[0][2]


def test_analysis_importing_elsewhere_is_fine():
    trees = _trees(**{"analysis/mechanisms.py": (
        "from ..fs import layout\n"
        "from ..crashmonkey.crashplan import PLAN_NAMES\n"
    )})
    assert repro_lint.check_analysis_does_not_import_harness(trees) == []


def test_session_field_outside_scalar_fields_is_caught():
    trees = _trees(**{"crashmonkey/report.py": (
        "class CrashTestResult:\n"
        "    SCALAR_FIELDS = ('a',)\n"
        "    SESSION_FIELDS = ('b',)\n"
        "    a: int = 0\n"
    )})
    findings = repro_lint.check_result_fields_are_accounted(trees)
    assert len(findings) == 1
    assert "`b` is not in SCALAR_FIELDS" in findings[0][2]
