#!/usr/bin/env python3
"""Repo invariant linter: AST checks for rules ruff cannot express.

Five invariants, each protecting a guarantee a past change was built on:

1. **No wall-clock reads reachable from ``canonical_dict()``.**  Canonical
   payloads must be schedule-invariant — two runs of the same campaign
   (uninterrupted, crash-resumed, serial or pooled) compare equal.  A clock
   read anywhere on the serialization path breaks that silently.  The check
   walks the call graph (name-resolved across the ``src/repro`` tree, an
   over-approximation that errs toward flagging) from every
   ``canonical_dict`` definition and rejects reachable ``time.time``,
   ``time.perf_counter``, ``time.monotonic``, ``datetime.now`` и co.

2. **No ``bytes(...)`` copies in storage hot paths.**  Payloads are
   immutable ``bytes``, shared by reference: the recorded request, the CoW
   overlay and every crash state built from it hold the same object, and no
   memoryviews exist.  A stray ``bytes(payload)`` (or ``.tobytes()``) on the
   record or replay path silently adds a per-block copy.  Only ``block.py``
   — the one module whose *job* is building padded/torn payloads — may call
   ``bytes``.

3. **Every ``CrashTestResult`` field is accounted.**  Each dataclass field
   must appear in ``SCALAR_FIELDS`` (round-tripped) or be one of the
   structured payloads serialized explicitly; ``SESSION_FIELDS`` must be a
   subset of ``SCALAR_FIELDS``.  Adding a counter without classifying it as
   canonical-vs-session telemetry fails here instead of silently dropping
   it from the store.

4. **Every planner in the registry has soundness coverage.**  Each name in
   ``PLAN_NAMES`` (crashplan.py's registry) must be referenced by the
   soundness test module (``tests/test_mechanism_soundness.py``).  The
   soundness harness is the repo's proof that pruning plans find the same
   bugs as exhaustive ones — a planner registered without a reference
   there ships unproven.

5. **``analysis/`` never imports ``crashmonkey.harness``.**  The static
   pass must stay runnable without the dynamic harness (no device, no
   mounts): the harness imports analysis, never the reverse.  An import in
   that direction is a layering cycle waiting to happen.

Run from the repo root (CI runs it next to ruff):

    python tools/repro_lint.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: wall-clock callables forbidden on canonical serialization paths, as
#: (module-ish receiver, attribute) pairs
WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "perf_counter"),
    ("time", "monotonic"),
    ("time", "strftime"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
}

#: serialization entry points whose transitive callees must be clock-free
CANONICAL_ROOTS = ("canonical_dict",)

#: the one storage module allowed to build new payloads (padding / tearing)
BYTES_ALLOWLIST = {"block.py"}

#: CrashTestResult fields serialized explicitly rather than via SCALAR_FIELDS
STRUCTURED_RESULT_FIELDS = {"workload", "bug_reports", "check_timings"}


class Finding(Tuple[str, int, str]):
    """(path, line, message) — a plain tuple with a nicer constructor."""

    def __new__(cls, path: str, line: int, message: str):
        return super().__new__(cls, (path, line, message))


def _call_name(node: ast.Call) -> Tuple[str, str]:
    """Best-effort (receiver, attribute) of a call; ('', name) for bare calls."""
    func = node.func
    if isinstance(func, ast.Attribute):
        receiver = func.value
        if isinstance(receiver, ast.Name):
            return receiver.id, func.attr
        if isinstance(receiver, ast.Attribute):
            return receiver.attr, func.attr
        return "", func.attr
    if isinstance(func, ast.Name):
        return "", func.id
    return "", ""


# --------------------------------------------------------------- rule 1: clocks


def _function_index(trees: Dict[Path, ast.Module]) -> Dict[str, List[Tuple[Path, ast.FunctionDef]]]:
    """Every function/method definition across the tree, indexed by bare name."""
    index: Dict[str, List[Tuple[Path, ast.FunctionDef]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                index.setdefault(node.name, []).append((path, node))
    return index


def check_canonical_paths_are_clock_free(trees: Dict[Path, ast.Module]) -> List[Finding]:
    """Walk the call graph from canonical_dict; reject reachable clock reads.

    Name resolution is deliberately coarse: a call ``self.to_dict()`` follows
    *every* ``to_dict`` definition in the tree.  The over-approximation can
    only produce false positives (a clock in a same-named function on an
    unrelated path), never false negatives — the right bias for an invariant
    whose violation is silent.
    """
    index = _function_index(trees)
    findings: List[Finding] = []
    seen: Set[Tuple[Path, int]] = set()
    frontier: List[Tuple[Path, ast.FunctionDef, List[str]]] = [
        (path, node, [node.name])
        for root in CANONICAL_ROOTS
        for path, node in index.get(root, [])
    ]
    while frontier:
        path, func, chain = frontier.pop()
        if (path, func.lineno) in seen:
            continue
        seen.add((path, func.lineno))
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            receiver, attr = _call_name(node)
            if (receiver, attr) in WALL_CLOCK_CALLS:
                findings.append(Finding(
                    str(path.relative_to(REPO_ROOT)), node.lineno,
                    f"wall-clock read `{receiver}.{attr}` reachable from "
                    f"canonical_dict via {' -> '.join(chain)} — canonical "
                    "payloads must be schedule-invariant",
                ))
            elif attr in index and attr not in chain:
                for callee_path, callee in index[attr]:
                    frontier.append((callee_path, callee, chain + [attr]))
    return findings


# ---------------------------------------------------------- rule 2: byte copies


def check_storage_stays_zero_copy(trees: Dict[Path, ast.Module]) -> List[Finding]:
    findings: List[Finding] = []
    for path, tree in trees.items():
        if path.parent != SRC_ROOT / "storage" or path.name in BYTES_ALLOWLIST:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            receiver, attr = _call_name(node)
            relative = str(path.relative_to(REPO_ROOT))
            if receiver == "" and attr == "bytes" and node.args:
                findings.append(Finding(
                    relative, node.lineno,
                    "bytes(...) copy in a storage hot path — payloads are "
                    "immutable bytes shared by reference; only block.py "
                    "builds new ones (padding / tearing)",
                ))
            elif attr == "tobytes":
                findings.append(Finding(
                    relative, node.lineno,
                    ".tobytes() copy in a storage hot path — storage holds "
                    "no memoryviews; payloads are bytes already",
                ))
    return findings


# -------------------------------------------------------- rule 3: result fields


def _class_def(tree: ast.Module, name: str) -> ast.ClassDef:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    raise LookupError(name)


def _tuple_literal(class_node: ast.ClassDef, attribute: str) -> Tuple[Set[str], int]:
    for node in class_node.body:
        targets = []
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets, value = [node.target.id], node.value
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            value = node.value
        if attribute in targets and isinstance(value, ast.Tuple):
            return (
                {el.value for el in value.elts if isinstance(el, ast.Constant)},
                node.lineno,
            )
    raise LookupError(attribute)


def check_result_fields_are_accounted(trees: Dict[Path, ast.Module]) -> List[Finding]:
    path = SRC_ROOT / "crashmonkey" / "report.py"
    relative = str(path.relative_to(REPO_ROOT))
    result = _class_def(trees[path], "CrashTestResult")
    fields = {}
    for node in result.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            annotation = ast.dump(node.annotation)
            if "ClassVar" not in annotation:
                fields[node.target.id] = node.lineno
    scalar, _ = _tuple_literal(result, "SCALAR_FIELDS")
    session, session_line = _tuple_literal(result, "SESSION_FIELDS")

    findings: List[Finding] = []
    for name, line in fields.items():
        if name not in scalar and name not in STRUCTURED_RESULT_FIELDS:
            findings.append(Finding(
                relative, line,
                f"CrashTestResult.{name} is in neither SCALAR_FIELDS nor the "
                "structured serialization set — it would silently vanish "
                "from the state store",
            ))
    for name in sorted(scalar - set(fields) - STRUCTURED_RESULT_FIELDS):
        findings.append(Finding(
            relative, 1,
            f"SCALAR_FIELDS names `{name}` which is not a CrashTestResult field",
        ))
    for name in sorted(session - scalar):
        findings.append(Finding(
            relative, session_line,
            f"SESSION_FIELDS entry `{name}` is not in SCALAR_FIELDS — "
            "session telemetry must still round-trip through to_dict",
        ))
    return findings


# ------------------------------------------------ rule 4: planner soundness


def _plan_names(trees: Dict[Path, ast.Module]) -> Tuple[Path, Set[str], int]:
    """The PLAN_NAMES registry literal: (defining path, names, line)."""
    for path, tree in trees.items():
        if path.name != "crashplan.py":
            continue
        for node in ast.walk(tree):
            targets = []
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets, value = [node.target.id], node.value
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
                value = node.value
            if "PLAN_NAMES" in targets and isinstance(value, ast.Tuple):
                names = {el.value for el in value.elts
                         if isinstance(el, ast.Constant) and isinstance(el.value, str)}
                return path, names, node.lineno
    raise LookupError("PLAN_NAMES")


def check_planners_have_soundness_coverage(
    trees: Dict[Path, ast.Module],
    soundness_path: Path = REPO_ROOT / "tests" / "test_mechanism_soundness.py",
) -> List[Finding]:
    """Every registered planner name is referenced by the soundness module.

    A reference is any string constant in the module equal to the planner
    name (``CrashMonkey(..., planner="torn")``, ``make_planner("reorder")``,
    a parametrize id...).  Coarse on purpose: the rule guards against a
    planner added to the registry with *no* soundness story at all, not
    against weak assertions.
    """
    path, names, line = _plan_names(trees)
    relative = str(path.relative_to(REPO_ROOT)) if path.is_absolute() else str(path)
    if not soundness_path.exists():
        return [Finding(
            relative, line,
            f"soundness test module {soundness_path.name} is missing — every "
            "PLAN_NAMES planner must be proven against the exhaustive plan",
        )]
    referenced = {
        node.value
        for node in ast.walk(ast.parse(soundness_path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    findings: List[Finding] = []
    for name in sorted(names - referenced):
        findings.append(Finding(
            relative, line,
            f"planner `{name}` is registered in PLAN_NAMES but never "
            f"referenced by {soundness_path.name} — a pruning plan without "
            "soundness coverage ships unproven",
        ))
    return findings


# ------------------------------------------------- rule 5: analysis layering


def check_analysis_does_not_import_harness(trees: Dict[Path, ast.Module]) -> List[Finding]:
    """The static pass must not depend on the dynamic harness."""
    findings: List[Finding] = []
    for path, tree in trees.items():
        if path.parent != SRC_ROOT / "analysis":
            continue
        relative = str(path.relative_to(REPO_ROOT)) if path.is_absolute() else str(path)
        for node in ast.walk(tree):
            offending = False
            if isinstance(node, ast.Import):
                offending = any(
                    "crashmonkey.harness" in alias.name for alias in node.names
                )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                offending = "crashmonkey.harness" in module or (
                    module.endswith("crashmonkey")
                    and any(alias.name == "harness" for alias in node.names)
                )
            if offending:
                findings.append(Finding(
                    relative, node.lineno,
                    "analysis/ imports crashmonkey.harness — the static pass "
                    "must stay runnable without the dynamic harness (the "
                    "harness imports analysis, never the reverse)",
                ))
    return findings


# ------------------------------------------------------------------------ driver


def parse_tree(root: Path = SRC_ROOT) -> Dict[Path, ast.Module]:
    trees: Dict[Path, ast.Module] = {}
    for path in sorted(root.rglob("*.py")):
        trees[path] = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return trees


def run_lint(root: Path = SRC_ROOT) -> List[Finding]:
    trees = parse_tree(root)
    findings: List[Finding] = []
    findings.extend(check_canonical_paths_are_clock_free(trees))
    findings.extend(check_storage_stays_zero_copy(trees))
    findings.extend(check_result_fields_are_accounted(trees))
    findings.extend(check_planners_have_soundness_coverage(trees))
    findings.extend(check_analysis_does_not_import_harness(trees))
    return findings


def main(argv: List[str] | None = None) -> int:
    findings = run_lint()
    for path, line, message in findings:
        print(f"{path}:{line}: {message}")
    if findings:
        print(f"repro_lint: {len(findings)} invariant violation(s)")
        return 1
    print("repro_lint: all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
