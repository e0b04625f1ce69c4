"""AST checkers for the four ``repro_lint`` rules.

Each checker is a function ``(path, tree) -> list[Finding]``.  The rules
are intentionally *lexical*: they check what can be decided from one
file's AST plus the registry in :mod:`repro.analysis.guarded`, and rely
on suppression comments (with mandatory reasons) for the rare pattern
that is correct but not lexically provable — e.g. a double-checked
lock-free fast path.  Cheap and predictable beats clever and flaky for a
gate that runs on every PR.

Rules
-----
``frozen-plan``
    Plan artifacts are immutable after publication: constructors named in
    :data:`~repro.analysis.guarded.PLAN_ARTIFACT_CONSTRUCTORS` may only be
    called in functions that show freeze evidence (``setflags(write=False)``
    or a ``*freeze*`` call), and attribute/subscript
    writes to plan objects are confined to the offline build phase.
``lock-guard``
    Attributes registered in :data:`~repro.analysis.guarded.GUARDED_ATTRS`
    are only touched inside ``with self.<lock>:`` in their owning class
    (or in ``__init__`` / ``*_locked`` methods).
``determinism``
    No wall-clock time or global/unseeded rngs in ``core/``, ``serving/``,
    ``kvcache/`` — clocks and generators must be injected.
``no-swallowed-futures``
    In ``executor.py`` / ``runner.py``, every ``.submit(...)`` result is
    consumed (loaded later, returned) or explicitly discarded (``_`` /
    ``_discard*`` names).
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Tuple

from .findings import Finding
from . import guarded

__all__ = ["RULE_CHECKERS", "RULE_DOCS"]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _call_tail(func: ast.expr) -> str:
    """Last dotted component of a call target (``a.b.c()`` -> ``c``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _root_name(node: ast.expr) -> Optional[str]:
    """Root name of an attribute/subscript chain (``a.b[c].d`` -> ``a``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _walk_scope(node: ast.AST) -> Iterable[ast.AST]:
    """Yield nodes of one scope without descending into nested defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, _FUNC_NODES + (ast.Lambda,)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _scopes(tree: ast.Module) -> Iterable[ast.AST]:
    """The module plus every (possibly nested) function definition."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, _FUNC_NODES):
            yield node


# --------------------------------------------------------------------- #
# frozen-plan
# --------------------------------------------------------------------- #

def _is_freeze_call(node: ast.Call) -> bool:
    tail = _call_tail(node.func)
    if tail == "setflags":
        for kw in node.keywords:
            if kw.arg == "write" and isinstance(kw.value, ast.Constant) \
                    and kw.value.value is False:
                return True
        return False
    return guarded.FREEZING_NAME_FRAGMENT in tail.lower()


def _has_freeze_evidence(scope: ast.AST) -> bool:
    for node in ast.walk(scope):
        if isinstance(node, ast.Call) and _is_freeze_call(node):
            return True
    return False


class _FrozenPlanVisitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []
        self._class_stack: List[str] = []
        self._func_stack: List[ast.AST] = []
        self._evidence: Dict[int, bool] = {}

    # -- scope tracking ------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_func(self, node: ast.AST) -> None:
        self._func_stack.append(node)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def _enclosing_scope(self, tree_fallback: bool = True) -> Optional[ast.AST]:
        return self._func_stack[-1] if self._func_stack else None

    def _func_name(self) -> str:
        node = self._enclosing_scope()
        return getattr(node, "name", "") if node is not None else ""

    def _in_class(self, name: str) -> bool:
        return bool(self._class_stack) and self._class_stack[-1] == name

    # -- part (a): artifact constructors need freeze evidence ----------
    def visit_Call(self, node: ast.Call) -> None:
        tail = _call_tail(node.func)
        if tail in guarded.PLAN_ARTIFACT_CONSTRUCTORS:
            scope = self._enclosing_scope()
            key = id(scope)
            if key not in self._evidence:
                self._evidence[key] = _has_freeze_evidence(scope) \
                    if scope is not None else False
            if not self._evidence[key]:
                self.findings.append(Finding(
                    rule="frozen-plan",
                    path=self.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"{tail}(...) built without freeze evidence: call "
                        "setflags(write=False) on every array before "
                        "publishing the artifact"
                    ),
                    symbol=tail,
                ))
        self.generic_visit(node)

    # -- part (b): no plan writes outside the build phase --------------
    def _check_write_target(self, target: ast.expr) -> None:
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        root = _root_name(target)
        if root in guarded.PLAN_OBJECT_NAMES:
            if self._func_name() in guarded.PLAN_BUILD_FUNCTIONS:
                return
            self.findings.append(Finding(
                rule="frozen-plan",
                path=self.path,
                line=target.lineno,
                col=target.col_offset,
                message=(
                    f"write to plan object '{root}' outside the offline "
                    "build phase — plans are frozen after publication"
                ),
                symbol=root,
            ))
        elif (root == "self" and self._in_class("KernelPlan")
                and isinstance(target, ast.Attribute)
                and self._func_name() not in guarded.PLAN_BUILD_METHODS):
            self.findings.append(Finding(
                rule="frozen-plan",
                path=self.path,
                line=target.lineno,
                col=target.col_offset,
                message=(
                    f"KernelPlan.{target.attr} assigned outside the build "
                    "phase — plans are frozen after publication"
                ),
                symbol=f"KernelPlan.{target.attr}",
            ))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_write_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_write_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_write_target(node.target)
        self.generic_visit(node)


def check_frozen_plan(path: str, tree: ast.Module) -> List[Finding]:
    visitor = _FrozenPlanVisitor(path)
    visitor.visit(tree)
    return visitor.findings


# --------------------------------------------------------------------- #
# lock-guard
# --------------------------------------------------------------------- #

def _is_self_lock(expr: ast.expr, lock_attr: str) -> bool:
    return (isinstance(expr, ast.Attribute) and expr.attr == lock_attr
            and isinstance(expr.value, ast.Name) and expr.value.id == "self")


def check_lock_guard(path: str, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []

    def scan(node: ast.AST, depth: int, cls: str, lock_attr: str,
             attrs: frozenset) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = depth
            for item in node.items:
                scan(item.context_expr, depth, cls, lock_attr, attrs)
                if _is_self_lock(item.context_expr, lock_attr):
                    inner += 1
            for stmt in node.body:
                scan(stmt, inner, cls, lock_attr, attrs)
            return
        if isinstance(node, _FUNC_NODES):
            # A nested def runs later, possibly after the lock is gone —
            # the with-context does not carry into deferred bodies.
            for stmt in node.body:
                scan(stmt, 0, cls, lock_attr, attrs)
            return
        if isinstance(node, ast.Lambda):
            scan(node.body, 0, cls, lock_attr, attrs)
            return
        if (isinstance(node, ast.Attribute) and node.attr in attrs
                and isinstance(node.value, ast.Name)
                and node.value.id == "self" and depth == 0):
            findings.append(Finding(
                rule="lock-guard",
                path=path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"{cls}.{node.attr} accessed outside 'with "
                    f"self.{lock_attr}:' — guarded attributes are only "
                    "touched under their lock (or in a *_locked method)"
                ),
                symbol=f"{cls}.{node.attr}",
            ))
        for child in ast.iter_child_nodes(node):
            scan(child, depth, cls, lock_attr, attrs)

    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        entry = guarded.GUARDED_ATTRS.get(node.name)
        if entry is None:
            continue
        lock_attr, attrs = entry
        for item in node.body:
            if not isinstance(item, _FUNC_NODES):
                continue
            if item.name in guarded.CONSTRUCTOR_METHODS:
                continue
            if item.name.endswith(guarded.LOCKED_SUFFIX):
                continue
            for stmt in item.body:
                scan(stmt, 0, node.name, lock_attr, attrs)
    return findings


# --------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------- #

_WALL_CLOCK_ATTRS = frozenset({"time", "time_ns"})


def check_determinism(path: str, tree: ast.Module) -> List[Finding]:
    norm = path.replace(os.sep, "/")
    if not any(frag in norm for frag in guarded.DETERMINISM_SCOPES):
        return []
    findings: List[Finding] = []

    def flag(node: ast.AST, symbol: str, what: str) -> None:
        findings.append(Finding(
            rule="determinism",
            path=path,
            line=node.lineno,
            col=node.col_offset,
            message=(
                f"{what} in a deterministic hot path — inject a "
                "clock/seeded generator instead"
            ),
            symbol=symbol,
        ))

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "random":
                flag(node, "random", "import from the global 'random' module")
            elif node.module == "time":
                for alias in node.names:
                    if alias.name in _WALL_CLOCK_ATTRS:
                        flag(node, f"time.{alias.name}",
                             f"wall-clock time.{alias.name} import")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and \
                    isinstance(func.value, ast.Name):
                base = func.value.id
                if base == "time" and func.attr in _WALL_CLOCK_ATTRS:
                    flag(node, f"time.{func.attr}",
                         f"wall-clock time.{func.attr}() call")
                elif base == "random":
                    flag(node, f"random.{func.attr}",
                         f"global random.{func.attr}() call")
            elif isinstance(func, ast.Attribute) and \
                    isinstance(func.value, ast.Attribute) and \
                    func.value.attr == "random" and \
                    isinstance(func.value.value, ast.Name) and \
                    func.value.value.id in ("np", "numpy"):
                if func.attr == "default_rng" and (node.args or node.keywords):
                    continue  # explicitly seeded generator: allowed
                flag(node, f"np.random.{func.attr}",
                     f"np.random.{func.attr} call (global/unseeded rng)")
    return findings


# --------------------------------------------------------------------- #
# no-swallowed-futures
# --------------------------------------------------------------------- #

def _is_discard_name(name: str) -> bool:
    return name == "_" or name.startswith("_discard")


def _contains_submit(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Call) and _call_tail(node.func) == "submit":
            return True
    return False


def check_no_swallowed_futures(path: str, tree: ast.Module) -> List[Finding]:
    if os.path.basename(path) not in guarded.FUTURE_SCOPED_FILES:
        return []
    findings: List[Finding] = []
    for scope in _scopes(tree):
        submits: List[Tuple[str, ast.AST]] = []
        for node in _walk_scope(scope):
            if isinstance(node, ast.Expr) and \
                    isinstance(node.value, ast.Call) and \
                    _call_tail(node.value.func) == "submit":
                findings.append(Finding(
                    rule="no-swallowed-futures",
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        "future from .submit(...) dropped — bind it and "
                        "consume the result, or assign to '_' to discard "
                        "explicitly"
                    ),
                    symbol="submit",
                ))
            elif isinstance(node, ast.Assign) and _contains_submit(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name) and \
                            not _is_discard_name(target.id):
                        submits.append((target.id, node))
        if not submits:
            continue
        # Loads are collected from the FULL subtree: a closure consuming
        # the future (e.g. a done-callback) counts as consumption.
        loads = {n.id for n in ast.walk(scope)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for name, node in submits:
            if name not in loads:
                findings.append(Finding(
                    rule="no-swallowed-futures",
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"future '{name}' from .submit(...) is never "
                        "consumed — await/result it, or rename to '_' to "
                        "discard explicitly"
                    ),
                    symbol=name,
                ))
    return findings


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #

RULE_CHECKERS = {
    "frozen-plan": check_frozen_plan,
    "lock-guard": check_lock_guard,
    "determinism": check_determinism,
    "no-swallowed-futures": check_no_swallowed_futures,
}

RULE_DOCS = {
    "frozen-plan": (
        "plan artifacts are setflags(write=False)-frozen before "
        "publication; no plan writes outside the offline build phase"
    ),
    "lock-guard": (
        "registered guarded attributes only accessed under their lock "
        "in the owning class"
    ),
    "determinism": (
        "no wall-clock time or global/unseeded rngs in core/, serving/, "
        "kvcache/"
    ),
    "no-swallowed-futures": (
        "every concurrent.futures result consumed or explicitly "
        "discarded in executor.py/runner.py"
    ),
}
