"""R012: fork/process-pool payload unsafety.

Work shipped to a ``ProcessPoolExecutor`` worker is pickled (or, under
the fork start method, snapshotted mid-state): locks arrive
permanently held or fail to pickle, open file handles and sockets
alias the parent's descriptors, and collectors/recorders silently
diverge — the worker mutates a *copy* and the parent never sees it.
The services' process tier therefore ships only plain data (a
:class:`repro.service.worker.Job` of paths, terms and a fault spec
string) and re-creates everything heavy inside the worker.

This rule enforces that shape.  A pool is a variable bound to a
``ProcessPoolExecutor`` or to the services' pool helper
``WorkerPool(...)`` (unless its executor is the literal ``"thread"``),
directly or through ``with scope as pool``; the rule checks the
``submit``/``map`` payloads of every pool and of every call that ships
the shared process worker ``run_job`` — whatever scope built the pool
— plus a ``ProcessPoolExecutor``'s ``initializer``/``initargs``,
flagging arguments that capture ``self``, anything lock/collector/
recorder/tracer/witness-named, bound methods, or lambdas
(unpicklable).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.linter import Finding, SourceModule

#: Name fragments that mark a payload expression as process-unsafe.
_UNSAFE_FRAGMENTS = ("lock", "collector", "recorder", "tracer",
                     "witness", "semaphore", "condition")

#: Exact names that mark a payload as a live OS resource.
_UNSAFE_EXACT = frozenset({"pool", "handle", "sock", "socket", "conn",
                           "fh", "fp", "pipe"})


class ForkSafetyRule:
    """Flag live resources captured in process-pool payloads."""

    rule_id = "R012"
    title = "live resource shipped to a process-pool worker"
    hint = ("ship plain data (paths, tuples, spec strings) and rebuild "
            "heavy state in the worker (see repro.service.worker.run_job, "
            "which loads its Job's source once per process); locks, "
            "collectors and open handles do not survive pickling/fork")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for scope in _scopes(module.tree):
            pools = _process_pool_names(scope)
            for node in _walk_scope(scope):
                if not isinstance(node, ast.Call):
                    continue
                if _is_process_pool_ctor(node):
                    yield from self._check_ctor(module, node)
                func = node.func
                if isinstance(func, ast.Attribute) \
                        and func.attr in ("submit", "map") \
                        and ((isinstance(func.value, ast.Name)
                              and func.value.id in pools)
                             or _ships_worker(node.args)):
                    yield from self._check_payload(
                        module, node, node.args, func.attr)

    def _check_ctor(self, module: SourceModule,
                    call: ast.Call) -> Iterator[Finding]:
        for keyword in call.keywords:
            if keyword.arg == "initializer":
                reason = _unsafe_reason(keyword.value,
                                        allow_plain_name=True)
                if reason is not None:
                    yield module.finding(
                        keyword.value, self,
                        f"process-pool initializer {reason}")
            elif keyword.arg == "initargs":
                elements = keyword.value.elts \
                    if isinstance(keyword.value,
                                  (ast.Tuple, ast.List)) \
                    else [keyword.value]
                for element in elements:
                    reason = _unsafe_reason(element)
                    if reason is not None:
                        yield module.finding(
                            element, self,
                            f"process-pool initargs {reason}")

    def _check_payload(self, module: SourceModule, call: ast.Call,
                       args: List[ast.expr],
                       method: str) -> Iterator[Finding]:
        if args:
            reason = _unsafe_reason(args[0], allow_plain_name=True)
            if reason is not None:
                yield module.finding(
                    args[0], self,
                    f"process-pool .{method}() target {reason}")
        for argument in args[1:]:
            reason = _unsafe_reason(argument)
            if reason is not None:
                yield module.finding(
                    argument, self,
                    f"process-pool .{method}() payload {reason}")


def _scopes(tree: ast.Module) -> List[ast.AST]:
    """The module plus every function, each a pool-tracking scope."""
    return [tree] + [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))]


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested functions."""
    stack = list(getattr(scope, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _call_name(func: ast.expr) -> Optional[str]:
    return func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else None


def _is_process_pool_ctor(call: ast.Call) -> bool:
    name = _call_name(call.func)
    if name == "WorkerPool":
        # The services' pool helper builds a thread pool only when its
        # executor is "thread"; any other value may be "process".
        executor = call.args[0] if call.args else None
        return not (isinstance(executor, ast.Constant)
                    and executor.value == "thread")
    return name == "ProcessPoolExecutor"


def _ships_worker(args: List[ast.expr]) -> bool:
    """Whether a ``submit``/``map`` call ships the shared process
    worker, which only ever runs in a process pool."""
    return bool(args) and _call_name(args[0]) == "run_job"


def _process_pool_names(scope: ast.AST) -> Set[str]:
    """Variables bound to a process pool in this scope: a pool
    constructor's assignment target or ``with ... as`` name, and the
    ``as`` name of a ``with`` over such a variable."""
    pools: Set[str] = set()
    withs: List[ast.withitem] = []
    for node in _walk_scope(scope):
        if isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Call) \
                and _is_process_pool_ctor(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    pools.add(target.id)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            withs.extend(node.items)
    for item in withs:
        expr = item.context_expr
        if isinstance(item.optional_vars, ast.Name) and (
                (isinstance(expr, ast.Call)
                 and _is_process_pool_ctor(expr))
                or (isinstance(expr, ast.Name) and expr.id in pools)):
            pools.add(item.optional_vars.id)
    return pools


def _unsafe_reason(node: ast.AST,
                   allow_plain_name: bool = False) -> Optional[str]:
    """Why this payload expression cannot cross a process boundary."""
    if isinstance(node, ast.Lambda):
        return "is a lambda (not picklable)"
    if allow_plain_name and isinstance(node, ast.Name):
        return _name_reason(node.id)
    if isinstance(node, ast.Attribute) and allow_plain_name:
        # A target like self.method is a bound method: pickling drags
        # the whole instance (locks and all) across the boundary.
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return (f"is the bound method self.{node.attr} (pickles "
                    f"the whole instance)")
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id == "self":
                return "captures self (locks, caches and all)"
            reason = _name_reason(sub.id)
            if reason is not None:
                return reason
        if isinstance(sub, ast.Attribute):
            reason = _name_reason(sub.attr)
            if reason is not None:
                return reason
        if isinstance(sub, ast.Lambda):
            return "contains a lambda (not picklable)"
    return None


def _name_reason(name: str) -> Optional[str]:
    lowered = name.lower()
    if any(fragment in lowered for fragment in _UNSAFE_FRAGMENTS):
        return f"captures {name!r} (a live synchronisation/telemetry " \
               f"object)"
    if lowered in _UNSAFE_EXACT:
        return f"captures {name!r} (a live OS resource)"
    return None
