"""The AST lock-discipline model behind lint rules R008–R012.

One pass over a module builds, per class, everything the concurrency
rules need:

* **lock discovery** — attributes assigned ``threading.Lock()`` /
  ``RLock()`` / ``Condition()`` / semaphores (or the repo's own
  :class:`~repro.analysis.concurrency.witness.InstrumentedLock`);
* **annotations** — the guarded-by grammar (docs/ANALYSIS.md):

  - ``# repro: guarded-by[_lock]`` on an attribute's ``__init__``
    assignment declares its guarding lock;
  - ``# repro: guarded-by[_lock, writes]`` declares a single-writer
    attribute: writes need the lock, lock-free reads are an accepted
    part of the design (atomic-reference swap, e.g.
    ``QueryService._state``);
  - ``# repro: guarded-by[lockfree]`` opts an attribute out (e.g. a
    GIL-atomic idempotent memo, where every writer stores the same
    value for a key);
  - ``# repro: holds[_lock]`` on a ``def`` line asserts every caller
    already holds the lock (private helpers called under a lock);

* **held-lock tracking** — each method's attribute accesses and calls
  annotated with the set of self-locks held at that point (following
  ``with self._lock:`` nesting, not entering nested ``def``/lambda
  scopes);
* **acquisition order** — every lock acquisition with the locks
  already held, feeding the per-module lock-order graph (R009) and
  :func:`derive_lock_order` (which keeps the runtime witness's
  declared order honest).

The model is deliberately intraprocedural — a held set does not flow
through calls.  Helpers that require a lock say so with ``holds[...]``
and the design keeps cross-class nesting shallow, so the heuristics
stay precise on this codebase.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.linter import SourceModule

#: Constructor names whose result makes an attribute a lock.
LOCK_FACTORIES: FrozenSet[str] = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "InstrumentedLock",
})

#: Methods that mutate their receiver in place: a call
#: ``self.attr.append(...)`` is a *write* of ``attr``.
MUTATOR_METHODS: FrozenSet[str] = frozenset({
    "append", "extend", "insert", "add", "remove", "discard", "pop",
    "popitem", "clear", "update", "setdefault", "move_to_end",
    "appendleft", "rotate", "sort",
})

#: Methods whose body runs before the object is shared: accesses there
#: are exempt from guarding.
CONSTRUCTION_METHODS: FrozenSet[str] = frozenset({
    "__init__", "__new__", "__post_init__",
})

#: The ``guarded-by[lockfree]`` opt-out token.
LOCKFREE = "lockfree"

_GUARDED_BY_RE = re.compile(
    r"#\s*repro:\s*guarded-by\[(?P<body>[A-Za-z0-9_,\s]+)\]")
_HOLDS_RE = re.compile(r"#\s*repro:\s*holds\[(?P<body>[A-Za-z0-9_,\s]+)\]")


@dataclass(frozen=True)
class GuardSpec:
    """How one attribute is guarded."""

    lock: str
    writes_only: bool = False
    declared: bool = True  # False when inferred by the heuristic


@dataclass(frozen=True)
class AttributeAccess:
    """One ``self.<attr>`` touch inside a method body."""

    attr: str
    node: ast.AST
    write: bool
    held: FrozenSet[str]
    method: str


@dataclass(frozen=True)
class Acquisition:
    """One ``with self.<lock>:`` entry, with the locks already held."""

    lock: str
    node: ast.AST
    held_before: Tuple[str, ...]
    method: str


@dataclass
class MethodModel:
    """One method's lock-relevant behaviour."""

    name: str
    node: ast.AST
    holds: FrozenSet[str] = frozenset()
    accesses: List[AttributeAccess] = field(default_factory=list)
    acquisitions: List[Acquisition] = field(default_factory=list)
    calls: List[Tuple[ast.Call, FrozenSet[str]]] = field(
        default_factory=list)


@dataclass
class ClassModel:
    """Everything the concurrency rules need to know about one class."""

    name: str
    node: ast.ClassDef
    locks: Dict[str, str] = field(default_factory=dict)
    declared_guards: Dict[str, GuardSpec] = field(default_factory=dict)
    lockfree: Set[str] = field(default_factory=set)
    methods: List[MethodModel] = field(default_factory=list)

    def guard_map(self) -> Dict[str, GuardSpec]:
        """Declared guards merged with the write-locality heuristic.

        An unannotated attribute is inferred guarded-by ``L`` when
        every write outside construction happens with exactly one
        self-lock ``L`` held.  Attributes never written outside
        construction (immutable config) get no guard; attributes with
        *mixed* locked/unlocked writes get a special
        ``GuardSpec(lock, declared=False)`` so R008 can flag the
        inconsistency at the unlocked write sites.
        """
        guards = dict(self.declared_guards)
        write_locks: Dict[str, Set[str]] = {}
        for method in self.methods:
            if method.name in CONSTRUCTION_METHODS:
                continue
            for access in method.accesses:
                if not access.write or access.attr in guards \
                        or access.attr in self.lockfree \
                        or access.attr in self.locks:
                    continue
                if access.held:
                    write_locks.setdefault(access.attr,
                                           set()).update(access.held)
        for attr, locks in write_locks.items():
            if len(locks) != 1:
                continue
            # Mixed locked/unlocked writes still infer the lock; R008
            # reports the unlocked accesses as inconsistently guarded.
            guards[attr] = GuardSpec(next(iter(locks)), declared=False)
        return guards

    def mixed_attrs(self) -> Set[str]:
        """Attributes written both with and without a lock held."""
        locked: Set[str] = set()
        unlocked: Set[str] = set()
        for method in self.methods:
            if method.name in CONSTRUCTION_METHODS:
                continue
            for access in method.accesses:
                if not access.write or access.attr in self.lockfree \
                        or access.attr in self.locks \
                        or access.attr in self.declared_guards:
                    continue
                (locked if access.held else unlocked).add(access.attr)
        return locked & unlocked


class LockModel:
    """All class models of one module plus the module's order graph."""

    def __init__(self, classes: List[ClassModel]) -> None:
        self.classes = classes

    def order_edges(self) -> List[Tuple[str, str, ast.AST]]:
        """Direct nesting edges ``(outer, inner, at_node)``, names
        qualified ``Class.lock``."""
        edges: List[Tuple[str, str, ast.AST]] = []
        for cls in self.classes:
            for method in cls.methods:
                for acq in method.acquisitions:
                    if not acq.held_before:
                        continue
                    inner = f"{cls.name}.{acq.lock}"
                    for outer_attr in acq.held_before:
                        outer = f"{cls.name}.{outer_attr}"
                        if outer != inner:
                            edges.append((outer, inner, acq.node))
        return edges


def _annotation_on_line(module: SourceModule, lineno: int,
                        pattern: re.Pattern) -> Optional[List[str]]:
    if 1 <= lineno <= len(module.lines):
        match = pattern.search(module.lines[lineno - 1])
        if match is not None:
            return [piece.strip()
                    for piece in match.group("body").split(",")
                    if piece.strip()]
    return None


def _self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when ``node`` is exactly ``self.<attr>``."""
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def _call_factory(node: ast.AST) -> Optional[str]:
    """The constructor name when ``node`` is ``Name(...)`` or
    ``mod.Name(...)``."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def _parse_guard_tokens(tokens: List[str]) -> Optional[GuardSpec]:
    if not tokens:
        return None
    if tokens[0] == LOCKFREE:
        return GuardSpec(LOCKFREE)
    writes_only = len(tokens) > 1 and tokens[1] == "writes"
    return GuardSpec(tokens[0], writes_only=writes_only)


class _MethodWalker:
    """Tracks held self-locks through one method body."""

    def __init__(self, model: MethodModel, lock_attrs: Set[str]) -> None:
        self.model = model
        self.lock_attrs = lock_attrs

    def walk(self, body: Iterable[ast.stmt],
             held: Tuple[str, ...]) -> None:
        for stmt in body:
            self._visit(stmt, held)

    def _record(self, attr: str, node: ast.AST, write: bool,
                held: Tuple[str, ...]) -> None:
        if attr in self.lock_attrs:
            return
        self.model.accesses.append(AttributeAccess(
            attr=attr, node=node, write=write,
            held=frozenset(held), method=self.model.name))

    def _mark_write(self, target: ast.AST,
                    held: Tuple[str, ...]) -> None:
        """Record the write a statement performs on ``target``."""
        attr = _self_attr(target)
        if attr is not None:
            self._record(attr, target, True, held)
            return
        if isinstance(target, ast.Subscript):
            base = _self_attr(target.value)
            if base is not None:
                self._record(base, target.value, True, held)
            else:
                self._visit(target.value, held)
            self._visit(target.slice, held)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._mark_write(element, held)
            return
        if isinstance(target, ast.Starred):
            self._mark_write(target.value, held)
            return
        self._visit(target, held)

    def _visit(self, node: ast.AST, held: Tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: List[str] = []
            for item in node.items:
                lock = _self_attr(item.context_expr)
                if lock is not None and lock in self.lock_attrs:
                    self.model.acquisitions.append(Acquisition(
                        lock=lock, node=item.context_expr,
                        held_before=held, method=self.model.name))
                    acquired.append(lock)
                else:
                    self._visit(item.context_expr, held)
            inner = held + tuple(lock for lock in acquired
                                 if lock not in held)
            self.walk(node.body, inner)
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._mark_write(target, held)
            self._visit(node.value, held)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._mark_write(node.target, held)
                self._visit(node.value, held)
            return
        if isinstance(node, ast.AugAssign):
            self._mark_write(node.target, held)
            self._visit(node.value, held)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._mark_write(target, held)
            return
        if isinstance(node, ast.Call):
            self.model.calls.append((node, frozenset(held)))
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in MUTATOR_METHODS:
                base = _self_attr(func.value)
                if base is not None:
                    self._record(base, func.value, True, held)
                else:
                    self._visit(func.value, held)
            else:
                self._visit(func, held)
            for arg in node.args:
                self._visit(arg, held)
            for keyword in node.keywords:
                self._visit(keyword.value, held)
            return
        attr = _self_attr(node)
        if attr is not None:
            self._record(attr, node, False, held)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)


def build_class_models(module: SourceModule) -> LockModel:
    """Build the lock model for every class in ``module``."""
    classes: List[ClassModel] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            classes.append(_build_class(module, node))
    return LockModel(classes)


def _build_class(module: SourceModule, node: ast.ClassDef) -> ClassModel:
    cls = ClassModel(name=node.name, node=node)
    functions = [item for item in node.body
                 if isinstance(item, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))]
    # Pass 1: lock attributes and guarded-by annotations (anywhere an
    # attribute is assigned, usually __init__).
    for function in functions:
        for stmt in ast.walk(function):
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = list(stmt.targets), stmt.value
            elif isinstance(stmt, ast.AnnAssign) \
                    and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                factory = _call_factory(value) if value is not None \
                    else None
                if factory in LOCK_FACTORIES:
                    cls.locks[attr] = factory
                tokens = _annotation_on_line(
                    module, getattr(stmt, "lineno", 0), _GUARDED_BY_RE)
                if tokens is not None:
                    spec = _parse_guard_tokens(tokens)
                    if spec is not None:
                        if spec.lock == LOCKFREE:
                            cls.lockfree.add(attr)
                        else:
                            cls.declared_guards[attr] = spec
    # Pass 2: per-method access/acquisition walk with held tracking.
    for function in functions:
        holds_tokens = _annotation_on_line(module, function.lineno,
                                           _HOLDS_RE)
        holds = frozenset(holds_tokens or ())
        method = MethodModel(name=function.name, node=function,
                             holds=holds)
        walker = _MethodWalker(method, set(cls.locks))
        walker.walk(function.body, tuple(holds))
        cls.methods.append(method)
    return cls


def derive_lock_order(paths: Iterable[str]) -> List[Tuple[str, str]]:
    """The statically-visible lock-order edges of a set of files.

    Direct ``with``-nesting edges only (names ``Class.lock``); edges
    that pass through a call (e.g. a collector hook invoked under a
    cache lock) are invisible here and must be declared in
    :data:`repro.analysis.concurrency.witness.DEFAULT_LOCK_ORDER` — a
    test asserts the derived set is a subset of the declared one.
    """
    import os

    edges: Set[Tuple[str, str]] = set()
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for base, _dirs, names in os.walk(path):
                files.extend(os.path.join(base, name)
                             for name in names if name.endswith(".py"))
        else:
            files.append(path)
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                module = SourceModule(path, handle.read())
        except (OSError, SyntaxError):
            continue
        for outer, inner, _node in build_class_models(
                module).order_edges():
            edges.add((outer, inner))
    return sorted(edges)
