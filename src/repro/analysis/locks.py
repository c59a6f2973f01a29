"""Guarded-by lock-discipline checker (the race-detector rule family, GB1xx).

The serving layer's thread-safety contract is structural: a handful of
attributes are shared between producer threads (``InferenceEngine.submit``)
and the consumer thread driving the engine, and every one of them is supposed
to be touched only under a specific lock.  This checker turns that contract
into machine-checked annotations:

- ``# guarded-by: <lock>`` -- trailing comment on the statement that
  introduces an attribute (a ``self.attr = ...`` assignment, a dataclass
  field line, or a class-level assignment) declares that every read or write
  of ``self.attr`` must happen while ``self.<lock>`` is held.  A class-body
  ``GUARDED_BY = {"attr": "lock"}`` dict literal declares the same thing.
- ``# lock-held: <lock>[, <lock>...]`` -- trailing comment on a ``def`` line
  documents that the method is only called with those locks already held
  (the caller's responsibility); accesses inside it are treated as guarded.
- ``# <name>-thread-only`` (``# loop-thread-only``, ``# engine-thread-only``)
  -- the single-thread contract.  On a ``def`` line it declares that the
  method runs exclusively on the named thread; on the statement introducing
  an attribute it declares that the attribute is that thread's private state;
  with a member list (``self.engine = engine  # engine-thread-only: step,
  cancel``) it declares that those members of the attribute belong to the
  thread while the rest of the object stays shared.  Lock-guarded attributes
  are the state threads *share*, so a thread-only method still needs the lock.
- ``# user-callback: <name>`` -- comment on (or directly above) a ``def``
  line declares that ``<name>`` -- a parameter or ``self`` attribute -- is a
  *user-supplied* callback: arbitrary foreign code the class promises never
  to invoke while holding one of its locks (a raising or re-entrant callback
  under a held lock deadlocks or corrupts the protected state).

Checks performed on every class that declares at least one guard or user
callback:

``GB101``
    A read or write of a guarded ``self.<attr>`` that is not lexically inside
    ``with self.<lock>:`` (multi-item ``with`` statements count) and not in a
    ``lock-held`` method.  ``__init__`` is exempt: construction happens
    before the object is published to other threads.
``GB102``
    ``self.<cond>.wait(...)`` outside a predicate ``while`` loop -- a bare
    ``wait`` misses both spurious wakeups and a sibling consumer draining the
    queue first.  (``wait_for`` loops internally and is exempt.)
``GB103``
    ``wait`` / ``wait_for`` / ``notify`` / ``notify_all`` on a known lock
    attribute without lexically holding that lock -- all four require the
    owning lock under ``threading.Condition`` semantics.
``GB104``
    A ``guarded-by`` annotation whose lock is never discovered as a
    ``threading.Lock`` / ``RLock`` / ``Condition`` attribute of the class
    (catches typos in the annotations themselves).
``GB105``
    Thread-owned state (an attribute, or a listed member of one) touched in
    a method that is not declared to run on the owning thread.
``GB106``
    A direct ``self.<method>(...)`` call of a thread-only method from a
    method not declared to run on the same thread.  Handing the bound method
    to the other thread (``loop.call_soon_threadsafe(self._deliver, ...)``)
    is a reference, not a call, and is exactly the sanctioned hand-off.
``CB401``
    A declared user callback invoked while any of the class's locks is
    lexically held (including locks declared held via ``lock-held``) -- the
    engine must drop its locks before handing control to user code.

The analysis is lexical (it proves containment in a ``with`` block, not a
whole-program happens-before relation), which is exactly the discipline the
serving layer promises: every access site names its lock in the enclosing
source.  Nested functions are conservatively treated as running without the
enclosing locks and on no declared thread, since they may escape and run
later.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.analysis.core import Finding, SourceModule

__all__ = ["check_lock_discipline"]

_GUARDED_BY_RE = re.compile(r"guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")
_LOCK_HELD_RE = re.compile(r"lock-held:\s*([A-Za-z0-9_,\s]+)")
_THREAD_ONLY_RE = re.compile(
    r"([a-z][a-z0-9_]*)-thread-only(?::\s*([A-Za-z_][A-Za-z0-9_,\s]*))?"
)
_USER_CALLBACK_RE = re.compile(r"user-callback:\s*([A-Za-z_][A-Za-z0-9_]*)")

#: ``threading`` factories whose result makes an attribute a known lock.
_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}
#: The subset that carries Condition wait/notify semantics.
_CONDITION_FACTORIES = {"Condition"}


def _threading_factory(node: ast.AST) -> Optional[str]:
    """The ``threading.<Factory>`` name an expression resolves to, if any.

    Recognises direct constructor calls (``threading.Condition()``), bare
    references in annotations (``threading.Condition``), and dataclass
    defaults (``field(default_factory=threading.Condition)``).
    """
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "field":
            for keyword in node.keywords:
                if keyword.arg == "default_factory":
                    return _threading_factory(keyword.value)
            return None
        return _threading_factory(func)
    if isinstance(node, ast.Attribute) and node.attr in _LOCK_FACTORIES:
        value = node.value
        if isinstance(value, ast.Name) and value.id == "threading":
            return node.attr
    if isinstance(node, ast.Name) and node.id in _LOCK_FACTORIES:
        return node.id
    if isinstance(node, ast.Subscript):
        return _threading_factory(node.value)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotations ("threading.Condition") in `from __future__`
        # modules.
        for factory in _LOCK_FACTORIES:
            if node.value.endswith(factory):
                return factory
    return None


def _assigned_attr(node: ast.AST) -> Optional[str]:
    """The ``X`` of a ``self.X = ...`` / ``self.X: T = ...`` target."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "self":
            return node.attr
    return None


@dataclass
class _ClassContract:
    """The declared locking contract of one class."""

    name: str
    node: ast.ClassDef
    guards: Dict[str, str] = field(default_factory=dict)
    guard_lines: Dict[str, int] = field(default_factory=dict)
    locks: Set[str] = field(default_factory=set)
    conditions: Set[str] = field(default_factory=set)
    callbacks: Set[str] = field(default_factory=set)
    #: attribute (or ``(attribute, member)``) -> owning thread name
    owners: Dict[object, str] = field(default_factory=dict)
    #: method name -> the thread it is declared to run on
    method_threads: Dict[str, str] = field(default_factory=dict)


def _collect_contract(module: SourceModule, cls: ast.ClassDef) -> _ClassContract:
    contract = _ClassContract(name=cls.name, node=cls)

    def note_lock(attr: str, value: ast.AST) -> None:
        factory = _threading_factory(value)
        if factory is not None:
            contract.locks.add(attr)
            if factory in _CONDITION_FACTORIES:
                contract.conditions.add(attr)

    def note_guard(attr: str, line: int) -> None:
        match = module.marker(_GUARDED_BY_RE, line)
        if match is not None:
            contract.guards[attr] = match.group(1)
            contract.guard_lines[attr] = line
        match = module.marker(_THREAD_ONLY_RE, line)
        if match is not None and match.group(2) is None:
            contract.owners[attr] = match.group(1)
        elif match is not None:
            for member in match.group(2).split(","):
                if member.strip():
                    contract.owners[(attr, member.strip())] = match.group(1)

    # Class body: dataclass fields, class-level assignments, GUARDED_BY map.
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            attr = stmt.target.id
            note_lock(attr, stmt.annotation)
            if stmt.value is not None:
                note_lock(attr, stmt.value)
            note_guard(attr, stmt.lineno)
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                if target.id == "GUARDED_BY" and isinstance(stmt.value, ast.Dict):
                    for key, value in zip(stmt.value.keys, stmt.value.values):
                        if (
                            isinstance(key, ast.Constant)
                            and isinstance(value, ast.Constant)
                            and isinstance(key.value, str)
                            and isinstance(value.value, str)
                        ):
                            contract.guards[key.value] = value.value
                            contract.guard_lines[key.value] = stmt.lineno
                else:
                    note_lock(target.id, stmt.value)
                    note_guard(target.id, stmt.lineno)

    # Method bodies: `self.X = threading.Lock()` and annotated assignments.
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        match = module.marker(_USER_CALLBACK_RE, method.lineno)
        if match is not None:
            contract.callbacks.add(match.group(1))
        match = module.marker(_THREAD_ONLY_RE, method.lineno)
        if match is not None:
            contract.method_threads[method.name] = match.group(1)
        for node in ast.walk(method):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                attr = _assigned_attr(node.targets[0])
                if attr is not None:
                    note_lock(attr, node.value)
                    note_guard(attr, node.lineno)
            elif isinstance(node, ast.AnnAssign):
                attr = _assigned_attr(node.target)
                if attr is not None:
                    if node.value is not None:
                        note_lock(attr, node.value)
                    note_guard(attr, node.lineno)
    return contract


def _held_locks(module: SourceModule, method: ast.AST) -> frozenset:
    """The locks a ``def`` line declares held (``# lock-held: a, b``)."""
    held: Set[str] = set()
    match = module.marker(_LOCK_HELD_RE, method.lineno)
    if match is not None:
        held.update(name.strip() for name in match.group(1).split(",") if name.strip())
    return frozenset(held)


def _self_attr(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "self":
            return node.attr
    return None


class _MethodChecker:
    """Walk one method body tracking lexically held locks."""

    def __init__(
        self,
        module: SourceModule,
        contract: _ClassContract,
        method: ast.AST,
        held: frozenset,
    ):
        self.module = module
        self.contract = contract
        self.method = method
        #: the thread this method is declared to run on (None: any thread)
        self.thread: Optional[str] = contract.method_threads.get(method.name)
        self.findings: List[Finding] = []
        self.qualname = f"{contract.name}.{method.name}"
        self._initial_held = held

    def run(self) -> List[Finding]:
        for stmt in self.method.body:
            self._visit(stmt, self._initial_held, in_predicate_while=False)
        return self.findings

    # ------------------------------------------------------------------
    def _report(self, code: str, message: str, node: ast.AST) -> None:
        self.findings.append(
            self.module.finding(code, message, node, symbol=self.qualname)
        )

    def _check_owner(self, key: object, what: str, node: ast.AST) -> None:
        owner = self.contract.owners.get(key)
        if owner is not None and owner != self.thread:
            self._report(
                "GB105",
                f"'{what}' belongs to the {owner} thread but is touched in "
                f"{self.qualname}, which is not declared '{owner}-thread-only'",
                node,
            )

    def _visit(self, node: ast.AST, held: frozenset, in_predicate_while: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested function may escape the lock scope; treat its body as
            # running with no locks held (its own `with` blocks still count)
            # and on no declared thread.
            body = node.body if isinstance(node.body, list) else [node.body]
            thread, self.thread = self.thread, None
            for child in body:
                self._visit(child, frozenset(), in_predicate_while=False)
            self.thread = thread
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set()
            for item in node.items:
                attr = _self_attr(item.context_expr)
                if attr is not None and attr in self.contract.locks:
                    acquired.add(attr)
                self._visit(item.context_expr, held, in_predicate_while)
            inner = held | frozenset(acquired)
            for child in node.body:
                self._visit(child, inner, in_predicate_while)
            return
        if isinstance(node, (ast.While,)):
            predicate = not (
                isinstance(node.test, ast.Constant) and bool(node.test.value)
            )
            self._visit(node.test, held, in_predicate_while)
            for child in node.body:
                self._visit(child, held, in_predicate_while or predicate)
            for child in node.orelse:
                self._visit(child, held, in_predicate_while)
            return
        if isinstance(node, ast.Call):
            self._check_call(node, held, in_predicate_while)
            # Fall through to generic traversal for arguments and receiver.
        attr = _self_attr(node)
        if attr is None and isinstance(node, ast.Attribute):
            base = _self_attr(node.value)
            if base is not None:
                self._check_owner((base, node.attr), f"self.{base}.{node.attr}", node)
        if attr is not None:
            self._check_owner(attr, f"self.{attr}", node)
            lock = self.contract.guards.get(attr)
            if lock is not None and lock not in held:
                self._report(
                    "GB101",
                    f"'self.{attr}' is guarded by 'self.{lock}' but accessed "
                    f"without it in {self.qualname}",
                    node,
                )
        for child in ast.iter_child_nodes(node):
            self._visit(child, held, in_predicate_while)

    def _check_call(
        self, node: ast.Call, held: frozenset, in_predicate_while: bool
    ) -> None:
        func = node.func
        method = _self_attr(func)  # the `m` of a `self.m(...)` call, else None
        callback = func.id if isinstance(func, ast.Name) else method
        if callback in self.contract.callbacks and held:
            locks = ", ".join(f"'self.{lock}'" for lock in sorted(held))
            self._report(
                "CB401",
                f"user callback '{callback}' invoked while holding {locks} in "
                f"{self.qualname} (drop engine locks before running user code)",
                node,
            )
        target = self.contract.method_threads.get(method)
        if target is not None and target != self.thread:
            self._report(
                "GB106",
                f"'{method}' is {target}-thread-only but called directly "
                f"from {self.qualname} (hand it to the {target} thread instead)",
                node,
            )
        if not isinstance(func, ast.Attribute):
            return
        receiver = _self_attr(func.value)
        if receiver is None or receiver not in self.contract.locks:
            return
        op = func.attr
        if op == "wait" and receiver in self.contract.conditions:
            if not in_predicate_while:
                self._report(
                    "GB102",
                    f"'self.{receiver}.wait()' outside a predicate while-loop "
                    f"in {self.qualname} (spurious wakeups / stolen work "
                    "return an unchecked condition)",
                    node,
                )
        if op in ("wait", "wait_for", "notify", "notify_all"):
            if receiver not in held:
                self._report(
                    "GB103",
                    f"'self.{receiver}.{op}()' without holding "
                    f"'self.{receiver}' in {self.qualname}",
                    node,
                )


def check_lock_discipline(module: SourceModule) -> List[Finding]:
    """Run the GB1xx rule family over one module."""
    findings: List[Finding] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        contract = _collect_contract(module, node)
        if not (
            contract.guards or contract.callbacks or contract.owners
            or contract.method_threads
        ):
            continue
        for attr, lock in sorted(contract.guards.items()):
            if lock not in contract.locks:
                line = contract.guard_lines.get(attr, node.lineno)
                findings.append(
                    Finding(
                        code="GB104",
                        message=(
                            f"'{attr}' is declared guarded by '{lock}', which is "
                            f"not a known lock attribute of {contract.name}"
                        ),
                        path=module.display_path,
                        line=line,
                        symbol=f"{contract.name}.{attr}",
                        line_text=module.line_text(line),
                        suppressed="GB104" in module.suppressed_codes(line),
                    )
                )
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in ("__init__", "__post_init__"):
                # Construction happens-before publication to other threads.
                continue
            checker = _MethodChecker(module, contract, method, _held_locks(module, method))
            findings.extend(checker.run())
    return findings
