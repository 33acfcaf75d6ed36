"""The reprolint rule set.

Every rule is grounded in a bug this repo actually shipped or plausibly
could: the bit-identity guarantees (fresh ≡ cached ≡ cluster, enforced
dynamically by the CI parity gates) all rest on invariants that are easy
to break with one innocent-looking line.  Each rule's docstring names the
invariant it protects and the gate that would otherwise catch the bug —
much later, and only if the gate's workload happens to exercise it.

========  ========  ==========================================================
Rule      Severity  Catches
========  ========  ==========================================================
RNG001    error     unseeded / module-level ``random`` usage outside the
                    :mod:`repro.utils.rng` funnel
RNG002    error     ``hash()`` / ``id()`` flowing into seeds, fingerprints,
                    cache keys, or checksums (the PR 5 ``spawn_rng`` bug class)
ORD001    warning   set/dict iteration feeding RNG draws, serialization, or
                    checksums without an explicit ``sorted(...)``
TIME001   warning   wall-clock time reachable from fingerprint / cache-key /
                    canonical-key code (inject clocks instead)
LOCK001   error     attributes written under ``with self._lock`` but also
                    touched outside any lock in the same class
PICKLE001 error     lambdas, closures, locks, or live ``Random`` objects in
                    payloads crossing a process-pool boundary
========  ========  ==========================================================
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.lint.core import (
    Finding,
    ModuleInfo,
    Rule,
    attribute_chain,
    dotted_name,
    register,
)

__all__ = [
    "RandomUsageRule",
    "HashIdentitySinkRule",
    "UnorderedIterationRule",
    "WallClockSinkRule",
    "LockCoverageRule",
    "PickleBoundaryRule",
]

# ----------------------------------------------------------------------
# Shared vocabulary
# ----------------------------------------------------------------------
#: Function names that *are* determinism-sensitive sinks: anything they
#: compute feeds a seed, a fingerprint, a cache key, or a checksum.
_SINK_FUNC_RE = re.compile(
    r"(seed|fingerprint|checksum|digest|canonical|cache_key|__hash__)", re.IGNORECASE
)

#: Variable names whose assignment marks the value as key/seed material.
_SINK_VAR_RE = re.compile(
    r"(^|_)(seed|key|keys|fingerprint|checksum|digest|token)s?($|_)", re.IGNORECASE
)

#: Containers whose subscripts/lookups are cache-key positions.
_SINK_CONTAINER_RE = re.compile(r"(cache|pool|key|fingerprint|seen)", re.IGNORECASE)

#: Callees that consume seeds / key material directly.
_SINK_CALLEES = {
    "Random",
    "seed",
    "cache_key",
    "sha1",
    "sha256",
    "sha512",
    "md5",
    "blake2b",
    "blake2s",
}

#: ``random`` module draw functions (module-level state, PYTHONHASHSEED- and
#: import-order-dependent when unseeded).
_RANDOM_DRAWS = {
    "betavariate",
    "choice",
    "choices",
    "expovariate",
    "gammavariate",
    "gauss",
    "getrandbits",
    "lognormvariate",
    "normalvariate",
    "paretovariate",
    "randbytes",
    "randint",
    "random",
    "randrange",
    "sample",
    "seed",
    "shuffle",
    "triangular",
    "uniform",
    "vonmisesvariate",
    "weibullvariate",
}

#: Order-insensitive consumers: wrapping an unordered iterable in one of
#: these launders the ordering hazard away.
_ORDER_INSENSITIVE = {
    "all",
    "any",
    "Counter",
    "frozenset",
    "fsum",
    "len",
    "max",
    "min",
    "set",
    "sorted",
    "sum",
}

#: Generator-method names that draw from an RNG stream.
_DRAW_METHODS = _RANDOM_DRAWS | {"betavariate"}

#: Names an RNG instance typically travels under.
_RNG_NAME_RE = re.compile(r"(rng|random|rand)", re.IGNORECASE)

_LOCKISH_NAME_RE = re.compile(r"(lock|mutex|cond|wakeup)", re.IGNORECASE)

_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}


def _terminal_name(func: ast.AST) -> str:
    """The rightmost name of a callee (``hashlib.sha256`` -> ``sha256``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _imported_names(module: ModuleInfo, source_module: str) -> Set[str]:
    """Local names bound by ``from <source_module> import ...``."""
    names: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module == source_module:
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def _module_aliases(module: ModuleInfo, target: str) -> Set[str]:
    """Local names the module ``target`` is importable under (``import x as y``)."""
    aliases: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == target:
                    aliases.add(alias.asname or alias.name)
    return aliases


# ----------------------------------------------------------------------
# RNG001 — module-level / unseeded random usage
# ----------------------------------------------------------------------
@register
class RandomUsageRule(Rule):
    """``random.random()`` & friends draw from interpreter-global state.

    Module-level draws depend on import order, whatever other code
    consumed from the shared stream, and (for ``seed()``-free processes)
    OS entropy — none of which survive the fresh ≡ cached ≡ cluster
    parity contract.  Every stochastic entry point must route through
    :func:`repro.utils.rng.resolve_rng` / ``spawn_rng`` instead; the
    funnel module itself is exempt.  ``random.Random()`` with no seed is
    flagged for the same reason; ``random.Random(seed)`` is fine.
    """

    name = "RNG001"
    severity = "error"
    summary = "module-level or unseeded random.* usage outside utils/rng.py"

    _EXEMPT_SUFFIXES = ("utils/rng.py",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.path.replace("\\", "/").endswith(self._EXEMPT_SUFFIXES):
            return
        random_aliases = _module_aliases(module, "random")
        bare_draws = _imported_names(module, "random") & _RANDOM_DRAWS
        bare_random_class = _imported_names(module, "random") & {"Random"}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                if func.value.id in random_aliases:
                    if func.attr in _RANDOM_DRAWS:
                        yield module.finding(
                            self,
                            node,
                            f"random.{func.attr}() draws from the module-level "
                            "generator; thread an explicit random.Random through "
                            "repro.utils.rng.resolve_rng instead",
                        )
                    elif func.attr == "Random" and not node.args and not node.keywords:
                        yield module.finding(
                            self,
                            node,
                            "random.Random() with no seed is OS-entropy seeded and "
                            "irreproducible; pass a seed or use resolve_rng(None) "
                            "where entropy is the documented intent",
                        )
            elif isinstance(func, ast.Name):
                if func.id in bare_draws:
                    yield module.finding(
                        self,
                        node,
                        f"{func.id}() (imported from random) draws from the "
                        "module-level generator; use an explicit random.Random",
                    )
                elif func.id in bare_random_class and not node.args and not node.keywords:
                    yield module.finding(
                        self,
                        node,
                        "Random() with no seed is OS-entropy seeded and "
                        "irreproducible; pass a seed explicitly",
                    )


# ----------------------------------------------------------------------
# RNG002 — hash()/id() flowing into determinism-sensitive sinks
# ----------------------------------------------------------------------
@register
class HashIdentitySinkRule(Rule):
    """``hash()`` is salted per process; ``id()`` is an allocation address.

    Neither survives a process boundary, so neither may feed anything the
    bit-identity contract serializes, compares across processes, or seeds
    RNG streams from.  This is exactly how PR 5's ``spawn_rng`` bug
    shipped: ``hash(label)`` mixed into derived seeds made every
    preprocessed S²BDD estimate ``PYTHONHASHSEED``-dependent for five PRs
    before a benchmark caught it.  A ``hash()``/``id()`` call is flagged
    when it syntactically flows into a sink: a function whose name says
    seed/fingerprint/checksum/cache-key, a variable named like key
    material, a cache/pool subscript or lookup, or a digest/Random call.
    """

    name = "RNG002"
    severity = "error"
    summary = "hash()/id() flowing into seeds, fingerprints, cache keys, or checksums"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("hash", "id")
            ):
                continue
            sink = self._sink_for(module, node)
            if sink is not None:
                yield module.finding(
                    self,
                    node,
                    f"{node.func.id}() result reaches {sink}; hash() is "
                    "PYTHONHASHSEED-salted and id() is an address — use a "
                    "stable digest (hashlib) or explicit content tuple",
                )

    def _sink_for(self, module: ModuleInfo, call: ast.Call) -> Optional[str]:
        enclosing = module.enclosing_function(call)
        if enclosing is not None and _SINK_FUNC_RE.search(enclosing.name):
            return f"determinism-sensitive function {enclosing.name}()"
        previous: ast.AST = call
        for ancestor in module.ancestors(call):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                break
            if isinstance(ancestor, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
                targets = (
                    ancestor.targets
                    if isinstance(ancestor, ast.Assign)
                    else [ancestor.target]
                )
                for target in targets:
                    for name in self._target_names(target):
                        if _SINK_VAR_RE.search(name):
                            return f"key-material variable {name!r}"
            if isinstance(ancestor, ast.Subscript) and any(
                inner is call for inner in ast.walk(ancestor.slice)
            ):
                container = dotted_name(ancestor.value)
                if container and _SINK_CONTAINER_RE.search(container):
                    return f"subscript of {container}"
            if isinstance(ancestor, ast.Call) and ancestor is not call:
                callee = _terminal_name(ancestor.func)
                if callee in _SINK_CALLEES:
                    return f"call to {callee}()"
                if callee in ("get", "pop", "setdefault") and isinstance(
                    ancestor.func, ast.Attribute
                ):
                    container = dotted_name(ancestor.func.value)
                    if container and _SINK_CONTAINER_RE.search(container):
                        return f"lookup on {container}"
            previous = ancestor
        return None

    @staticmethod
    def _target_names(target: ast.AST) -> Iterator[str]:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr


# ----------------------------------------------------------------------
# ORD001 — unordered iteration feeding sensitive consumers
# ----------------------------------------------------------------------
@register
class UnorderedIterationRule(Rule):
    """Set iteration order is ``PYTHONHASHSEED``-dependent for str keys.

    A loop over a ``set`` that feeds RNG draws, serialization, a
    checksum, or a wire payload makes the output depend on hash salting —
    bit-identical runs become a coin flip.  ``dict`` iteration is
    insertion-ordered but inherits whatever order built the dict, so it
    is flagged in the same sensitive positions.  Wrapping the iterable in
    ``sorted(...)`` (or any order-insensitive reducer: ``sum``, ``min``,
    ``max``, ``len``, ``any``, ``all``) clears the finding.
    """

    name = "ORD001"
    severity = "warning"
    summary = "set/dict iteration feeding RNG, serialization, or checksums without sorted()"

    _SENSITIVE_FUNC_RE = re.compile(
        r"(serial|to_dict|to_payload|payload|wire|checksum|canonical|fingerprint"
        r"|digest|dumps|sample|draw|seed|world)",
        re.IGNORECASE,
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            unordered = self._unordered_kind(node)
            if unordered is None:
                continue
            if not self._is_iterated(module, node):
                continue
            if self._order_laundered(module, node):
                continue
            reason = self._sensitive_context(module, node)
            if reason is None:
                continue
            yield module.finding(
                self,
                node,
                f"iteration over {unordered} feeds {reason} without an "
                "explicit sorted(...); unordered iteration breaks "
                "bit-identity across processes",
            )

    @staticmethod
    def _unordered_kind(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Call):
            callee = _terminal_name(node.func)
            if isinstance(node.func, ast.Name) and callee in ("set", "frozenset"):
                return f"{callee}(...)"
            if isinstance(node.func, ast.Attribute) and callee in (
                "keys",
                "values",
                "items",
            ):
                return f".{callee}()"
        elif isinstance(node, ast.Set):
            return "a set literal"
        elif isinstance(node, ast.SetComp):
            return "a set comprehension"
        return None

    def _is_iterated(self, module: ModuleInfo, node: ast.AST) -> bool:
        parent = module.parent(node)
        if isinstance(parent, ast.For) and parent.iter is node:
            return True
        if isinstance(parent, ast.comprehension) and parent.iter is node:
            return True
        if isinstance(parent, ast.Call):
            callee = _terminal_name(parent.func)
            if node in parent.args and callee in (
                "list",
                "tuple",
                "enumerate",
                "map",
                "zip",
                "join",
                "dumps",
            ):
                return True
        if isinstance(parent, ast.Starred):
            return True
        return False

    def _order_laundered(self, module: ModuleInfo, node: ast.AST) -> bool:
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            if isinstance(ancestor, ast.Call):
                callee = _terminal_name(ancestor.func)
                if callee in _ORDER_INSENSITIVE:
                    return True
        return False

    def _sensitive_context(self, module: ModuleInfo, node: ast.AST) -> Optional[str]:
        enclosing = module.enclosing_function(node)
        if enclosing is not None and self._SENSITIVE_FUNC_RE.search(enclosing.name):
            return f"serialization-adjacent function {enclosing.name}()"
        # An argument chain ending in json.dumps / results_checksum / a digest.
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
            if isinstance(ancestor, ast.Call):
                callee = _terminal_name(ancestor.func)
                if callee in ("dumps", "results_checksum", "update") or callee in _SINK_CALLEES:
                    return f"a call to {callee}()"
        # A loop whose body draws from an RNG stream.
        parent = module.parent(node)
        loop: Optional[ast.For] = parent if isinstance(parent, ast.For) else None
        if loop is not None:
            for inner in ast.walk(loop):
                if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute):
                    if inner.func.attr in _DRAW_METHODS:
                        owner = dotted_name(inner.func.value)
                        if owner and _RNG_NAME_RE.search(owner):
                            return f"RNG draws ({owner}.{inner.func.attr})"
        return None


# ----------------------------------------------------------------------
# TIME001 — wall clock reachable from fingerprint/cache-key code
# ----------------------------------------------------------------------
@register
class WallClockSinkRule(Rule):
    """Wall-clock reads in key material make "identical" inputs differ.

    A fingerprint, canonical key, or cache key containing ``time.time()``
    / ``datetime.now()`` is different on every call — cache hit rates
    silently collapse and parity gates compare apples to timestamps.
    The *monotonic* clocks (``perf_counter``, ``monotonic``,
    ``process_time`` and their ``_ns`` variants) are just as poisonous in
    key material — span timings and latency histograms read them freely,
    so the rule keeps them out of fingerprints the same way.  Time
    belongs in *metadata* fields and injectable clocks (the pattern
    :class:`repro.service.cache.ResultCache` uses: an injected
    ``clock=time.monotonic`` for TTL, never inside the key).
    """

    name = "TIME001"
    severity = "warning"
    summary = "wall-clock time reachable from fingerprint/cache-key/canonical-key code"

    _CLOCK_NAMES = {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }

    _WALL_CLOCK_ATTRS = {("time", name) for name in _CLOCK_NAMES} | {
        ("time", "localtime"),
        ("time", "ctime"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        bare_time = _imported_names(module, "time") & self._CLOCK_NAMES
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            described = self._wall_clock(node, bare_time)
            if described is None:
                continue
            sink = self._sink_for(module, node)
            if sink is not None:
                yield module.finding(
                    self,
                    node,
                    f"{described} flows into {sink}; keys and fingerprints "
                    "must be pure functions of content — keep timestamps in "
                    "metadata fields or inject a clock",
                )

    def _wall_clock(self, node: ast.Call, bare_time: Set[str]) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = _terminal_name(func.value) if isinstance(
                func.value, (ast.Attribute, ast.Name)
            ) else ""
            if (owner, func.attr) in self._WALL_CLOCK_ATTRS:
                return f"{owner}.{func.attr}()"
        elif isinstance(func, ast.Name) and func.id in bare_time:
            return f"{func.id}()"
        return None

    def _sink_for(self, module: ModuleInfo, call: ast.Call) -> Optional[str]:
        enclosing = module.enclosing_function(call)
        if enclosing is not None and _SINK_FUNC_RE.search(enclosing.name):
            return f"determinism-sensitive function {enclosing.name}()"
        for ancestor in module.ancestors(call):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                break
            if isinstance(ancestor, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    ancestor.targets
                    if isinstance(ancestor, ast.Assign)
                    else [ancestor.target]
                )
                for target in targets:
                    for name in HashIdentitySinkRule._target_names(target):
                        if _SINK_VAR_RE.search(name):
                            return f"key-material variable {name!r}"
            if isinstance(ancestor, ast.Call) and ancestor is not call:
                callee = _terminal_name(ancestor.func)
                if callee in _SINK_CALLEES or callee == "cache_key":
                    return f"call to {callee}()"
        return None


# ----------------------------------------------------------------------
# LOCK001 — inconsistent lock coverage within a class
# ----------------------------------------------------------------------
@register
class LockCoverageRule(Rule):
    """A field guarded *sometimes* is a field guarded *never*.

    For every class, the rule collects the attributes written inside
    ``with self._lock:`` (any lock-named context manager) blocks, then
    reports reads or writes of those same attributes outside any lock in
    the same class.  ``__init__``/``__post_init__`` are exempt — objects
    under construction are single-threaded by convention.  Two attribute
    spellings are tracked: ``self.X`` (keyed per class) and ``other.X``
    (keyed by attribute name — the supervisor's ``handle.port`` pattern,
    where the guarded state lives on a helper record).
    """

    name = "LOCK001"
    severity = "error"
    summary = "attribute written under a lock but read/written outside any lock"

    _EXEMPT_METHODS = {"__init__", "__post_init__", "__new__"}

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    # -- helpers -------------------------------------------------------
    def _check_class(self, module: ModuleInfo, cls: ast.ClassDef) -> Iterator[Finding]:
        methods = [
            item
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        locked_regions: List[Tuple[ast.AST, ast.With]] = []
        lock_names: Set[str] = self._lock_attribute_names(methods)
        for method in methods:
            for inner in ast.walk(method):
                if isinstance(inner, (ast.With, ast.AsyncWith)) and self._is_lock_with(
                    inner, lock_names
                ):
                    locked_regions.append((method, inner))

        if not locked_regions:
            return

        in_lock = self._nodes_inside(module, [region for _, region in locked_regions])

        guarded_self: Set[str] = set()
        guarded_other: Set[str] = set()
        for _, region in locked_regions:
            for target_kind, name in self._stored_attributes(region):
                if target_kind == "self":
                    guarded_self.add(name)
                else:
                    guarded_other.add(name)
        if not guarded_self and not guarded_other:
            return

        for method in methods:
            if method.name in self._EXEMPT_METHODS:
                continue
            for inner in ast.walk(method):
                if not isinstance(inner, ast.Attribute):
                    continue
                if id(inner) in in_lock:
                    continue
                base = inner.value
                if isinstance(base, ast.Name) and base.id == "self":
                    if inner.attr in guarded_self and inner.attr not in lock_names:
                        yield module.finding(
                            self,
                            inner,
                            f"self.{inner.attr} is written under the lock "
                            f"elsewhere in {cls.name} but accessed here "
                            "without it; take the lock or annotate why this "
                            "is safe",
                        )
                elif isinstance(base, ast.Name):
                    if inner.attr in guarded_other:
                        yield module.finding(
                            self,
                            inner,
                            f"{base.id}.{inner.attr} is written under the "
                            f"lock elsewhere in {cls.name} but accessed here "
                            "without it; take the lock or annotate why this "
                            "is safe",
                        )

    def _lock_attribute_names(self, methods) -> Set[str]:
        """Attributes assigned a Lock/RLock/Condition, plus lock-named ones."""
        names: Set[str] = set()
        for method in methods:
            for node in ast.walk(method):
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                    callee = _terminal_name(node.value.func)
                    if callee in _LOCK_FACTORIES:
                        for target in node.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                names.add(target.attr)
        return names

    def _is_lock_with(self, node, lock_names: Set[str]) -> bool:
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
                if expr.value.id == "self" and (
                    expr.attr in lock_names or _LOCKISH_NAME_RE.search(expr.attr)
                ):
                    return True
        return False

    @staticmethod
    def _nodes_inside(module: ModuleInfo, regions) -> Set[int]:
        inside: Set[int] = set()
        for region in regions:
            for node in ast.walk(region):
                inside.add(id(node))
        return inside

    @staticmethod
    def _stored_attributes(region: ast.With) -> Iterator[Tuple[str, str]]:
        """``("self"|"other", attr)`` for every attribute written in ``region``.

        A write is a plain/aug/ann assignment target, a ``del``, or a
        subscript store whose container is an attribute (``self.d[k] = v``
        mutates ``self.d``).
        """
        def classify(attr_node: ast.Attribute) -> Optional[Tuple[str, str]]:
            base = attr_node.value
            if isinstance(base, ast.Name):
                return ("self" if base.id == "self" else "other", attr_node.attr)
            if isinstance(base, ast.Attribute):
                # self.a.b = v mutates self.a: track the root attribute.
                root = attribute_chain(base)
                if root and root[0] == "self" and len(root) >= 2:
                    return ("self", root[1])
            return None

        for node in ast.walk(region):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Attribute):
                        classified = classify(leaf)
                        if classified:
                            yield classified
                    elif isinstance(leaf, ast.Subscript) and isinstance(
                        leaf.value, ast.Attribute
                    ):
                        classified = classify(leaf.value)
                        if classified:
                            yield classified


# ----------------------------------------------------------------------
# PICKLE001 — unpicklable / stream-splitting payloads at process boundaries
# ----------------------------------------------------------------------
@register
class PickleBoundaryRule(Rule):
    """What crosses ``executor.submit`` must pickle *and* stay deterministic.

    Lambdas and closures fail to pickle under the ``spawn`` start method
    (they only "work" under ``fork`` — until the platform changes).
    Locks never pickle.  A live ``random.Random`` *does* pickle, which is
    worse: parent and child silently continue the same stream in two
    places, and every draw after the boundary diverges from serial
    execution — ship *seeds* instead.  Only modules that import
    ``multiprocessing`` / ``ProcessPoolExecutor`` are inspected.
    """

    name = "PICKLE001"
    severity = "error"
    summary = "lambda/closure/lock/live-Random in a payload crossing a process boundary"

    _BOUNDARY_METHODS = {
        "apply",
        "apply_async",
        "imap",
        "imap_unordered",
        "map",
        "map_async",
        "starmap",
        "starmap_async",
        "submit",
    }

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not self._uses_process_pools(module):
            return
        nested_functions = self._nested_function_names(module)
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._BOUNDARY_METHODS
            ):
                continue
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            for argument in arguments:
                for inner in ast.walk(argument):
                    described = self._hazard(inner, nested_functions)
                    if described is not None:
                        yield module.finding(
                            self,
                            inner,
                            f"{described} crosses the {node.func.attr}() process "
                            "boundary; ship module-level callables and plain "
                            "data (seeds, not generators) instead",
                        )

    @staticmethod
    def _uses_process_pools(module: ModuleInfo) -> bool:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                if any(alias.name.split(".")[0] == "multiprocessing" for alias in node.names):
                    return True
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] in (
                    "multiprocessing",
                    "concurrent",
                ):
                    return True
        return False

    @staticmethod
    def _nested_function_names(module: ModuleInfo) -> Set[str]:
        nested: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if (
                        isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and inner is not node
                    ):
                        nested.add(inner.name)
        return nested

    @staticmethod
    def _hazard(node: ast.AST, nested_functions: Set[str]) -> Optional[str]:
        if isinstance(node, ast.Lambda):
            return "a lambda"
        if isinstance(node, ast.Name) and node.id in nested_functions:
            return f"closure {node.id}()"
        if isinstance(node, ast.Call):
            callee = _terminal_name(node.func)
            if callee == "Random":
                return "a live random.Random instance"
            if callee in _LOCK_FACTORIES:
                return f"a threading.{callee}"
        if isinstance(node, ast.Attribute) and _LOCKISH_NAME_RE.search(node.attr):
            return f"lock-like attribute .{node.attr}"
        return None
