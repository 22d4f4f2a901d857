"""Determinism linter: nondeterminism hazards in simulation-path modules.

The repo's core guarantees — slicing-invariant replay (journal digests),
sharded ``==`` serial sweeps, seeded netem drop draws — all reduce to one
invariant: *nothing on the simulation path may read ambient entropy*.
Wall clocks, the process-salted :func:`hash`, the global :mod:`random`
RNG and hash-ordered ``set`` iteration are exactly the ambient sources,
and every one of them has bitten (or been designed around) before:
``derive_seed`` exists because ``hash()`` is salted per interpreter, and
netem drop draws use ``random.Random(seed ^ crc32(name))`` for the same
reason.  This pass makes the invariant cheap and local instead of relying
on the runtime differentials to catch a violation after the fact.

Rules (all severity ``error`` unless noted):

``det-wallclock``
    A wall-clock read — ``time.time()`` / ``perf_counter()`` /
    ``monotonic()`` (+ ``_ns`` variants), ``datetime.now()`` /
    ``utcnow()`` / ``today()`` — outside the allowlists.  Wall accounting
    goes through :class:`repro.telemetry.Stopwatch`; any other read that
    must stay carries ``# sgml: lint-ok[det-wallclock]``.
``det-unseeded-random``
    The process-global RNG (``random.random()``, ``random.choice()``, …)
    or an argument-less ``random.Random()``.  Seeded constructions
    (``random.Random(seed)``) pass.
``det-builtin-hash``
    Builtin ``hash()`` anywhere outside a ``__hash__`` method — its salt
    changes per interpreter, so any seed/ordering derived from it breaks
    the serial == sharded contract.  Use
    :func:`repro.scenario.sharding.stable_hash` / ``derive_seed``.
``det-set-iteration`` (warning)
    Iterating a ``set`` in an order-sensitive context (``for`` loops,
    list/generator/dict comprehensions, ``list()`` / ``tuple()`` /
    ``enumerate()``) — set order follows the per-process string hash
    salt, so anything it feeds (event scheduling, aggregation order)
    diverges across processes.  ``sorted(the_set)`` is the usual fix;
    order-insensitive consumers (``len``, ``min``, ``any``, set algebra,
    set comprehensions) are not flagged.
``det-journal-unflushed``
    In journal modules only: a function that ``.write()``\\ s to a handle
    without ever flushing (``.flush()`` / ``os.fsync``).  The write-ahead
    contract is append-*durable*-before-apply; a buffered write that dies
    with the process silently breaks replay.

The **pacing allowlist**: modules under ``repro/service/`` (session
pacing, retry jitter, supervision backoff — the wall-clock-facing layer
by design) are exempt from the wallclock/random rules; the journal-flush
rule still applies to the recovery module.  The exact module path
``repro/telemetry.py`` is exempt from ``det-wallclock`` only.  Benchmarks
and scripts live outside ``src/repro`` and are never walked.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.findings import Finding, make_finding

#: Module path prefixes forming the pacing/bench allowlist (see module doc).
PACING_PREFIXES = ("repro/service/",)

#: The one module (an exact path) that reads the wall clock for accounting.
WALL_ACCOUNTING_MODULE = "repro/telemetry.py"

#: Functions on the ``time`` module that read a wall clock.
_TIME_FUNCS = frozenset({
    "time", "time_ns",
    "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns",
    "clock", "clock_gettime", "localtime", "gmtime",
})

#: Wall-clock class methods on datetime/date objects.
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: ``random.<fn>`` calls that draw from the process-global RNG.
_GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "lognormvariate", "getrandbits", "randbytes",
})

#: Builtins that consume an iterable without depending on its order.
_ORDER_INSENSITIVE = frozenset({
    "len", "min", "max", "any", "all", "set", "frozenset", "sorted",
})

#: Builtins that materialize iteration order.
_ORDER_MATERIALIZING = frozenset({"list", "tuple", "enumerate", "iter"})


def in_pacing_allowlist(module: str) -> bool:
    return module.startswith(PACING_PREFIXES)


def is_journal_module(module: str) -> bool:
    name = module.rsplit("/", 1)[-1]
    return "recovery" in name or "journal" in name


class _ImportMap:
    """Aliases under which hazard modules/functions are visible."""

    def __init__(self, tree: ast.AST) -> None:
        #: names bound to the ``time`` module (``import time as _wallclock``)
        self.time_modules: set[str] = set()
        #: names bound to the ``datetime`` module
        self.datetime_modules: set[str] = set()
        #: names bound to the ``random`` module
        self.random_modules: set[str] = set()
        #: names bound to the datetime/date *classes*
        self.datetime_classes: set[str] = set()
        #: direct name -> time function (``from time import perf_counter``)
        self.time_names: dict[str, str] = {}
        #: direct name -> random function (``from random import choice``)
        self.random_names: dict[str, str] = {}
        #: names bound to random.Random (``from random import Random``)
        self.random_classes: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "time":
                        self.time_modules.add(bound)
                    elif alias.name == "datetime":
                        self.datetime_modules.add(bound)
                    elif alias.name == "random":
                        self.random_modules.add(bound)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _TIME_FUNCS:
                            self.time_names[alias.asname or alias.name] = (
                                alias.name
                            )
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            self.datetime_classes.add(
                                alias.asname or alias.name
                            )
                elif node.module == "random":
                    for alias in node.names:
                        if alias.name in _GLOBAL_RANDOM_FUNCS:
                            self.random_names[alias.asname or alias.name] = (
                                alias.name
                            )
                        elif alias.name == "Random":
                            self.random_classes.add(alias.asname or alias.name)


def _context_line(lines: list[str], lineno: int) -> str:
    if 1 <= lineno <= len(lines):
        return lines[lineno - 1].strip()
    return ""


def check_determinism(
    module: str, tree: ast.AST, lines: list[str]
) -> list[Finding]:
    """Run every determinism rule over one parsed module."""
    findings: list[Finding] = []
    imports = _ImportMap(tree)
    allowlisted = in_pacing_allowlist(module)

    def emit(rule: str, message: str, node: ast.AST, *, severity="error",
             hint: str = "") -> None:
        findings.append(make_finding(
            rule, message,
            path=module,
            line=getattr(node, "lineno", 0),
            severity=severity,
            hint=hint,
            context=_context_line(lines, getattr(node, "lineno", 0)),
        ))

    if not allowlisted:
        if module != WALL_ACCOUNTING_MODULE:
            _check_wallclock(emit, tree, imports)
        _check_random(emit, tree, imports)
        _check_builtin_hash(emit, tree)
        _check_set_iteration(emit, tree)
    if is_journal_module(module):
        _check_journal_flush(emit, tree)
    return findings


# ---------------------------------------------------------------------------
# det-wallclock
# ---------------------------------------------------------------------------


def _check_wallclock(emit, tree: ast.AST, imports: _ImportMap) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        described: Optional[str] = None
        if isinstance(func, ast.Attribute):
            owner = func.value
            if (
                isinstance(owner, ast.Name)
                and owner.id in imports.time_modules
                and func.attr in _TIME_FUNCS
            ):
                described = f"time.{func.attr}()"
            elif (
                isinstance(owner, ast.Name)
                and owner.id in imports.datetime_classes
                and func.attr in _DATETIME_FUNCS
            ):
                described = f"datetime.{func.attr}()"
            elif (
                isinstance(owner, ast.Attribute)
                and isinstance(owner.value, ast.Name)
                and owner.value.id in imports.datetime_modules
                and owner.attr in ("datetime", "date")
                and func.attr in _DATETIME_FUNCS
            ):
                described = f"datetime.{owner.attr}.{func.attr}()"
        elif isinstance(func, ast.Name) and func.id in imports.time_names:
            described = f"time.{imports.time_names[func.id]}()"
        if described is not None:
            emit(
                "det-wallclock",
                f"wall-clock read {described} on the simulation path",
                node,
                hint=(
                    "simulation code must derive time from Simulator.now; "
                    "wall accounting goes through repro.telemetry.Stopwatch "
                    "(anything else needs a reviewed inline "
                    "'sgml: lint-ok[det-wallclock]' annotation)"
                ),
            )


# ---------------------------------------------------------------------------
# det-unseeded-random
# ---------------------------------------------------------------------------


def _check_random(emit, tree: ast.AST, imports: _ImportMap) -> None:
    hint = (
        "use a seeded random.Random(derive_seed(...)) instance; the global "
        "RNG's state is shared, unseeded and irreproducible"
    )
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in imports.random_modules
        ):
            if func.attr in _GLOBAL_RANDOM_FUNCS or func.attr == "seed":
                emit(
                    "det-unseeded-random",
                    f"process-global RNG call random.{func.attr}() on the "
                    f"simulation path",
                    node,
                    hint=hint,
                )
            elif func.attr == "Random" and not node.args and not node.keywords:
                emit(
                    "det-unseeded-random",
                    "unseeded random.Random() seeds itself from the OS",
                    node,
                    hint=hint,
                )
        elif isinstance(func, ast.Name):
            if func.id in imports.random_names:
                emit(
                    "det-unseeded-random",
                    f"process-global RNG call "
                    f"random.{imports.random_names[func.id]}() on the "
                    f"simulation path",
                    node,
                    hint=hint,
                )
            elif (
                func.id in imports.random_classes
                and not node.args
                and not node.keywords
            ):
                emit(
                    "det-unseeded-random",
                    "unseeded random.Random() seeds itself from the OS",
                    node,
                    hint=hint,
                )


# ---------------------------------------------------------------------------
# det-builtin-hash
# ---------------------------------------------------------------------------


def _check_builtin_hash(emit, tree: ast.AST) -> None:
    #: hash() inside __hash__ is the one legitimate spelling (delegation).
    hash_methods: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__hash__":
            for child in ast.walk(node):
                hash_methods.add(id(child))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash"
            and id(node) not in hash_methods
        ):
            emit(
                "det-builtin-hash",
                "builtin hash() is salted per interpreter process",
                node,
                hint=(
                    "derive seeds/orderings with repro.scenario.sharding."
                    "stable_hash / derive_seed (SHA-256, process-stable)"
                ),
            )


# ---------------------------------------------------------------------------
# det-set-iteration
# ---------------------------------------------------------------------------


def _definitely_set(node: ast.AST, set_names: set[str]) -> bool:
    """Conservatively: is this expression certainly a ``set``?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "intersection", "union", "difference", "symmetric_difference",
        ):
            return _definitely_set(func.value, set_names)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _definitely_set(node.left, set_names) or _definitely_set(
            node.right, set_names
        )
    return False


def _check_set_iteration(emit, tree: ast.AST) -> None:
    hint = (
        "set order follows the per-process hash salt; iterate "
        "sorted(the_set) (or consume it order-insensitively)"
    )

    def scope_nodes(scope: ast.AST):
        """Nodes in this scope only — no descent into nested functions."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def check_scope(scope: ast.AST) -> None:
        # Names assigned a definitely-set value anywhere in this scope.
        set_names: set[str] = set()
        for node in scope_nodes(scope):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if value is None or not _definitely_set(value, set_names):
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        set_names.add(target.id)
        for node in scope_nodes(scope):
            if isinstance(node, ast.For) and _definitely_set(
                node.iter, set_names
            ):
                emit(
                    "det-set-iteration",
                    "for-loop over a set: iteration order is "
                    "hash-salt-dependent",
                    node, severity="warning", hint=hint,
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                for comp in node.generators:
                    if _definitely_set(comp.iter, set_names):
                        emit(
                            "det-set-iteration",
                            "comprehension over a set materializes "
                            "hash-salt-dependent order",
                            node, severity="warning", hint=hint,
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_MATERIALIZING
                and node.args
                and _definitely_set(node.args[0], set_names)
            ):
                emit(
                    "det-set-iteration",
                    f"{node.func.id}() over a set materializes "
                    f"hash-salt-dependent order",
                    node, severity="warning", hint=hint,
                )

    # Per-scope analysis: module level plus each function body, so local
    # set assignments only taint names inside their own function.
    check_scope(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            check_scope(node)


# ---------------------------------------------------------------------------
# det-journal-unflushed
# ---------------------------------------------------------------------------


def _check_journal_flush(emit, tree: ast.AST) -> None:
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        writes: list[ast.Call] = []
        flushed = False
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute):
                if node.func.attr == "write":
                    writes.append(node)
                elif node.func.attr in ("flush", "fsync"):
                    flushed = True
            elif isinstance(node.func, ast.Name) and node.func.id == "fsync":
                flushed = True
        if writes and not flushed:
            for write in writes:
                emit(
                    "det-journal-unflushed",
                    f"journal function {func.name}() writes without ever "
                    f"flushing",
                    write,
                    hint=(
                        "the write-ahead contract is flush-before-apply; "
                        "call .flush() (and batch fsync) in the same "
                        "function or route through SessionJournal.append"
                    ),
                )
