"""Intraprocedural determinism-taint dataflow.

The engine behind rules R9/R10.  It walks one function (or the module top
level) in statement order and tracks where *nondeterministic iteration
order* can flow.  Three taint kinds are distinguished:

* ``UNORDERED`` — a value that is an unordered collection (``set`` /
  ``frozenset`` literals and constructors, ``os.environ`` views,
  ``os.listdir`` / ``glob`` results, ``concurrent.futures.as_completed``
  streams).  Holding one is harmless: membership tests, ``len()``,
  ``sorted()`` are all deterministic.
* ``ORDERED`` — a value whose element *order* was materialised from an
  UNORDERED source (``list(s)``, a comprehension over ``s``, appends
  inside a ``for`` over ``s``, ``"".join(s)``, ``hash(tuple(s))``).  The
  arbitrary order is now baked into an ordered value that will reproduce
  differently across processes; it must never reach a result sink.
* ``IDKEYS`` — a container keyed by ``id(...)``.  Iteration is
  insertion-ordered (fine), but *sorting* it orders by memory address —
  ``sorted()`` over it is the violation rather than the sanitiser.

Each taint carries its full derivation path (source line → assignments →
materialisation), so a finding can show the whole source→sink chain.

The walk is deliberately simple: statements are processed in source
order, branches sequentially (a taint acquired in either branch
survives), nested functions are analysed independently, and calls are
never followed — the pass is intraprocedural by design.  Where the
engine cannot tell, it stays silent: findings must be actionable.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .context import FileContext


class TaintKind(enum.Enum):
    UNORDERED = "unordered"  # unordered collection; order not yet observed
    ORDERED = "ordered"  # arbitrary order materialised into a value
    IDKEYS = "idkeys"  # container keyed by id(); sorting it = addresses


@dataclass(frozen=True)
class TaintStep:
    """One hop of a taint derivation: what happened at which line."""

    line: int
    what: str

    def render(self) -> str:
        return f"{self.what} (line {self.line})"


@dataclass(frozen=True)
class Taint:
    """A tainted value: its kind plus the full derivation path."""

    kind: TaintKind
    steps: tuple[TaintStep, ...]

    def then(self, line: int, what: str, kind: TaintKind | None = None) -> "Taint":
        return Taint(
            kind=kind if kind is not None else self.kind,
            steps=self.steps + (TaintStep(line, what),),
        )

    def chain(self) -> str:
        """The human-facing source→sink path, e.g. ``set() (line 3) -> …``."""
        return " -> ".join(step.render() for step in self.steps)


@dataclass(frozen=True)
class TaintReach:
    """A tainted value arriving somewhere a rule cares about.

    ``sink`` encodes how it arrived: ``call:<name>`` (tainted argument to
    a sink call), ``loop-call:<name>`` (sink call, or a side-effect method
    call on anything but the loop element, issued once per iteration of a
    loop over unordered data), ``return`` (arbitrary order escapes the
    function, also by an early return from such a loop),
    ``attribute:<name>`` (an ordered value stored on an attribute),
    ``tie-break:<name>`` (``min``/``max`` with ``key=`` over unordered
    data), ``accumulation`` (float accumulation in arbitrary order — rule
    R10), ``sort-key`` (sort key reads a tainted name), or ``idkeys-sort``
    (sorting by memory address).
    """

    node: ast.AST  # anchor for the finding
    taint: Taint
    sink: str


#: Default result sinks: calls whose arguments become results, cache keys,
#: event order, or RNG streams.  Matched against the resolved dotted name
#: and its bare tail.
DEFAULT_SINKS = frozenset(
    {
        # fingerprints / cache keys / serialised results
        "canonical_json",
        "spec_json",
        "fingerprint",
        "sha256",
        "md5",
        "dumps",
        # metrics rows
        "as_row",
        "add_row",
        "record",
        "observe",
        # event/queue order
        "heappush",
        "schedule",
        "enqueue",
        "push",
        # RNG seeding
        "default_rng",
        "SeedSequence",
        "seed",
        "spawn",
    }
)

#: Call names (bare) that *produce* unordered collections.
_UNORDERED_CALLS = frozenset({"set", "frozenset"})
#: Dotted call chains producing filesystem/scheduling-ordered data.
_FS_ORDER_CALLS = frozenset(
    {
        "os.listdir",
        "os.scandir",
        "glob.glob",
        "glob.iglob",
        "concurrent.futures.as_completed",
        # wait() returns (done, not_done) *sets*; completion order leaks
        # into whatever a loop over them builds.
        "concurrent.futures.wait",
    }
)
#: Attribute-call tails with the same property (method form).
_FS_ORDER_METHODS = frozenset({"iterdir", "as_completed", "imap_unordered"})
#: Set methods whose result is still an unordered set.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
#: Dict/set view methods: carry the receiver's (un)orderedness.
_VIEW_METHODS = frozenset({"keys", "values", "items"})
#: Calls that consume a collection into an order-free scalar/bool.
_SANITIZERS = frozenset({"len", "any", "all", "bool", "min", "max", "sum", "fsum"})
#: Calls that materialise iteration order into an ordered value.
_MATERIALIZERS = frozenset({"list", "tuple", "reversed", "enumerate", "zip"})
#: Calls that propagate order-dependence into a scalar (hash of a tuple
#: built from a set differs run to run).
_PROPAGATORS = frozenset({"hash", "str", "repr"})
#: Accumulating calls checked by R10 (order-dependent float folds).
_ACCUMULATORS = frozenset({"sum", "fsum"})


def _call_name(ctx: FileContext, node: ast.Call) -> str | None:
    """Resolved dotted name of a call, falling back to the bare attr/name."""
    dotted = ctx.imports.resolve_call_chain(node.func)
    if dotted is not None:
        return dotted
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _is_environ(ctx: FileContext, node: ast.expr) -> bool:
    if isinstance(node, ast.Attribute) and node.attr == "environ":
        return True
    if isinstance(node, ast.Name):
        return ctx.imports.from_imports.get(node.id) == "os.environ"
    return False


def _target_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)


def _is_float_literalish(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    return False


class FunctionTaintAnalysis:
    """One flow-sensitive pass over one function body."""

    def __init__(
        self,
        ctx: FileContext,
        on_reach: Callable[[TaintReach], None],
        sinks: frozenset[str] = DEFAULT_SINKS,
    ) -> None:
        self.ctx = ctx
        self.on_reach = on_reach
        self.sinks = sinks
        self.env: dict[str, Taint] = {}
        #: Names with float-accumulator evidence (``acc = 0.0``).
        self.float_names: set[str] = set()
        #: Stack of taints of enclosing ``for`` loops over tainted iterables.
        self.loop_taints: list[Taint] = []
        #: Names bound by those loops (and loops nested in them): per-element
        #: values whose own method calls do not observe the visit order.
        self.loop_elements: list[set[str]] = []

    # -- expression evaluation ------------------------------------------------

    def taint_of(self, node: ast.expr) -> Taint | None:
        """Taint of an expression value, or None when clean/unknown."""
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, (ast.Set, ast.SetComp)):
            what = "set literal" if isinstance(node, ast.Set) else "set comprehension"
            return Taint(TaintKind.UNORDERED, (TaintStep(line, what),))
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            return self._comprehension_taint(node)
        if isinstance(node, ast.Call):
            return self._call_taint(node)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            for side in (node.left, node.right):
                side_taint = self.taint_of(side)
                if side_taint is not None and side_taint.kind is TaintKind.UNORDERED:
                    return side_taint.then(line, "combined by a set operator")
            return None
        if isinstance(node, ast.IfExp):
            return self.taint_of(node.body) or self.taint_of(node.orelse)
        if isinstance(node, ast.Starred):
            return self.taint_of(node.value)
        if isinstance(node, ast.Attribute) and _is_environ(self.ctx, node):
            return Taint(TaintKind.UNORDERED, (TaintStep(line, "os.environ"),))
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if not isinstance(value, ast.FormattedValue):
                    continue
                part_taint = self.taint_of(value.value)
                if part_taint is not None and part_taint.kind is TaintKind.ORDERED:
                    return part_taint.then(line, "interpolated into an f-string")
        return None

    def _order_taint(self, node: ast.expr) -> Taint | None:
        """Taint of *node* when iterating it visits elements in arbitrary order."""
        taint = self.taint_of(node)
        if taint is not None and taint.kind is not TaintKind.IDKEYS:
            return taint
        return None

    def _comprehension_taint(self, node: ast.expr) -> Taint | None:
        """A comprehension over a tainted iterable materialises its order."""
        assert isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp))
        for generator in node.generators:
            iter_taint = self._order_taint(generator.iter)
            if iter_taint is not None:
                shape = {
                    ast.ListComp: "list comprehension",
                    ast.GeneratorExp: "generator expression",
                    ast.DictComp: "dict comprehension",
                }[type(node)]
                return iter_taint.then(
                    node.lineno,
                    f"order materialised by a {shape} over it",
                    TaintKind.ORDERED,
                )
        return None

    def _call_taint(self, node: ast.Call) -> Taint | None:
        name = _call_name(self.ctx, node)
        line = node.lineno
        if name is None:
            return None
        bare = name.split(".")[-1]
        # Sources -------------------------------------------------------------
        if name in _FS_ORDER_CALLS or (
            isinstance(node.func, ast.Attribute) and bare in _FS_ORDER_METHODS
        ):
            return Taint(TaintKind.UNORDERED, (TaintStep(line, f"{bare}()"),))
        if bare in _UNORDERED_CALLS and isinstance(node.func, ast.Name):
            # set()/frozenset() of anything is unordered, whatever went in.
            return Taint(TaintKind.UNORDERED, (TaintStep(line, f"{bare}()"),))
        # Receiver-propagating methods ---------------------------------------
        if isinstance(node.func, ast.Attribute):
            receiver = self.taint_of(node.func.value)
            if receiver is not None:
                if bare in _SET_METHODS and receiver.kind is TaintKind.UNORDERED:
                    return receiver.then(line, f".{bare}() keeps it unordered")
                if bare in _VIEW_METHODS:
                    # Views of unordered data stay unordered; views of a
                    # dict *filled* in arbitrary order iterate in that
                    # arbitrary insertion order, so ORDERED carries too.
                    return receiver.then(line, f".{bare}() view", receiver.kind)
            if bare == "join" and node.args:
                arg_taint = self._order_taint(node.args[0])
                if arg_taint is not None:
                    return arg_taint.then(
                        line, "order materialised by str.join", TaintKind.ORDERED
                    )
        # Sanitizers, materialisers, propagators ------------------------------
        if bare == "sorted":
            return None  # sorted() is the sanitizer (IDKEYS handled at scan)
        if bare in _SANITIZERS:
            return None  # order-free scalar result (sum itself is R10's job)
        if bare in _MATERIALIZERS:
            for arg in node.args:
                arg_taint = self._order_taint(arg)
                if arg_taint is not None:
                    return arg_taint.then(
                        line, f"order materialised by {bare}()", TaintKind.ORDERED
                    )
            return None
        if bare in _PROPAGATORS:
            for arg in node.args:
                arg_taint = self._order_taint(arg)
                if arg_taint is not None:
                    return arg_taint.then(
                        line, f"order-dependent {bare}()", TaintKind.ORDERED
                    )
            return None
        return None

    # -- statement walk -------------------------------------------------------

    def run(self, body: Sequence[ast.stmt]) -> None:
        for statement in body:
            self.visit(statement)

    def visit(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are analysed independently
        if isinstance(node, ast.Assign):
            self._assign(node.targets, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._assign([node.target], node.value)
        elif isinstance(node, ast.AugAssign):
            self._aug_assign(node)
        elif isinstance(node, ast.Return) and node.value is not None:
            self._scan_calls(node.value)
            taint = self.taint_of(node.value)
            if taint is not None and taint.kind is TaintKind.ORDERED:
                self.on_reach(TaintReach(node, taint, "return"))
            elif self.loop_taints and not isinstance(node.value, ast.Constant):
                # The first element the arbitrary order visits wins.
                taint = self.loop_taints[-1].then(node.lineno, "returned from the loop")
                self.on_reach(TaintReach(node, taint, "return"))
        elif isinstance(node, ast.For):
            self._for_loop(node)
        elif isinstance(node, ast.While):
            self._scan_calls(node.test)
            self.run(node.body)
            self.run(node.orelse)
        elif isinstance(node, ast.If):
            self._scan_calls(node.test)
            self.run(node.body)
            self.run(node.orelse)
        elif isinstance(node, ast.With):
            for item in node.items:
                self._scan_calls(item.context_expr)
            self.run(node.body)
        elif isinstance(node, ast.Try):
            self.run(node.body)
            for handler in node.handlers:
                self.run(handler.body)
            self.run(node.orelse)
            self.run(node.finalbody)
        elif isinstance(node, ast.Expr):
            self._scan_calls(node.value)
            if self.loop_taints and isinstance(node.value, ast.Call):
                self._check_loop_side_effect(node.value)
        elif isinstance(node, ast.Raise):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._scan_calls(child)
            if isinstance(node.exc, ast.Call):
                # Exception text built from arbitrary iteration order makes
                # failure reports differ run to run — a debugging trap.
                for arg in node.exc.args:
                    taint = self.taint_of(arg)
                    if taint is not None and taint.kind is TaintKind.ORDERED:
                        self.on_reach(
                            TaintReach(
                                node.exc,
                                taint.then(node.lineno, "raised in an exception"),
                                "raise",
                            )
                        )
                        break
        elif isinstance(node, ast.Assert):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._scan_calls(child)

    def _assign(self, targets: Sequence[ast.expr], value: ast.expr) -> None:
        self._scan_calls(value)
        taint = self.taint_of(value)
        for target in targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and isinstance(target.slice, ast.Call)
                and isinstance(target.slice.func, ast.Name)
                and target.slice.func.id == "id"
            ):
                # d[id(x)] = … — the container is now keyed by addresses.
                self.env[target.value.id] = Taint(
                    TaintKind.IDKEYS,
                    (TaintStep(target.lineno, "container keyed by id()"),),
                )
                continue
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and self.loop_taints
            ):
                # Subscript stores inside a loop over unordered data bake
                # the loop's arbitrary order into the container.
                self.env[target.value.id] = self.loop_taints[-1].then(
                    target.lineno,
                    f"'{target.value.id}' filled in loop order",
                    TaintKind.ORDERED,
                )
                continue
            if (
                isinstance(target, ast.Attribute)
                and taint is not None
                and taint.kind is TaintKind.ORDERED
            ):
                self.on_reach(
                    TaintReach(
                        target,
                        taint.then(target.lineno, f"stored on '.{target.attr}'"),
                        f"attribute:{target.attr}",
                    )
                )
            for name in _target_names(target):
                if taint is not None:
                    self.env[name] = taint.then(value.lineno, f"assigned to '{name}'")
                else:
                    self.env.pop(name, None)
                    if _is_float_literalish(value):
                        self.float_names.add(name)

    def _aug_assign(self, node: ast.AugAssign) -> None:
        self._scan_calls(node.value)
        if not isinstance(node.target, ast.Name):
            return
        name = node.target.id
        if isinstance(node.op, ast.Add) and self.loop_taints and name in self.float_names:
            taint = self.loop_taints[-1].then(
                node.lineno, f"float accumulation into '{name}' in loop order"
            )
            self.on_reach(TaintReach(node, taint, "accumulation"))
        value_taint = self.taint_of(node.value)
        if value_taint is not None:
            self.env[name] = value_taint.then(node.lineno, f"merged into '{name}'")

    def _for_loop(self, node: ast.For) -> None:
        self._scan_calls(node.iter)
        iter_taint = self._order_taint(node.iter)
        if iter_taint is not None:
            self.loop_taints.append(iter_taint.then(node.lineno, "iterated by a for loop"))
        bound = bool(self.loop_taints)
        if bound:
            self.loop_elements.append(set(_target_names(node.target)))
        try:
            self.run(node.body)
            self.run(node.orelse)
        finally:
            if iter_taint is not None:
                self.loop_taints.pop()
            if bound:
                self.loop_elements.pop()

    # -- call scanning: sinks, accumulators, container mutations --------------

    def _is_sink(self, name: str) -> bool:
        return name in self.sinks or name.split(".")[-1] in self.sinks

    def _scan_calls(self, node: ast.expr) -> None:
        """Check embedded calls for sink reaches and taint side effects."""
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            name = _call_name(self.ctx, call)
            if name is None:
                continue
            bare = name.split(".")[-1]
            if bare in ("append", "extend") and isinstance(call.func, ast.Attribute):
                # list.append/extend inside a loop over unordered data bakes
                # the arbitrary iteration order into the list.
                if isinstance(call.func.value, ast.Name) and self.loop_taints:
                    target = call.func.value.id
                    self.env[target] = self.loop_taints[-1].then(
                        call.lineno,
                        f"'{target}'.{bare}() in loop order",
                        TaintKind.ORDERED,
                    )
            if bare in ("sorted", "min", "max") and call.args:
                arg_taint = self.taint_of(call.args[0])
                if arg_taint is not None and arg_taint.kind is TaintKind.IDKEYS:
                    self.on_reach(
                        TaintReach(
                            call,
                            arg_taint.then(call.lineno, f"{bare}() over id() keys"),
                            "idkeys-sort",
                        )
                    )
            if bare in ("sorted", "sort"):
                self._check_sort_key(call)
            if (
                bare in ("min", "max")
                and len(call.args) == 1
                and any(keyword.arg == "key" for keyword in call.keywords)
            ):
                arg_taint = self._order_taint(call.args[0])
                if arg_taint is not None:
                    # Ties under the key go to whichever element comes first.
                    self.on_reach(
                        TaintReach(
                            call.args[0],
                            arg_taint.then(call.lineno, f"{bare}(key=) tie-break"),
                            f"tie-break:{bare}",
                        )
                    )
            if bare in _ACCUMULATORS:
                for arg in call.args:
                    arg_taint = self._order_taint(arg)
                    if arg_taint is not None:
                        self.on_reach(
                            TaintReach(
                                call,
                                arg_taint.then(call.lineno, f"accumulated by {bare}()"),
                                "accumulation",
                            )
                        )
            if self._is_sink(name):
                self._check_sink_call(call, name)

    def _check_sort_key(self, call: ast.Call) -> None:
        """A sort key reading an ORDERED-tainted name makes the sort racy."""
        for keyword in call.keywords:
            if keyword.arg != "key" or not isinstance(keyword.value, ast.Lambda):
                continue
            for sub in ast.walk(keyword.value.body):
                if isinstance(sub, ast.Name) and sub.id in self.env:
                    taint = self.env[sub.id]
                    if taint.kind is TaintKind.ORDERED:
                        self.on_reach(
                            TaintReach(
                                call,
                                taint.then(call.lineno, "read by a sort key"),
                                "sort-key",
                            )
                        )
                        return

    def _check_loop_side_effect(self, call: ast.Call) -> None:
        """A method called for its effect, once per arbitrary-order element.

        Calls on the loop element itself (``future.result()``) and on
        unordered collections (``seen.add(x)``) cannot observe the order;
        sinks and ``append``/``extend`` are handled by :meth:`_scan_calls`.
        """
        if not isinstance(call.func, ast.Attribute):
            return
        bare = call.func.attr
        receiver: ast.expr = call.func
        while isinstance(receiver, (ast.Attribute, ast.Subscript, ast.Call)):
            receiver = receiver.func if isinstance(receiver, ast.Call) else receiver.value
        if not isinstance(receiver, ast.Name):
            return
        root = receiver.id
        receiver_taint = self.env.get(root)
        if (
            bare in ("append", "extend")
            or self._is_sink(bare)
            or any(root in names for names in self.loop_elements)
            or (receiver_taint is not None and receiver_taint.kind is TaintKind.UNORDERED)
        ):
            return
        self.on_reach(
            TaintReach(
                call,
                self.loop_taints[-1].then(
                    call.lineno, f"{root}.{bare}() called once per iteration"
                ),
                f"loop-call:{bare}",
            )
        )

    def _check_sink_call(self, call: ast.Call, name: str) -> None:
        bare = name.split(".")[-1]
        arguments = list(call.args) + [kw.value for kw in call.keywords]
        for arg in arguments:
            taint = self.taint_of(arg)
            if taint is not None and taint.kind is TaintKind.ORDERED:
                self.on_reach(
                    TaintReach(
                        call,
                        taint.then(call.lineno, f"reaches sink {bare}()"),
                        f"call:{bare}",
                    )
                )
                return
        if self.loop_taints:
            self.on_reach(
                TaintReach(
                    call,
                    self.loop_taints[-1].then(
                        call.lineno, f"sink {bare}() called once per iteration"
                    ),
                    f"loop-call:{bare}",
                )
            )


def iter_function_scopes(ctx: FileContext) -> Iterator[tuple[str, Sequence[ast.stmt]]]:
    """Every analysis scope of a file: the module body plus each function."""
    yield "<module>", ctx.tree.body
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.body


def analyze_taint(
    ctx: FileContext, sinks: frozenset[str] = DEFAULT_SINKS
) -> list[TaintReach]:
    """Run the taint pass over every scope of *ctx*; returns every reach."""
    reaches: list[TaintReach] = []
    for _name, body in iter_function_scopes(ctx):
        FunctionTaintAnalysis(ctx, reaches.append, sinks).run(body)
    reaches.sort(
        key=lambda r: (getattr(r.node, "lineno", 0), getattr(r.node, "col_offset", 0))
    )
    return reaches
