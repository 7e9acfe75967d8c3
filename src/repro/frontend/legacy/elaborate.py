"""Elaboration: AST -> schedulable regions.

This is the paper's elaboration + predicate-conversion front half: each
loop in a thread becomes a :class:`~repro.cdfg.region.Region`, variables
written across iterations become loop muxes, conditionals are fully
if-converted (branch operations carry predicates, divergent variable
versions merge through MUX operations), counted nested loops are
unrolled, and ``stall while`` markers survive to fold-back time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.cdfg.builder import RegionBuilder, Value
from repro.cdfg.ops import OpKind
from repro.cdfg.region import PipelineSpec, Region
from repro.frontend.legacy.astnodes import (
    AssignStmt,
    BinaryExpr,
    DeclStmt,
    DoWhileStmt,
    Expr,
    IfStmt,
    Module,
    NameExpr,
    NumberExpr,
    RepeatStmt,
    StallStmt,
    Stmt,
    Thread,
    UnaryExpr,
    WaitStmt,
)
from repro.frontend.errors import FrontendError

_BINARY_KINDS = {
    "+": OpKind.ADD, "-": OpKind.SUB, "*": OpKind.MUL, "/": OpKind.DIV,
    "%": OpKind.MOD, "<<": OpKind.SHL, ">>": OpKind.SHR,
    "&": OpKind.AND, "|": OpKind.OR, "^": OpKind.XOR,
    "<": OpKind.LT, ">": OpKind.GT, "<=": OpKind.LE, ">=": OpKind.GE,
    "==": OpKind.EQ, "!=": OpKind.NEQ,
    "&&": OpKind.AND, "||": OpKind.OR,
}

#: loops with at most this trip count unroll implicitly when nested.
_AUTO_UNROLL_LIMIT = 16


@dataclass
class ElaboratedLoop:
    """A region plus the pipelining directive its attributes requested."""

    region: Region
    pipeline: Optional[PipelineSpec]


def elaborate_module(module: Module) -> List[ElaboratedLoop]:
    """Elaborate every loop of every thread in a module."""
    loops: List[ElaboratedLoop] = []
    for thread in module.threads:
        loops.extend(_ThreadElaborator(module, thread).run())
    if not loops:
        raise FrontendError(f"module {module.name}: no loops to synthesize",
                            1, 1)
    return loops


def _collect_names(stmts: List[Stmt], reads: Set[str],
                   writes: Set[str]) -> None:
    for stmt in stmts:
        if isinstance(stmt, DeclStmt):
            if stmt.init is not None:
                _expr_names(stmt.init, reads)
        elif isinstance(stmt, AssignStmt):
            _expr_names(stmt.value, reads)
            writes.add(stmt.name)
        elif isinstance(stmt, IfStmt):
            _expr_names(stmt.cond, reads)
            _collect_names(stmt.then_body, reads, writes)
            _collect_names(stmt.else_body, reads, writes)
        elif isinstance(stmt, (DoWhileStmt, RepeatStmt)):
            if isinstance(stmt, DoWhileStmt):
                _expr_names(stmt.cond, reads)
            _collect_names(stmt.body, reads, writes)
        elif isinstance(stmt, StallStmt):
            _expr_names(stmt.cond, reads)


def _expr_names(expr: Optional[Expr], into: Set[str]) -> None:
    if expr is None:
        return
    if isinstance(expr, NameExpr):
        into.add(expr.name)
    elif isinstance(expr, UnaryExpr):
        _expr_names(expr.operand, into)
    elif isinstance(expr, BinaryExpr):
        _expr_names(expr.left, into)
        _expr_names(expr.right, into)


class _ThreadElaborator:
    """Walks one thread, producing a region per top-level loop."""

    def __init__(self, module: Module, thread: Thread) -> None:
        self.module = module
        self.thread = thread
        #: compile-time environment outside loops: name -> (width, value)
        self.static_env: Dict[str, Tuple[int, int]] = {}
        self.loops: List[ElaboratedLoop] = []

    def run(self) -> List[ElaboratedLoop]:
        """Process the thread body."""
        for stmt in self.thread.body:
            if isinstance(stmt, WaitStmt):
                continue
            if isinstance(stmt, DeclStmt):
                value = self._static_value(stmt.init, stmt)
                self.static_env[stmt.name] = (stmt.width, value)
            elif isinstance(stmt, AssignStmt):
                if stmt.name not in self.static_env:
                    raise FrontendError(
                        f"assignment to undeclared {stmt.name!r} outside "
                        f"a loop", stmt.line, stmt.column)
                width = self.static_env[stmt.name][0]
                self.static_env[stmt.name] = (
                    width, self._static_value(stmt.value, stmt))
            elif isinstance(stmt, (DoWhileStmt, RepeatStmt)):
                self.loops.append(self._elaborate_loop(stmt))
            else:
                raise FrontendError(
                    "only declarations, constant assignments, wait() and "
                    "loops are allowed outside loops",
                    stmt.line, stmt.column)
        return self.loops

    def _static_value(self, expr: Optional[Expr], stmt: Stmt) -> int:
        if expr is None:
            return 0
        if isinstance(expr, NumberExpr):
            return expr.value
        if isinstance(expr, NameExpr) and expr.name in self.static_env:
            return self.static_env[expr.name][1]
        if isinstance(expr, UnaryExpr) and expr.op == "-":
            return -self._static_value(expr.operand, stmt)
        raise FrontendError(
            "initializers outside loops must be compile-time constants",
            stmt.line, stmt.column)

    # ------------------------------------------------------------------
    def _elaborate_loop(self, loop: Stmt) -> ElaboratedLoop:
        index = len(self.loops)
        name = f"{self.module.name}_{self.thread.name}_loop{index}"
        builder = RegionBuilder(
            name, is_loop=True,
            min_latency=loop.min_latency, max_latency=loop.max_latency)
        walker = _LoopWalker(self.module, builder, self.static_env, loop)
        region = walker.elaborate()
        pipeline = (PipelineSpec(ii=loop.pipeline_ii)
                    if loop.pipeline_ii else None)
        return ElaboratedLoop(region=region, pipeline=pipeline)


class _LoopWalker:
    """Elaborates one loop body into a region builder."""

    def __init__(self, module: Module, builder: RegionBuilder,
                 static_env: Dict[str, Tuple[int, int]],
                 loop: Stmt) -> None:
        self.module = module
        self.b = builder
        self.loop = loop
        self.static_env = static_env
        self.env: Dict[str, Value] = {}
        self.widths: Dict[str, int] = {n: w for n, (w, _v) in
                                       static_env.items()}
        self.loop_vars: Dict[str, object] = {}
        self.port_reads: Dict[str, Value] = {}
        self.segment = 0

    # -- carried variable analysis -------------------------------------
    def _carried_names(self) -> List[str]:
        reads: Set[str] = set()
        writes: Set[str] = set()
        _collect_names(self.loop.body, reads, writes)
        if isinstance(self.loop, DoWhileStmt):
            _expr_names(self.loop.cond, reads)
        local_decls = {s.name for s in self.loop.body
                       if isinstance(s, DeclStmt)}
        carried = [n for n in sorted(writes)
                   if n in self.static_env and n not in local_decls
                   and n in reads]
        return carried

    def elaborate(self) -> Region:
        """Build the region for this loop."""
        for name in self._carried_names():
            width, init = self.static_env[name]
            lv = self.b.loop_var(name, self.b.const(init, width))
            self.loop_vars[name] = lv
            self.env[name] = lv.value
            self.widths[name] = width
        self._walk(self.loop.body)
        for name, lv in self.loop_vars.items():
            lv.set_next(self.env[name])
        if isinstance(self.loop, DoWhileStmt):
            cond = self._eval(self.loop.cond)
            self.b.exit_when_false(cond)
        else:
            self.b.set_trip_count(self.loop.count)
        self._prune_dead_loopmuxes()
        return self.b.build()

    def _prune_dead_loopmuxes(self) -> None:
        dfg = self.b.dfg
        for lv in list(self.loop_vars.values()):
            mux = lv.mux
            if not dfg.out_edges(mux.uid):
                for edge in list(dfg.in_edges(mux.uid)):
                    dfg.disconnect(edge)
                dfg.remove_op(mux)

    # -- statements ------------------------------------------------------
    def _walk(self, stmts: List[Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, DeclStmt):
                self.widths[stmt.name] = stmt.width
                value = (self._eval(stmt.init) if stmt.init is not None
                         else self.b.const(0, stmt.width))
                self.env[stmt.name] = value
            elif isinstance(stmt, AssignStmt):
                self._assign(stmt)
            elif isinstance(stmt, IfStmt):
                self._if(stmt)
            elif isinstance(stmt, WaitStmt):
                self.segment += 1
            elif isinstance(stmt, StallStmt):
                self.b.stall_on(self._eval(stmt.cond))
            elif isinstance(stmt, RepeatStmt):
                self._nested_repeat(stmt)
            elif isinstance(stmt, DoWhileStmt):
                raise FrontendError(
                    "nested do/while loops must be rewritten as repeat "
                    "(unrolled) or 'stall while' (pipeline stalling)",
                    stmt.line, stmt.column)
            else:
                raise FrontendError("unsupported statement in loop",
                                    stmt.line, stmt.column)

    def _nested_repeat(self, stmt: RepeatStmt) -> None:
        if not stmt.unroll and stmt.count > _AUTO_UNROLL_LIMIT:
            raise FrontendError(
                f"nested repeat({stmt.count}) too large to auto-unroll; "
                f"mark it @unroll(1) explicitly", stmt.line, stmt.column)
        for _ in range(stmt.count):
            self._walk(stmt.body)

    def _assign(self, stmt: AssignStmt) -> None:
        port = self.module.port(stmt.name)
        value = self._eval(stmt.value)
        if port is not None:
            if port.direction != "out":
                raise FrontendError(f"cannot assign input port {port.name!r}",
                                    stmt.line, stmt.column)
            self.b.write(port.name, value)
            return
        if stmt.name not in self.widths:
            raise FrontendError(f"assignment to undeclared {stmt.name!r}",
                                stmt.line, stmt.column)
        self.env[stmt.name] = value

    def _if(self, stmt: IfStmt) -> None:
        cond = self._eval(stmt.cond)
        base_env = dict(self.env)
        with self.b.under(cond, polarity=True):
            self._walk(stmt.then_body)
        then_env = self.env
        self.env = dict(base_env)
        with self.b.under(cond, polarity=False):
            self._walk(stmt.else_body)
        else_env = self.env
        merged = dict(base_env)
        changed = {n for n in then_env if then_env.get(n) is not base_env.get(n)}
        changed |= {n for n in else_env
                    if else_env.get(n) is not base_env.get(n)}
        for name in sorted(changed):
            t_val = then_env.get(name, base_env.get(name))
            f_val = else_env.get(name, base_env.get(name))
            if t_val is None or f_val is None:
                raise FrontendError(
                    f"{name!r} assigned in only one branch without a prior "
                    f"definition", stmt.line, stmt.column)
            if t_val is f_val:
                merged[name] = t_val
            else:
                merged[name] = self.b.mux(cond, t_val, f_val,
                                          name=f"{name}_sel")
        self.env = merged

    # -- expressions -----------------------------------------------------
    def _eval(self, expr: Optional[Expr]) -> Value:
        if expr is None:
            raise FrontendError("missing expression", 0, 0)
        if isinstance(expr, NumberExpr):
            width = max(expr.value.bit_length() + 1, 2)
            return self.b.const(expr.value, min(width, 64))
        if isinstance(expr, NameExpr):
            return self._name(expr)
        if isinstance(expr, UnaryExpr):
            operand = self._eval(expr.operand)
            if expr.op == "-":
                return self.b.sub(self.b.const(0, operand.width), operand)
            if expr.op == "~":
                return self.b.xor(operand,
                                  self.b.const(-1, operand.width))
            if expr.op == "!":
                return self.b.eq(operand, self.b.const(0, operand.width))
            raise FrontendError(f"unknown unary {expr.op!r}",
                                expr.line, expr.column)
        if isinstance(expr, BinaryExpr):
            left = self._eval(expr.left)
            right = self._eval(expr.right)
            kind = _BINARY_KINDS.get(expr.op)
            if kind is None:
                raise FrontendError(f"unknown operator {expr.op!r}",
                                    expr.line, expr.column)
            return self.b._binary(kind, left, right)
        raise FrontendError("unsupported expression", expr.line, expr.column)

    def _name(self, expr: NameExpr) -> Value:
        if expr.name in self.env:
            return self.env[expr.name]
        port = self.module.port(expr.name)
        if port is not None:
            if port.direction != "in":
                raise FrontendError(
                    f"cannot read output port {port.name!r}",
                    expr.line, expr.column)
            if port.name not in self.port_reads:
                pin = 0 if self.segment == 0 else None
                with self.b.unconditional():
                    self.port_reads[port.name] = self.b.read(
                        port.name, port.width, state=pin)
            return self.port_reads[port.name]
        if expr.name in self.static_env:
            width, value = self.static_env[expr.name]
            return self.b.const(value, width)
        raise FrontendError(f"unknown name {expr.name!r}",
                            expr.line, expr.column)
