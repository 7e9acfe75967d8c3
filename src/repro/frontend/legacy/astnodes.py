"""Abstract syntax of the behavioral mini-language."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class Expr:
    """Base class for expressions (line/column for diagnostics)."""

    line: int = 0
    column: int = 0


@dataclass
class NumberExpr(Expr):
    """Integer literal."""

    value: int = 0


@dataclass
class NameExpr(Expr):
    """Variable or port reference."""

    name: str = ""


@dataclass
class UnaryExpr(Expr):
    """Unary operator application (-, ~, !)."""

    op: str = ""
    operand: Optional[Expr] = None


@dataclass
class BinaryExpr(Expr):
    """Binary operator application."""

    op: str = ""
    left: Optional[Expr] = None
    right: Optional[Expr] = None


@dataclass
class Stmt:
    """Base class for statements."""

    line: int = 0
    column: int = 0


@dataclass
class DeclStmt(Stmt):
    """Local variable declaration: ``int<32> x = expr;``"""

    name: str = ""
    width: int = 32
    signed: bool = True
    init: Optional[Expr] = None


@dataclass
class AssignStmt(Stmt):
    """Assignment to a variable or an output port."""

    name: str = ""
    value: Optional[Expr] = None


@dataclass
class IfStmt(Stmt):
    """Conditional with optional else."""

    cond: Optional[Expr] = None
    then_body: List[Stmt] = field(default_factory=list)
    else_body: List[Stmt] = field(default_factory=list)


@dataclass
class WaitStmt(Stmt):
    """``wait();`` state boundary."""


@dataclass
class StallStmt(Stmt):
    """``stall while (expr);`` -- a stalling nested loop (section V)."""

    cond: Optional[Expr] = None


@dataclass
class DoWhileStmt(Stmt):
    """``do { body } while (cond);`` with optional attributes."""

    body: List[Stmt] = field(default_factory=list)
    cond: Optional[Expr] = None
    min_latency: int = 1
    max_latency: int = 64
    pipeline_ii: Optional[int] = None


@dataclass
class RepeatStmt(Stmt):
    """``repeat (N) { body }`` -- a counted loop."""

    count: int = 0
    body: List[Stmt] = field(default_factory=list)
    min_latency: int = 1
    max_latency: int = 64
    pipeline_ii: Optional[int] = None
    unroll: bool = False


@dataclass
class Port:
    """Module port declaration."""

    name: str = ""
    width: int = 32
    signed: bool = True
    direction: str = "in"


@dataclass
class Thread:
    """One SystemC-like thread: statements ending in (usually) a loop."""

    name: str = ""
    body: List[Stmt] = field(default_factory=list)


@dataclass
class Module:
    """A parsed module."""

    name: str = ""
    ports: List[Port] = field(default_factory=list)
    threads: List[Thread] = field(default_factory=list)

    def port(self, name: str) -> Optional[Port]:
        """Look up a port by name."""
        for port in self.ports:
            if port.name == name:
                return port
        return None
