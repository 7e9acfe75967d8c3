"""Recursive-descent parser for the behavioral mini-language.

Grammar (informal)::

    module    := 'module' IDENT '{' port* thread* '}'
    port      := ('in'|'out') type namelist ';'
    type      := ('int'|'uint') ['<' NUMBER '>']
    thread    := 'thread' IDENT '{' stmt* '}'
    stmt      := decl | assign | if | wait | loop | stall
    decl      := type IDENT ['=' expr] ';'
    assign    := IDENT '=' expr ';'
    if        := 'if' '(' expr ')' block ['else' (block | if)]
    wait      := 'wait' '(' ')' ';'
    stall     := 'stall' 'while' '(' expr ')' ';'
    loop      := attr* ('do' block 'while' '(' expr ')' ';'
                        | 'repeat' '(' NUMBER ')' block)
    attr      := '@' IDENT '(' NUMBER [',' NUMBER] ')'
    expr      := precedence-climbing over || && | ^ & ==/!= </<=/>/>=
                 <</>> +- */ /% and unary -~!
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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
    Port,
    RepeatStmt,
    StallStmt,
    Stmt,
    Thread,
    UnaryExpr,
    WaitStmt,
)
from repro.frontend.legacy.lexer import FrontendError, TokenStream, tokenize

#: binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1, "&&": 2,
    "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


class Parser:
    """Parses one source text into a list of modules."""

    def __init__(self, source: str) -> None:
        self.ts = TokenStream(tokenize(source))

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------
    def parse(self) -> List[Module]:
        """Parse all modules in the source."""
        modules: List[Module] = []
        while not self.ts.exhausted:
            modules.append(self._module())
        if not modules:
            tok = self.ts.peek()
            raise FrontendError("no module found", tok.line, tok.column)
        return modules

    def _module(self) -> Module:
        self.ts.expect("keyword", "module")
        name = self.ts.expect("ident").text
        self.ts.expect("{")
        module = Module(name=name)
        while self.ts.peek().kind == "keyword" \
                and self.ts.peek().text in ("in", "out"):
            module.ports.extend(self._ports())
        while self.ts.accept("keyword", "thread"):
            module.threads.append(self._thread())
        self.ts.expect("}")
        return module

    def _ports(self) -> List[Port]:
        direction = self.ts.next().text
        width, signed = self._type()
        ports = [Port(name=self.ts.expect("ident").text, width=width,
                      signed=signed, direction=direction)]
        while self.ts.accept(","):
            ports.append(Port(name=self.ts.expect("ident").text,
                              width=width, signed=signed,
                              direction=direction))
        self.ts.expect(";")
        return ports

    def _type(self) -> Tuple[int, bool]:
        tok = self.ts.peek()
        if tok.kind != "keyword" or tok.text not in ("int", "uint"):
            raise FrontendError("expected a type", tok.line, tok.column)
        self.ts.next()
        signed = tok.text == "int"
        width = 32
        if self.ts.accept("<"):
            width = self._number()
            self.ts.expect(">")
        if not 1 <= width <= 64:
            raise FrontendError(f"width {width} out of range 1..64",
                                tok.line, tok.column)
        return width, signed

    def _number(self) -> int:
        tok = self.ts.expect("number")
        return int(tok.text, 0)

    def _thread(self) -> Thread:
        name = self.ts.expect("ident").text
        body = self._block()
        return Thread(name=name, body=body)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _block(self) -> List[Stmt]:
        self.ts.expect("{")
        stmts: List[Stmt] = []
        while not self.ts.accept("}"):
            stmts.append(self._statement())
        return stmts

    def _statement(self) -> Stmt:
        tok = self.ts.peek()
        if tok.kind == "@" or (tok.kind == "keyword"
                               and tok.text in ("do", "repeat")):
            return self._loop()
        if tok.kind == "keyword" and tok.text in ("int", "uint"):
            return self._decl()
        if tok.kind == "keyword" and tok.text == "if":
            return self._if()
        if tok.kind == "keyword" and tok.text == "wait":
            self.ts.next()
            self.ts.expect("(")
            self.ts.expect(")")
            self.ts.expect(";")
            return WaitStmt(line=tok.line, column=tok.column)
        if tok.kind == "keyword" and tok.text == "stall":
            self.ts.next()
            self.ts.expect("keyword", "while")
            self.ts.expect("(")
            cond = self._expr()
            self.ts.expect(")")
            self.ts.expect(";")
            return StallStmt(line=tok.line, column=tok.column, cond=cond)
        if tok.kind == "ident":
            name = self.ts.next().text
            self.ts.expect("=")
            value = self._expr()
            self.ts.expect(";")
            return AssignStmt(line=tok.line, column=tok.column,
                              name=name, value=value)
        raise FrontendError(f"unexpected token {tok.text or tok.kind!r}",
                            tok.line, tok.column)

    def _decl(self) -> DeclStmt:
        tok = self.ts.peek()
        width, signed = self._type()
        name = self.ts.expect("ident").text
        init: Optional[Expr] = None
        if self.ts.accept("="):
            init = self._expr()
        self.ts.expect(";")
        return DeclStmt(line=tok.line, column=tok.column, name=name,
                        width=width, signed=signed, init=init)

    def _if(self) -> IfStmt:
        tok = self.ts.expect("keyword", "if")
        self.ts.expect("(")
        cond = self._expr()
        self.ts.expect(")")
        then_body = self._block()
        else_body: List[Stmt] = []
        if self.ts.accept("keyword", "else"):
            if self.ts.peek().text == "if":
                else_body = [self._if()]
            else:
                else_body = self._block()
        return IfStmt(line=tok.line, column=tok.column, cond=cond,
                      then_body=then_body, else_body=else_body)

    def _loop(self) -> Stmt:
        attrs = {}
        while self.ts.accept("@"):
            name = self.ts.expect("ident").text
            self.ts.expect("(")
            first = self._number()
            second: Optional[int] = None
            if self.ts.accept(","):
                second = self._number()
            self.ts.expect(")")
            attrs[name] = (first, second)
        tok = self.ts.peek()
        min_lat, max_lat = 1, 64
        if "latency" in attrs:
            lo, hi = attrs["latency"]
            min_lat, max_lat = lo, (hi if hi is not None else lo)
        ii = attrs.get("pipeline", (None, None))[0]
        if self.ts.accept("keyword", "do"):
            body = self._block()
            self.ts.expect("keyword", "while")
            self.ts.expect("(")
            cond = self._expr()
            self.ts.expect(")")
            self.ts.expect(";")
            return DoWhileStmt(line=tok.line, column=tok.column, body=body,
                               cond=cond, min_latency=min_lat,
                               max_latency=max_lat, pipeline_ii=ii)
        if self.ts.accept("keyword", "repeat"):
            self.ts.expect("(")
            count = self._number()
            self.ts.expect(")")
            body = self._block()
            return RepeatStmt(line=tok.line, column=tok.column, count=count,
                              body=body, min_latency=min_lat,
                              max_latency=max_lat, pipeline_ii=ii,
                              unroll="unroll" in attrs)
        raise FrontendError("expected 'do' or 'repeat' after attributes",
                            tok.line, tok.column)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _expr(self, min_prec: int = 1) -> Expr:
        left = self._unary()
        while True:
            tok = self.ts.peek()
            prec = _PRECEDENCE.get(tok.kind)
            if prec is None or prec < min_prec:
                return left
            self.ts.next()
            right = self._expr(prec + 1)
            left = BinaryExpr(line=tok.line, column=tok.column,
                              op=tok.kind, left=left, right=right)

    def _unary(self) -> Expr:
        tok = self.ts.peek()
        if tok.kind in ("-", "~", "!"):
            self.ts.next()
            return UnaryExpr(line=tok.line, column=tok.column, op=tok.kind,
                             operand=self._unary())
        return self._primary()

    def _primary(self) -> Expr:
        tok = self.ts.next()
        if tok.kind == "number":
            return NumberExpr(line=tok.line, column=tok.column,
                              value=int(tok.text, 0))
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            return NumberExpr(line=tok.line, column=tok.column,
                              value=int(tok.text == "true"))
        if tok.kind == "ident":
            return NameExpr(line=tok.line, column=tok.column, name=tok.text)
        if tok.kind == "(":
            inner = self._expr()
            self.ts.expect(")")
            return inner
        raise FrontendError(f"unexpected token {tok.text or tok.kind!r} "
                            f"in expression", tok.line, tok.column)


def parse_source(source: str) -> List[Module]:
    """Parse source text into modules."""
    return Parser(source).parse()
