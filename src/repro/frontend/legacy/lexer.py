"""Tokenizer for the behavioral mini-language.

The language is the SystemC subset the paper's tool consumes (Fig. 1):
modules with typed ports, threads, ``wait()`` state boundaries, do/while
loops, conditionals and integer arithmetic -- plus loop attributes
(``@latency``, ``@pipeline``) standing in for the tool's constraint files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.frontend.errors import FrontendError

KEYWORDS = {
    "module", "in", "out", "int", "uint", "thread", "do", "while", "if",
    "else", "wait", "repeat", "stall", "true", "false",
}

#: multi-character operators first so maximal munch works.
SYMBOLS = [
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "{", "}", ";", ",", "@",
]


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str       # 'ident' | 'number' | 'keyword' | symbol text | 'eof'
    text: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind!r}, {self.text!r}@{self.line}:{self.column})"


def tokenize(source: str) -> List[Token]:
    """Turn source text into a token list ending with an ``eof`` token."""
    tokens: List[Token] = []
    line, column = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end == -1 else end
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i)
            if end == -1:
                raise FrontendError("unterminated block comment", line, column)
            skipped = source[i:end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                column = len(skipped) - skipped.rfind("\n")
            else:
                column += len(skipped)
            i = end + 2
            continue
        if ch.isdigit():
            j = i
            if source.startswith("0x", i) or source.startswith("0X", i):
                j = i + 2
                while j < n and source[j] in "0123456789abcdefABCDEF":
                    j += 1
            else:
                while j < n and source[j].isdigit():
                    j += 1
            tokens.append(Token("number", source[i:j], line, column))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, column))
            column += j - i
            i = j
            continue
        for sym in SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(Token(sym, sym, line, column))
                column += len(sym)
                i += len(sym)
                break
        else:
            raise FrontendError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token("eof", "", line, column))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def peek(self, offset: int = 0) -> Token:
        """Look ahead without consuming."""
        idx = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def next(self) -> Token:
        """Consume and return the current token."""
        tok = self.peek()
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        """Consume the current token if it matches; else None."""
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        """Consume a required token or raise with position info."""
        tok = self.accept(kind, text)
        if tok is None:
            cur = self.peek()
            want = text or kind
            raise FrontendError(
                f"expected {want!r}, found {cur.text or cur.kind!r}",
                cur.line, cur.column)
        return tok

    @property
    def exhausted(self) -> bool:
        """Whether only the eof token remains."""
        return self.peek().kind == "eof"
