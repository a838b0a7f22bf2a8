"""Composable graph expressions and their text syntax.

A GraphSpec names a graph symbolically: leaves are K_r, C_l, K_{a,b}, the
Turan graph T_r(n) and the edgeless graph; combinators are join, disjoint
union, k-fold copies and single-vertex deletion.  `GraphSpec.build` evaluates
a spec with the `graphs` constructors, which check every size and parameter;
a value they refuse is a SpecError naming the expression.  The parser refuses
an expression nesting more than MAX_DEPTH combinators deep.

Text forms accepted by the CLI:

    K5      C7      K2,3      E4      T(9,3)
    2*C5    join(K1, T(8,2))    union(K3, C4)    del(K4, 0)
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import graphs
from .graphs import Graph


class SpecError(ValueError):
    pass


class GraphSpec:
    """Base class for graph expressions."""

    def build(self) -> Graph:
        """Evaluate the expression.  The `graphs` constructors check every
        size and parameter; what they refuse is a SpecError naming it."""
        try:
            return self._build()
        except ValueError as err:
            raise SpecError(f"{self}: {err}") from err

    def _build(self) -> Graph:
        raise NotImplementedError


@dataclass(frozen=True)
class Complete(GraphSpec):
    r: int

    def _build(self) -> Graph:
        return graphs.complete(self.r)

    def __str__(self) -> str:
        return f"K{self.r}"


@dataclass(frozen=True)
class Cycle(GraphSpec):
    l: int

    def _build(self) -> Graph:
        return graphs.cycle(self.l)

    def __str__(self) -> str:
        return f"C{self.l}"


@dataclass(frozen=True)
class CompleteBipartite(GraphSpec):
    a: int
    b: int

    def _build(self) -> Graph:
        return graphs.complete_bipartite(self.a, self.b)

    def __str__(self) -> str:
        return f"K{self.a},{self.b}"


@dataclass(frozen=True)
class Turan(GraphSpec):
    n: int
    r: int

    def _build(self) -> Graph:
        return graphs.turan(self.n, self.r)

    def __str__(self) -> str:
        return f"T({self.n},{self.r})"


@dataclass(frozen=True)
class Empty(GraphSpec):
    n: int

    def _build(self) -> Graph:
        return graphs.empty_graph(self.n)

    def __str__(self) -> str:
        return f"E{self.n}"


@dataclass(frozen=True)
class Join(GraphSpec):
    left: GraphSpec
    right: GraphSpec

    def _build(self) -> Graph:
        return graphs.join(self.left._build(), self.right._build())

    def __str__(self) -> str:
        return f"join({self.left}, {self.right})"


@dataclass(frozen=True)
class DisjointUnion(GraphSpec):
    left: GraphSpec
    right: GraphSpec

    def _build(self) -> Graph:
        return graphs.disjoint_union(self.left._build(), self.right._build())

    def __str__(self) -> str:
        return f"union({self.left}, {self.right})"


@dataclass(frozen=True)
class Copies(GraphSpec):
    k: int
    spec: GraphSpec

    def _build(self) -> Graph:
        return graphs.copies(self.k, self.spec._build())

    def __str__(self) -> str:
        return f"{self.k}*{self.spec}"


@dataclass(frozen=True)
class DeleteVertex(GraphSpec):
    spec: GraphSpec
    v: int

    def _build(self) -> Graph:
        return graphs.delete_vertex(self.spec._build(), self.v)

    def __str__(self) -> str:
        return f"del({self.spec}, {self.v})"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<kab>K(\d+),(\d+))"
    r"|(?P<complete>K(\d+))"
    r"|(?P<cycle>C(\d+))"
    r"|(?P<empty>E(\d+))"
    r"|(?P<name>join|union|del|T)"
    r"|(?P<int>\d+)"
    r"|(?P<punct>[(),*])"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].strip()
            if not rest:
                break
            raise SpecError(f"cannot parse graph spec at {rest!r}")
        pos = m.end()
        if m.lastgroup == "kab":
            tokens.append(("kab", (int(m.group(2)), int(m.group(3)))))
        elif m.lastgroup == "complete":
            tokens.append(("complete", int(m.group(5))))
        elif m.lastgroup == "cycle":
            tokens.append(("cycle", int(m.group(7))))
        elif m.lastgroup == "empty":
            tokens.append(("empty", int(m.group(9))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        elif m.lastgroup == "int":
            tokens.append(("int", int(m.group("int"))))
        else:
            tokens.append((m.group("punct"), m.group("punct")))
    return tokens


# The most combinators (join, union, del, k*) an expression may nest, one
# inside another.  The parser and `build` recurse once per level, so a
# deeper expression is refused before it could exhaust Python's stack.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, tokens: list[tuple[str, object]], text: str):
        self.tokens = tokens
        self.pos = 0
        self.text = text

    def peek(self) -> tuple[str, object] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, object]:
        tok = self.peek()
        if tok is None:
            raise SpecError(f"unexpected end of spec in {self.text!r}")
        self.pos += 1
        return tok

    def expect(self, kind: str) -> object:
        tok = self.next()
        if tok[0] != kind:
            raise SpecError(f"expected {kind!r}, got {tok[1]!r} in {self.text!r}")
        return tok[1]

    def parse_spec(self, depth: int = 0) -> GraphSpec:
        """An expression inside `depth` combinators."""
        if depth > MAX_DEPTH:
            raise SpecError(f"graph spec nests more than {MAX_DEPTH} "
                            f"combinators deep")
        tok = self.peek()
        if tok is None:
            raise SpecError(f"empty graph spec in {self.text!r}")
        if tok[0] == "int":
            k = int(self.next()[1])  # type: ignore[arg-type]
            self.expect("*")
            return Copies(k, self.parse_spec(depth + 1))
        return self.parse_atom(depth)

    def parse_atom(self, depth: int) -> GraphSpec:
        kind, value = self.next()
        if kind == "kab":
            a, b = value  # type: ignore[misc]
            return CompleteBipartite(a, b)
        if kind == "complete":
            return Complete(int(value))  # type: ignore[arg-type]
        if kind == "cycle":
            return Cycle(int(value))  # type: ignore[arg-type]
        if kind == "empty":
            return Empty(int(value))  # type: ignore[arg-type]
        if kind == "name":
            self.expect("(")
            if value == "T":
                n = int(self.expect("int"))  # type: ignore[arg-type]
                self.expect(",")
                r = int(self.expect("int"))  # type: ignore[arg-type]
                self.expect(")")
                return Turan(n, r)
            left = self.parse_spec(depth + 1)
            self.expect(",")
            if value == "del":
                v = int(self.expect("int"))  # type: ignore[arg-type]
                self.expect(")")
                return DeleteVertex(left, v)
            right = self.parse_spec(depth + 1)
            self.expect(")")
            if value == "join":
                return Join(left, right)
            return DisjointUnion(left, right)
        raise SpecError(f"unexpected token {value!r} in {self.text!r}")


def parse_spec(text: str) -> GraphSpec:
    """Parse a single graph expression."""
    parser = _Parser(_tokenize(text), text)
    spec = parser.parse_spec()
    tok = parser.peek()
    if tok is not None:
        raise SpecError(f"trailing input {tok[1]!r} in {text!r}")
    return spec


def parse_spec_list(text: str) -> list[GraphSpec]:
    """Parse a comma-separated list of graph expressions.

    The bipartite form K2,3 binds its comma, so `K3,K2,3` parses as two specs.
    """
    parser = _Parser(_tokenize(text), text)
    specs = [parser.parse_spec()]
    while parser.peek() is not None:
        if parser.peek()[0] != ",":  # type: ignore[index]
            raise SpecError(f"expected ',' between specs in {text!r}")
        parser.next()
        specs.append(parser.parse_spec())
    return specs
