"""Composable graph expressions and their text syntax.

A GraphSpec names a graph symbolically: leaves are K_r, C_l, K_{a,b}, the
Turan graph T_r(n) and the edgeless graph; combinators are join, disjoint
union, k-fold copies and single-vertex deletion.  `GraphSpec.build` evaluates
a spec to a Graph, validating leaf parameters and the 64-vertex cap.

Text forms accepted by the CLI:

    K5      C7      K2,3      E4      T(9,3)
    2*C5    join(K1, T(8,2))    union(K3, C4)    del(K4, 0)
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import graphs
from .graphs import Graph, MAX_VERTICES


class SpecError(ValueError):
    pass


class GraphSpec:
    """Base class for graph expressions."""

    def vertex_count(self) -> int:
        raise NotImplementedError

    def build(self) -> Graph:
        if self.vertex_count() > MAX_VERTICES:
            raise SpecError(f"{self} has {self.vertex_count()} > {MAX_VERTICES} vertices")
        return self._build()

    def _build(self) -> Graph:
        raise NotImplementedError


@dataclass(frozen=True)
class Complete(GraphSpec):
    r: int

    def vertex_count(self) -> int:
        return self.r

    def _build(self) -> Graph:
        if self.r < 0:
            raise SpecError(f"K{self.r}: negative size")
        return graphs.complete(self.r)

    def __str__(self) -> str:
        return f"K{self.r}"


@dataclass(frozen=True)
class Cycle(GraphSpec):
    l: int

    def vertex_count(self) -> int:
        return self.l

    def _build(self) -> Graph:
        if self.l < 3:
            raise SpecError(f"C{self.l}: cycles need length >= 3")
        return graphs.cycle(self.l)

    def __str__(self) -> str:
        return f"C{self.l}"


@dataclass(frozen=True)
class CompleteBipartite(GraphSpec):
    a: int
    b: int

    def vertex_count(self) -> int:
        return self.a + self.b

    def _build(self) -> Graph:
        if self.a < 1 or self.b < 1:
            raise SpecError(f"K{self.a},{self.b}: both sides must be >= 1")
        return graphs.complete_bipartite(self.a, self.b)

    def __str__(self) -> str:
        return f"K{self.a},{self.b}"


@dataclass(frozen=True)
class Turan(GraphSpec):
    n: int
    r: int

    def vertex_count(self) -> int:
        return self.n

    def _build(self) -> Graph:
        if not 1 <= self.r <= self.n:
            raise SpecError(f"T({self.n},{self.r}): needs 1 <= r <= n")
        return graphs.turan(self.n, self.r)

    def __str__(self) -> str:
        return f"T({self.n},{self.r})"


@dataclass(frozen=True)
class Empty(GraphSpec):
    n: int

    def vertex_count(self) -> int:
        return self.n

    def _build(self) -> Graph:
        if self.n < 0:
            raise SpecError(f"E{self.n}: negative size")
        return graphs.empty_graph(self.n)

    def __str__(self) -> str:
        return f"E{self.n}"


@dataclass(frozen=True)
class Join(GraphSpec):
    left: GraphSpec
    right: GraphSpec

    def vertex_count(self) -> int:
        return self.left.vertex_count() + self.right.vertex_count()

    def _build(self) -> Graph:
        return graphs.join(self.left.build(), self.right.build())

    def __str__(self) -> str:
        return f"join({self.left}, {self.right})"


@dataclass(frozen=True)
class DisjointUnion(GraphSpec):
    left: GraphSpec
    right: GraphSpec

    def vertex_count(self) -> int:
        return self.left.vertex_count() + self.right.vertex_count()

    def _build(self) -> Graph:
        return graphs.disjoint_union(self.left.build(), self.right.build())

    def __str__(self) -> str:
        return f"union({self.left}, {self.right})"


@dataclass(frozen=True)
class Copies(GraphSpec):
    k: int
    spec: GraphSpec

    def vertex_count(self) -> int:
        return self.k * self.spec.vertex_count()

    def _build(self) -> Graph:
        if self.k < 1:
            raise SpecError(f"{self.k}*{self.spec}: copy count must be >= 1")
        return graphs.copies(self.k, self.spec.build())

    def __str__(self) -> str:
        return f"{self.k}*{self.spec}"


@dataclass(frozen=True)
class DeleteVertex(GraphSpec):
    spec: GraphSpec
    v: int

    def vertex_count(self) -> int:
        return self.spec.vertex_count() - 1

    def _build(self) -> Graph:
        return graphs.delete_vertex(self.spec.build(), self.v)

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

    def parse_spec(self) -> GraphSpec:
        tok = self.peek()
        if tok is None:
            raise SpecError(f"empty graph spec in {self.text!r}")
        if tok[0] == "int":
            k = int(self.next()[1])  # type: ignore[arg-type]
            self.expect("*")
            return Copies(k, self.parse_spec())
        return self.parse_atom()

    def parse_atom(self) -> GraphSpec:
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
            left = self.parse_spec()
            self.expect(",")
            if value == "del":
                v = int(self.expect("int"))  # type: ignore[arg-type]
                self.expect(")")
                return DeleteVertex(left, v)
            right = self.parse_spec()
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
