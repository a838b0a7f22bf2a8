"""Graph expression parsing and evaluation."""

from __future__ import annotations

import hashlib
import importlib.util
import re
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genturan import constructions, graphs, gspec, verify
from genturan.graphs import (MAX_VERTICES, are_isomorphic, complete,
                             complete_bipartite, cycle, delete_vertex,
                             empty_graph, join, turan)
from genturan.graph6 import encode_graph6
from genturan.gspec import (Complete, CompleteBipartite, Copies, Cycle,
                            DeleteVertex, DisjointUnion, Empty, Join,
                            SpecError, Turan, parse_spec, parse_spec_list)

from conftest import DEEP_NESTING, MALFORMED_SPECS, nested_specs


def test_build_spec_examples():
    assert are_isomorphic(Turan(5, 2).build(), complete_bipartite(2, 3))
    assert Turan(5, 2).build().edge_count() == 6
    wheelish = Join(Complete(1), Turan(4, 2)).build()
    assert wheelish.n == 5 and wheelish.edge_count() == 8
    two_k3 = Copies(2, Complete(3)).build()
    assert two_k3.n == 6 and two_k3.edge_count() == 6


def test_build_validates_leaves():
    # The `graphs` constructors decide; build names the expression.
    for text in MALFORMED_SPECS:
        with pytest.raises(SpecError, match=re.escape(str(parse_spec(text)))):
            parse_spec(text).build()
    with pytest.raises(SpecError, match=r"del\(join\(K40, K30\), 0\)"):
        parse_spec("del(join(K40,K30), 0)").build()


def test_oversized_turan_refused_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(SpecError):
            parse_spec("T(1000000,1000000)").build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_copies_of_the_0_vertex_graph_are_immediate():
    start = time.perf_counter()
    g = parse_spec("999999999*K0").build()
    assert g.n == 0 and time.perf_counter() - start < 1


# graph6 of the README's examples, the verify registry's default graph
# parameters and graphs at the 64-vertex cap, pinned so that a change to
# where sizes and parameters are checked changes no graph.
CORPUS = {
    "K5": "D~{", "C7": "FhCKG", "K2,3": "D]o", "E4": "C?", "T(9,3)": "HFzf~z{",
    "2*C5": "Ihc?GC@@G", "join(K1, T(8,2))": "Hsb~vrw", "union(K3, C4)": "FwCGg",
    "del(K4, 0)": "Bw", "T(5,2)": "DFw", "K2": "A_", "K6": "E~~w", "K3": "Bw",
    "join(K1,T(6,2))": "Fs~v_", "2*K3": "EwCW", "C5": "Dhc", "K4": "C~", "C4": "Cl",
    "K0": "?", "E0": "?", "K1": "@", "del(K1, 0)": "?",
}
# Larger graphs by the sha256 of their graph6, with the eight symmetric hosts
# of `bench/canon.py`.
CORPUS_SHA256 = {
    "K64": "0963903850d2c423", "E64": "f75500fba8b8903d", "C64": "96b69dad4f40a53f",
    "K32,32": "aaf3f7b18a6d8338", "T(64,8)": "ab394e941de1e9f1",
    "64*K1": "f75500fba8b8903d", "32*K2": "47393298a29cdb3f",
    "join(K32, K32)": "0963903850d2c423", "union(K40, C24)": "e3549feb7f4445b4",
    "T(20,4)": "52d8d30963cd2181", "T(18,3)": "31a9dfe9c9e0d494",
    "join(K2,T(30,3))": "be52f1be49aaa98c", "8*C5": "f7df05dcc7ec581d",
    "thm35_lower(20,3,2)": "fda4e7cc63102c5c", "thm62_lower(20,3)": "57875d8fcca14b12",
    "f_star(C5,0,2)": "a4e2856d8772d2b2", "f_star(C4,0,3)": "6e75ec1368f8243a",
}


def test_corpus_builds_the_same_graph6():
    built = {text: encode_graph6(parse_spec(text).build()) for text in CORPUS}
    assert built == CORPUS
    path = Path(__file__).resolve().parents[1] / "bench" / "canon.py"
    spec = importlib.util.spec_from_file_location("bench_canon", path)
    canon = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(canon)
    hosts = canon.build_hosts(graphs, gspec, constructions)
    digests = {}
    for text in CORPUS_SHA256:
        g = hosts[text] if text in hosts else parse_spec(text).build()
        digests[text] = hashlib.sha256(encode_graph6(g).encode()).hexdigest()[:16]
    assert digests == CORPUS_SHA256
    # The keys `verify._graph_param` reads.
    defaults = {str(v) for d in verify._REGISTRY.values()
                for k, v in d.default_params.items() if k in ("f", "h", "f1", "f2")}
    assert defaults and defaults <= set(CORPUS)


def test_parse_atoms():
    assert parse_spec("K5") == Complete(5)
    assert parse_spec("C7") == Cycle(7)
    assert parse_spec("K2,3") == CompleteBipartite(2, 3)
    assert parse_spec("T(9,3)") == Turan(9, 3)
    assert parse_spec("E4") == Empty(4)
    assert parse_spec("2*C5") == Copies(2, Cycle(5))
    assert parse_spec("join(K1, T(8,2))") == Join(Complete(1), Turan(8, 2))
    assert parse_spec("del(K4, 0)") == DeleteVertex(Complete(4), 0)
    assert parse_spec("union(K3,C4)") == DisjointUnion(Complete(3), Cycle(4))


def test_parse_nested():
    spec = parse_spec("join(2*K2, del(C5, 1))")
    g = spec.build()
    assert g.n == 8
    assert str(spec) == "join(2*K2, del(C5, 1))"


def test_parse_list_disambiguates_bipartite_commas():
    assert parse_spec_list("K3,C4") == [Complete(3), Cycle(4)]
    specs = parse_spec_list("K2,3,C4")
    assert len(specs) == 2 and specs[1] == Cycle(4)
    assert parse_spec_list("2*K2,3") == [Copies(2, parse_spec("K2,3"))]


def test_parse_errors():
    for bad in ["", "K", "Q5", "join(K3)", "2*", "K3)", "del(K4, x)", "K3 C4"]:
        with pytest.raises(SpecError):
            parse_spec(bad)


@pytest.mark.parametrize("shape", sorted(DEEP_NESTING))
def test_nesting_depth_is_capped(shape):
    # One combinator past the limit is a SpecError naming it, as is the depth
    # that once overflowed the stack, in a single spec or a list; the limit
    # itself still parses and builds.
    at_limit = nested_specs(gspec.MAX_DEPTH)[shape]
    assert parse_spec(at_limit).build() == (complete(1) if shape == "copies" else empty_graph(0))
    assert len(parse_spec_list(f"{at_limit},K3")) == 2
    for depth in (gspec.MAX_DEPTH + 1, DEEP_NESTING[shape]):
        text = nested_specs(depth)[shape]
        for parse in (parse_spec, parse_spec_list):
            with pytest.raises(SpecError, match=f"nests more than {gspec.MAX_DEPTH} "
                                                f"combinators deep"):
                parse(text)


def test_error_messages_quote_a_bounded_prefix():
    # Every refusal of a long argument quotes at most QUOTE_LIMIT of its
    # characters, and still names what it refuses.
    long_union = "union(K1, " * 70 + "K1" + ")" * 70  # 71 copies of K1
    cases = [(lambda: parse_spec("join(K2," + "Q" * 2992), "at 'QQQ"),
             (lambda: parse_spec_list("K3," + "Q" * 2997), "at 'QQQ"),
             (lambda: parse_spec("K3 " + "K4 " * 1000), "trailing input"),
             (lambda: parse_spec("join(" * 90 + "K1"), "unexpected end of spec"),
             (lambda: parse_spec("9" * 5000 + "*K1"), "more than 18 digits at '999"),
             (lambda: parse_spec(long_union).build(), "> 64 vertices")]
    for call, names in cases:
        with pytest.raises(SpecError) as err:
            call()
        message = str(err.value)
        assert names in message and len(message) < 3 * gspec.QUOTE_LIMIT, message
    assert gspec.quote("K3") == "'K3'"


def _leaf_strategy():
    return st.one_of(
        st.integers(0, 8).map(Complete),
        st.integers(3, 9).map(Cycle),
        st.tuples(st.integers(1, 4), st.integers(1, 5)).map(
            lambda ab: CompleteBipartite(*ab)),
        st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(
            lambda nr: nr[1] <= nr[0]).map(lambda nr: Turan(nr[0], nr[1])),
        st.integers(0, 6).map(Empty),
    )


def _spec_strategy():
    return st.recursive(
        _leaf_strategy(),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda lr: Join(*lr)),
            st.tuples(inner, inner).map(lambda lr: DisjointUnion(*lr)),
            st.tuples(st.integers(1, 3), inner).map(lambda ks: Copies(*ks)),
        ),
        max_leaves=4,
    )


@settings(max_examples=120, deadline=None)
@given(_spec_strategy())
def test_build_never_violates_graph_invariants(spec):
    try:
        g = spec.build()
    except SpecError:
        return  # oversized composite; rejection is the contract
    assert 0 <= g.n <= MAX_VERTICES
    for v in range(g.n):
        assert not g.adj[v] >> v & 1
        assert g.adj[v] < (1 << g.n)
        for u in range(g.n):
            assert (g.adj[v] >> u & 1) == (g.adj[u] >> v & 1)


def test_roundtrip_str_parse():
    for text in ["K5", "C7", "K2,3", "T(9,3)", "2*C5",
                 "join(K1, T(8,2))", "del(K4, 0)", "union(K3, C4)"]:
        spec = parse_spec(text)
        assert parse_spec(str(spec)) == spec
