"""Graph expression parsing and evaluation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genturan.graphs import (MAX_VERTICES, are_isomorphic, complete,
                             complete_bipartite, cycle, delete_vertex,
                             empty_graph, join, turan)
from genturan.gspec import (Complete, CompleteBipartite, Copies, Cycle,
                            DeleteVertex, DisjointUnion, Empty, Join,
                            SpecError, Turan, parse_spec, parse_spec_list)


def test_build_spec_examples():
    assert are_isomorphic(Turan(5, 2).build(), complete_bipartite(2, 3))
    assert Turan(5, 2).build().edge_count() == 6
    wheelish = Join(Complete(1), Turan(4, 2)).build()
    assert wheelish.n == 5 and wheelish.edge_count() == 8
    two_k3 = Copies(2, Complete(3)).build()
    assert two_k3.n == 6 and two_k3.edge_count() == 6


def test_build_validates_leaves():
    with pytest.raises(SpecError):
        Cycle(2).build()
    with pytest.raises(SpecError):
        Turan(3, 4).build()
    with pytest.raises(SpecError):
        Copies(0, Complete(2)).build()
    with pytest.raises(SpecError):
        Copies(30, Complete(3)).build()  # 90 vertices


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
