import pytest
from hypothesis import given, settings

from mbea.graphs import (
    GenConfig,
    Graph,
    ParseError,
    complete_graph,
    generate_er,
    parse_edge_list,
    write_edge_list,
)

from conftest import graphs


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(0, 0)])


def test_graph_rejects_duplicate():
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0)])


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(0, 2)])


def test_adjacency_is_symmetric_and_sorted():
    g = Graph(4, [(2, 0), (3, 1), (0, 1)])
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert g.adjacency[0] == (1, 2)
    assert g.adjacency[1] == (0, 3)
    for seed in range(300):
        g = generate_er(GenConfig(n=30 + seed % 7, mean_degree=0.5 + seed % 12, seed=seed))
        nbrs = [set() for _ in range(g.n)]
        for u, v in g.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        assert g.adjacency == tuple(tuple(sorted(a)) for a in nbrs)


def test_generate_er_zero_degree():
    g = generate_er(GenConfig(n=4, mean_degree=0, seed=1))
    assert g.n == 4 and g.m == 0


def test_generate_er_forced_complete():
    g = generate_er(GenConfig(n=4, mean_degree=3, seed=7))
    assert g == complete_graph(4)


def test_generate_er_deterministic():
    a = generate_er(GenConfig(n=100, mean_degree=2, seed=42))
    b = generate_er(GenConfig(n=100, mean_degree=2, seed=42))
    assert a.edges == b.edges
    c = generate_er(GenConfig(n=100, mean_degree=2, seed=43))
    assert a.edges != c.edges


def test_generate_er_exact_edge_count():
    for n, c in ((50, 1.5), (81, 3.0), (10, 0.4)):
        g = generate_er(GenConfig(n=n, mean_degree=c, seed=3))
        assert g.m == round(c * n / 2)


def test_generate_er_too_dense_rejected():
    with pytest.raises(ValueError):
        GenConfig(n=4, mean_degree=4, seed=0).validate()


def test_parse_minimal():
    g = parse_edge_list("2 1\n0 1\n")
    assert g.n == 2 and g.edges == ((0, 1),)


def test_parse_no_edges():
    g = parse_edge_list("3 0\n")
    assert g.n == 3 and g.m == 0


def test_parse_self_loop_line_number():
    with pytest.raises(ParseError) as err:
        parse_edge_list("2 1\n0 0\n")
    assert err.value.line == 2


def test_parse_duplicate_line_number():
    with pytest.raises(ParseError) as err:
        parse_edge_list("3 2\n0 1\n1 0\n")
    assert err.value.line == 3


def test_parse_bad_header():
    with pytest.raises(ParseError) as err:
        parse_edge_list("nope\n")
    assert err.value.line == 1


def test_parse_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_edge_list("2 1\n0 5\n")
    assert err.value.line == 2


def test_parse_count_mismatch():
    with pytest.raises(ParseError):
        parse_edge_list("3 2\n0 1\n")


def test_write_canonical():
    assert write_edge_list(Graph(2, [(0, 1)])) == "2 1\n0 1\n"
    assert write_edge_list(Graph(3, [])) == "3 0\n"


@given(graphs(max_n=12))
def test_roundtrip(g):
    assert parse_edge_list(write_edge_list(g)) == g


@settings(max_examples=25)
@given(graphs(max_n=30))
def test_generated_graphs_roundtrip_and_validate(g):
    text = write_edge_list(g)
    back = parse_edge_list(text)
    assert back.n == g.n and back.edges == g.edges
