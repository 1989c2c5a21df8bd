import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynpriv.netgraph import (
    GraphConstructionError,
    build_graph,
    check_no_covering,
    closed_neighborhoods,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    is_weight_balanced,
    laplacian,
    left_null_vector,
    reached,
)


def _edges(g):
    """The graph's (src, dst, weight) triples in input order, read from its
    src, dst and a arrays as Python ints and floats."""
    return tuple(zip(g.src.tolist(), g.dst.tolist(), g.a[g.dst, g.src].tolist()))


def test_build_cycle_neighborhoods():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    assert g.closed_in_neighborhood(1) == {0, 1}
    assert g.closed_in_neighborhood(2) == {1, 2}
    assert g.closed_in_neighborhood(0) == {2, 0}


def test_build_single_node():
    g = build_graph(1, [])
    assert g.n == 1
    assert g.closed_in_neighborhood(0) == frozenset({0})


@pytest.mark.parametrize(
    "edges,msg",
    [
        ([(0, 0, 1.0)], "self-loop"),
        ([(0, 1, 1.0), (0, 1, 2.0)], "duplicate"),
        ([(0, 3, 1.0)], "out of range"),
        ([(0, 1, 0.0)], "non-positive weight"),
        ([(0, 1, -2.0)], "non-positive weight"),
        ([(0, 1, float("nan"))], r"non-finite weight on edge \(0, 1, nan\)"),
        ([(0, 1, float("inf"))], "non-finite weight"),
        ([(1.7, 0, 1.0)], r"non-integer node id on edge \(1.7, 0, 1.0\)"),
        ([(0, 1, 1.0), (2, float("nan"), 1.0)], "non-integer node id"),
        ([(0, 1, 1.0), (1, 2, 1.0), (0, 1, 1.0)], r"duplicate edge \(0, 1, 1.0\)"),
    ],
)
def test_build_rejects_bad_edges(edges, msg):
    with pytest.raises(GraphConstructionError, match=msg):
        build_graph(3, edges)


def _first_bad_edge(n, edges):
    """Scalar reference of build_graph's validation: the message for the
    first offending edge, or None."""
    seen = set()
    for src, dst, w in edges:
        src, dst, w = float(src), float(dst), float(w)
        ids = [int(v) if v.is_integer() else v for v in (src, dst)]
        text = f"({ids[0]}, {ids[1]}, {w})"
        if not all(math.isfinite(v) and v == int(v) for v in (src, dst)):
            return f"non-integer node id on edge {text}"
        if src == dst:
            return f"self-loop on edge {text}"
        if not (0 <= src < n and 0 <= dst < n):
            return f"node out of range on edge {text}"
        if w <= 0:
            return f"non-positive weight on edge {text}"
        if not math.isfinite(w):
            return f"non-finite weight on edge {text}"
        if (src, dst) in seen:
            return f"duplicate edge {text}"
        seen.add((src, dst))
    return None


_node_ids = st.one_of(
    st.integers(-1, 5), st.sampled_from([0.5, 1.7, 2.0, -0.0, float("nan"), float("inf")])
)
_weights = st.one_of(
    st.floats(0.1, 3.0),
    st.sampled_from([0.0, -1.0, float("nan"), float("inf"), -float("inf")]),
)


@settings(deadline=None)
@given(
    n=st.integers(1, 5),
    edges=st.lists(st.tuples(_node_ids, _node_ids, _weights), max_size=12),
)
def test_build_reports_first_bad_edge_like_scalar_reference(n, edges):
    expected = _first_bad_edge(n, edges)
    if expected is None:
        g = build_graph(n, edges)
        assert _edges(g) == tuple((int(s), int(d), float(w)) for s, d, w in edges)
        assert g.src.dtype == g.dst.dtype == np.intp
    else:
        with pytest.raises(GraphConstructionError) as exc:
            build_graph(n, edges)
        assert str(exc.value) == expected


def test_laplacian_cycle():
    lap = laplacian(cycle_graph(3))
    assert np.allclose(lap, [[1, 0, -1], [-1, 1, 0], [0, -1, 1]])


def test_laplacian_single_node():
    assert laplacian(build_graph(1, [])) == np.zeros((1, 1))


def test_laplacian_star_hand_constructed():
    # hub 0 receives weight-2 edges from 1 and 2; leaves have empty rows
    g = build_graph(3, [(1, 0, 2.0), (2, 0, 2.0)])
    lap = laplacian(g)
    assert np.allclose(lap[0], [4.0, -2.0, -2.0])
    assert np.allclose(lap[1], 0.0)
    assert np.allclose(lap[2], 0.0)
    assert np.max(np.abs(lap.sum(axis=1))) == 0.0


def test_rows_sum_to_zero_on_random_graphs():
    for seed in range(8):
        g = erdos_renyi(9, 0.4, seed=seed, require_no_covering=False)
        assert np.max(np.abs(laplacian(g) @ np.ones(9))) <= 1e-12


def test_weight_balance():
    assert is_weight_balanced(laplacian(cycle_graph(3)))
    star = build_graph(3, [(1, 0, 2.0), (2, 0, 2.0)])
    # column-sum oracle
    lap = laplacian(star)
    assert np.max(np.abs(lap.sum(axis=0))) > 0
    assert not is_weight_balanced(lap)


def test_symmetric_graphs_are_balanced():
    for seed in range(5):
        g = erdos_renyi(8, 0.5, seed=seed, symmetric=True, require_no_covering=False)
        assert is_weight_balanced(laplacian(g))


def test_irreducibility():
    assert check_no_covering(cycle_graph(3)).irreducible
    assert not check_no_covering(build_graph(2, [])).irreducible
    # directed path: SCC enumeration gives three singleton components
    assert not check_no_covering(build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])).irreducible
    assert check_no_covering(build_graph(1, [])).irreducible


def test_no_covering_cycle_and_complete():
    rep = check_no_covering(cycle_graph(3))
    assert rep.no_covering_holds
    assert rep.covering_violations == ()
    rep = check_no_covering(complete_graph(3))
    # every closed neighborhood equals the full node set
    assert sorted(rep.covering_violations) == [
        (i, j) for i in range(3) for j in range(3) if i != j
    ]


def test_no_covering_hub_covers_every_leaf():
    # the hub 0 hears every leaf, so each leaf's closed neighborhood {i}
    # sits inside the hub's; violations are (target, observer) pairs
    hub = build_graph(4, [(1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0)])
    assert sorted(check_no_covering(hub).covering_violations) == [(1, 0), (2, 0), (3, 0)]


def test_two_node_irreducible_always_covers():
    g = build_graph(2, [(0, 1, 1.0), (1, 0, 1.0)])
    rep = check_no_covering(g)
    assert rep.irreducible
    assert not rep.no_covering_holds


def _closed_neighborhoods(n, edges):
    closed = [{i} for i in range(n)]
    for src, dst, _ in edges:
        closed[dst].add(src)
    return [frozenset(c) for c in closed]


def _covering_oracle(n, edges):
    # literal subset enumeration over the ordered pairs
    closed = _closed_neighborhoods(n, edges)
    return [(i, j) for i in range(n) for j in range(n) if i != j and closed[i] <= closed[j]]


def _reached_oracle(n, edges, start):
    # breadth-first search over the edge list from every node of start
    out = [[] for _ in range(n)]
    for src, dst, _ in edges:
        out[src].append(dst)
    seen, queue = set(start), deque(start)
    while queue:
        for v in out[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return [i in seen for i in range(n)]


def _strongly_connected_oracle(n, edges):
    # every start reaches every node
    return all(all(_reached_oracle(n, edges, [start])) for start in range(n))


@st.composite
def _digraphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    weights = draw(st.lists(st.floats(0.1, 5.0), min_size=len(chosen), max_size=len(chosen)))
    return n, [(i, j, w) for (i, j), w in zip(chosen, weights)]


@settings(deadline=None)
@given(_digraphs())
def test_no_covering_matches_bruteforce_on_random_graphs(graph):
    n, edges = graph
    g = build_graph(n, edges)
    rep = check_no_covering(g)
    assert list(rep.covering_violations) == _covering_oracle(n, edges)
    assert rep.irreducible == _strongly_connected_oracle(n, edges)
    assert [g.closed_in_neighborhood(i) for i in range(n)] == _closed_neighborhoods(n, edges)
    assert _edges(g) == tuple(edges)


@settings(deadline=None)
@given(_digraphs(), st.data())
def test_reached_from_a_start_set_matches_bfs_on_adjacency_and_laplacian(graph, data):
    # the search that decides irreducibility and the opinion model's anchors
    n, edges = graph
    start = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    mask = np.isin(np.arange(n), start)
    g = build_graph(n, edges)
    want = _reached_oracle(n, edges, start)
    for matrix in (g.a, laplacian(g)):
        got = reached(closed_neighborhoods(matrix), mask)
        assert got.dtype == bool and got.tolist() == want


def test_left_null_vector_balanced_graphs():
    assert np.allclose(left_null_vector(laplacian(cycle_graph(3))), 1 / 3)
    g = erdos_renyi(7, 0.5, seed=3, symmetric=True, require_no_covering=False)
    assert np.allclose(left_null_vector(laplacian(g)), 1 / 7)


def _gauss_null_left(lap):
    # oracle: Gaussian elimination with partial pivoting on L^T, back-substituted
    a = np.array(lap.T, dtype=float)
    n = a.shape[0]
    perm = list(range(n))
    for col in range(n - 1):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
        if abs(a[col, col]) < 1e-14:
            continue
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
    x = np.zeros(n)
    x[-1] = 1.0
    for row in range(n - 2, -1, -1):
        x[row] = -(a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x / x.sum()


def test_left_null_vector_unbalanced_matches_elimination_oracle():
    g = build_graph(3, [(0, 1, 2.0), (1, 2, 1.0), (2, 0, 1.0), (0, 2, 1.0)])
    lap = laplacian(g)
    xi = left_null_vector(lap)
    oracle = _gauss_null_left(lap)
    assert np.allclose(xi, oracle, atol=1e-10)
    assert np.max(np.abs(xi @ lap)) <= 1e-10
    assert np.all(xi > 0)
    assert xi.sum() == pytest.approx(1.0)


def test_left_null_vector_rejects_reducible():
    g = build_graph(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)])
    with pytest.raises(ValueError, match="not unique"):
        left_null_vector(laplacian(g))


def test_irreducible_implies_positive_null_vector():
    for seed in range(10):
        g = erdos_renyi(6, 0.5, seed=100 + seed, require_no_covering=False)
        assert check_no_covering(g).irreducible
        xi = left_null_vector(laplacian(g))
        assert np.all(xi > 0)


def test_erdos_renyi_seeded_reproducible_and_compliant():
    g1 = erdos_renyi(12, 0.3, seed=9)
    g2 = erdos_renyi(12, 0.3, seed=9)
    assert _edges(g1) == _edges(g2)
    rep = check_no_covering(g1)
    assert rep.irreducible and rep.no_covering_holds


def test_erdos_renyi_bounded_retries():
    with pytest.raises(RuntimeError, match="retries"):
        erdos_renyi(8, 0.01, seed=0, max_retries=3)


def test_adjacency_matches_edges():
    g = build_graph(3, [(1, 0, 2.5), (2, 1, 0.5)])
    a = g.a
    assert not a.flags.writeable
    assert a[0, 1] == 2.5
    assert a[1, 2] == 0.5
    assert a.sum() == 3.0


def _erdos_renyi_walk(n, p, seed, symmetric, weight_range, require_no_covering, max_retries):
    """Reference sampler: one rng double per ordered (or unordered) pair in
    row-major order, and one more for each edge's weight."""
    rng = np.random.default_rng(seed)
    stream = iter(())

    def draw():
        nonlocal stream
        for u in stream:
            return u
        stream = iter(rng.random(n * n).tolist())
        return next(stream)

    lo, span = float(weight_range[0]), float(weight_range[1]) - float(weight_range[0])
    for _ in range(max_retries):
        edges = []
        for i in range(n):
            for j in range(i + 1 if symmetric else 0, n):
                if i != j and draw() < p:
                    w = lo + span * draw()
                    edges.append((i, j, w))
                    if symmetric:
                        edges.append((j, i, w))
        rep = check_no_covering(build_graph(n, edges))
        if rep.irreducible and not (require_no_covering and rep.covering_violations):
            return tuple(edges)
    return None


@settings(deadline=None, max_examples=150)
@given(
    n=st.integers(1, 16),
    p=st.floats(0.02, 1.0),
    seed=st.integers(0, 2**32 - 1),
    symmetric=st.booleans(),
    weight_range=st.sampled_from([(1.0, 1.0), (0.5, 2.5), (10.0, 14.0), (0.1, 0.3)]),
    require_no_covering=st.booleans(),
    max_retries=st.integers(1, 6),
)
def test_erdos_renyi_matches_per_pair_walk(
    n, p, seed, symmetric, weight_range, require_no_covering, max_retries
):
    args = (n, p, seed, symmetric, weight_range, require_no_covering, max_retries)
    expected = _erdos_renyi_walk(*args)
    if expected is None:
        with pytest.raises(RuntimeError, match="retries"):
            erdos_renyi(*args)
    else:
        assert _edges(erdos_renyi(*args)) == expected


def test_erdos_renyi_paper_scale_matches_per_pair_walk():
    for seed, symmetric in ((3, False), (61, True)):
        args = (100, 0.12, seed, symmetric, (0.5, 1.5), True, 100)
        assert _edges(erdos_renyi(*args)) == _erdos_renyi_walk(*args)


def test_build_names_first_duplicate_of_an_otherwise_valid_list():
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (1, 2, 3.0), (0, 1, 2.0)]
    with pytest.raises(GraphConstructionError, match=r"^duplicate edge \(1, 2, 3.0\)$"):
        build_graph(3, edges)


@pytest.mark.parametrize(
    "bad,msg",
    [
        ((0, 1, -1.0), r"^non-positive weight on edge \(0, 1, -1.0\)$"),
        ((0, 1, float("nan")), r"^non-finite weight on edge \(0, 1, nan\)$"),
        ((0, 1, float("inf")), r"^non-finite weight on edge \(0, 1, inf\)$"),
    ],
)
def test_build_reports_the_rule_of_an_invalid_edge_that_repeats_a_valid_one(bad, msg):
    # the invalid edge repeats the (src, dst) pair of a valid edge before it;
    # it is reported under its own rule, not as a duplicate
    with pytest.raises(GraphConstructionError, match=msg):
        build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), bad])


def test_build_paper_scale_arrays_equal_direct_scatter():
    for seed, symmetric in ((3, False), (61, True)):
        g = erdos_renyi(100, 0.15, seed, symmetric=symmetric, weight_range=(0.5, 1.5))
        assert len(g.src) > 700
        e = np.column_stack([g.src, g.dst, g.a[g.dst, g.src]]).astype(float)
        h = build_graph(100, e)
        src, dst = e[:, 0].astype(np.intp), e[:, 1].astype(np.intp)
        a = np.zeros((100, 100))
        a[dst, src] = e[:, 2]
        for got, want in ((h.a, a), (h.src, src), (h.dst, dst)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _sampled_edges(n, p, rng, symmetric):
    """Each pair an edge with probability p, so sparse draws are often
    reducible or covered."""
    hit = rng.random((n, n)) < p
    if symmetric:
        hit = np.triu(hit, 1)
        hit |= hit.T
    np.fill_diagonal(hit, False)
    src, dst = np.nonzero(hit)
    weights = rng.uniform(0.5, 1.5, len(src))
    return [(int(s), int(d), float(w)) for s, d, w in zip(src, dst, weights)]


@pytest.mark.parametrize("n", [50, 100, 200])
@pytest.mark.parametrize("symmetric", [False, True])
def test_float32_covering_counts_and_reachability_match_float64_and_bfs(n, symmetric):
    rng = np.random.default_rng(n + symmetric)
    verdicts = set()
    # from below the connectivity threshold to dense enough for coverings
    for p in (0.5 / n, 2.0 / n, 0.05, 0.5, 0.97):
        edges = _sampled_edges(n, p, rng, symmetric)
        g = build_graph(n, edges)
        m = closed_neighborhoods(g.a)
        counts = m @ np.ascontiguousarray((1 - m).T)
        missing = m.astype(float) @ (1.0 - m.astype(float)).T
        assert m.dtype == counts.dtype == np.float32
        assert np.array_equal(counts, missing)
        np.fill_diagonal(missing, 1.0)
        rep = check_no_covering(g)
        assert rep.covering_violations == tuple(map(tuple, np.argwhere(missing == 0).tolist()))
        strongly = _strongly_connected_oracle(n, edges)
        assert rep.irreducible == strongly
        verdicts.add((strongly, rep.no_covering_holds))
    # both reducible and strongly connected draws, with and without coverings
    assert {s for s, _ in verdicts} == {c for _, c in verdicts} == {False, True}


@pytest.mark.parametrize("n", [50, 200])
def test_reachability_over_long_diameters(n):
    # a search of n - 1 levels: the reached set must stay 0/1, as walk
    # counts along a cycle of 200 nodes would overflow float32
    ring = [(i, (i + 1) % n, 1.0) for i in range(n)]
    assert check_no_covering(build_graph(n, ring)).irreducible
    assert not check_no_covering(build_graph(n, ring[:-1])).irreducible
    back = [(d, s, w) for s, d, w in ring[:-1]]
    assert check_no_covering(build_graph(n, ring[:-1] + back)).irreducible
