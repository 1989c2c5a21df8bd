import numpy as np
import pytest

from dynpriv.netgraph import (
    GraphConstructionError,
    adjacency,
    build_graph,
    check_no_covering,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    is_irreducible,
    is_weight_balanced,
    laplacian,
    left_null_vector,
)


def test_build_cycle_neighborhoods():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    assert g.in_nbrs[1] == {0}
    assert g.in_nbrs[2] == {1}
    assert g.in_nbrs[0] == {2}
    assert g.out_nbrs[0] == {1}


def test_build_single_node():
    g = build_graph(1, [])
    assert g.n == 1
    assert g.in_nbrs[0] == frozenset()


@pytest.mark.parametrize(
    "edges,msg",
    [
        ([(0, 0, 1.0)], "self-loop"),
        ([(0, 1, 1.0), (0, 1, 2.0)], "duplicate"),
        ([(0, 3, 1.0)], "out of range"),
        ([(0, 1, 0.0)], "non-positive weight"),
        ([(0, 1, -2.0)], "non-positive weight"),
    ],
)
def test_build_rejects_bad_edges(edges, msg):
    with pytest.raises(GraphConstructionError, match=msg):
        build_graph(3, edges)


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
    assert is_irreducible(cycle_graph(3))
    assert not is_irreducible(build_graph(2, []))
    # directed path: SCC enumeration gives three singleton components
    assert not is_irreducible(build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    assert is_irreducible(build_graph(1, []))


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


def _covering_oracle(g):
    # literal subset enumeration over the ordered pairs
    pairs = []
    for i in range(g.n):
        for j in range(g.n):
            if i == j:
                continue
            closed_i = set(g.in_nbrs[i]) | {i}
            closed_j = set(g.in_nbrs[j]) | {j}
            if all(k in closed_j for k in closed_i):
                pairs.append((i, j))
    return pairs


def test_no_covering_matches_bruteforce_on_random_graphs():
    for seed in range(20):
        n = 3 + seed % 6
        g = erdos_renyi(n, 0.45, seed=seed, require_no_covering=False)
        rep = check_no_covering(g)
        assert sorted(rep.covering_violations) == sorted(_covering_oracle(g))


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
        assert is_irreducible(g)
        xi = left_null_vector(laplacian(g))
        assert np.all(xi > 0)


def test_erdos_renyi_seeded_reproducible_and_compliant():
    g1 = erdos_renyi(12, 0.3, seed=9)
    g2 = erdos_renyi(12, 0.3, seed=9)
    assert g1.edges == g2.edges
    rep = check_no_covering(g1)
    assert rep.irreducible and rep.no_covering_holds


def test_erdos_renyi_bounded_retries():
    with pytest.raises(RuntimeError, match="retries"):
        erdos_renyi(8, 0.01, seed=0, max_retries=3)


def test_adjacency_matches_edges():
    g = build_graph(3, [(1, 0, 2.5), (2, 1, 0.5)])
    a = adjacency(g)
    assert a[0, 1] == 2.5
    assert a[1, 2] == 0.5
    assert a.sum() == 3.0
