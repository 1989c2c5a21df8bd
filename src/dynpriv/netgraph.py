"""Weighted digraphs and the structural checks behind masked multiagent dynamics.

Edge direction convention: an edge (src, dst, w) means dst receives from src,
i.e. src belongs to the in-neighborhood of dst. All matrix representations
follow that convention: the adjacency entry A[i, j] is the weight of j -> i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPECTRAL_TOL = 1e-10
#: Column/row-sum tolerance under which a Laplacian counts as weight-balanced.
BALANCE_TOL = 1e-9


class GraphConstructionError(ValueError):
    """An edge list violates the digraph preconditions."""


@dataclass(frozen=True, eq=False)
class Digraph:
    """Immutable weighted digraph backed by its in-adjacency weight matrix.

    a[i, j] is the weight of edge j -> i (zero where there is none); src and
    dst list the edge endpoints in the order the edges were given (a[dst, src]
    their weights).
    """

    n: int
    a: np.ndarray
    src: np.ndarray
    dst: np.ndarray

    def closed_in_neighborhood(self, i: int) -> frozenset:
        """N_i u {i}, read from row i of a."""
        return frozenset(np.flatnonzero(self.a[i]).tolist()) | {i}

    @cached_property
    def assumptions(self) -> "AssumptionReport":
        """check_no_covering of this graph, scanned once on first use;
        erdos_renyi fills it while it tests the candidate it accepts."""
        return check_no_covering(self)


@dataclass(frozen=True)
class AssumptionReport:
    """Structural validation summary for a digraph.

    covering_violations lists every ordered pair (i, j), i != j, whose closed
    in-neighborhoods satisfy N_i u {i} subset-of N_j u {j}; the no-covering
    assumption holds iff that list is empty.
    """

    irreducible: bool
    weight_balanced: bool
    covering_violations: tuple[tuple[int, int], ...]

    @property
    def no_covering_holds(self) -> bool:
        return not self.covering_violations


def _edge_text(edge) -> str:
    """An edge as (src, dst, w), node ids printed as ints where integral."""
    src, dst, w = (float(v) for v in edge)
    ids = (int(v) if v.is_integer() else v for v in (src, dst))
    return "({}, {}, {})".format(*ids, w)


def _first_bad_edge(n: int, e: np.ndarray) -> str:
    """The message naming the first offending edge of e and the first rule,
    in build_graph's order, that it breaks; e must hold one."""
    ends, w = e[:, :2], e[:, 2]
    integral = np.isfinite(ends) & (ends == np.trunc(ends))
    fails = [
        ("non-integer node id on edge", ~integral.all(axis=1)),
        ("self-loop on edge", ends[:, 0] == ends[:, 1]),
        ("node out of range on edge", ((ends < 0) | (ends >= n)).any(axis=1)),
        ("non-positive weight on edge", w <= 0),
        ("non-finite weight on edge", ~np.isfinite(w)),
    ]
    bad = np.logical_or.reduce([mask for _, mask in fails])
    # Duplicates are keyed among the edges that pass every other rule, so an
    # invalid edge can neither hide one nor fake one.
    key = -1.0 - np.arange(len(e))
    key[~bad] = ends[~bad, 0] * n + ends[~bad, 1]
    _, keep = np.unique(key, return_index=True)
    dup = np.ones(len(e), bool)
    dup[keep] = False
    fails.append(("duplicate edge", dup))
    bad |= dup
    k = int(np.argmax(bad))
    label = next(label for label, mask in fails if mask[k])
    return f"{label} {_edge_text(e[k])}"


def build_graph(n: int, edges) -> Digraph:
    """Validate an edge list and construct a Digraph.

    Raises GraphConstructionError naming the first offending edge on
    non-integer node ids, self-loops, out-of-range endpoints, non-positive
    or non-finite weights, or duplicate (src, dst) pairs; an edge that
    breaks several rules is reported under the first in that order.

    A valid list costs O(m) checks plus the scatter into the adjacency
    matrix: the rules are tested per endpoint column, and since every valid
    weight is finite and positive, the list has no duplicate pair iff the
    scattered matrix has m nonzero entries. Only a list that fails either
    test is searched for its first offender.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise GraphConstructionError(f"node count must be a positive integer, got {n!r}")
    n = int(n)
    e = np.asarray(edges, dtype=float)
    if e.size == 0:
        e = e.reshape(0, 3)
    if e.ndim != 2 or e.shape[1] != 3:
        raise GraphConstructionError("edges must be (src, dst, weight) triples")
    s, d, w = e.T
    # each comparison is False at a NaN, and the range tests at an infinity
    ok = (s == np.trunc(s)) & (d == np.trunc(d))
    ok &= (0 <= s) & (s < n) & (0 <= d) & (d < n)
    ok &= (s != d) & (0 < w) & (w < np.inf)
    if ok.all():
        src = s.astype(np.intp)
        dst = d.astype(np.intp)
        a = np.zeros((n, n))
        a[dst, src] = w
        if np.count_nonzero(a) == len(e):
            for arr in (a, src, dst):
                arr.setflags(write=False)
            return Digraph(n=n, a=a, src=src, dst=dst)
    raise GraphConstructionError(_first_bad_edge(n, e))


def laplacian(g: Digraph) -> np.ndarray:
    """In-degree Laplacian: L[i, j] = -w(j->i) for i != j, rows sum to zero.

    The diagonal is set to the negated off-diagonal row sum, so L @ 1 = 0
    holds exactly in floating point.
    """
    lap = -g.a
    np.fill_diagonal(lap, 0.0)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def is_weight_balanced(lap: np.ndarray) -> bool:
    """True iff every column sum of the Laplacian has magnitude <= BALANCE_TOL."""
    return bool(np.max(np.abs(lap.sum(axis=0))) <= BALANCE_TOL)


def closed_neighborhoods(a: np.ndarray) -> np.ndarray:
    """float32 0/1 matrix M with M[i, j] = 1 iff j is in N_i u {i}, where the
    nonzero off-diagonal entries of a (an adjacency or a Laplacian) mark the
    edges j -> i.

    Products of M with 0/1 vectors and matrices count neighbours, and a
    count below 2^24 is exact in float32, so these products are exact for
    every graph of fewer than 2^24 nodes."""
    m = (a != 0).astype(np.float32)
    np.fill_diagonal(m, 1.0)
    return m


def reached(m: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Boolean mask of the nodes that a node of the boolean mask start
    reaches along the edges j -> i that m[i, j] != 0 marks, m with a nonzero
    diagonal (closed_neighborhoods, or its transpose for reversed edges).
    One float32 matvec per level grows the reached set until it stops
    growing or holds every node, so a start of every node takes none."""
    hit = start.astype(np.float32)
    count = np.count_nonzero(hit)
    while count < len(m):
        hit = m @ hit
        np.minimum(hit, 1.0, out=hit)
        grown = np.count_nonzero(hit)
        if grown == count:
            break
        count = grown
    return hit != 0


def check_no_covering(g: Digraph) -> AssumptionReport:
    """Test all ordered pairs for covering closed neighborhoods at once, and
    irreducibility on the same closed-neighborhood matrix.

    With M the 0/1 matrix of closed in-neighborhoods, M @ (1 - M).T counts
    |N_i u {i} minus N_j u {j}|, and (i, j) covers iff that count is zero;
    pairs are listed in row-major order. The product is formed in float32:
    its entries are 0/1 and its sums integers of at most n, all exact below
    2^24 nodes. The graph counts as irreducible (strongly connected, the
    standard matrix irreducibility proxy) iff node 0 reaches every node
    along M and along M.T; a single node counts as irreducible.
    """
    m = closed_neighborhoods(g.a)
    # contiguous: at n=100 the product on the transposed view took twice as long
    missing = m @ np.ascontiguousarray((1.0 - m).T)
    np.fill_diagonal(missing, 1.0)
    covering = ()
    if missing.min() == 0:
        covering = tuple(map(tuple, np.argwhere(missing == 0).tolist()))
    root = np.arange(g.n) == 0
    return AssumptionReport(
        irreducible=bool(reached(m, root).all() and reached(m.T, root).all()),
        weight_balanced=is_weight_balanced(laplacian(g)),
        covering_violations=covering,
    )


def left_null_vector(lap: np.ndarray) -> np.ndarray:
    """Positive left null vector xi of an irreducible Laplacian.

    Returns xi with xi^T L = 0 (residual <= SPECTRAL_TOL), all entries strictly
    positive, normalized so the entries sum to 1. Raises ValueError when the
    null space is not one-dimensional (reducible Laplacian).
    """
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    if n == 1:
        return np.array([1.0])
    _, svals, vt = np.linalg.svd(lap.T)
    scale = max(svals[0], 1.0)
    if svals[-1] > SPECTRAL_TOL * scale:
        raise ValueError("Laplacian has no null vector within tolerance")
    if svals[-2] <= SPECTRAL_TOL * scale:
        raise ValueError("null vector not unique (reducible Laplacian)")
    xi = vt[-1]
    xi = xi / xi.sum()
    residual = np.max(np.abs(xi @ lap))
    if residual > SPECTRAL_TOL * scale:
        raise ValueError(f"left null vector residual {residual:.3e} exceeds tolerance")
    if np.min(xi) <= 0:
        raise ValueError("left null vector is not strictly positive")
    return xi


def cycle_graph(n: int, weight: float = 1.0) -> Digraph:
    """Directed n-cycle 0 -> 1 -> ... -> n-1 -> 0."""
    return build_graph(n, [(i, (i + 1) % n, weight) for i in range(n)])


def complete_graph(n: int, weight: float = 1.0) -> Digraph:
    """Complete digraph with both directions on every pair."""
    return build_graph(n, [(i, j, weight) for i in range(n) for j in range(n) if i != j])


def erdos_renyi(
    n: int,
    p: float,
    seed,
    symmetric: bool = False,
    weight_range: tuple = (1.0, 1.0),
    require_no_covering: bool = True,
    max_retries: int = 100,
) -> Digraph:
    """Seeded Erdos-Renyi digraph, rejection-sampled until it is strongly
    connected (and, by default, free of covering neighborhoods).

    symmetric=True draws undirected pairs and inserts both directions with a
    shared weight, which makes the resulting Laplacian weight-balanced.
    """
    if not (0 < p <= 1):
        raise ValueError("edge probability must be in (0, 1]")
    # The candidates read one stream of uniform doubles: each pair, in
    # row-major order, takes one double and is an edge when it is below p;
    # an edge's weight is lo + span * u of the next double, which is what
    # rng.uniform(lo, hi) computes from u. A candidate of P pairs with m
    # edges reads P + m <= 2P doubles, so it is decoded from a block of 2P,
    # and the next candidate resumes right after them.
    if symmetric:
        pair_src, pair_dst = np.triu_indices(n, 1)
    else:
        pair_src, pair_dst = np.nonzero(~np.eye(n, dtype=bool))
    pairs = len(pair_src)
    rng = np.random.default_rng(seed)
    lo = float(weight_range[0])
    span = float(weight_range[1]) - lo
    stream = np.empty(0)
    for _ in range(max_retries):
        if len(stream) < 2 * pairs:
            stream = np.concatenate([stream, rng.random(2 * pairs)])
        block = stream[: 2 * pairs]
        # In a run of consecutive hits, pair draws and weights alternate,
        # starting with a pair draw; the k-th pair draw that hits sits k
        # weights past its pair index.
        hits = np.flatnonzero(block < p)
        k = np.arange(len(hits))
        run_start = np.maximum.accumulate(np.where(np.diff(hits, prepend=-2) != 1, k, 0))
        at = hits[(k - run_start) % 2 == 0]
        index = at - np.arange(len(at))
        m = int(np.searchsorted(index, pairs))
        index, weight = index[:m], lo + span * block[at[:m] + 1]
        src, dst = pair_src[index], pair_dst[index]
        if symmetric:
            src, dst = np.column_stack([src, dst]).ravel(), np.column_stack([dst, src]).ravel()
            weight = np.repeat(weight, 2)
        stream = stream[pairs + m :]
        g = build_graph(n, np.column_stack([src, dst, weight]))
        # The property calls check_no_covering by its module name and keeps
        # the report, so the accepted graph is never scanned again.
        report = g.assumptions
        if report.irreducible and not (require_no_covering and report.covering_violations):
            return g
    raise RuntimeError(
        f"no admissible random graph found in {max_retries} retries (n={n}, p={p})"
    )


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a dense matrix."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(a, dtype=float)))))
