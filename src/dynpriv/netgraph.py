"""Weighted digraphs and the structural checks behind masked multiagent dynamics.

Edge direction convention: an edge (src, dst, w) means dst receives from src,
i.e. src belongs to the in-neighborhood of dst. All matrix representations
follow that convention: the adjacency entry A[i, j] is the weight of j -> i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPECTRAL_TOL = 1e-10
#: Column/row-sum tolerance under which a Laplacian counts as weight-balanced.
BALANCE_TOL = 1e-9


class GraphConstructionError(ValueError):
    """An edge list violates the digraph preconditions."""


@dataclass(frozen=True)
class Digraph:
    """Immutable weighted digraph with derived neighborhood structure."""

    n: int
    edges: tuple[tuple[int, int, float], ...]
    in_nbrs: tuple[frozenset, ...]
    out_nbrs: tuple[frozenset, ...]

    def closed_in_neighborhood(self, i: int) -> frozenset:
        return self.in_nbrs[i] | {i}


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


def build_graph(n: int, edges) -> Digraph:
    """Validate an edge list and construct a Digraph.

    Raises GraphConstructionError naming the offending edge on self-loops,
    duplicate (src, dst) pairs, out-of-range endpoints, or non-positive
    weights.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise GraphConstructionError(f"node count must be a positive integer, got {n!r}")
    seen = set()
    clean = []
    for edge in edges:
        src, dst, w = edge
        src, dst, w = int(src), int(dst), float(w)
        if src == dst:
            raise GraphConstructionError(f"self-loop on edge ({src}, {dst}, {w})")
        if not (0 <= src < n and 0 <= dst < n):
            raise GraphConstructionError(f"node out of range on edge ({src}, {dst}, {w})")
        if w <= 0:
            raise GraphConstructionError(f"non-positive weight on edge ({src}, {dst}, {w})")
        if (src, dst) in seen:
            raise GraphConstructionError(f"duplicate edge ({src}, {dst}, {w})")
        seen.add((src, dst))
        clean.append((src, dst, w))
    in_nbrs = [set() for _ in range(n)]
    out_nbrs = [set() for _ in range(n)]
    for src, dst, _ in clean:
        in_nbrs[dst].add(src)
        out_nbrs[src].add(dst)
    return Digraph(
        n=int(n),
        edges=tuple(clean),
        in_nbrs=tuple(frozenset(s) for s in in_nbrs),
        out_nbrs=tuple(frozenset(s) for s in out_nbrs),
    )


def adjacency(g: Digraph) -> np.ndarray:
    """In-adjacency matrix: A[i, j] = weight of edge j -> i, zero diagonal."""
    a = np.zeros((g.n, g.n))
    for src, dst, w in g.edges:
        a[dst, src] = w
    return a


def laplacian(g: Digraph) -> np.ndarray:
    """In-degree Laplacian: L[i, j] = -w(j->i) for i != j, rows sum to zero.

    The diagonal is set to the negated off-diagonal row sum, so L @ 1 = 0
    holds exactly in floating point.
    """
    lap = -adjacency(g)
    np.fill_diagonal(lap, 0.0)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def is_weight_balanced(lap: np.ndarray) -> bool:
    """True iff every column sum of the Laplacian has magnitude <= BALANCE_TOL."""
    return bool(np.max(np.abs(lap.sum(axis=0))) <= BALANCE_TOL)


def _reachable(n: int, fwd: tuple, start: int) -> set:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in fwd[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def is_irreducible(g: Digraph) -> bool:
    """True iff the digraph is strongly connected (the standard matrix
    irreducibility proxy). Single-node graphs count as irreducible."""
    if g.n == 1:
        return True
    fwd = _reachable(g.n, g.out_nbrs, 0)
    if len(fwd) != g.n:
        return False
    bwd = _reachable(g.n, g.in_nbrs, 0)
    return len(bwd) == g.n


def check_no_covering(g: Digraph) -> AssumptionReport:
    """Exhaustively test all ordered pairs for covering closed neighborhoods."""
    closed = [g.closed_in_neighborhood(i) for i in range(g.n)]
    violations = []
    for i in range(g.n):
        for j in range(g.n):
            if i != j and closed[i] <= closed[j]:
                violations.append((i, j))
    return AssumptionReport(
        irreducible=is_irreducible(g),
        weight_balanced=is_weight_balanced(laplacian(g)),
        covering_violations=tuple(violations),
    )


def left_null_vector(lap: np.ndarray, tol: float = SPECTRAL_TOL) -> np.ndarray:
    """Positive left null vector xi of an irreducible Laplacian.

    Returns xi with xi^T L = 0 (residual <= tol), all entries strictly
    positive, normalized so the entries sum to 1. Raises ValueError when the
    null space is not one-dimensional (reducible Laplacian).
    """
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    if n == 1:
        return np.array([1.0])
    _, svals, vt = np.linalg.svd(lap.T)
    scale = max(svals[0], 1.0)
    if svals[-1] > tol * scale:
        raise ValueError("Laplacian has no null vector within tolerance")
    if svals[-2] <= tol * scale:
        raise ValueError("null vector not unique (reducible Laplacian)")
    xi = vt[-1]
    xi = xi / xi.sum()
    residual = np.max(np.abs(xi @ lap))
    if residual > tol * scale:
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


def _doubles(rng, chunk: int):
    """The rng's stream of uniform doubles in [0, 1), drawn chunk at a time."""
    while True:
        yield from rng.random(chunk).tolist()


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
    # Each pair takes one double and each edge's weight the next one, in
    # pair order; lo + span * u is what rng.uniform(lo, hi) computes from u,
    # so a seed's graph does not depend on the chunk size of the stream.
    draw = _doubles(np.random.default_rng(seed), n * n).__next__
    lo = float(weight_range[0])
    span = float(weight_range[1]) - lo
    for _ in range(max_retries):
        edges = []
        if symmetric:
            for i in range(n):
                for j in range(i + 1, n):
                    if draw() < p:
                        w = lo + span * draw()
                        edges.append((i, j, w))
                        edges.append((j, i, w))
        else:
            for i in range(n):
                for j in range(n):
                    if i != j and draw() < p:
                        edges.append((i, j, lo + span * draw()))
        g = build_graph(n, edges)
        report = check_no_covering(g)
        if report.irreducible and not (require_no_covering and report.covering_violations):
            return g
    raise RuntimeError(
        f"no admissible random graph found in {max_retries} retries (n={n}, p={p})"
    )


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a dense matrix."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(a, dtype=float)))))
