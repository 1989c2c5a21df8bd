import math
from dataclasses import replace

import numpy as np
import pytest

from dynpriv.analysis import (
    R_SYMMETRY_TOL,
    attractor_verdicts,
    check_coupling_matrix,
    check_pinning_condition,
    consensus_value,
    conservation_series,
    fj_equilibrium,
    jacobi_eigenvalues,
    max_increase,
    series_table,
    stationarity_residual,
    sync_error_series,
    vmm_series,
)
from dynpriv.dynamics import (
    AverageConsensus,
    FriedkinJohnsen,
    LorenzDrift,
    MaskedSystem,
    PinnedSync,
    TanhDrift,
)
from dynpriv.masks import CHUNK, MaskBank, MaskKind, MaskParams
from dynpriv.netgraph import cycle_graph, erdos_renyi, laplacian, left_null_vector
from dynpriv.solver import IntegratorConfig, Trajectory, integrate


def _unmasked(spec):
    """The bare system as a run: spec under the identity mask bank."""
    return MaskedSystem(base=spec, bank=MaskBank.identity(spec.dim))


def test_consensus_value_basic():
    assert consensus_value(np.array([1.0, 2.0, 3.0])) == 2.0
    assert consensus_value(np.full(5, 4.2)) == pytest.approx(4.2)
    with pytest.raises(ValueError, match="empty"):
        consensus_value(np.array([]))


def test_consensus_value_matches_compensated_summation():
    rng = np.random.default_rng(0)
    x = rng.uniform(-100, 100, 100)
    assert consensus_value(x) == pytest.approx(math.fsum(x) / 100, abs=1e-12)


def test_fj_equilibrium_trivial_cases():
    assert fj_equilibrium(np.zeros((1, 1)), np.array([1.0]), np.array([3.0])) == pytest.approx([3.0])
    lap = laplacian(cycle_graph(4))
    x0 = np.array([1.0, -2.0, 0.5, 3.0])
    x_star = fj_equilibrium(lap, np.full(4, 1e6), x0)
    assert np.max(np.abs(x_star - x0)) < 1e-4


def _gauss_solve(a, b):
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    for col in range(n - 1):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def test_fj_equilibrium_matches_elimination_oracle_and_is_stationary():
    lap = laplacian(cycle_graph(3))
    theta = np.ones(3)
    x0 = np.array([1.0, 0.0, 0.0])
    x_star = fj_equilibrium(lap, theta, x0)
    oracle = _gauss_solve(lap + np.diag(theta), theta * x0)
    assert np.max(np.abs(x_star - oracle)) < 1e-12
    spec = FriedkinJohnsen(laplacian=lap, theta=theta, anchor=x0)
    assert stationarity_residual(spec, x_star) <= 1e-10


def test_fj_equilibrium_stationarity_random_instances():
    rng = np.random.default_rng(1)
    for trial in range(50):
        n = int(rng.integers(3, 11))
        g = erdos_renyi(n, 0.5, seed=1000 + trial, require_no_covering=False)
        lap = laplacian(g)
        theta = rng.uniform(0.05, 1.0, n)
        x0 = rng.uniform(-5, 5, n)
        x_star = fj_equilibrium(lap, theta, x0)
        spec = FriedkinJohnsen(laplacian=lap, theta=theta, anchor=x0)
        assert stationarity_residual(spec, x_star) <= 1e-9


def test_stationarity_residual_of_a_pinned_rest_point():
    # every agent and the exosystem at the Lorenz origin, a rest point of
    # the drift, so coupling and pinning vanish too
    spec = PinnedSync(
        laplacian=laplacian(cycle_graph(4)),
        r=np.eye(3),
        pin_gains=np.array([2.0, 0.0, 1.0, 0.0]),
        drift=LorenzDrift(),
        nu=3,
    )
    assert stationarity_residual(spec, np.zeros(spec.dim), np.zeros(3)) == 0.0
    # off the rest point the residual is the field's largest component
    x = np.zeros(spec.dim)
    x[1] = 1.0  # agent 0's y, whose drift term x' = sigma * y = 10 is the largest
    assert stationarity_residual(spec, x, np.zeros(3)) == 10.0


def test_fj_equilibrium_rejects_zero_theta():
    lap = laplacian(cycle_graph(3))
    with pytest.raises(ValueError, match="nonzero"):
        fj_equilibrium(lap, np.zeros(3), np.ones(3))


def _toy_traj(x, y=None, times=None, s=None):
    x = np.asarray(x, dtype=float)
    times = np.arange(len(x), dtype=float) if times is None else np.asarray(times, float)
    y = x.copy() if y is None else np.asarray(y, dtype=float)
    return Trajectory(times=times, x=x, y=y, s=s)


def test_vmm_series_constant_consensus_is_zero():
    traj = _toy_traj(np.tile([2.0, 2.0, 2.0], (5, 1)))
    assert np.all(vmm_series(traj) == 0.0)


def test_vmm_unmasked_consensus_non_increasing():
    spec = AverageConsensus(laplacian=laplacian(cycle_graph(5)))
    cfg = IntegratorConfig(dt=1e-2, t_final=20.0, record_stride=10)
    traj = integrate(_unmasked(spec), np.array([1.0, -2.0, 4.0, 0.0, 2.0]), cfg)
    series = vmm_series(traj)
    assert np.all(np.diff(series) <= 1e-12)
    assert max_increase(series) <= 1e-12


def test_max_increase_detects_bumps():
    assert max_increase(np.array([3.0, 1.0, 2.0, 0.5])) == pytest.approx(1.0)
    assert max_increase(np.array([3.0, 2.0, 1.0])) == 0.0


def _gap_columns(traj):
    header, table = series_table(traj)
    return table[:, header.index("gap_min")], table[:, header.index("gap_max")]


def test_series_table_gap_columns_identity_and_additive():
    # min and max over the agents bound every agent's gap |y_i - x_i|
    for column in _gap_columns(_toy_traj(np.zeros((4, 2)))):
        assert np.all(column == 0.0)
    bank = MaskBank([(MaskKind.ADDITIVE, MaskParams(gamma=2.0, delta=1.0))] * 2)
    x = np.zeros((1, 2))
    y = bank.eval_series(np.array([0.0]), x)
    traj = _toy_traj(x, y=y, times=np.array([0.0]))
    for column in _gap_columns(traj):
        assert np.all(column[0] == 2.0)


# --- the post-integration passes run a chunk of rows at a time ---------------


def _mixed_bank(dim, seed):
    """A bank whose channels cycle through every kind, with drawn parameters."""
    rng = np.random.default_rng(seed)
    draws = {
        MaskKind.IDENTITY: lambda: MaskParams(),
        MaskKind.LINEAR: lambda: MaskParams(phi=rng.uniform(0, 2), sigma=rng.uniform(0.5, 2)),
        MaskKind.ADDITIVE: lambda: MaskParams(gamma=rng.uniform(1, 3), delta=rng.uniform(0.5, 2)),
        MaskKind.AFFINE: lambda: MaskParams(
            c=rng.uniform(1.2, 2.5), gamma=-rng.uniform(1, 3), delta=rng.uniform(0.5, 2)
        ),
        MaskKind.VANISHING_AFFINE: lambda: MaskParams(
            phi=rng.uniform(0.5, 2), sigma=rng.uniform(0.5, 2),
            gamma=rng.uniform(1, 3), delta=rng.uniform(0.5, 2),
        ),
    }
    kinds = list(MaskKind)
    return MaskBank([(kinds[i % len(kinds)], draws[kinds[i % len(kinds)]]()) for i in range(dim)])


#: Row counts around the rows per chunk c of a pass over a table.
ROW_COUNTS = pytest.mark.parametrize(
    "rows_of",
    [lambda c: 1, lambda c: c - 1, lambda c: c, lambda c: c + 1, lambda c: 3 * c + 5],
    ids=["1", "chunk-1", "chunk", "chunk+1", "3chunk+5"],
)


@pytest.mark.parametrize("dim", [1, 7, 100])
@ROW_COUNTS
def test_eval_series_equals_row_wise_eval_bit_for_bit(dim, rows_of):
    rows = rows_of(CHUNK // dim)
    bank = _mixed_bank(dim, seed=rows)
    rng = np.random.default_rng(dim)
    times = np.sort(rng.uniform(0.0, 60.0, rows))
    states = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-3, 4, (rows, dim))
    want = np.array([bank.eval(t, x) for t, x in zip(times.tolist(), states)])
    assert bank.eval_series(times, states).tobytes() == want.tobytes()
    # the axiom grid passes one probe state per row, broadcast over the channels
    probes = rng.uniform(-5.0, 5.0, rows)
    got = bank.eval_series(np.zeros(rows), np.broadcast_to(probes[:, None], (rows, dim)))
    want = np.array([bank.eval(0.0, np.full(dim, v)) for v in probes.tolist()])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n,nu", [(1, 1), (7, 2), (50, 3)])
@ROW_COUNTS
def test_chunked_gap_and_sync_columns_equal_whole_table_bytes(n, nu, rows_of):
    d = n * nu
    rows = rows_of(CHUNK // d)
    rng = np.random.default_rng(d + rows)
    # states and exosystem side by side, as integrate records them
    states = rng.standard_normal((rows, d + nu))
    x, s = states[:, :d], states[:, d:]
    y = x + rng.standard_normal((rows, d)) * 10.0 ** rng.integers(-8, 2, (rows, d))
    traj = Trajectory(times=np.arange(rows, dtype=float), x=x, y=y, s=s)
    gap = np.abs(y - x)
    gap_min, gap_max = _gap_columns(traj)
    assert gap_min.tobytes() == gap.min(axis=1).tobytes()
    assert gap_max.tobytes() == gap.max(axis=1).tobytes()
    err = x.reshape(rows, n, nu) - s[:, None, :]
    max_err, full_err = sync_error_series(traj)
    assert max_err.tobytes() == np.linalg.norm(err, axis=2).max(axis=1).tobytes()
    assert full_err.tobytes() == np.linalg.norm(err.reshape(rows, -1), axis=1).tobytes()


def test_conservation_series_shapes():
    traj = _toy_traj(np.array([[1.0, 3.0], [2.0, 2.0]]))
    mean_x, mean_y = conservation_series(traj)
    assert np.allclose(mean_x, [2.0, 2.0])
    assert np.allclose(mean_y, mean_x)


def test_jacobi_reproduces_trace_and_determinant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.standard_normal((6, 6))
        m = 0.5 * (m + m.T)
        ev = jacobi_eigenvalues(m)
        assert np.sum(ev) == pytest.approx(np.trace(m), rel=1e-8, abs=1e-10)
        assert np.prod(ev) == pytest.approx(np.linalg.det(m), rel=1e-8, abs=1e-10)
        assert np.max(np.abs(ev - np.linalg.eigvalsh(m))) < 1e-9


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [2.0, 0.0]]))


def _char_poly_eigs_3x3(m):
    # eigenvalue oracle for symmetric 3x3 via the characteristic polynomial
    p1 = np.trace(m)
    p2 = 0.5 * (p1**2 - np.trace(m @ m))
    p3 = np.linalg.det(m)
    roots = np.roots([1.0, -p1, p2, -p3])
    return np.sort(roots.real)


def test_pinning_condition_three_cycle_scan():
    # uniform pinning on the 3-cycle admits a closed form: the symmetrized
    # Laplacian part has eigenvalues {0, 1.5, 1.5}, so the margin is (q - p)/3
    lap = laplacian(cycle_graph(3))
    xi = left_null_vector(lap)
    margins = []
    for gain in (0.0, 1.0, 5.0, 20.0):
        p = np.full(3, gain)
        margins.append(check_pinning_condition(lap, np.eye(2), p, xi, q=1.0))
    assert all(a > b for a, b in zip(margins, margins[1:]))
    assert margins[0] > 0  # q=1 with no pinning fails on the agreement direction
    assert np.allclose(margins, [(1.0 - g) / 3.0 for g in (0.0, 1.0, 5.0, 20.0)], atol=1e-9)
    first_neg = next(g for g, m in zip((0.0, 1.0, 5.0, 20.0), margins) if m < 0)
    assert first_neg == 5.0
    # cross-check one margin against the characteristic-polynomial oracle
    p = np.full(3, 5.0)
    m = 1.0 * np.diag(xi) - 0.5 * (np.diag(xi) @ lap + lap.T @ np.diag(xi)) - np.diag(xi * p)
    assert check_pinning_condition(lap, np.eye(2), p, xi, q=1.0) == pytest.approx(
        _char_poly_eigs_3x3(0.5 * (m + m.T))[-1], abs=1e-9
    )


def test_pinning_condition_sign_cases():
    lap = laplacian(erdos_renyi(4, 0.6, seed=5, symmetric=True, require_no_covering=False))
    xi = left_null_vector(lap)
    p0 = np.zeros(4)
    assert check_pinning_condition(lap, np.eye(2), p0, xi, q=-0.5) < 0
    assert check_pinning_condition(lap, np.eye(2), p0, xi, q=100.0) > 0


def test_pinning_condition_matches_kronecker_bruteforce():
    rng = np.random.default_rng(6)
    agree = 0
    for trial in range(25):
        n = int(rng.integers(2, 5))
        nu = int(rng.integers(1, 4))
        g = erdos_renyi(n, 0.7, seed=2000 + trial, require_no_covering=False)
        lap = laplacian(g)
        xi = left_null_vector(lap)
        r = rng.standard_normal((nu, nu))
        r = r @ r.T + nu * np.eye(nu)
        p = np.where(rng.random(n) < 0.5, rng.uniform(0, 5, n), 0.0)
        q = float(rng.uniform(-2, 4))
        margin = check_pinning_condition(lap, r, p, xi, q)
        if abs(margin) < 1e-8:
            continue
        xi_mat = np.diag(xi)
        big = np.kron(
            q * xi_mat - 0.5 * (xi_mat @ lap + lap.T @ xi_mat) - xi_mat @ np.diag(p), r
        )
        brute = float(np.max(jacobi_eigenvalues(0.5 * (big + big.T))))
        assert (margin < 0) == (brute < 0)
        agree += 1
    assert agree >= 20


def test_pinning_condition_validation():
    lap = laplacian(cycle_graph(3))
    xi = left_null_vector(lap)
    with pytest.raises(ValueError, match="positive definite"):
        check_pinning_condition(lap, -np.eye(2), np.zeros(3), xi, q=0.0)
    with pytest.raises(ValueError, match="symmetric"):
        check_pinning_condition(lap, np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(3), xi, q=0.0)
    with pytest.raises(ValueError, match="positive"):
        check_pinning_condition(lap, np.eye(2), np.zeros(3), np.array([0.5, 0.5, 0.0]), q=0.0)


@pytest.mark.parametrize("skew,ok", [(0.5 * R_SYMMETRY_TOL, True), (2.0 * R_SYMMETRY_TOL, False)])
def test_coupling_matrix_has_one_check_for_both_callers(skew, ok):
    # the pinned system and the margin accept and reject the same R
    lap = laplacian(cycle_graph(3))
    r = np.array([[1.0, skew], [0.0, 1.0]])
    drift = TanhDrift(a=-np.eye(2), b=0.3 * np.eye(2))
    callers = (
        lambda: PinnedSync(laplacian=lap, r=r, pin_gains=np.ones(3), drift=drift, nu=2),
        lambda: check_pinning_condition(lap, r, np.ones(3), left_null_vector(lap), q=0.0),
        lambda: check_coupling_matrix(r),
    )
    for call in callers:
        if ok:
            call()
        else:
            with pytest.raises(ValueError, match="inner coupling matrix must be symmetric"):
                call()


def test_sync_error_series_zero_when_agents_match_exosystem():
    s = np.tile([0.5, -0.5], (4, 1))
    x = np.tile([0.5, -0.5, 0.5, -0.5, 0.5, -0.5], (4, 1))
    traj = _toy_traj(x, s=s)
    max_err, full_err = sync_error_series(traj)
    assert np.all(max_err == 0.0)
    assert np.all(full_err == 0.0)


def test_sync_error_series_requires_exosystem():
    with pytest.raises(ValueError, match="exosystem"):
        sync_error_series(_toy_traj(np.zeros((3, 4))))


def test_attractor_verdicts_basic():
    spec = AverageConsensus(laplacian=laplacian(cycle_graph(3)))
    cfg = IntegratorConfig(dt=1e-2, t_final=30.0, record_stride=10)
    traj = integrate(_unmasked(spec), np.array([1.0, 2.0, 3.0]), cfg)
    check = attractor_verdicts(traj, np.full(3, 2.0), tol_conv=1e-3)
    assert check.converged


def test_attraction_uniform_over_mask_clock_and_initial_state():
    # attractivity probed uniformly: translate the mask clock to several
    # start times and re-run from several seeded initial states; the
    # consensus attractor must be reached in every combination
    g = erdos_renyi(8, 0.45, seed=12, symmetric=True)
    spec = AverageConsensus(laplacian=laplacian(g))
    rng = np.random.default_rng(13)
    base_bank = MaskBank.auto(MaskKind.VANISHING_AFFINE, 1.0, rng.uniform(-3, 3, 8), seed=14)
    cfg = IntegratorConfig(dt=1e-2, t_final=40.0, record_stride=10)
    probe = rng.uniform(-3, 3, 8)
    for t0 in (0.0, 5.0, 20.0):
        # the bank whose clock starts at t0, h'(t, x) = h(t + t0, x): the
        # decaying gain and offset shrink by exp(-sigma t0) and exp(-delta t0)
        bank = MaskBank(
            [
                (
                    kind,
                    replace(
                        p,
                        phi=p.phi * float(np.exp(-p.sigma * t0)),
                        gamma=p.gamma * float(np.exp(-p.delta * t0)),
                    ),
                )
                for kind, p in zip(base_bank.kinds, base_bank.params)
            ]
        )
        for t in (0.0, 0.7, 3.0):
            assert np.allclose(bank.eval(t, probe), base_bank.eval(t + t0, probe), rtol=1e-12)
        for _ in range(3):
            x0 = rng.uniform(-5, 5, 8)
            traj = integrate(MaskedSystem(base=spec, bank=bank), x0, cfg)
            eta = consensus_value(x0)
            check = attractor_verdicts(traj, np.full(8, eta), tol_conv=1e-3)
            assert check.converged, f"t0={t0}: final error {check.final_error}"
