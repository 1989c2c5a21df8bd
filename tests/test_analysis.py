import math
from types import SimpleNamespace

import numpy as np
import pytest
from common import gauss_solve, mixed_bank, simulated, unmasked
from hypothesis import given, settings
from hypothesis import strategies as st

from dynpriv import scenario
from dynpriv.analysis import (
    DiagnosticsReport,
    Summary,
    series_table,
    stationarity_residual,
)
from dynpriv.dynamics import (
    R_SYMMETRY_TOL,
    AverageConsensus,
    FriedkinJohnsen,
    LorenzDrift,
    MaskedSystem,
    PinnedSync,
    SaturatedNet,
    TanhDrift,
    jacobi_eigenvalues,
)
from dynpriv.masks import MaskBank, MaskKind
from dynpriv.netgraph import cycle_graph, erdos_renyi, laplacian, left_null_vector
from dynpriv.scenario import CHUNK
from dynpriv.solver import IntegratorConfig, Trajectory, integrate, write_csv


def _consensus_value(x0):
    """The consensus attractor's one value, for initial states x0."""
    spec = AverageConsensus(laplacian=laplacian(cycle_graph(len(x0))))
    x_star = spec.attractor(x0)
    assert np.all(x_star == x_star[0])
    return float(x_star[0])


def _fj_equilibrium(lap, theta, x0):
    """The rest point of the opinion dynamics anchored at x0."""
    return FriedkinJohnsen(laplacian=lap, theta=theta, anchor=x0).attractor(x0)


def test_consensus_value_basic():
    assert _consensus_value(np.array([1.0, 2.0, 3.0])) == 2.0
    assert _consensus_value(np.full(5, 4.2)) == pytest.approx(4.2)


def test_consensus_value_matches_compensated_summation():
    rng = np.random.default_rng(0)
    x = rng.uniform(-100, 100, 100)
    assert _consensus_value(x) == pytest.approx(math.fsum(x) / 100, abs=1e-12)


def test_fj_equilibrium_trivial_cases():
    assert _fj_equilibrium(np.zeros((1, 1)), np.array([1.0]), np.array([3.0])) == pytest.approx([3.0])
    lap = laplacian(cycle_graph(4))
    x0 = np.array([1.0, -2.0, 0.5, 3.0])
    # theta = 1 on L / 1e6 has the rest point of theta = 1e6 on L
    x_star = _fj_equilibrium(1e-6 * lap, np.ones(4), x0)
    assert np.max(np.abs(x_star - x0)) < 1e-4


def test_fj_equilibrium_matches_elimination_oracle_and_is_stationary():
    lap = laplacian(cycle_graph(3))
    theta = np.ones(3)
    x0 = np.array([1.0, 0.0, 0.0])
    x_star = _fj_equilibrium(lap, theta, x0)
    oracle = gauss_solve(lap + np.diag(theta), theta * x0)
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
        x_star = _fj_equilibrium(lap, theta, x0)
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


def _toy_series(x, bank=None, times=None, s=None):
    """series_table of states x at times (0, 1, ...), their outputs formed by bank (identity)."""
    x = np.asarray(x, dtype=float)
    times = np.arange(len(x), dtype=float) if times is None else np.asarray(times, float)
    bank = MaskBank.identity(x.shape[1]) if bank is None else bank
    return series_table(Trajectory(times=times, x=x, s=s), bank.eval_series(times, x))


def _summaries(series):
    """Each column of series folded whole into its Summary."""
    return {name: Summary().fold(column) for name, column in series.items()}


def test_vmm_series_constant_consensus_is_zero():
    assert np.all(_toy_series(np.tile([2.0, 2.0, 2.0], (5, 1)))["spread_x"] == 0.0)


def _max_increase(spread):
    """The spread rise that consensus's verdicts report for a spread_x column."""
    spec = AverageConsensus(laplacian=laplacian(cycle_graph(2)))
    flat = np.zeros(len(spread))
    series = _summaries({"mean_x": flat, "mean_y": flat, "spread_x": np.asarray(spread, float)})
    report = DiagnosticsReport(scenario="t")
    sc = SimpleNamespace(x0=np.zeros(2), tol_conv=1e-3)
    spec.verdicts(sc, Trajectory(times=np.zeros(1), x=np.zeros((1, 2))), series, report)
    return report.vmm_max_increase


def test_vmm_unmasked_consensus_non_increasing():
    spec = AverageConsensus(laplacian=laplacian(cycle_graph(5)))
    cfg = IntegratorConfig(dt=1e-2, t_final=20.0, record_stride=10)
    traj = integrate(unmasked(spec), np.array([1.0, -2.0, 4.0, 0.0, 2.0]), cfg)
    series = _toy_series(traj.x, times=traj.times)["spread_x"]
    assert np.all(np.diff(series) <= 1e-12)
    assert _max_increase(series) <= 1e-12


def test_max_increase_detects_bumps():
    assert _max_increase(np.array([3.0, 1.0, 2.0, 0.5])) == pytest.approx(1.0)
    assert _max_increase(np.array([3.0, 2.0, 1.0])) == 0.0


def _gap_columns(series):
    return series["gap_min"], series["gap_max"]


def test_series_table_gap_columns_identity_and_additive():
    # min and max over the agents bound every agent's gap |y_i - x_i|
    for column in _gap_columns(_toy_series(np.zeros((4, 2)))):
        assert np.all(column == 0.0)
    bank = MaskBank([{"kind": "additive", "gamma": 2.0, "delta": 1.0}] * 2)
    for column in _gap_columns(_toy_series(np.zeros((1, 2)), bank=bank, times=np.array([0.0]))):
        assert np.all(column[0] == 2.0)


# --- a run is reduced one window of rows at a time ----------------------------


#: Row counts around the rows per window c of a run.
ROW_COUNTS = pytest.mark.parametrize(
    "rows_of",
    [lambda c: 1, lambda c: c - 1, lambda c: c, lambda c: c + 1, lambda c: 3 * c + 5],
    ids=["1", "chunk-1", "chunk", "chunk+1", "3chunk+5"],
)


@pytest.mark.parametrize("dim", [1, 7, 100])
@ROW_COUNTS
def test_eval_series_equals_row_wise_eval_bit_for_bit(dim, rows_of):
    rows = rows_of(CHUNK // dim)
    bank = mixed_bank(dim, np.random.default_rng(rows))
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


def _chunk_case(case, nu, draw_int):
    """(rows, n) of one window-boundary case for n agents of nu values each:
    a row count that is a multiple of the rows per window in about half of
    the draws and short of one in the rest, a single row, or rows wider than
    a window."""
    if case == "ragged":
        n = draw_int(1, 60)
        per_chunk = CHUNK // (n * nu)
        return draw_int(1, 4) * per_chunk - draw_int(0, 1) * draw_int(1, per_chunk - 1), n
    if case == "single":
        return 1, draw_int(1, 300)
    return draw_int(2, 3), CHUNK // nu + draw_int(1, 40)  # one row per window


def _assert_chunked_outputs(rows, n, nu, rng, with_s, out):
    # a run forms y, its series rows, its CSV rows and its column summaries
    # one window of rows at a time, as many rows as scenario.CHUNK values hold;
    # each must give the bytes of the same formula on the whole tables
    d = n * nu
    times = np.sort(rng.uniform(0.0, 60.0, rows))
    states = rng.standard_normal((rows, d + nu)) * 10.0 ** rng.integers(-6, 4, (rows, d + nu))
    x, s = states[:, :d], (states[:, d:] if with_s else None)
    bank = mixed_bank(d, rng)
    y = bank.eval_series(times, x)

    gap = np.abs(y - x)
    whole = {
        "t": times,
        "mean_x": x.mean(axis=1),
        "mean_y": y.mean(axis=1),
        "spread_x": x.max(axis=1) - x.min(axis=1),
        "gap_min": gap.min(axis=1),
        "gap_max": gap.max(axis=1),
    }
    err = x.reshape(rows, n, nu) - states[:, None, d:]
    with_sync = {
        **whole,
        "sync_err_max": np.linalg.norm(err, axis=2).max(axis=1),
        "sync_err_norm": np.linalg.norm(err.reshape(rows, -1), axis=1),
    }
    per_window = max(1, CHUNK // (d + nu))
    cuts = [*range(0, rows, per_window), rows]
    for sync, want in ((None, whole), (states[:, d:], with_sync)):
        parts, summary = [], {}
        with open(out / "windows.csv", "wb") as fh:
            for a, b in zip(cuts, cuts[1:]):
                part_y = bank.eval_series(times[a:b], x[a:b])
                assert part_y.tobytes() == y[a:b].tobytes()
                traj = Trajectory(times[a:b], x[a:b], None if sync is None else sync[a:b])
                parts.append(series_table(traj, part_y))
                for name, column in parts[-1].items():
                    summary.setdefault(name, Summary()).fold(column)
                traj.to_csv(fh, part_y, header=not a)
        assert list(parts[0]) == list(want)
        for name, column in want.items():
            assert np.concatenate([p[name] for p in parts]).tobytes() == column.tobytes(), name
            got = summary[name]
            low = np.minimum.accumulate(column)
            assert [got.first, got.last, got.rise] == [column[0], column[-1], np.max(column - low)], name
            assert [got.min, got.max] == [column.min(), column.max()], name
        got = (out / "windows.csv").read_bytes()
        blocks = (times[:, None], x, y) + (() if sync is None else (sync,))
        with open(out / "whole.csv", "wb") as fh:
            write_csv(fh, got.split(b"\n", 1)[0].decode().split(","), blocks)
        assert got == (out / "whole.csv").read_bytes()


@pytest.mark.parametrize("case", ["ragged", "single", "wide"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_chunked_outputs_equal_one_whole_record_table_bit_for_bit(case, data, tmp_path_factory):
    nu = data.draw(st.integers(1, 3))
    rows, n = _chunk_case(case, nu, lambda lo, hi: data.draw(st.integers(lo, hi)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    with_s = data.draw(st.booleans())
    _assert_chunked_outputs(rows, n, nu, rng, with_s, tmp_path_factory.mktemp("csv"))


@pytest.mark.parametrize("n,nu", [(1, 1), (7, 2), (50, 3)])
@ROW_COUNTS
def test_chunked_gap_and_sync_columns_equal_whole_table_bytes(n, nu, rows_of, tmp_path):
    rows = rows_of(CHUNK // (n * nu))
    _assert_chunked_outputs(rows, n, nu, np.random.default_rng(n * nu + rows), True, tmp_path)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_consensus_verdicts_from_window_summaries_equal_the_whole_column_formulas(data):
    # the verdicts once read whole columns; the summaries folded over any
    # split of the rows into windows give the same numbers, with ties and
    # signed zeros among the values
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = data.draw(st.integers(1, 200))
    eta = float(rng.choice([0.0, 1.5, -3.25]))
    pool = eta + np.array([-0.0, 0.0, -1.0, 1.0, 2.5]) * 10.0 ** rng.integers(-12, 3)

    def column():
        return np.where(rng.random(rows) < 0.5, rng.choice(pool, rows), eta + rng.standard_normal(rows))

    columns = {"mean_x": column(), "mean_y": column(), "spread_x": np.abs(column())}
    cuts = sorted({0, rows, *data.draw(st.lists(st.integers(0, rows), max_size=6))})
    summary = {name: Summary() for name in columns}
    for a, b in zip(cuts, cuts[1:]):
        for name, col in columns.items():
            summary[name].fold(col[a:b])
    spec = AverageConsensus(laplacian=laplacian(cycle_graph(2)))
    report = DiagnosticsReport(scenario="t")
    sc = SimpleNamespace(x0=np.full(2, eta), tol_conv=1e-3)
    spec.verdicts(sc, Trajectory(times=np.zeros(1), x=np.zeros((1, 2))), summary, report)
    mean_x, mean_y, spread = columns.values()
    assert np.float64(report.conservation_dev).tobytes() == np.max(np.abs(mean_x - eta)).tobytes()
    assert report.output_mean_range == np.ptp(mean_y)
    rise = np.max(spread - np.minimum.accumulate(spread))
    assert np.float64(report.vmm_max_increase).tobytes() == rise.tobytes()


def test_conservation_series_shapes():
    series = _toy_series(np.array([[1.0, 3.0], [2.0, 2.0]]))
    mean_x, mean_y = series["mean_x"], series["mean_y"]
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


def _margin(lap, r, p, xi, q):
    """PinnedSync's pinning margin on Laplacian lap, coupling r and gains p."""
    nu = len(r)
    drift = TanhDrift(a=-np.eye(nu), b=np.zeros((nu, nu)))
    spec = PinnedSync(laplacian=lap, r=r, pin_gains=p, drift=drift, nu=nu)
    return spec.pinning_margin(xi, q)


def test_pinning_condition_three_cycle_scan():
    # uniform pinning on the 3-cycle admits a closed form: the symmetrized
    # Laplacian part has eigenvalues {0, 1.5, 1.5}, so the margin is (q - p)/3
    lap = laplacian(cycle_graph(3))
    xi = left_null_vector(lap)
    margins = []
    for gain in (0.0, 1.0, 5.0, 20.0):
        p = np.full(3, gain)
        margins.append(_margin(lap, np.eye(2), p, xi, q=1.0))
    assert all(a > b for a, b in zip(margins, margins[1:]))
    assert margins[0] > 0  # q=1 with no pinning fails on the agreement direction
    assert np.allclose(margins, [(1.0 - g) / 3.0 for g in (0.0, 1.0, 5.0, 20.0)], atol=1e-9)
    first_neg = next(g for g, m in zip((0.0, 1.0, 5.0, 20.0), margins) if m < 0)
    assert first_neg == 5.0
    # cross-check one margin against the characteristic-polynomial oracle
    p = np.full(3, 5.0)
    m = 1.0 * np.diag(xi) - 0.5 * (np.diag(xi) @ lap + lap.T @ np.diag(xi)) - np.diag(xi * p)
    assert _margin(lap, np.eye(2), p, xi, q=1.0) == pytest.approx(
        _char_poly_eigs_3x3(0.5 * (m + m.T))[-1], abs=1e-9
    )


def test_pinning_condition_sign_cases():
    lap = laplacian(erdos_renyi(4, 0.6, seed=5, symmetric=True, require_no_covering=False))
    xi = left_null_vector(lap)
    p0 = np.zeros(4)
    assert _margin(lap, np.eye(2), p0, xi, q=-0.5) < 0
    assert _margin(lap, np.eye(2), p0, xi, q=100.0) > 0


def test_bundled_pinning_margin_keeps_its_bits():
    # the margin of the one bundled sync_condition, from a build alone; its
    # report digest pins the same bits, but only through a whole run
    sc = scenario.build_scenario(scenario.load_bundled("example4_pinning_n10"))
    cond = sc.sync_condition
    assert sc.system.pinning_margin(cond["xi"], cond["q"]) == -0.007534568041490155


@pytest.mark.parametrize("skew,ok", [(0.5 * R_SYMMETRY_TOL, True), (2.0 * R_SYMMETRY_TOL, False)])
def test_coupling_matrix_is_checked_once_at_build(skew, ok, monkeypatch):
    # PinnedSync's constructor is the one check of R: it accepts R within
    # R_SYMMETRY_TOL of symmetric, and a pinned run with a sync_condition
    # sends R through eigvalsh once, at build, and never in its verdicts
    lap = laplacian(cycle_graph(3))
    r = np.array([[1.0, skew], [0.0, 1.0]])
    drift = TanhDrift(a=-np.eye(2), b=0.3 * np.eye(2))
    if not ok:
        with pytest.raises(ValueError, match="inner coupling matrix must be symmetric"):
            PinnedSync(laplacian=lap, r=r, pin_gains=np.ones(3), drift=drift, nu=2)
        return
    PinnedSync(laplacian=lap, r=r, pin_gains=np.ones(3), drift=drift, nu=2)
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    config = scenario.load_bundled("example4_pinning_n10")
    config["integrator"]["t_final"] = 0.5
    sc = scenario.build_scenario(config)
    assert len(calls) == 1 and calls[0].tobytes() == sc.system.r.tobytes()
    report = simulated(sc)[2]
    assert len(calls) == 1 and report.lmi_margin < 0


def test_sync_error_series_zero_when_agents_match_exosystem():
    s = np.tile([0.5, -0.5], (4, 1))
    x = np.tile([0.5, -0.5, 0.5, -0.5, 0.5, -0.5], (4, 1))
    series = _toy_series(x, s=s)
    assert np.all(series["sync_err_max"] == 0.0)
    assert np.all(series["sync_err_norm"] == 0.0)


def test_series_table_has_sync_columns_only_with_exosystem():
    base = ["t", "mean_x", "mean_y", "spread_x", "gap_min", "gap_max"]
    assert list(_toy_series(np.zeros((3, 4)))) == base
    assert list(_toy_series(np.zeros((3, 4)), s=np.zeros((3, 2)))) == base + ["sync_err_max", "sync_err_norm"]


def test_attractor_verdicts_basic():
    # the base verdict (to attractor(x0)) and consensus's own, which reads
    # the series too, each judge the final state in the infinity norm
    cfg = IntegratorConfig(dt=1e-2, t_final=30.0, record_stride=10)
    x0 = np.array([1.0, 2.0, 3.0])
    for spec in (
        AverageConsensus(laplacian=laplacian(cycle_graph(3))),
        SaturatedNet(a=cycle_graph(3).a, kappa=0.2),
    ):
        traj = integrate(unmasked(spec), x0, cfg)
        series = _summaries(_toy_series(traj.x, times=traj.times))
        report = DiagnosticsReport(scenario="t")
        sc = SimpleNamespace(x0=x0, tol_conv=1e-3)
        verdicts = spec.verdicts(sc, traj, series, report)
        want = float(np.max(np.abs(traj.x[-1] - spec.attractor(x0))))
        assert report.final_error == want < 1e-3
        assert verdicts["converged"]
        # a tolerance at the final error itself fails: converged is strict
        sc = SimpleNamespace(x0=x0, tol_conv=want)
        assert not spec.verdicts(sc, traj, series, report)["converged"]


def test_consensus_attractor_is_the_constant_initial_mean():
    spec = AverageConsensus(laplacian=laplacian(cycle_graph(4)))
    x0 = np.array([0.1, 0.2, 0.3, 1.0])
    assert spec.attractor(x0).tobytes() == np.full(4, np.sum(x0) / 4).tobytes()


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
                {
                    "kind": "vanishing_affine",
                    "phi": phi * float(np.exp(-sigma * t0)),
                    "sigma": sigma,
                    "gamma": gamma * float(np.exp(-delta * t0)),
                    "delta": delta,
                }
                # the (phi, sigma, gamma, delta, c) rows of the bank's parameter arrays
                for phi, sigma, gamma, delta, _ in base_bank._values.T.tolist()
            ]
        )
        for t in (0.0, 0.7, 3.0):
            assert np.allclose(bank.eval(t, probe), base_bank.eval(t + t0, probe), rtol=1e-12)
        for _ in range(3):
            x0 = rng.uniform(-5, 5, 8)
            traj = integrate(MaskedSystem(base=spec, bank=bank), x0, cfg)
            final_error = float(np.max(np.abs(traj.x[-1] - spec.attractor(x0))))
            assert final_error < 1e-3, f"t0={t0}: final error {final_error}"
