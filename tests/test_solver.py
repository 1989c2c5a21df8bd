import numpy as np
import pytest

from dynpriv.analysis import series_table
from dynpriv.dynamics import (
    AverageConsensus,
    MaskedSystem,
    PinnedSync,
    SaturatedNet,
    TanhDrift,
)
from dynpriv.masks import MaskBank, MaskKind, MaskParams
from dynpriv.netgraph import cycle_graph, laplacian
from dynpriv.solver import (
    BLOWUP_LIMIT,
    BlowUpError,
    IntegratorConfig,
    integrate,
    solve_comparison_ode,
    write_csv,
)


def _decay_system():
    # dx/dt = -x realized as a Friedkin-Johnsen-free single channel:
    # saturated net with no couplings
    return SaturatedNet(a=np.zeros((1, 1)), kappa=1.0)


def test_constant_trajectory():
    spec = AverageConsensus(laplacian=np.zeros((2, 2)))
    cfg = IntegratorConfig(dt=0.1, t_final=1.0)
    traj = integrate(spec, np.array([3.0, -1.0]), cfg)
    assert np.all(traj.x == [3.0, -1.0])
    assert np.array_equal(traj.y, traj.x)


def test_rk4_matches_exponential_decay():
    cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
    traj = integrate(_decay_system(), np.array([1.0]), cfg)
    assert traj.x[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_unmasked_consensus_reaches_mean():
    spec = AverageConsensus(laplacian=laplacian(cycle_graph(3)))
    cfg = IntegratorConfig(dt=1e-2, t_final=40.0, record_stride=10)
    traj = integrate(spec, np.array([1.0, 2.0, 3.0]), cfg)
    assert np.max(np.abs(traj.x[-1] - 2.0)) < 1e-9


def test_rk4_order_via_step_halving():
    def err(dt):
        cfg = IntegratorConfig(dt=dt, t_final=1.0)
        traj = integrate(_decay_system(), np.array([1.0]), cfg)
        return abs(traj.x[-1, 0] - np.exp(-1.0))

    ratio = err(0.02) / err(0.01)
    assert 12.0 <= ratio <= 20.0


def test_euler_first_order():
    def err(dt):
        cfg = IntegratorConfig(method="euler", dt=dt, t_final=1.0)
        traj = integrate(_decay_system(), np.array([1.0]), cfg)
        return abs(traj.x[-1, 0] - np.exp(-1.0))

    ratio = err(0.02) / err(0.01)
    assert 1.7 <= ratio <= 2.3


def test_determinism_bit_identical():
    lap = laplacian(cycle_graph(4))
    bank = MaskBank(
        [(MaskKind.VANISHING_AFFINE, MaskParams(phi=1.0, sigma=1.0, gamma=2.0, delta=0.8))] * 4
    )
    ms = MaskedSystem(base=AverageConsensus(laplacian=lap), bank=bank)
    cfg = IntegratorConfig(dt=1e-3, t_final=2.0, record_stride=7)
    x0 = np.array([0.1, -0.2, 0.3, 0.7])
    t1 = integrate(ms, x0, cfg)
    t2 = integrate(ms, x0, cfg)
    assert np.array_equal(t1.x, t2.x)
    assert np.array_equal(t1.y, t2.y)
    assert np.array_equal(t1.times, t2.times)


def test_record_stride_and_final_sample():
    cfg = IntegratorConfig(dt=0.1, t_final=1.05, record_stride=4)
    traj = integrate(_decay_system(), np.array([1.0]), cfg)
    # 10 steps of 0.105; recorded at 0, 4, 8, and the final step 10
    assert np.allclose(np.diff(traj.times) > 0, True)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(cfg.n_steps * cfg.dt)
    assert len(traj.times) == 4


def test_masked_outputs_recomputed_from_states():
    bank = MaskBank([(MaskKind.ADDITIVE, MaskParams(gamma=2.0, delta=1.0))])
    ms = MaskedSystem(base=_decay_system(), bank=bank)
    cfg = IntegratorConfig(dt=1e-2, t_final=1.0, record_stride=10)
    traj = integrate(ms, np.array([1.0]), cfg)
    expected = bank.eval_series(traj.times, traj.x)
    assert np.array_equal(traj.y, expected)


def test_blowup_raises_with_last_sample():
    drift = TanhDrift(a=2.0 * np.eye(1), b=np.zeros((1, 1)))
    spec = PinnedSync(
        laplacian=laplacian(cycle_graph(3, weight=1e-6)),
        r=np.eye(1),
        pin_gains=np.zeros(3),
        drift=drift,
        nu=1,
    )
    cfg = IntegratorConfig(dt=1e-2, t_final=40.0, record_stride=100)
    with pytest.raises(BlowUpError, match="numerical blow-up at t=") as info:
        integrate(spec, np.full(3, 2.0), cfg, s0=np.array([2.0]))
    err = info.value
    assert err.last_time < err.t
    assert np.all(np.isfinite(err.last_state))


def test_x0_validation():
    cfg = IntegratorConfig(dt=0.1, t_final=1.0)
    with pytest.raises(ValueError, match="shape"):
        integrate(_decay_system(), np.zeros(2), cfg)
    with pytest.raises(ValueError, match="finite"):
        integrate(_decay_system(), np.array([np.nan]), cfg)


def test_integrator_config_validation():
    with pytest.raises(ValueError, match="method"):
        IntegratorConfig(method="rk45")
    with pytest.raises(ValueError, match="positive"):
        IntegratorConfig(dt=-1.0)
    with pytest.raises(ValueError, match="exceed"):
        IntegratorConfig(dt=2.0, t_final=1.0)
    with pytest.raises(ValueError, match="maximum"):
        IntegratorConfig(dt=1e-9, t_final=100.0)


def test_comparison_ode_closed_form():
    cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
    times, values = solve_comparison_ode(1.0, 0.0, 0.0, 1.0, 1.0, 1.0, cfg)
    assert values[-1] == pytest.approx(0.5, abs=1e-4)
    assert np.max(np.abs(values - 1.0 / (1.0 + times))) < 1e-4


def test_comparison_ode_zero_stays_zero():
    cfg = IntegratorConfig(dt=1e-2, t_final=5.0)
    _, values = solve_comparison_ode(1.0, 0.0, 0.0, 1.0, 1.0, 0.0, cfg)
    assert np.all(values == 0.0)


def test_comparison_ode_quadratic_tail_reference():
    # oracle-frozen reference: with a=b=c=1, delta=1, v0=5 the decay is
    # harmonic once the perturbations die, v(50) ~ 0.0207; the exact flow is
    # bounded below by the unperturbed solution 5/(1+5t)
    cfg = IntegratorConfig(dt=1e-3, t_final=50.0, record_stride=100)
    times, values = solve_comparison_ode(1.0, 1.0, 1.0, 1.0, 1.0, 5.0, cfg)
    assert values[-1] == pytest.approx(0.0206594, abs=1e-5)
    assert values[-1] >= 5.0 / (1.0 + 5.0 * 50.0)


def test_comparison_ode_long_horizon_trend():
    # perturbed draws keep decaying toward zero, but only harmonically
    cfg = IntegratorConfig(dt=1e-2, t_final=500.0, record_stride=1000)
    times, values = solve_comparison_ode(0.5, 2.0, 2.0, 0.3, 0.3, 8.0, cfg)
    idx100 = int(np.searchsorted(times, 100.0))
    idx250 = int(np.searchsorted(times, 250.0))
    assert values[-1] < values[idx250] < values[idx100]
    assert values[-1] < 0.05


def _blowup_witness(run, cfg):
    with pytest.raises(BlowUpError) as info:
        run(cfg)
    exc = info.value
    return exc.t, exc.last_time, exc.last_state.tolist()


def test_blowup_witness_independent_of_record_stride():
    # the witness is the state at the last finite step, not the last recorded row
    unstable = AverageConsensus(laplacian=np.array([[-10.0, 10.0], [10.0, -10.0]]))
    for run in (
        lambda cfg: solve_comparison_ode(1e-15, 10.0, 0.0, 1e-9, 1.0, 1.0, cfg),
        lambda cfg: integrate(unstable, np.array([1.0, -1.0]), cfg),
    ):
        w1, w4 = (
            _blowup_witness(run, IntegratorConfig(dt=0.1, t_final=10.0, record_stride=k))
            for k in (1, 4)
        )
        assert w1 == w4
        t, last_time, last_state = w1
        assert last_time == pytest.approx(t - 0.1)
        assert 0 < np.max(np.abs(last_state)) <= BLOWUP_LIMIT


def test_comparison_ode_validation():
    cfg = IntegratorConfig(dt=0.1, t_final=1.0)
    with pytest.raises(ValueError):
        solve_comparison_ode(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, cfg)
    with pytest.raises(ValueError):
        solve_comparison_ode(1.0, 0.0, 0.0, -1.0, 1.0, 1.0, cfg)
    with pytest.raises(ValueError):
        solve_comparison_ode(1.0, 0.0, 0.0, 1.0, 1.0, -1.0, cfg)


def test_csv_export_format(tmp_path):
    bank = MaskBank([(MaskKind.ADDITIVE, MaskParams(gamma=2.0, delta=1.0))])
    ms = MaskedSystem(base=_decay_system(), bank=bank)
    cfg = IntegratorConfig(dt=0.25, t_final=1.0)
    traj = integrate(ms, np.array([1.0]), cfg)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_0,y_0"
    parsed = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(parsed[:, 0], traj.times)
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(parsed[:, 1], traj.x[:, 0])
    assert np.array_equal(parsed[:, 2], traj.y[:, 0])
    # series.csv goes through the same writer
    header, table = series_table(traj)
    series = tmp_path / "series.csv"
    write_csv(series, header, table)
    lines = series.read_text().splitlines()
    assert lines[0] == "t,mean_x,mean_y,spread_x,gap_min,gap_max"
    assert len(lines) == 1 + len(traj.times)
    assert lines[1] == ",".join(f"{v:.17g}" for v in table[0])
    assert np.array_equal(np.loadtxt(series, delimiter=",", skiprows=1), table)
    # doubles that need all 17 digits survive the round trip
    exact = tmp_path / "exact.csv"
    write_csv(exact, ["a", "b"], np.array([[0.1 + 0.2, 1.0 / 3.0]]))
    assert exact.read_text() == "a,b\n0.30000000000000004,0.33333333333333331\n"
    assert np.array_equal(np.loadtxt(exact, delimiter=",", skiprows=1), [0.1 + 0.2, 1.0 / 3.0])


def test_csv_includes_exosystem_columns(tmp_path):
    drift = TanhDrift(a=-np.eye(2), b=np.zeros((2, 2)))
    spec = PinnedSync(
        laplacian=laplacian(cycle_graph(3)),
        r=np.eye(2),
        pin_gains=np.array([1.0, 0.0, 0.0]),
        drift=drift,
        nu=2,
    )
    cfg = IntegratorConfig(dt=0.1, t_final=0.5)
    traj = integrate(spec, np.zeros(6), cfg, s0=np.array([0.5, -0.5]))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["t"] + [f"x_{i}" for i in range(6)] + [f"y_{i}" for i in range(6)] + ["s_0", "s_1"]


def test_pinned_s0_required_and_shape_checked():
    drift = TanhDrift(a=-np.eye(2), b=np.zeros((2, 2)))
    spec = PinnedSync(
        laplacian=laplacian(cycle_graph(3)),
        r=np.eye(2),
        pin_gains=np.zeros(3),
        drift=drift,
        nu=2,
    )
    cfg = IntegratorConfig(dt=0.1, t_final=0.5)
    with pytest.raises(ValueError, match="exosystem"):
        integrate(spec, np.zeros(6), cfg)
    with pytest.raises(ValueError, match="s0"):
        integrate(spec, np.zeros(6), cfg, s0=np.zeros(3))
    with pytest.raises(ValueError, match="s0"):
        integrate(_decay_system(), np.zeros(1), cfg, s0=np.zeros(1))
