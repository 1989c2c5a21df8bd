import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynpriv.analysis import series_table
from dynpriv.dynamics import (
    CONSERVATION_TOL,
    AverageConsensus,
    FriedkinJohnsen,
    MaskedSystem,
    PinnedSync,
    SaturatedNet,
    TanhDrift,
    compile_stage,
    exosystem_field,
    field_unmasked,
)
from dynpriv.masks import MaskBank, MaskKind, MaskParams, choose_params
from dynpriv.netgraph import adjacency, build_graph, cycle_graph, is_weight_balanced, laplacian
from dynpriv.solver import (
    BLOWUP_LIMIT,
    TABLE_STEPS,
    BlowUpError,
    IntegratorConfig,
    _march,
    integrate,
    solve_comparison_ode,
    write_csv,
)


def _unmasked(spec):
    """The bare system as a run: spec under the identity mask bank."""
    return MaskedSystem(base=spec, bank=MaskBank.identity(spec.dim))


def _decay_system():
    # dx/dt = -x realized as a Friedkin-Johnsen-free single channel:
    # saturated net with no couplings
    return SaturatedNet(a=np.zeros((1, 1)), kappa=1.0)


def test_constant_trajectory():
    spec = AverageConsensus(laplacian=np.zeros((2, 2)))
    cfg = IntegratorConfig(dt=0.1, t_final=1.0)
    traj = integrate(_unmasked(spec), np.array([3.0, -1.0]), cfg)
    assert np.all(traj.x == [3.0, -1.0])
    assert np.array_equal(traj.y, traj.x)


def test_rk4_matches_exponential_decay():
    cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
    traj = integrate(_unmasked(_decay_system()), np.array([1.0]), cfg)
    assert traj.x[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_unmasked_consensus_reaches_mean():
    spec = AverageConsensus(laplacian=laplacian(cycle_graph(3)))
    cfg = IntegratorConfig(dt=1e-2, t_final=40.0, record_stride=10)
    traj = integrate(_unmasked(spec), np.array([1.0, 2.0, 3.0]), cfg)
    assert np.max(np.abs(traj.x[-1] - 2.0)) < 1e-9


def test_rk4_order_via_step_halving():
    def err(dt):
        cfg = IntegratorConfig(dt=dt, t_final=1.0)
        traj = integrate(_unmasked(_decay_system()), np.array([1.0]), cfg)
        return abs(traj.x[-1, 0] - np.exp(-1.0))

    ratio = err(0.02) / err(0.01)
    assert 12.0 <= ratio <= 20.0


@settings(deadline=None, max_examples=30)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_rk4_error_falls_16x_per_halving_on_random_consensus(n, seed):
    # random symmetric Laplacian (a weighted path plus random chords),
    # scaled so its fastest mode has rate 1; exact flow from eigh
    rng = np.random.default_rng(seed)
    w = np.triu(rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < 0.5), 2)
    w += np.diag(rng.uniform(0.1, 1.0, n - 1), 1)
    w += w.T
    lap = np.diag(w.sum(axis=1)) - w
    lap /= np.linalg.eigvalsh(lap)[-1]
    x0 = rng.uniform(-3.0, 3.0, n)
    t_final = 2.0
    lam, v = np.linalg.eigh(lap)
    exact = v @ (np.exp(-lam * t_final) * (v.T @ x0))

    def err(dt):
        cfg = IntegratorConfig(dt=dt, t_final=t_final)
        traj = integrate(_unmasked(AverageConsensus(laplacian=lap)), x0, cfg)
        return np.max(np.abs(traj.x[-1] - exact))

    assert 15.0 <= err(0.1) / err(0.05) <= 17.5


def test_euler_first_order():
    def err(dt):
        cfg = IntegratorConfig(method="euler", dt=dt, t_final=1.0)
        traj = integrate(_unmasked(_decay_system()), np.array([1.0]), cfg)
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
    cfg = IntegratorConfig(dt=0.1, t_final=1.0, record_stride=4)
    traj = integrate(_unmasked(_decay_system()), np.array([1.0]), cfg)
    # 10 steps of 0.1; recorded at 0, 4, 8, and the final step 10
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
        integrate(_unmasked(spec), np.full(3, 2.0), cfg, s0=np.array([2.0]))
    err = info.value
    assert err.last_time < err.t
    assert np.all(np.isfinite(err.last_state))


def _mixed_bank(dim, rng):
    """Channels cycle through the five mask kinds from a random start, so a
    bank of five or more channels holds every kind."""
    kinds = list(MaskKind)
    start = int(rng.integers(len(kinds)))
    channels = []
    for i in range(dim):
        kind = kinds[(start + i) % len(kinds)]
        if kind is MaskKind.IDENTITY:
            params = MaskParams()
        elif kind is MaskKind.LINEAR:
            params = MaskParams(phi=rng.uniform(0.5, 2.0), sigma=rng.uniform(0.5, 2.0))
        else:
            params = choose_params(kind, 1.0, rng.uniform(-3.0, 3.0), rng)
        channels.append((kind, params))
    return MaskBank(channels)


def _masked_case(system, n, rng):
    """A masked system of n agents on a cycle, its x0 and its s0."""
    lap = laplacian(cycle_graph(n))
    x0 = rng.uniform(-3.0, 3.0, n)
    s0 = None
    if system == "saturated":
        base = SaturatedNet(a=adjacency(cycle_graph(n)), kappa=0.4)
    elif system in ("fj_live", "fj_frozen"):
        base = FriedkinJohnsen(
            laplacian=lap,
            theta=rng.uniform(0.1, 1.0, n),
            anchor=x0,
            frozen_anchor=system == "fj_frozen",
        )
    elif system == "consensus":
        base = AverageConsensus(laplacian=lap)
    else:
        drift = TanhDrift(a=-np.eye(2), b=0.5 * np.eye(2))
        gains = np.zeros(n)
        gains[0] = 1.0
        base = PinnedSync(laplacian=lap, r=np.eye(2), pin_gains=gains, drift=drift, nu=2)
        x0 = rng.uniform(-3.0, 3.0, 2 * n)
        s0 = rng.uniform(-1.0, 1.0, 2)
    bank = _mixed_bank(base.dim, rng)
    return MaskedSystem(base=base, bank=bank), x0, s0


def _reference_run(system, x0, cfg, s0=None):
    """RK4/Euler that masks through bank.eval at every stage; recorded
    (times, states) as integrate records them."""
    base = system.base
    d, dt = base.dim, cfg.dt
    pinned = isinstance(base, PinnedSync)

    def f(t, z):
        x, s = z[:d], (z[d:] if pinned else None)
        if isinstance(base, FriedkinJohnsen):
            y = system.bank.eval(t, x)
            y_anchor = system.bank.eval(0.0 if base.frozen_anchor else t, base.anchor)
            dx = np.dot(-base.laplacian, y) - base.theta * y + base.theta * y_anchor
        else:
            dx = field_unmasked(base, t, system.bank.eval(t, x), s)
        return np.concatenate([dx, exosystem_field(base.drift, s)]) if pinned else dx

    z = x0 if s0 is None else np.concatenate([x0, s0])
    times, states = [0.0], [z]
    for k in range(cfg.n_steps):
        t = k * dt
        if cfg.method == "rk4":
            k1 = f(t, z)
            k2 = f(t + 0.5 * dt, z + (0.5 * dt) * k1)
            k3 = f(t + 0.5 * dt, z + (0.5 * dt) * k2)
            k4 = f(t + dt, z + dt * k3)
            z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            z = z + dt * f(t, z)
        if (k + 1) % cfg.record_stride == 0 or (k + 1) == cfg.n_steps:
            times.append((k + 1) * dt)
            states.append(z)
    return np.array(times), np.array(states)


@settings(deadline=None)
@given(
    system=st.sampled_from(["saturated", "fj_live", "fj_frozen", "consensus", "pinned"]),
    method=st.sampled_from(["rk4", "euler"]),
    n_agents=st.integers(2, 6),
    dt=st.sampled_from([0.01, 0.05, 0.1]),
    n_steps=st.integers(1, 3 * TABLE_STEPS + 5),
    stride=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    masked=st.booleans(),
)
def test_masked_integrate_matches_per_stage_eval(
    system, method, n_agents, dt, n_steps, stride, seed, masked
):
    # the factor rows must hand every stage the factors bank.eval uses at
    # its time, including at times where k*dt + dt != (k+1)*dt; a bare
    # system runs as the same system under the identity bank
    ms, x0, s0 = _masked_case(system, n_agents, np.random.default_rng(seed))
    run = ms if masked else _unmasked(ms.base)
    cfg = IntegratorConfig(method=method, dt=dt, t_final=n_steps * dt, record_stride=stride)
    traj = integrate(run, x0, cfg, s0=s0)
    times, states = _reference_run(run, x0, cfg, s0)
    # bytes, so that the sign of a zero counts as integrate's check counts it
    assert traj.times.tobytes() == times.tobytes()
    assert traj.x.tobytes() == np.ascontiguousarray(states[:, : ms.base.dim]).tobytes()
    if s0 is not None:
        assert traj.s.tobytes() == np.ascontiguousarray(states[:, ms.base.dim :]).tobytes()


def test_masked_integrate_fills_one_factor_table_per_block(monkeypatch):
    calls = {"eval": 0, "factors": 0}
    for name in calls:

        def counted(self, *args, _name=name, _original=getattr(MaskBank, name)):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(MaskBank, name, counted)
    ms, x0, _ = _masked_case("consensus", 4, np.random.default_rng(5))
    n_steps = 3 * TABLE_STEPS + 1
    integrate(ms, x0, IntegratorConfig(dt=0.01, t_final=n_steps * 0.01))
    # no per-stage eval: one factors call per block, one for the t=0 check
    # of the compiled stage, one for the outputs
    assert calls == {"eval": 0, "factors": 4 + 1 + 1}


def _balanced_digraph(n, rng):
    """Sum of one to three weighted directed Hamiltonian cycles: every node
    gains as much in-weight as out-weight from each."""
    weights = {}
    for _ in range(int(rng.integers(1, 4))):
        order = rng.permutation(n).tolist()
        w = rng.uniform(0.2, 2.0)
        for src, dst in zip(order, order[1:] + order[:1]):
            weights[(src, dst)] = weights.get((src, dst), 0.0) + w
    return build_graph(n, [(src, dst, w) for (src, dst), w in weights.items()])


@settings(deadline=None, max_examples=30)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_masked_consensus_conserves_mean_on_balanced_graphs(n, seed):
    rng = np.random.default_rng(seed)
    lap = laplacian(_balanced_digraph(n, rng))
    assert is_weight_balanced(lap)
    x0 = rng.uniform(-3.0, 3.0, n)
    ms = MaskedSystem(base=AverageConsensus(laplacian=lap), bank=_mixed_bank(n, rng))
    traj = integrate(ms, x0, IntegratorConfig(dt=0.01, t_final=5.0, record_stride=50))
    assert np.max(np.abs(traj.x.mean(axis=1) - x0.mean())) <= CONSERVATION_TOL


@pytest.mark.parametrize("dt", [1e-3, 0.1, 1 / 3])
@pytest.mark.parametrize("rk4", [True, False])
def test_stage_times_equal_the_set_of_march_stage_times(dt, rk4):
    # every block tabulates its stage times in step order, each by the
    # expression the step evaluates, and each stage gets its row by position
    n_steps = 2 * TABLE_STEPS + 7
    blocks, called = [], []

    def tabulate(times):
        blocks.append(times)
        return [("row", t) for t in times.reshape(-1).tolist()]

    def f(row, z, o):
        called.append(row[1])
        o[:] = -z

    cfg = IntegratorConfig(method="rk4" if rk4 else "euler", dt=dt, t_final=n_steps * dt)
    _march(f, np.array([1.0]), cfg, tabulate=tabulate)
    assert [len(b) for b in blocks] == [TABLE_STEPS, TABLE_STEPS, 7]
    want = []
    for k in range(n_steps):
        t = k * dt
        want += [t, t + 0.5 * dt, t + 0.5 * dt, t + dt] if rk4 else [t]
    # bit for bit, as Python floats
    assert [t.hex() for t in called] == [t.hex() for t in want]
    tabulated = np.concatenate(blocks).reshape(-1).tolist()
    assert {t.hex() for t in tabulated} == {t.hex() for t in want}


@pytest.mark.parametrize("case", ["consensus", "fj"])
def test_linear_systems_rest_at_zero_from_zero(case):
    # every field component at x = 0 is an exact zero, so the sign of each
    # zero that the compiled stage forms must match the reference field's,
    # or integrate's t=0 check raises
    n = 6
    lap = laplacian(cycle_graph(n))
    if case == "fj":
        system = FriedkinJohnsen(laplacian=lap, theta=np.linspace(0.0, 1.0, n), anchor=np.zeros(n))
    else:
        system = AverageConsensus(laplacian=lap)
    system = _unmasked(system)
    for method in ("rk4", "euler"):
        traj = integrate(system, np.zeros(n), IntegratorConfig(method=method, dt=0.1, t_final=2.0))
        assert np.all(traj.x == 0.0) and np.all(traj.y == 0.0)


def test_x0_validation():
    cfg = IntegratorConfig(dt=0.1, t_final=1.0)
    with pytest.raises(ValueError, match="shape"):
        integrate(_unmasked(_decay_system()), np.zeros(2), cfg)
    with pytest.raises(ValueError, match="finite"):
        integrate(_unmasked(_decay_system()), np.array([np.nan]), cfg)


def test_integrator_config_validation():
    with pytest.raises(ValueError, match="method"):
        IntegratorConfig(method="rk45")
    with pytest.raises(ValueError, match="positive"):
        IntegratorConfig(dt=-1.0)
    with pytest.raises(ValueError, match="exceed"):
        IntegratorConfig(dt=2.0, t_final=1.0)
    with pytest.raises(ValueError, match="maximum"):
        IntegratorConfig(dt=1e-9, t_final=100.0)
    # 3 steps of 0.3 would stop at t=0.9, 4 would overshoot
    with pytest.raises(ValueError, match="does not divide"):
        IntegratorConfig(dt=0.3, t_final=1.0)


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
        lambda cfg: integrate(_unmasked(unstable), np.array([1.0, -1.0]), cfg),
    ):
        w1, w4 = (
            _blowup_witness(run, IntegratorConfig(dt=0.1, t_final=10.0, record_stride=k))
            for k in (1, 4)
        )
        assert w1 == w4
        t, last_time, last_state = w1
        assert last_time == pytest.approx(t - 0.1)
        assert 0 < np.max(np.abs(last_state)) <= BLOWUP_LIMIT


def _naive_witness(f, z, cfg):
    """Per-step march that checks finiteness after every step; the
    (t, last_time, last_state) of the first bad step, or None."""
    dt = cfg.dt
    last_t, last_z = 0.0, np.atleast_1d(z)
    for k in range(cfg.n_steps):
        t = k * dt
        if cfg.method == "rk4":
            k1 = f(t, z)
            k2 = f(t + 0.5 * dt, z + (0.5 * dt) * k1)
            k3 = f(t + 0.5 * dt, z + (0.5 * dt) * k2)
            k4 = f(t + dt, z + dt * k3)
            z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            z = z + dt * f(t, z)
        if not np.abs(z).max() <= BLOWUP_LIMIT:
            return (k + 1) * dt, last_t, last_z
        last_t, last_z = (k + 1) * dt, np.atleast_1d(z)
    return None


_EDGES = [j * TABLE_STEPS + e for j in range(4) for e in (-1, 0, 1) if j * TABLE_STEPS + e >= 0]


@settings(deadline=None, max_examples=200)
@given(
    bad_step=st.one_of(st.integers(0, 4 * TABLE_STEPS), st.sampled_from(_EDGES)),
    extra=st.integers(0, 2 * TABLE_STEPS),
    method=st.sampled_from(["rk4", "euler"]),
    dt=st.sampled_from([0.01, 0.05, 0.1]),
    stride=st.integers(1, 5),
    dim=st.sampled_from([1, 3]),
    bad_value=st.sampled_from([np.inf, -np.inf, np.nan, 1e20]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_march_blowup_witness_matches_per_step_march(
    bad_step, extra, method, dt, stride, dim, bad_value, seed
):
    # the slope turns bad_value from the first stage time past step bad_step's
    # start (RK4) or at its start (Euler), so the state after that step is
    # the first one out of range
    rng = np.random.default_rng(seed)
    z0 = rng.uniform(-3.0, 3.0, dim)
    onset = (bad_step + (0.25 if method == "rk4" else -0.5)) * dt

    def f(t, z):
        return np.full_like(z, bad_value) if t > onset else -z

    def slope(t, z, o):
        o[:] = f(t, z)

    def tabulate(times):
        blocks.append(times[0, 0])
        return times.reshape(-1).tolist()  # the rows are the stage times

    cfg = IntegratorConfig(
        method=method, dt=dt, t_final=(bad_step + 1 + extra) * dt, record_stride=stride
    )
    want = _naive_witness(f, z0, cfg)
    assert want is not None and want[0] == (bad_step + 1) * dt
    blocks = []
    errors = np.geterr()
    with pytest.raises(BlowUpError) as info:
        _march(slope, z0, cfg, tabulate=tabulate)
    exc = info.value
    assert (exc.t, exc.last_time) == want[:2]
    assert np.array_equal(exc.last_state, want[2])
    assert np.geterr() == errors
    # one table per block up to and including the failing one, none after
    assert len(blocks) == bad_step // TABLE_STEPS + 1


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
    traj = integrate(_unmasked(spec), np.zeros(6), cfg, s0=np.array([0.5, -0.5]))
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
        integrate(_unmasked(spec), np.zeros(6), cfg)
    with pytest.raises(ValueError, match="s0"):
        integrate(_unmasked(spec), np.zeros(6), cfg, s0=np.zeros(3))
    with pytest.raises(ValueError, match="s0"):
        integrate(_unmasked(_decay_system()), np.zeros(1), cfg, s0=np.zeros(1))


def test_integrate_rejects_a_stage_that_differs_from_the_reference(monkeypatch):
    from dynpriv import solver

    def off_by_one_ulp(system):
        stage = compile_stage(system)

        def shifted(row, z, o):
            stage(row, z, o)
            np.nextafter(o, np.inf, out=o)

        return shifted

    monkeypatch.setattr(solver, "compile_stage", off_by_one_ulp)
    ms, x0, s0 = _masked_case("pinned", 3, np.random.default_rng(2))
    with pytest.raises(RuntimeError, match="compiled stage differs"):
        integrate(ms, x0, IntegratorConfig(dt=0.01, t_final=0.1), s0=s0)
    # the message names the first differing component and both its values
    with pytest.raises(RuntimeError, match=r"at t=0: component 0 is -?\d.*, not -?\d"):
        integrate(ms, x0, IntegratorConfig(dt=0.01, t_final=0.1), s0=s0)
    with pytest.raises(RuntimeError, match="compiled stage differs"):
        integrate(_unmasked(ms.base), x0, IntegratorConfig(dt=0.01, t_final=0.1), s0=s0)


def test_integrate_rejects_a_bare_system():
    # a run is a MaskedSystem; the bare system is the one under the identity bank
    with pytest.raises(TypeError, match="MaskedSystem"):
        integrate(_decay_system(), np.array([1.0]), IntegratorConfig(dt=0.1, t_final=1.0))
