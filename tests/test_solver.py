import functools
import itertools

import numpy as np
import pytest
from common import mixed_bank, unmasked
from hypothesis import given, settings
from hypothesis import strategies as st

from dynpriv import solver
from dynpriv.analysis import series_table
from dynpriv.dynamics import (
    CONSERVATION_TOL,
    AverageConsensus,
    FriedkinJohnsen,
    MaskedSystem,
    PinnedSync,
    SaturatedNet,
    TanhDrift,
    exosystem_field,
    field_unmasked,
)
from dynpriv.masks import MaskBank
from dynpriv.netgraph import build_graph, cycle_graph, is_weight_balanced, laplacian
from dynpriv.scenario import build_scenario, load_bundled
from dynpriv.solver import (
    BLOWUP_LIMIT,
    TABLE_BYTES,
    TABLE_STEPS,
    BlowUpError,
    IntegratorConfig,
    _march,
    block_steps,
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
    traj = integrate(unmasked(spec), np.array([3.0, -1.0]), cfg)
    assert np.all(traj.x == [3.0, -1.0])
    assert np.array_equal(MaskBank.identity(2).eval_series(traj.times, traj.x), traj.x)


def test_rk4_matches_exponential_decay():
    cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
    traj = integrate(unmasked(_decay_system()), np.array([1.0]), cfg)
    assert traj.x[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_unmasked_consensus_reaches_mean():
    spec = AverageConsensus(laplacian=laplacian(cycle_graph(3)))
    cfg = IntegratorConfig(dt=1e-2, t_final=40.0, record_stride=10)
    traj = integrate(unmasked(spec), np.array([1.0, 2.0, 3.0]), cfg)
    assert np.max(np.abs(traj.x[-1] - 2.0)) < 1e-9


def test_rk4_order_via_step_halving():
    def err(dt):
        cfg = IntegratorConfig(dt=dt, t_final=1.0)
        traj = integrate(unmasked(_decay_system()), np.array([1.0]), cfg)
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
        traj = integrate(unmasked(AverageConsensus(laplacian=lap)), x0, cfg)
        return np.max(np.abs(traj.x[-1] - exact))

    assert 15.0 <= err(0.1) / err(0.05) <= 17.5


def test_determinism_bit_identical():
    lap = laplacian(cycle_graph(4))
    bank = MaskBank(
        [{"kind": "vanishing_affine", "phi": 1.0, "sigma": 1.0, "gamma": 2.0, "delta": 0.8}] * 4
    )
    ms = MaskedSystem(base=AverageConsensus(laplacian=lap), bank=bank)
    cfg = IntegratorConfig(dt=1e-3, t_final=2.0, record_stride=7)
    x0 = np.array([0.1, -0.2, 0.3, 0.7])
    t1 = integrate(ms, x0, cfg)
    t2 = integrate(ms, x0, cfg)
    assert np.array_equal(t1.x, t2.x)
    assert np.array_equal(bank.eval_series(t1.times, t1.x), bank.eval_series(t2.times, t2.x))
    assert np.array_equal(t1.times, t2.times)


def test_record_stride_and_final_sample():
    cfg = IntegratorConfig(dt=0.1, t_final=1.0, record_stride=4)
    traj = integrate(unmasked(_decay_system()), np.array([1.0]), cfg)
    # 10 steps of 0.1; recorded at 0, 4, 8, and the final step 10
    assert np.allclose(np.diff(traj.times) > 0, True)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(cfg.n_steps * cfg.dt)
    assert len(traj.times) == 4


def test_masked_outputs_recomputed_from_states():
    bank = MaskBank([{"kind": "additive", "gamma": 2.0, "delta": 1.0}])
    ms = MaskedSystem(base=_decay_system(), bank=bank)
    cfg = IntegratorConfig(dt=1e-2, t_final=1.0, record_stride=10)
    traj = integrate(ms, np.array([1.0]), cfg)
    expected = np.array([bank.eval(t, x) for t, x in zip(traj.times.tolist(), traj.x)])
    assert bank.eval_series(traj.times, traj.x).tobytes() == expected.tobytes()
    assert bank.eval_series(traj.times[2:4], traj.x[2:4]).tobytes() == expected[2:4].tobytes()


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
        integrate(unmasked(spec), np.full(3, 2.0), cfg, s0=np.array([2.0]))
    err = info.value
    assert err.last_time < err.t
    assert np.all(np.isfinite(err.last_state))


def _masked_case(system, n, rng):
    """A masked system of n agents on a cycle, its x0 and its s0."""
    lap = laplacian(cycle_graph(n))
    x0 = rng.uniform(-3.0, 3.0, n)
    s0 = None
    if system == "saturated":
        base = SaturatedNet(a=cycle_graph(n).a, kappa=0.4)
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
    bank = mixed_bank(base.dim, rng)
    return MaskedSystem(base=base, bank=bank), x0, s0


def _rk4_steps(f, z, cfg):
    """(k + 1, the state after step k) of the per-step RK4 march of f from z,
    for each step k."""
    dt = cfg.dt
    for k in range(cfg.n_steps):
        t = k * dt
        k1 = f(t, z)
        k2 = f(t + 0.5 * dt, z + (0.5 * dt) * k1)
        k3 = f(t + 0.5 * dt, z + (0.5 * dt) * k2)
        k4 = f(t + dt, z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield k + 1, z


def _reference_run(system, x0, cfg, s0=None):
    """RK4 that masks through bank.eval at every stage; recorded
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
    for step, z in _rk4_steps(f, z, cfg):
        if step % cfg.record_stride == 0 or step == cfg.n_steps:
            times.append(step * dt)
            states.append(z)
    return np.array(times), np.array(states)


@settings(deadline=None)
@given(
    system=st.sampled_from(["saturated", "fj_live", "fj_frozen", "consensus", "pinned"]),
    n_agents=st.integers(2, 6),
    dt=st.sampled_from([0.01, 0.05, 0.1]),
    n_steps=st.integers(1, 3 * TABLE_STEPS + 5),
    stride=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    masked=st.booleans(),
)
def test_masked_integrate_matches_per_stage_eval(
    system, n_agents, dt, n_steps, stride, seed, masked
):
    # the factor rows must hand every stage the factors bank.eval uses at
    # its time, including at times where k*dt + dt != (k+1)*dt; a bare
    # system runs as the same system under the identity bank
    ms, x0, s0 = _masked_case(system, n_agents, np.random.default_rng(seed))
    run = ms if masked else unmasked(ms.base)
    cfg = IntegratorConfig(dt=dt, t_final=n_steps * dt, record_stride=stride)
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
    for n in (4, 60):  # 60 agents take blocks shorter than TABLE_STEPS
        calls.update(eval=0, factors=0)
        ms, x0, _ = _masked_case("consensus", n, np.random.default_rng(5))
        n_steps = 3 * block_steps(n) + 1
        integrate(ms, x0, IntegratorConfig(dt=0.01, t_final=n_steps * 0.01))
        # no per-stage eval: one factors call per block, and two for the t=0
        # check of the compiled stage, one for the stage's row and one that
        # the reference forms itself; the outputs are not tabulated at all
        assert calls == {"eval": 0, "factors": 4 + 2}


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
    ms = MaskedSystem(base=AverageConsensus(laplacian=lap), bank=mixed_bank(n, rng))
    traj = integrate(ms, x0, IntegratorConfig(dt=0.01, t_final=5.0, record_stride=50))
    assert np.max(np.abs(traj.x.mean(axis=1) - x0.mean())) <= CONSERVATION_TOL


@pytest.mark.parametrize("dt", [1e-3, 0.1, 1 / 3])
def test_stage_times_equal_the_set_of_march_stage_times(dt):
    # every block tabulates its stage times in step order, each by the
    # expression the step evaluates, and each stage gets its row by position;
    # a state of 50 values takes blocks shorter than TABLE_STEPS
    for width in (1, 50):
        steps = block_steps(width)
        n_steps = 2 * steps + 7
        blocks, called = [], []

        def tabulate(times):
            blocks.append(times)
            return [("row", t) for t in times.reshape(-1).tolist()]

        def f(row, z, o):
            called.append(row[1])
            o[:] = -z

        cfg = IntegratorConfig(dt=dt, t_final=n_steps * dt)
        _march(f, np.ones(width), cfg, tabulate=tabulate)
        assert [len(b) for b in blocks] == [steps, steps, 7]
        want = []
        for k in range(n_steps):
            t = k * dt
            want += [t, t + 0.5 * dt, t + 0.5 * dt, t + dt]
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
    traj = integrate(unmasked(system), np.zeros(n), IntegratorConfig(dt=0.1, t_final=2.0))
    assert np.all(traj.x == 0.0) and np.all(MaskBank.identity(n).eval_series(traj.times, traj.x) == 0.0)


def test_x0_validation():
    cfg = IntegratorConfig(dt=0.1, t_final=1.0)
    with pytest.raises(ValueError, match="shape"):
        integrate(unmasked(_decay_system()), np.zeros(2), cfg)
    with pytest.raises(ValueError, match="finite"):
        integrate(unmasked(_decay_system()), np.array([np.nan]), cfg)


def test_integrator_config_validation():
    for method in ("rk45", "euler"):  # RK4 is the one method
        with pytest.raises(ValueError, match=f"unknown method '{method}'"):
            IntegratorConfig(method=method)
    with pytest.raises(ValueError, match="positive"):
        IntegratorConfig(dt=-1.0)
    with pytest.raises(ValueError, match="exceed"):
        IntegratorConfig(dt=2.0, t_final=1.0)
    with pytest.raises(ValueError, match="maximum"):
        IntegratorConfig(dt=1e-9, t_final=100.0)
    # 3 steps of 0.3 would stop at t=0.9, 4 would overshoot
    with pytest.raises(ValueError, match="does not divide"):
        IntegratorConfig(dt=0.3, t_final=1.0)


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
        lambda cfg: integrate(unmasked(unstable), np.array([1.0, -1.0]), cfg),
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
    last_t, last_z = 0.0, z
    for step, z in _rk4_steps(f, z, cfg):
        if not np.abs(z).max() <= BLOWUP_LIMIT:
            return step * cfg.dt, last_t, last_z
        last_t, last_z = step * cfg.dt, z
    return None


@settings(deadline=None, max_examples=200)
@given(
    # a step, or a block edge (j, e): step e from the start of block j
    bad_step=st.one_of(
        st.integers(0, 4 * TABLE_STEPS), st.tuples(st.integers(0, 3), st.sampled_from([-1, 0, 1]))
    ),
    extra=st.integers(0, 2 * TABLE_STEPS),
    dt=st.sampled_from([0.01, 0.05, 0.1]),
    stride=st.integers(1, 5),
    dim=st.sampled_from([1, 3, 50]),
    bad_value=st.sampled_from([np.inf, -np.inf, np.nan, 1e20]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_march_blowup_witness_matches_per_step_march(
    bad_step, extra, dt, stride, dim, bad_value, seed
):
    # the slope turns bad_value from the first stage time past step bad_step's
    # start, so the state after that step is the first one out of range
    steps = block_steps(dim)
    if isinstance(bad_step, tuple):
        bad_step = max(0, bad_step[0] * steps + bad_step[1])
    rng = np.random.default_rng(seed)
    z0 = rng.uniform(-3.0, 3.0, dim)
    onset = (bad_step + 0.25) * dt

    def f(t, z):
        return np.full_like(z, bad_value) if t > onset else -z

    def slope(t, z, o):
        o[:] = f(t, z)

    def tabulate(times):
        blocks.append(times[0, 0])
        return times.reshape(-1).tolist()  # the rows are the stage times

    cfg = IntegratorConfig(dt=dt, t_final=(bad_step + 1 + extra) * dt, record_stride=stride)
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
    assert len(blocks) == bad_step // steps + 1


def _at_block_length(run, length):
    """run() with blocks of length steps: the bytes of what it returns, or
    the witness of the BlowUpError it raises."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "block_steps", lambda width: length)
        try:
            return [np.asarray(a).tobytes() for a in run()]
        except BlowUpError as exc:
            return exc.t, exc.last_time, exc.last_state.tobytes()


@settings(deadline=None, max_examples=60)
@given(
    n_steps=st.integers(1, 300),
    stride=st.integers(1, 7),
    bad_step=st.one_of(st.none(), st.integers(0, 299)),
    n=st.sampled_from([5, 60]),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_recorded_byte_or_blowup_witness_depends_on_the_block_length(
    n_steps, stride, bad_step, n, seed
):
    # from bad_step on (never, if None) every slope is inf, so the state
    # after step bad_step is the first one out of range
    dt = 0.01
    cfg = IntegratorConfig(dt=dt, t_final=n_steps * dt, record_stride=stride)
    onset = np.inf if bad_step is None else (bad_step + 0.25) * dt
    ms, x0, _ = _masked_case("consensus", n, np.random.default_rng(seed))

    def slope(t, z, o):
        o[:] = np.inf if t > onset else -z

    stage_body = type(ms.base).stage_body

    def failing_body(base, bank):
        stage, calls = stage_body(base, bank), itertools.count()

        def f(row, z, o):  # call 0 is integrate's t=0 check, then four a step
            stage(row, z, o)
            if bad_step is not None and next(calls) > 4 * bad_step:
                o[:] = np.inf

        return f

    def masked_run():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(type(ms.base), "stage_body", failing_body)
            traj = integrate(ms, x0, cfg)
        return traj.times, traj.x

    for run in (lambda: _march(slope, x0, cfg), masked_run):
        first, *rest = [_at_block_length(run, k) for k in (1, 2, 7, block_steps(n), n_steps)]
        assert all(other == first for other in rest)
        assert isinstance(first, tuple) == (bad_step is not None and bad_step < n_steps)


@functools.cache
def _pinned_lorenz():
    """The bundled masked pinned Lorenz run of 10 agents: (system, x0, s0)."""
    sc = build_scenario(load_bundled("example4_pinning_n10"))
    return MaskedSystem(sc.system, sc.bank), sc.x0, sc.s0


def _planted_march(onset):
    """solver._march with every slope set to inf at stage times past onset.
    integrate's rows are one list refilled block by block, so a row's
    position, and so its stage time, is known by its identity."""
    march = solver._march

    def planted(f, z, cfg, tabulate, **span):
        when = {}

        def stage_times(times):
            rows = tabulate(times)
            when.update(zip(map(id, rows), times.reshape(-1).tolist()))
            return rows

        def g(row, z, o):
            f(row, z, o)
            if when[id(row)] > onset:
                o[:] = np.inf

        return march(g, z, cfg, tabulate=stage_times, **span)

    return planted


@settings(deadline=None, max_examples=40)
@given(
    system=st.sampled_from(["consensus", "lorenz"]),
    n_steps=st.integers(1, 300),
    stride=st.integers(1, 7),
    spans=st.lists(st.integers(1, 40), min_size=1, max_size=8),
    bad_step=st.one_of(st.none(), st.integers(0, 299)),
    n=st.sampled_from([3, 60]),
    seed=st.integers(0, 2**32 - 1),
)
def test_windows_record_the_whole_run_bit_for_bit(system, n_steps, stride, spans, bad_step, n, seed):
    # a run split into windows of whole strides, each started from the row
    # the window before recorded last, records the rows of one integrate
    # call over the grid (each window's repeated first row dropped), and
    # raises its BlowUpError, at global times, from whichever window holds it
    if system == "lorenz":
        ms, x0, s0 = _pinned_lorenz()
    else:
        ms, x0, s0 = _masked_case("consensus", n, np.random.default_rng(seed))
    dt = 0.01
    cfg = IntegratorConfig(dt=dt, t_final=n_steps * dt, record_stride=stride)

    def whole():
        traj = integrate(ms, x0, cfg, s0=s0)
        return traj.times, traj.x, traj.s

    def windowed():
        parts, x, s, start = [], x0, s0, 0
        for span in itertools.cycle(spans):
            if start == n_steps:
                break
            stop = min(start + span * stride, n_steps)
            traj = integrate(ms, x, cfg, s0=s, start=start, stop=stop)
            rows = slice(1 if start else 0, None)
            parts.append((traj.times[rows], traj.x[rows], None if s is None else traj.s[rows]))
            x, s, start = traj.x[-1], (None if s is None else traj.s[-1]), stop
        times, xs, ss = zip(*parts)
        return np.concatenate(times), np.concatenate(xs), None if s0 is None else np.concatenate(ss)

    def recorded(run):
        with pytest.MonkeyPatch.context() as mp:
            if bad_step is not None:
                mp.setattr(solver, "_march", _planted_march((bad_step + 0.25) * dt))
            try:
                return [a.tobytes() for a in run() if a is not None]
            except BlowUpError as exc:
                return exc.t, exc.last_time, exc.last_state.tobytes()

    want = recorded(whole)
    assert recorded(windowed) == want
    assert isinstance(want, tuple) == (bad_step is not None and bad_step < n_steps)
    if isinstance(want, tuple):
        assert want[0] == (bad_step + 1) * dt


@pytest.mark.parametrize("d", [1, 30, 150, 600])
def test_factor_table_stays_within_table_bytes(d, monkeypatch):
    tables = []
    factors = MaskBank.factors

    def recorded(bank, times, out=None):
        if out is not None:
            tables.append(out.base)
        return factors(bank, times, out)

    monkeypatch.setattr(MaskBank, "factors", recorded)
    rng = np.random.default_rng(d)
    ms = MaskedSystem(base=SaturatedNet(a=np.zeros((d, d)), kappa=1.0), bank=mixed_bank(d, rng))
    cfg = IntegratorConfig(dt=0.01, t_final=(2 * block_steps(d) + 1) * 0.01)
    integrate(ms, rng.uniform(-3.0, 3.0, d), cfg)
    assert len({id(table) for table in tables}) == 1
    assert tables[0].shape == (2, 3 * block_steps(d), d)
    assert tables[0].nbytes <= TABLE_BYTES
    # 5,461 = TABLE_BYTES // 48 values is the widest state whose one-step
    # table fits; a wider one still steps one step a block, over budget
    assert block_steps(5461) == block_steps(5462) == 1
    assert 48 * 5461 <= TABLE_BYTES < 48 * 5462


def test_comparison_ode_validation():
    cfg = IntegratorConfig(dt=0.1, t_final=1.0)
    with pytest.raises(ValueError):
        solve_comparison_ode(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, cfg)
    with pytest.raises(ValueError):
        solve_comparison_ode(1.0, 0.0, 0.0, -1.0, 1.0, 1.0, cfg)
    with pytest.raises(ValueError):
        solve_comparison_ode(1.0, 0.0, 0.0, 1.0, 1.0, -1.0, cfg)


def test_csv_export_format(tmp_path):
    bank = MaskBank([{"kind": "additive", "gamma": 2.0, "delta": 1.0}])
    ms = MaskedSystem(base=_decay_system(), bank=bank)
    cfg = IntegratorConfig(dt=0.25, t_final=1.0)
    traj = integrate(ms, np.array([1.0]), cfg)
    y = bank.eval_series(traj.times, traj.x)
    path = tmp_path / "traj.csv"
    with open(path, "wb") as fh:
        traj.to_csv(fh, y)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_0,y_0"
    parsed = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(parsed[:, 0], traj.times)
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(parsed[:, 1], traj.x[:, 0])
    assert np.array_equal(parsed[:, 2], y[:, 0])
    # series.csv goes through the same writer
    columns = series_table(traj, y)
    header, table = list(columns), np.column_stack(list(columns.values()))
    series = tmp_path / "series.csv"
    with open(series, "wb") as fh:
        write_csv(fh, header, (table,))
    lines = series.read_text().splitlines()
    assert lines[0] == "t,mean_x,mean_y,spread_x,gap_min,gap_max"
    assert len(lines) == 1 + len(traj.times)
    assert lines[1] == ",".join(f"{v:.17g}" for v in table[0])
    assert np.array_equal(np.loadtxt(series, delimiter=",", skiprows=1), table)
    # doubles that need all 17 digits survive the round trip
    exact = tmp_path / "exact.csv"
    with open(exact, "wb") as fh:
        write_csv(fh, ["a", "b"], (np.array([[0.1 + 0.2, 1.0 / 3.0]]),))
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
    traj = integrate(unmasked(spec), np.zeros(6), cfg, s0=np.array([0.5, -0.5]))
    path = tmp_path / "traj.csv"
    with open(path, "wb") as fh:
        traj.to_csv(fh, MaskBank.identity(6).eval_series(traj.times, traj.x))
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
        integrate(unmasked(spec), np.zeros(6), cfg)
    with pytest.raises(ValueError, match="s0"):
        integrate(unmasked(spec), np.zeros(6), cfg, s0=np.zeros(3))
    with pytest.raises(ValueError, match="s0"):
        integrate(unmasked(_decay_system()), np.zeros(1), cfg, s0=np.zeros(1))


def test_integrate_rejects_a_stage_that_differs_from_the_reference(monkeypatch):
    ms, x0, s0 = _masked_case("pinned", 3, np.random.default_rng(2))
    stage_body = type(ms.base).stage_body

    def off_by_one_ulp(base, bank):
        stage = stage_body(base, bank)

        def shifted(row, z, o):
            stage(row, z, o)
            np.nextafter(o, np.inf, out=o)

        return shifted

    monkeypatch.setattr(type(ms.base), "stage_body", off_by_one_ulp)
    with pytest.raises(RuntimeError, match="compiled stage differs"):
        integrate(ms, x0, IntegratorConfig(dt=0.01, t_final=0.1), s0=s0)
    # the message names the first differing component and both its values
    with pytest.raises(RuntimeError, match=r"at t=0: component 0 is -?\d.*, not -?\d"):
        integrate(ms, x0, IntegratorConfig(dt=0.01, t_final=0.1), s0=s0)
    with pytest.raises(RuntimeError, match="compiled stage differs"):
        integrate(unmasked(ms.base), x0, IntegratorConfig(dt=0.01, t_final=0.1), s0=s0)


def test_integrate_rejects_a_bare_system():
    # a run is a MaskedSystem; the bare system is the one under the identity bank
    with pytest.raises(TypeError, match="MaskedSystem"):
        integrate(_decay_system(), np.array([1.0]), IntegratorConfig(dt=0.1, t_final=1.0))
