import weakref
from dataclasses import replace

import numpy as np
import pytest
from common import gauss_solve, mixed_bank, privacy_bank
from hypothesis import given, settings
from hypothesis import strategies as st

from dynpriv import dynamics
from dynpriv.dynamics import (
    AverageConsensus,
    FriedkinJohnsen,
    LorenzDrift,
    MaskedSystem,
    PinnedSync,
    SaturatedNet,
    TanhDrift,
    estimate_lipschitz_q,
    exosystem_field,
    field_masked,
    field_unmasked,
)
from dynpriv.masks import MaskBank
from dynpriv.netgraph import cycle_graph, erdos_renyi, laplacian


def _cycle_lap(n=3):
    return laplacian(cycle_graph(n))


def _tanh_drift():
    return TanhDrift(
        a=-np.eye(3),
        b=np.array([[1.2, -0.8, 0.0], [0.8, 1.2, -0.6], [0.0, 0.6, 1.2]]),
    )


def test_consensus_field_zero_on_agreement():
    spec = AverageConsensus(laplacian=_cycle_lap())
    assert np.allclose(field_unmasked(spec, 0.0, np.full(3, 4.2)), 0.0)


def test_satnet_field_zero_at_origin():
    a = np.array([[0.0, 1.0], [2.0, 0.0]])
    spec = SaturatedNet(a=a, kappa=0.3)
    assert np.allclose(field_unmasked(spec, 0.0, np.zeros(2)), 0.0)


def test_fj_field_zero_at_equilibrium():
    lap = _cycle_lap()
    theta = np.array([1.0, 1.0, 1.0])
    x0 = np.array([1.0, 0.0, 0.0])
    spec = FriedkinJohnsen(laplacian=lap, theta=theta, anchor=x0)
    x_star = gauss_solve(lap + np.diag(theta), theta * x0)
    assert np.max(np.abs(field_unmasked(spec, 0.0, x_star))) <= 1e-12


def test_pinned_field_requires_exosystem():
    spec = PinnedSync(
        laplacian=_cycle_lap(),
        r=np.eye(3),
        pin_gains=np.array([1.0, 0.0, 0.0]),
        drift=_tanh_drift(),
        nu=3,
    )
    with pytest.raises(ValueError, match="exosystem"):
        field_unmasked(spec, 0.0, np.zeros(9))
    with pytest.raises(ValueError, match="exosystem"):
        field_unmasked(AverageConsensus(laplacian=_cycle_lap()), 0.0, np.zeros(3), s=np.zeros(3))


def test_pinned_field_matches_blockwise_reference():
    spec = PinnedSync(
        laplacian=_cycle_lap(),
        r=np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.5]]),
        pin_gains=np.array([2.0, 0.0, 0.0]),
        drift=_tanh_drift(),
        nu=3,
    )
    rng = np.random.default_rng(0)
    x = rng.uniform(-2, 2, 9)
    s = rng.uniform(-1, 1, 3)
    got = field_unmasked(spec, 0.0, x, s)
    lap = spec.laplacian
    for i in range(3):
        xi = x[3 * i : 3 * i + 3]
        expect = spec.drift.a @ xi + spec.drift.b @ np.tanh(xi)
        for j in range(3):
            expect = expect - lap[i, j] * (spec.r @ x[3 * j : 3 * j + 3])
        expect = expect - spec.pin_gains[i] * (spec.r @ (xi - s))
        assert np.allclose(got[3 * i : 3 * i + 3], expect)


@pytest.mark.parametrize("kind", ["satnet", "fj", "consensus", "pinned"])
def test_identity_bank_reproduces_unmasked_field(kind):
    rng = np.random.default_rng(5)
    if kind == "satnet":
        spec = SaturatedNet(a=np.array([[0.0, 1.0], [2.0, 0.0]]), kappa=0.3)
        x, s = rng.uniform(-3, 3, 2), None
    elif kind == "fj":
        spec = FriedkinJohnsen(
            laplacian=_cycle_lap(), theta=np.array([0.5, 0.2, 0.9]), anchor=rng.uniform(0, 1, 3)
        )
        x, s = rng.uniform(-3, 3, 3), None
    elif kind == "consensus":
        spec = AverageConsensus(laplacian=_cycle_lap())
        x, s = rng.uniform(-3, 3, 3), None
    else:
        spec = PinnedSync(
            laplacian=_cycle_lap(),
            r=np.eye(3),
            pin_gains=np.array([1.0, 0.0, 0.0]),
            drift=_tanh_drift(),
            nu=3,
        )
        x, s = rng.uniform(-3, 3, 9), rng.uniform(-1, 1, 3)
    ms = MaskedSystem(base=spec, bank=MaskBank.identity(x.size))
    t = 0.7
    assert np.array_equal(field_masked(ms, t, x, s), field_unmasked(spec, t, x, s))


def test_masked_consensus_conserves_mean_direction():
    lap = laplacian(erdos_renyi(8, 0.5, seed=2, symmetric=True))
    spec = AverageConsensus(laplacian=lap)
    rng = np.random.default_rng(7)
    ms = MaskedSystem(base=spec, bank=privacy_bank(rng.uniform(-4, 4, 8), seed=rng))
    for t in (0.0, 0.3, 5.0):
        dx = field_masked(ms, t, rng.uniform(-4, 4, 8))
        assert abs(np.ones(8) @ dx) <= 1e-12


def test_masked_field_nonzero_at_unmasked_equilibria():
    # masked dynamics cannot rest where the unmasked dynamics do
    rng = np.random.default_rng(8)
    lap = _cycle_lap()
    cases = []
    cases.append((SaturatedNet(a=np.array([[0.0, 1.0], [2.0, 0.0]]), kappa=0.3), np.zeros(2), None))
    anchor = np.full(3, 1.3)
    cases.append((FriedkinJohnsen(laplacian=lap, theta=np.array([0.5, 0.5, 0.5]), anchor=anchor), anchor, None))
    cases.append((AverageConsensus(laplacian=lap), np.full(3, -0.7), None))
    cases.append(
        (
            PinnedSync(
                laplacian=lap,
                r=np.eye(3),
                pin_gains=np.array([2.0, 0.0, 0.0]),
                drift=_tanh_drift(),
                nu=3,
            ),
            np.zeros(9),
            np.zeros(3),
        )
    )
    for spec, x_eq, s in cases:
        assert np.max(np.abs(field_unmasked(spec, 0.0, x_eq, s))) <= 1e-12
        bank = privacy_bank(x_eq, seed=rng)
        ms = MaskedSystem(base=spec, bank=bank)
        assert np.max(np.abs(field_masked(ms, 0.0, x_eq, s))) > 0


def test_fj_masked_anchor_tracks_mask_clock():
    lap = _cycle_lap()
    anchor = np.array([1.0, 2.0, 3.0])
    spec = FriedkinJohnsen(laplacian=lap, theta=np.full(3, 0.5), anchor=anchor)
    bank = privacy_bank(anchor, seed=21)
    live = MaskedSystem(base=spec, bank=bank)
    frozen = MaskedSystem(base=replace(spec, frozen_anchor=True), bank=bank)
    x = np.array([0.3, -0.1, 0.4])
    assert np.array_equal(field_masked(live, 0.0, x), field_masked(frozen, 0.0, x))
    assert not np.array_equal(field_masked(live, 5.0, x), field_masked(frozen, 5.0, x))


def test_bank_dimension_must_match_system():
    spec = AverageConsensus(laplacian=_cycle_lap())
    with pytest.raises(ValueError, match="channels"):
        MaskedSystem(base=spec, bank=MaskBank.identity(2))


def test_exosystem_lipschitz_zero_at_origin():
    assert np.allclose(exosystem_field(_tanh_drift(), np.zeros(3)), 0.0)


def test_exosystem_lorenz_hand_value():
    drift = LorenzDrift(sigma=10.0, rho=28.0, beta=8.0 / 3.0)
    ds = exosystem_field(drift, np.array([1.0, 1.0, 1.0]))
    assert np.allclose(ds, [0.0, 26.0, 1.0 - 8.0 / 3.0])


def test_exosystem_deterministic():
    drift = LorenzDrift()
    s = np.array([2.0, -1.0, 0.5])
    assert np.array_equal(exosystem_field(drift, s), exosystem_field(drift, s))


def test_lipschitz_q_linear_contraction():
    # f(x) = -x has exact pairwise ratio -1; inflation shrinks toward zero
    drift = TanhDrift(a=-np.eye(2), b=np.zeros((2, 2)))
    q = estimate_lipschitz_q(drift, np.eye(2), (np.full(2, -3.0), np.full(2, 3.0)), 500, seed=1)
    assert q == pytest.approx(-1.0 / 1.2)


def test_lipschitz_q_linear_expansion():
    # f(x) = 2x has exact ratio 2; safety factor takes it to 2.4
    drift = TanhDrift(a=2.0 * np.eye(2), b=np.zeros((2, 2)))
    q = estimate_lipschitz_q(drift, np.eye(2), (np.full(2, -3.0), np.full(2, 3.0)), 500, seed=1)
    assert q == pytest.approx(2.0 * 1.2)


def test_lipschitz_q_seeded_reproducible():
    drift = _tanh_drift()
    box = (np.full(3, -3.0), np.full(3, 3.0))
    q1 = estimate_lipschitz_q(drift, np.eye(3), box, 2000, seed=42)
    q2 = estimate_lipschitz_q(drift, np.eye(3), box, 2000, seed=42)
    assert q1 == q2
    assert np.isfinite(q1)


def test_lipschitz_q_degenerate_box_errors():
    drift = _tanh_drift()
    box = (np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="degenerate"):
        estimate_lipschitz_q(drift, np.eye(3), box, 50, seed=0)


def test_satnet_validation():
    with pytest.raises(ValueError, match="zero diagonal"):
        SaturatedNet(a=np.eye(2), kappa=0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        SaturatedNet(a=np.array([[0.0, -1.0], [1.0, 0.0]]), kappa=0.5)
    with pytest.raises(ValueError, match="stability"):
        SaturatedNet(a=np.array([[0.0, 1.0], [1.0, 0.0]]), kappa=2.0, enforce_stable=True)


def test_fj_validation():
    lap = _cycle_lap()
    with pytest.raises(ValueError, match="nonzero"):
        FriedkinJohnsen(laplacian=lap, theta=np.zeros(3), anchor=np.zeros(3))
    with pytest.raises(ValueError, match="0, 1"):
        FriedkinJohnsen(laplacian=lap, theta=np.array([2.0, 0.0, 0.0]), anchor=np.zeros(3))


def test_consensus_requires_balance():
    unbalanced = laplacian(cycle_graph(3))
    unbalanced[0, 1] -= 0.5  # break a column sum
    unbalanced[0, 0] += 0.5  # keep the row sum
    row_sums_off = laplacian(cycle_graph(3))
    row_sums_off[0, 0] += 0.5  # break two row sums
    row_sums_off[1, 0] -= 0.5  # keep the column sum
    not_a_number = laplacian(cycle_graph(3))
    not_a_number[0, 1] = np.nan  # a NaN sum passes no tolerance
    for lap in (unbalanced, row_sums_off, not_a_number):
        with pytest.raises(ValueError, match="weight-balanced"):
            AverageConsensus(laplacian=lap)


def test_pinned_validation():
    with pytest.raises(ValueError, match="positive definite"):
        PinnedSync(
            laplacian=_cycle_lap(),
            r=-np.eye(3),
            pin_gains=np.zeros(3),
            drift=_tanh_drift(),
            nu=3,
        )
    with pytest.raises(ValueError, match="nonnegative"):
        PinnedSync(
            laplacian=_cycle_lap(),
            r=np.eye(3),
            pin_gains=np.array([-1.0, 0.0, 0.0]),
            drift=_tanh_drift(),
            nu=3,
        )


STAGE_KINDS = ["saturated", "fj_live", "fj_frozen", "consensus", "pinned_lorenz", "pinned_tanh"]


def _stage_case(kind, bank, n, nu, rng, r="spd"):
    """A random system of one kind on n agents, masked by a mixed or an
    identity bank, and a random joint state for it. A pinned system couples
    through a random symmetric positive definite R, or through R = I."""
    w = rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(w, 0.0)
    lap = np.diag(w.sum(axis=1)) - w
    if kind == "saturated":
        spec = SaturatedNet(a=w, kappa=rng.uniform(0.1, 2.0))
    elif kind in ("fj_live", "fj_frozen"):
        spec = FriedkinJohnsen(
            laplacian=lap,
            theta=rng.uniform(0.1, 1.0, n),
            anchor=rng.uniform(-3, 3, n),
            frozen_anchor=kind == "fj_frozen",
        )
    elif kind == "consensus":
        sym = w + w.T
        spec = AverageConsensus(laplacian=np.diag(sym.sum(axis=1)) - sym)
    else:
        if kind == "pinned_lorenz":
            nu = 3
            drift = LorenzDrift(*rng.uniform([5.0, 20.0, 1.0], [15.0, 35.0, 4.0]))
        else:
            drift = TanhDrift(a=rng.normal(size=(nu, nu)), b=rng.normal(size=(nu, nu)))
        if r == "spd":
            m = rng.normal(size=(nu, nu))
            r = m @ m.T + nu * np.eye(nu)
            r = (r + r.T) / 2
        else:
            r = np.eye(nu)
        gains = rng.uniform(0.5, 3.0, n) * (rng.random(n) < 0.7)
        spec = PinnedSync(laplacian=lap, r=r, pin_gains=gains, drift=drift, nu=nu)
    z = rng.uniform(-10.0, 10.0, spec.dim + (spec.nu if isinstance(spec, PinnedSync) else 0))
    bank = MaskBank.identity(spec.dim) if bank == "identity" else mixed_bank(spec.dim, rng)
    return MaskedSystem(base=spec, bank=bank), z


def _reference_stage(system, t, z):
    """field_masked on the agents, then exosystem_field."""
    spec = system.base
    d = spec.dim
    s = z[d:] if isinstance(spec, PinnedSync) else None
    f = field_masked(system, t, z[:d], s)
    return f if s is None else np.concatenate([f, exosystem_field(spec.drift, s)])


@settings(deadline=None, max_examples=200)
@given(
    kind=st.sampled_from(STAGE_KINDS),
    bank=st.sampled_from(["mixed", "identity"]),
    tabulated=st.booleans(),
    n=st.integers(1, 12),
    nu=st.integers(1, 4),
    r=st.sampled_from(["spd", "identity"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_stage_equals_reference_fields(kind, bank, tabulated, n, nu, r, seed):
    rng = np.random.default_rng(seed)
    system, z = _stage_case(kind, bank, n, nu, rng, r)
    times = np.sort(rng.uniform(0.0, 20.0, 8))
    # a factor row from a table over all the times, as the solver holds
    # them, or from the bank at one time
    table = system.bank.factors(times) if tabulated else None
    stage = system.base.stage_body(system.bank)
    o = np.empty_like(z)
    for k, t in enumerate(times):
        z = z + rng.uniform(-1.0, 1.0, z.size)
        row = (table[0][k], table[1][k]) if tabulated else system.bank.factors(t)
        stage(row, z, o)
        # bytes, so that the sign of a zero counts as integrate's check counts it
        assert o.tobytes() == _reference_stage(system, t, z).tobytes()


@settings(deadline=None, max_examples=100)
@given(
    kind=st.sampled_from(["pinned_lorenz", "pinned_tanh"]),
    bank=st.sampled_from(["mixed", "identity"]),
    n=st.integers(1, 12),
    nu=st.integers(1, 4),
    zeros=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_identity_stage_equals_the_products_by_i_up_to_the_sign_of_zero(
    kind, bank, n, nu, zeros, seed
):
    # the stage at R = I skips (L Y) I and g * ((Y - s) I): Y I equals Y
    # except in the sign of an exact zero, so some states are set to +-0
    rng = np.random.default_rng(seed)
    system, z = _stage_case(kind, bank, n, nu, rng, r="identity")
    spec, d = system.base, system.base.dim
    at = rng.random(z.size) < zeros
    z[at] = rng.choice([0.0, -0.0], int(at.sum()))
    t = rng.uniform(0.0, 20.0)
    row = system.bank.factors(t)
    o = np.empty_like(z)
    system.base.stage_body(system.bank)(row, z, o)
    scale, offset = row
    states, s, eye = (scale * (z[:d] + offset)).reshape(n, spec.nu), z[d:], np.eye(spec.nu)
    agents = (
        exosystem_field(spec.drift, states)
        - (spec.laplacian @ states) @ eye
        - spec.pin_gains[:, None] * ((states - s) @ eye)
    )
    want = np.concatenate([agents.reshape(-1), exosystem_field(spec.drift, s)])
    assert np.array_equal(o, want)
    differ = o.view(np.int64) != want.view(np.int64)
    assert np.all(o[differ] == 0.0)


@pytest.mark.parametrize("r,dots", [("identity", 1), ("spd", 3)], ids=["identity", "explicit"])
def test_pinned_stage_skips_the_products_by_r_only_at_the_identity(r, dots, monkeypatch):
    # a Lorenz pinned stage makes 17 numpy calls at R = I, 19 with another R
    rng = np.random.default_rng(2)
    system, z = _stage_case("pinned_lorenz", "mixed", 6, 3, rng, r=r)
    assert system.base.r_identity == (r == "identity")
    calls = {}

    def counted(name, func):
        def call(*args):
            calls[name] = calls.get(name, 0) + 1
            return func(*args)

        return call

    for name in ("_add", "_sub", "_mul", "_tanh", "_dot", "_copyto"):
        monkeypatch.setattr(dynamics, name, counted(name, getattr(dynamics, name)))
    stage, o = system.base.stage_body(system.bank), np.empty_like(z)
    stage(system.bank.factors(0.5), z, o)
    assert calls["_dot"] == dots
    assert sum(calls.values()) == 16 + dots
    assert o.tobytes() == _reference_stage(system, 0.5, z).tobytes()


def test_compiled_stage_writes_only_the_slot_it_is_passed():
    rng = np.random.default_rng(4)
    system, z = _stage_case("pinned_lorenz", "mixed", 4, 3, rng)
    stage = system.base.stage_body(system.bank)
    slots = [np.full_like(z, np.nan) for _ in range(4)]
    states = [z + k for k in range(len(slots))]
    rows = [system.bank.factors(0.1 * k) for k in range(len(slots))]
    for k, slot in enumerate(slots):
        assert stage(rows[k], states[k], slot) is None
        # the slots written so far keep their values; the others are untouched
        for j, done in enumerate(slots):
            want = _reference_stage(system, 0.1 * j, states[j]) if j <= k else None
            assert np.all(np.isnan(done)) if want is None else done.tobytes() == want.tobytes()
    # a slot passed again is overwritten in place, and no other slot moves
    before = [s.copy() for s in slots]
    stage(rows[3], states[3], slots[0])
    assert slots[0].tobytes() == before[3].tobytes()
    assert all(s.tobytes() == b.tobytes() for s, b in zip(slots[1:], before[1:]))


@pytest.mark.parametrize("kind", STAGE_KINDS)
def test_compiled_stage_writes_fresh_slots_and_keeps_none(kind):
    rng = np.random.default_rng(11)
    system, z = _stage_case(kind, "mixed", 5, 3, rng)
    stage = system.base.stage_body(system.bank)
    for k in range(4):
        t, state = 0.1 * k, z + k
        row = system.bank.factors(t)
        slot = np.empty_like(z)
        stage(row, state, slot)
        assert slot.tobytes() == _reference_stage(system, t, state).tobytes()
        # once the caller drops its slot, the stage holds no reference to it
        held = weakref.ref(slot)
        del slot
        assert held() is None
