"""Cross-checks of the fixed-step flows against an adaptive reference solver."""

import numpy as np
import pytest
from common import privacy_bank

from dynpriv.dynamics import (
    FriedkinJohnsen,
    MaskedSystem,
    PinnedSync,
    TanhDrift,
    exosystem_field,
    field_masked,
)
from dynpriv.netgraph import cycle_graph, erdos_renyi, laplacian
from dynpriv.solver import IntegratorConfig, integrate

scipy_integrate = pytest.importorskip("scipy.integrate")


def test_masked_fj_flow_matches_adaptive_reference():
    g = erdos_renyi(5, 0.6, seed=3, require_no_covering=False)
    lap = laplacian(g)
    rng = np.random.default_rng(4)
    x0 = rng.uniform(0.0, 1.0, 5)
    spec = FriedkinJohnsen(laplacian=lap, theta=rng.uniform(0.2, 1.0, 5), anchor=x0)
    ms = MaskedSystem(base=spec, bank=privacy_bank(x0, seed=5))
    traj = integrate(ms, x0, IntegratorConfig(dt=1e-3, t_final=5.0, record_stride=1000))
    sol = scipy_integrate.solve_ivp(
        lambda t, x: field_masked(ms, t, x),
        (0.0, 5.0),
        x0,
        rtol=1e-11,
        atol=1e-12,
        dense_output=True,
    )
    assert np.max(np.abs(traj.x[-1] - sol.sol(5.0))) < 1e-8


def test_masked_pinned_flow_matches_adaptive_reference():
    drift = TanhDrift(
        a=-np.eye(3),
        b=np.array([[1.2, -0.8, 0.0], [0.8, 1.2, -0.6], [0.0, 0.6, 1.2]]),
    )
    spec = PinnedSync(
        laplacian=laplacian(cycle_graph(3)),
        r=np.eye(3),
        pin_gains=np.array([2.0, 0.0, 0.0]),
        drift=drift,
        nu=3,
    )
    rng = np.random.default_rng(6)
    x0 = rng.uniform(-2, 2, 9)
    s0 = np.array([0.4, -0.3, 0.1])
    ms = MaskedSystem(base=spec, bank=privacy_bank(x0, seed=7))
    traj = integrate(ms, x0, IntegratorConfig(dt=1e-3, t_final=5.0, record_stride=1000), s0=s0)

    def joint(t, z):
        return np.concatenate(
            [field_masked(ms, t, z[:9], z[9:]), exosystem_field(drift, z[9:])]
        )

    sol = scipy_integrate.solve_ivp(
        joint, (0.0, 5.0), np.concatenate([x0, s0]), rtol=1e-11, atol=1e-12, dense_output=True
    )
    ref = sol.sol(5.0)
    assert np.max(np.abs(traj.x[-1] - ref[:9])) < 1e-8
    assert np.max(np.abs(traj.s[-1] - ref[9:])) < 1e-8
