import numpy as np
import pytest
from common import privacy_bank

from dynpriv.adversary import SUBSTITUTION_POLICIES, EavesdropperView, reconstruct_initial
from dynpriv.dynamics import AverageConsensus, MaskedSystem
from dynpriv.masks import MaskBank
from dynpriv.netgraph import build_graph, cycle_graph, laplacian
from dynpriv.solver import IntegratorConfig, Trajectory, integrate

# balanced 6-node cycle with one extra edge 5 -> 1, so observer 1 covers target 0
COVERING_EDGES = [
    (0, 1, 1.0),
    (1, 2, 2.0),
    (2, 3, 2.0),
    (3, 4, 2.0),
    (4, 5, 2.0),
    (5, 0, 1.0),
    (5, 1, 1.0),
]
COVERING = build_graph(6, COVERING_EDGES)
X0 = np.random.default_rng(71).uniform(-3, 3, 6)
BANK = privacy_bank(X0, seed=72)


def _consensus_run(graph, bank, t_final=50.0):
    """The masked consensus run on graph as one window, its trajectory and
    its outputs, and the system."""
    system = AverageConsensus(laplacian=laplacian(graph))
    ms = MaskedSystem(base=system, bank=bank)
    cfg = IntegratorConfig(dt=1e-3, t_final=t_final, record_stride=10)
    traj = integrate(ms, X0, cfg)
    return (traj, bank.eval_series(traj.times, traj.x)), system


def _view(graph, observer, window):
    return EavesdropperView.from_windows(graph, observer, [window], len(window[0].times))


@pytest.fixture(scope="module")
def covered_run():
    """The masked run on the covering graph, settled at T = 50, and its system."""
    return _consensus_run(COVERING, BANK)


def test_view_carries_only_observed_outputs():
    (traj, y), _ = _consensus_run(COVERING, BANK, t_final=1.0)
    view = _view(COVERING, 1, (traj, y))
    assert sorted(view.outputs) == [0, 1, 5]
    assert not hasattr(view, "x")
    assert not hasattr(view, "bank")
    # stored outputs are copies, not aliases into the run's outputs
    view.outputs[0][0] = 1e9
    assert y[0, 0] != 1e9


def test_view_of_split_windows_equals_the_view_of_one():
    # the windows fill one set of columns at their own rows; a row count
    # other than the windows' is refused
    window, _ = _consensus_run(COVERING, BANK, t_final=1.0)
    traj, y = window
    whole = _view(COVERING, 1, window)
    cuts = [0, 1, 40, len(traj.times)]
    parts = [(Trajectory(traj.times[a:b], traj.x[a:b]), y[a:b]) for a, b in zip(cuts, cuts[1:])]
    split = EavesdropperView.from_windows(COVERING, 1, parts, len(traj.times))
    assert split.times.tobytes() == whole.times.tobytes()
    for k, column in whole.outputs.items():
        assert split.outputs[k].tobytes() == column.tobytes()
    with pytest.raises(ValueError, match="rows"):
        EavesdropperView.from_windows(COVERING, 1, parts[:-1], len(traj.times))


def test_unobservable_target_rejected(covered_run):
    window, system = covered_run
    view = _view(COVERING, 2, window)
    row_field, needed = system.attack_row(4)
    with pytest.raises(ValueError, match="not observable"):
        reconstruct_initial(view, 4, row_field, needed)


def test_unsettled_trajectory_rejected():
    window, system = _consensus_run(COVERING, BANK, t_final=2.0)
    view = _view(COVERING, 1, window)
    row_field, needed = system.attack_row(0)
    with pytest.raises(ValueError, match="not settled"):
        reconstruct_initial(view, 0, row_field, needed)


def test_unknown_policy_rejected(covered_run):
    window, system = covered_run
    view = _view(COVERING, 1, window)
    row_field, needed = system.attack_row(0)
    with pytest.raises(ValueError, match="policy"):
        reconstruct_initial(view, 0, row_field, needed, policy="oracle")


def test_identity_bank_covered_attack_is_pure_quadrature():
    window, system = _consensus_run(COVERING, MaskBank.identity(6))
    view = _view(COVERING, 1, window)
    row_field, needed = system.attack_row(0)
    result = reconstruct_initial(view, 0, row_field, needed)
    assert result.missing_channels == ()
    assert abs(result.x_hat - X0[0]) < 1e-4


def test_masked_covered_attack_succeeds_and_missing_channel_breaks_it(covered_run):
    window, system = covered_run
    view = _view(COVERING, 1, window)
    row_field, needed = system.attack_row(0)
    covered = reconstruct_initial(view, 0, row_field, needed)
    covered_err = abs(covered.x_hat - X0[0])
    assert covered.missing_channels == ()
    assert covered_err < 1e-2

    g_free = cycle_graph(6)
    window, system = _consensus_run(g_free, BANK)
    view = _view(g_free, 1, window)
    row_field, needed = system.attack_row(0)
    for policy in SUBSTITUTION_POLICIES:
        result = reconstruct_initial(view, 0, row_field, needed, policy=policy)
        assert result.missing_channels == (5,)
        assert abs(result.x_hat - X0[0]) > 10 * covered_err
