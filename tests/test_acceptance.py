"""Acceptance gate: every headline property of the toolkit at its pinned
tolerance, one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines. One criterion
(quadratic comparison decay at the capped horizon) is an expected failure,
kept faithful to its stated threshold; see its docstring and the README.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from common import AXIOM_PATTERNS, random_bank, simulated, unmasked

from dynpriv.adversary import SUBSTITUTION_POLICIES, EavesdropperView, reconstruct_initial
from dynpriv.analysis import jacobi_eigenvalues
from dynpriv.cli import main
from dynpriv.dynamics import (
    AverageConsensus,
    FriedkinJohnsen,
    MaskedSystem,
    PinnedSync,
    SaturatedNet,
    TanhDrift,
    estimate_lipschitz_q,
    field_unmasked,
)
from dynpriv.masks import MaskBank, MaskKind, axiom_grid, check_mask_axioms, privacy_metric
from dynpriv.netgraph import erdos_renyi, laplacian, left_null_vector, spectral_radius
from dynpriv.scenario import build_scenario, load_bundled, windows
from dynpriv.solver import IntegratorConfig, integrate, solve_comparison_ode

def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)


# --- criterion: mask axiom pass/fail pattern per kind ------------------------


def test_mask_axiom_patterns():
    rng = np.random.default_rng(20250810)
    mismatches = 0
    for kind, expected in AXIOM_PATTERNS.items():
        for _ in range(200):
            bank = random_bank(kind, rng, dim=3)
            if check_mask_axioms(bank, *axiom_grid(bank))[0] != expected:
                mismatches += 1
    ok = mismatches == 0
    _report("mask axiom patterns", ok, f"{mismatches} mismatches over 1000 seeded banks")
    assert ok


# --- criterion: chosen parameters beat every requested privacy floor ---------


def test_privacy_floor_for_chosen_parameters():
    rng = np.random.default_rng(31415)
    worst = np.inf
    for lam in (0.1, 1.0, 10.0):
        for kind in (MaskKind.ADDITIVE, MaskKind.AFFINE, MaskKind.VANISHING_AFFINE):
            for _ in range(100):
                x0 = rng.uniform(-20, 20, 20)
                bank = MaskBank.auto(kind, lam, x0, seed=rng)
                rho_i, rho = privacy_metric(bank, x0)
                worst = min(worst, rho / lam)
                assert rho > lam, f"{kind} lam={lam}: rho={rho}"
    _report("privacy metric floor", True, f"900 banks, worst rho/lambda = {worst:.3f} > 1")


# --- criterion: saturated net attractor with affine mask ---------------------


def test_saturated_net_attractor_and_mask_gap():
    sc = build_scenario(load_bundled("example1_satnet_n20"))
    start = time.perf_counter()
    traj, _series, report = simulated(sc)
    elapsed = time.perf_counter() - start
    gap0_min, gap_t_max = report.mask_gap_initial_min, report.mask_gap_final_max
    final_err = float(np.max(np.abs(traj.x[-1])))
    ok = final_err < 1e-3 and gap0_min >= 1.0 and gap_t_max < 1e-6 and elapsed < 10.0
    _report(
        "saturated net attractor",
        ok,
        f"|x(T)|inf={final_err:.2e}, gap(0)min={gap0_min:.2f}, "
        f"gap(T)max={gap_t_max:.2e}, {elapsed:.1f}s",
    )
    assert ok


# --- criterion: opinion dynamics reach the anchored attractor ----------------


def test_fj_masked_unmasked_agree_and_frozen_anchor_shifts():
    sc = build_scenario(load_bundled("example2_fj_n20"))
    spec = sc.system
    x_star = spec.attractor(sc.x0)
    masked = simulated(sc)[0]
    bare = integrate(unmasked(spec), sc.x0, sc.integrator)
    frozen = integrate(
        MaskedSystem(base=replace(spec, frozen_anchor=True), bank=sc.bank), sc.x0, sc.integrator
    )
    err_masked = float(np.max(np.abs(masked.x[-1] - x_star)))
    err_unmasked = float(np.max(np.abs(bare.x[-1] - x_star)))
    agree = float(np.max(np.abs(masked.x[-1] - bare.x[-1])))
    frozen_shift = float(np.max(np.abs(frozen.x[-1] - x_star)))
    ok = (
        err_masked < 1e-3
        and err_unmasked < 1e-3
        and agree < 2e-3
        and frozen_shift > 10 * 1e-3
    )
    _report(
        "opinion dynamics attractor",
        ok,
        f"masked={err_masked:.2e}, unmasked={err_unmasked:.2e}, agree={agree:.2e}, "
        f"frozen-anchor shift={frozen_shift:.2f}",
    )
    assert ok


# --- criterion: masked average consensus ------------------------------------


@pytest.mark.parametrize("name,budget", [("example3_consensus_n20", 30.0), ("example3_consensus", 60.0)])
def test_consensus_conservation_and_hidden_output(name, budget):
    sc = build_scenario(load_bundled(name))
    start = time.perf_counter()
    report = simulated(sc)[2]
    elapsed = time.perf_counter() - start
    ok = (
        report.final_error < 1e-3
        and report.conservation_dev <= 1e-8
        and report.output_mean_range > 1e-3
        and report.vmm_max_increase > 1e-6
        and elapsed < budget
    )
    _report(
        f"masked consensus ({name})",
        ok,
        f"err={report.final_error:.2e}, cons={report.conservation_dev:.2e}, "
        f"ymean range={report.output_mean_range:.3f}, spread rise={report.vmm_max_increase:.3f}, "
        f"{elapsed:.1f}s",
    )
    assert ok


# --- criterion: pinned synchronization with a scanned gain -------------------


def test_pinned_sync_gain_scan_and_error():
    config = load_bundled("example4_pinning_n10")
    sc = build_scenario(config)
    spec = sc.system
    q = estimate_lipschitz_q(
        spec.drift, spec.r, (np.full(3, -3.0), np.full(3, 3.0)), samples=4000, seed=77
    )
    xi = left_null_vector(spec.laplacian)
    chosen = None
    for gain in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        p = np.zeros(spec.n_agents)
        p[:3] = gain
        margin = replace(spec, pin_gains=p).pinning_margin(xi, q)
        if margin < 0:
            chosen = (gain, margin)
            break
    assert chosen is not None, "gain scan never reached a negative margin"
    gain, margin = chosen
    assert gain == config["system"]["pin_gain"], "bundled scenario should pin the scanned gain"
    final_err = float(simulated(sc)[1]["sync_err_max"].last)
    ok = margin < 0 and final_err < 1e-2
    _report(
        "pinned synchronization",
        ok,
        f"q={q:.3f}, scanned gain={gain}, margin={margin:.4f}, |e(T)|={final_err:.2e}",
    )
    assert ok


def test_pinned_sync_chaotic_reproduction_stays_bounded():
    sc = build_scenario(load_bundled("example4_pinning"))
    # the whole trajectory: run_simulation returns its last window only
    traj = integrate(MaskedSystem(sc.system, sc.bank), sc.x0, sc.integrator, s0=sc.s0)
    bound = float(np.max(np.abs(traj.x)))
    ok = np.all(np.isfinite(traj.x)) and bound < 1e3
    _report("chaotic pinning reproduction", ok, f"completed, max |x| = {bound:.1f}")
    assert ok


# --- criterion: no equilibria, yet the attractor is recovered ----------------


def _escape_and_return(system, bank, x_eq, s0, tol, t_final=40.0):
    ms = MaskedSystem(base=system, bank=bank)
    cfg = IntegratorConfig(dt=1e-3, t_final=t_final, record_stride=10)
    traj = integrate(ms, x_eq, cfg, s0=s0)
    dist = np.max(np.abs(traj.x - x_eq[None, :]), axis=1)
    return float(dist.max()), float(dist[-1])


def test_equilibrium_escape_and_reconvergence():
    lam = 1.0
    rng = np.random.default_rng(2718)
    results = {}

    g = erdos_renyi(8, 0.4, seed=81)
    a = g.a
    satnet = SaturatedNet(a=a, kappa=0.5 / spectral_radius(a))
    x_eq = np.zeros(8)
    assert np.max(np.abs(field_unmasked(satnet, 0.0, x_eq))) <= 1e-12
    bank = MaskBank.auto(MaskKind.VANISHING_AFFINE, lam, x_eq, seed=82)
    results["saturated_net"] = (*_escape_and_return(satnet, bank, x_eq, None, 1e-3), 1e-3)

    g = erdos_renyi(8, 0.4, seed=83)
    lap = laplacian(g)
    x_eq = np.full(8, 1.5)
    fj = FriedkinJohnsen(laplacian=lap, theta=rng.uniform(0.3, 1.0, 8), anchor=x_eq)
    assert np.max(np.abs(field_unmasked(fj, 0.0, x_eq))) <= 1e-12
    bank = MaskBank.auto(MaskKind.VANISHING_AFFINE, lam, x_eq, seed=84)
    results["friedkin_johnsen"] = (*_escape_and_return(fj, bank, x_eq, None, 1e-3), 1e-3)

    g = erdos_renyi(8, 0.4, seed=85, symmetric=True)
    consensus = AverageConsensus(laplacian=laplacian(g))
    x_eq = np.full(8, -0.7)
    assert np.max(np.abs(field_unmasked(consensus, 0.0, x_eq))) <= 1e-12
    bank = MaskBank.auto(MaskKind.VANISHING_AFFINE, lam, x_eq, seed=86)
    results["average_consensus"] = (*_escape_and_return(consensus, bank, x_eq, None, 1e-3), 1e-3)

    g = erdos_renyi(6, 0.5, seed=87, symmetric=True, weight_range=(0.8, 1.2))
    drift = TanhDrift(
        a=-np.eye(3),
        b=np.array([[1.2, -0.8, 0.0], [0.8, 1.2, -0.6], [0.0, 0.6, 1.2]]),
    )
    gains = np.zeros(6)
    gains[:2] = 6.0
    pinned = PinnedSync(laplacian=laplacian(g), r=np.eye(3), pin_gains=gains, drift=drift, nu=3)
    x_eq = np.zeros(18)
    s0 = np.zeros(3)
    assert np.max(np.abs(field_unmasked(pinned, 0.0, x_eq, s0))) <= 1e-12
    xi = left_null_vector(pinned.laplacian)
    q = estimate_lipschitz_q(drift, np.eye(3), (np.full(3, -3.0), np.full(3, 3.0)), 4000, seed=88)
    assert pinned.pinning_margin(xi, q) < 0
    bank = MaskBank.auto(MaskKind.VANISHING_AFFINE, lam, x_eq, seed=89)
    results["pinned_sync"] = (*_escape_and_return(pinned, bank, x_eq, s0, 1e-2, t_final=60.0), 1e-2)

    ok = all(peak > 0.1 * lam and final < tol for peak, final, tol in results.values())
    detail = ", ".join(
        f"{k}: peak={peak:.2f} final={final:.1e}" for k, (peak, final, _) in results.items()
    )
    _report("equilibrium escape and return", ok, detail)
    assert ok


# --- criterion: scalar comparison dynamics ----------------------------------


def test_comparison_closed_form():
    cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
    times, values = solve_comparison_ode(1.0, 0.0, 0.0, 1.0, 1.0, 1.0, cfg)
    dev = float(np.max(np.abs(values - 1.0 / (1.0 + times))))
    ok = dev < 1e-4
    _report("comparison closed form", ok, f"max deviation from 1/(1+t) = {dev:.2e}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable threshold: the unperturbed flow dv/dt = -a v^2 bounds the "
        "solution below by v0/(1 + a v0 t), so v(T) < 1e-3 needs a*T ~ 1000, far "
        "beyond the capped horizon for slow draws (e.g. a=0.1, v0=10, T<=500 "
        "gives v >= 0.02)"
    ),
)
def test_comparison_decay_reaches_threshold_at_capped_horizon():
    """Quadratic-tail decay across 100 seeded draws at the capped horizon.

    Every v(T) is asymptotically zero, but only harmonically; the 1e-3
    threshold at T <= 500 is kept verbatim and documented as failing.
    """
    rng = np.random.default_rng(99)
    for _ in range(100):
        a, b, c = rng.uniform(0.1, 5.0, 3)
        d1, d2 = rng.uniform(0.2, 2.0, 2)
        v0 = rng.uniform(0.0, 10.0)
        # on the dt grid: the integrator rejects a horizon dt does not divide
        horizon = round(min(50.0 / min(d1, d2, a * v0 + 1e-6), 500.0) / 1e-2) * 1e-2
        cfg = IntegratorConfig(dt=1e-2, t_final=horizon, record_stride=1000)
        _, values = solve_comparison_ode(a, b, c, d1, d2, v0, cfg)
        assert values[-1] < 1e-3, f"v({horizon:.0f})={values[-1]:.3e} for a={a:.2f}, v0={v0:.2f}"
    _report("comparison capped-horizon decay", True, "all 100 draws under 1e-3")


# --- criterion: reduced pinning margin agrees with the Kronecker oracle ------


def test_pinning_reduction_matches_kronecker_oracle():
    rng = np.random.default_rng(4242)
    checked = 0
    trial = 0
    while checked < 50:
        trial += 1
        n = int(rng.integers(2, 5))
        nu = int(rng.integers(1, 4))
        g = erdos_renyi(n, 0.7, seed=3000 + trial, require_no_covering=False)
        lap = laplacian(g)
        xi = left_null_vector(lap)
        r = rng.standard_normal((nu, nu))
        r = r @ r.T + nu * np.eye(nu)
        p = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 5.0, n), 0.0)
        q = float(rng.uniform(-2.0, 4.0))
        xi_mat = np.diag(xi)
        reduced = xi_mat * q - 0.5 * (xi_mat @ lap + lap.T @ xi_mat) - xi_mat @ np.diag(p)
        reduced = 0.5 * (reduced + reduced.T)
        drift = TanhDrift(a=-np.eye(nu), b=np.zeros((nu, nu)))
        spec = PinnedSync(laplacian=lap, r=r, pin_gains=p, drift=drift, nu=nu)
        margin = spec.pinning_margin(xi, q)
        if abs(margin) < 1e-8:
            continue
        ev = jacobi_eigenvalues(reduced)
        assert np.sum(ev) == pytest.approx(np.trace(reduced), rel=1e-8, abs=1e-12)
        assert np.prod(ev) == pytest.approx(np.linalg.det(reduced), rel=1e-8, abs=1e-12)
        big = np.kron(reduced, r)
        brute = float(np.max(jacobi_eigenvalues(0.5 * (big + big.T))))
        assert (margin < 0) == (brute < 0), f"trial {trial}: {margin} vs {brute}"
        checked += 1
    _report("pinning margin reduction", True, f"{checked} instances, signs agree with oracle")


# --- criterion: eavesdropping succeeds iff a covering pair exists ------------


def test_eavesdropper_covered_then_restored():
    cov = build_scenario(load_bundled("adversary_covering"))
    row_field, needed = cov.system.attack_row(0)
    view = EavesdropperView.from_windows(cov.graph, 1, windows(cov), cov.integrator.n_records)
    covered = reconstruct_initial(view, 0, row_field, needed)
    covered_err = abs(covered.x_hat - float(cov.x0[0]))

    free = build_scenario(load_bundled("adversary_cycle"))
    assert np.array_equal(free.x0, cov.x0)
    row_field, needed = free.system.attack_row(0)
    view = EavesdropperView.from_windows(free.graph, 1, windows(free), free.integrator.n_records)
    restored_errs = {}
    for policy in SUBSTITUTION_POLICIES:
        res = reconstruct_initial(view, 0, row_field, needed, policy=policy)
        restored_errs[policy] = abs(res.x_hat - float(free.x0[0]))
    ok = covered_err < 1e-2 and all(e > 10 * covered_err for e in restored_errs.values())
    _report(
        "eavesdropper reconstruction",
        ok,
        f"covered err={covered_err:.2e}; restored: "
        + ", ".join(f"{p}={e:.2e}" for p, e in restored_errs.items()),
    )
    assert ok


# --- criterion: bit-identical artifacts on repeated simulates ----------------


def test_repeat_simulation_byte_identical(tmp_path):
    names = ("example1_satnet_n10", "example3_consensus_n3")
    ok = True
    for name in names:
        for sub in ("a", "b"):
            code = main(["simulate", "--bundled", name, "--out", str(tmp_path / sub)])
            assert code == 0
        first = (tmp_path / "a" / name / "trajectory.csv").read_bytes()
        second = (tmp_path / "b" / name / "trajectory.csv").read_bytes()
        ok = ok and first == second
    _report("determinism", ok, f"byte-identical trajectory.csv for {', '.join(names)}")
    assert ok
