"""Time-varying output masks applied channelwise before states are shared.

Every supported mask is a special case of the affine template

    h(t, x) = c * (1 + phi * exp(-sigma * t)) * (x + gamma * exp(-delta * t))

with per-channel parameters. The kinds differ only in which parameters are
active:

    identity            c=1, phi=0, gamma=0
    linear              gain (1 + phi e^{-sigma t}) only
    additive            offset gamma e^{-delta t} only
    affine              static gain c > 1 plus decaying offset
    vanishing_affine    decaying gain plus decaying offset

Masks are strictly increasing in x for every fixed t, hence invertible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

ROUNDTRIP_TOL = 1e-12
DEFAULT_RATE_RANGE = (0.5, 2.0)
#: Ball radii probed by the neighborhood-escape axiom at t=0.
BALL_RADII = (0.01, 0.1)
#: The sup-over-states gap vanishes when its final value is below
#: TAIL_REL * (initial value) + TAIL_ABS.
TAIL_REL = 1e-8
TAIL_ABS = 1e-12


class MaskKind(enum.Enum):
    IDENTITY = "identity"
    LINEAR = "linear"
    ADDITIVE = "additive"
    AFFINE = "affine"
    VANISHING_AFFINE = "vanishing_affine"


#: Kinds that qualify as privacy masks (parameters can enforce any metric floor).
PRIVACY_KINDS = (MaskKind.ADDITIVE, MaskKind.AFFINE, MaskKind.VANISHING_AFFINE)


@dataclass(frozen=True)
class MaskParams:
    """Per-channel mask parameters; fields unused by a kind stay None."""

    phi: Optional[float] = None
    sigma: Optional[float] = None
    gamma: Optional[float] = None
    delta: Optional[float] = None
    c: Optional[float] = None


_REQUIRED = {
    MaskKind.IDENTITY: (),
    MaskKind.LINEAR: ("phi", "sigma"),
    MaskKind.ADDITIVE: ("gamma", "delta"),
    MaskKind.AFFINE: ("c", "gamma", "delta"),
    MaskKind.VANISHING_AFFINE: ("phi", "sigma", "gamma", "delta"),
}


def _validate(kind: MaskKind, p: MaskParams) -> None:
    required = _REQUIRED[kind]
    for name in ("phi", "sigma", "gamma", "delta", "c"):
        val = getattr(p, name)
        if name in required:
            if val is None:
                raise ValueError(f"{kind.value} mask requires parameter {name}")
        elif val is not None:
            raise ValueError(f"{kind.value} mask does not take parameter {name}")
    if kind is MaskKind.LINEAR:
        if p.phi < 0 or p.sigma <= 0:
            raise ValueError("linear mask needs phi >= 0 and sigma > 0")
    elif kind is MaskKind.ADDITIVE:
        if p.gamma == 0 or p.delta <= 0:
            raise ValueError("additive mask needs gamma != 0 and delta > 0")
    elif kind is MaskKind.AFFINE:
        if p.c <= 1 or p.gamma == 0 or p.delta <= 0:
            raise ValueError("affine mask needs c > 1, gamma != 0, delta > 0")
    elif kind is MaskKind.VANISHING_AFFINE:
        if p.phi <= 0 or p.sigma <= 0 or p.gamma == 0 or p.delta <= 0:
            raise ValueError(
                "vanishing_affine mask needs phi > 0, sigma > 0, gamma != 0, delta > 0"
            )


class MaskBank:
    """One mask kind + parameter set per scalar state channel.

    The bank is immutable after construction and evaluates all channels in a
    single vectorized pass.
    """

    def __init__(self, channels) -> None:
        channels = list(channels)
        if not channels:
            raise ValueError("mask bank needs at least one channel")
        kinds = []
        params = []
        for kind, p in channels:
            _validate(kind, p)
            kinds.append(kind)
            params.append(p)
        self.kinds: tuple = tuple(kinds)
        self.params: tuple = tuple(params)
        # Compiled coefficient arrays; neutral values keep inactive terms inert.
        self._c = np.array([p.c if p.c is not None else 1.0 for p in params])
        self._phi = np.array([p.phi if p.phi is not None else 0.0 for p in params])
        self._sigma = np.array([p.sigma if p.sigma is not None else 1.0 for p in params])
        self._gamma = np.array([p.gamma if p.gamma is not None else 0.0 for p in params])
        self._delta = np.array([p.delta if p.delta is not None else 1.0 for p in params])

    @property
    def dim(self) -> int:
        return len(self.kinds)

    @classmethod
    def identity(cls, dim: int) -> "MaskBank":
        return cls([(MaskKind.IDENTITY, MaskParams())] * dim)

    @classmethod
    def auto(
        cls,
        kind: MaskKind,
        privacy_level: float,
        x0: np.ndarray,
        seed,
        rate_range: tuple = DEFAULT_RATE_RANGE,
    ) -> "MaskBank":
        """choose_params drawn for every channel of x0, all of the same kind."""
        params = _draw_params(kind, privacy_level, x0, np.random.default_rng(seed), rate_range)
        return cls([(kind, p) for p in params])

    def factors(self, times):
        """Gain c(1 + phi e^{-sigma t}) and offset gamma e^{-delta t} per channel.

        times is a scalar or an array of times; each factor has shape
        np.shape(times) + (dim,), and h(t, x) = scale * (x + offset). The
        factors depend on t alone, so one call serves many states.
        """
        t = np.asarray(times, dtype=float)[..., None]
        # In place: integrate fills a table per block of steps, and fresh
        # temporaries on every fill fragment the heap (several MB of peak
        # RSS over repeated n=100 consensus simulates).
        scale = -self._sigma * t
        np.exp(scale, out=scale)
        scale *= self._phi
        scale += 1.0
        scale *= self._c
        offset = -self._delta * t
        np.exp(offset, out=offset)
        offset *= self._gamma
        return scale, offset

    def eval(self, t: float, x: np.ndarray) -> np.ndarray:
        """Masked output y = h(t, x), channelwise."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"state has shape {x.shape}, bank expects ({self.dim},)")
        if t < 0:
            raise ValueError("mask time must be nonnegative")
        scale, offset = self.factors(t)
        return scale * (x + offset)

    def eval_series(self, times: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Vectorized eval over a (len(times), dim) array of states."""
        scale, offset = self.factors(times)
        return scale * (np.asarray(states, dtype=float) + offset)

    def invert(self, t: float, y: np.ndarray) -> np.ndarray:
        """Exact inverse x = h^{-1}(t, y); every kind is bijective in x."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dim,):
            raise ValueError(f"output has shape {y.shape}, bank expects ({self.dim},)")
        if t < 0:
            raise ValueError("mask time must be nonnegative")
        scale, offset = self.factors(t)
        return y / scale - offset

    def min_decay_rate(self) -> float:
        """Slowest active decay rate across channels (inf for static banks)."""
        rates = []
        for kind, p in zip(self.kinds, self.params):
            if p.sigma is not None:
                rates.append(p.sigma)
            if p.delta is not None:
                rates.append(p.delta)
        return min(rates) if rates else np.inf

    def translated(self, t0: float) -> "MaskBank":
        """Bank whose clock starts at t0, i.e. h'(t, x) = h(t + t0, x).

        Translation stays inside the mask family: the decaying gain and
        offset amplitudes shrink by exp(-sigma t0) and exp(-delta t0). Used
        to probe attractivity uniformly over the mask start time.
        """
        if t0 < 0:
            raise ValueError("clock offset must be nonnegative")
        channels = []
        for kind, p in zip(self.kinds, self.params):
            phi = p.phi * float(np.exp(-p.sigma * t0)) if p.phi is not None else None
            gamma = p.gamma * float(np.exp(-p.delta * t0)) if p.gamma is not None else None
            channels.append(
                (kind, MaskParams(phi=phi, sigma=p.sigma, gamma=gamma, delta=p.delta, c=p.c))
            )
        return MaskBank(channels)


def privacy_metric(bank: MaskBank, x0: np.ndarray):
    """Per-channel t=0 gap |h(0, x0) - x0| and its minimum over channels."""
    x0 = np.asarray(x0, dtype=float)
    rho_i = np.abs(bank.eval(0.0, x0) - x0)
    return rho_i, float(np.min(rho_i))


#: Uniform doubles drawn per channel, in draw order: delta, the offset
#: magnitude, then the offset sign (additive), c (affine) or phi and sigma
#: (vanishing_affine).
_DRAWS = {MaskKind.ADDITIVE: 3, MaskKind.AFFINE: 3, MaskKind.VANISHING_AFFINE: 4}


def _draw_params(kind: MaskKind, privacy_level: float, x0, rng, rate_range) -> list:
    """choose_params for every entry of x0, from one (len(x0), k) block of
    uniform doubles; each uniform draw on [a, b) is a + (b - a) * u, which
    is what rng.uniform(a, b) computes from u."""
    if privacy_level <= 0:
        raise ValueError("privacy level must be positive")
    if kind not in PRIVACY_KINDS:
        raise ValueError(f"{kind.value} is not a privacy mask")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    u = rng.random((x0.size, _DRAWS[kind]))
    lo, hi = rate_range
    drawn = {"delta": lo + (hi - lo) * u[:, 0]}
    gamma_mag = (2.0 + (4.0 - 2.0) * u[:, 1]) * privacy_level
    if kind is MaskKind.ADDITIVE:
        sign = np.where(u[:, 2] < 0.5, 1.0, -1.0)
    else:
        # aligned with the agent's own x0_i, so the terms of the gap cannot cancel
        sign = np.where(x0 != 0, np.sign(x0), 1.0)
    drawn["gamma"] = sign * gamma_mag
    if kind is MaskKind.AFFINE:
        # gap |(c-1) x0 + c gamma| >= c |gamma| >= 2 * privacy_level when aligned
        drawn["c"] = 1.2 + (2.5 - 1.2) * u[:, 2]
    elif kind is MaskKind.VANISHING_AFFINE:
        # gap |phi x0 + (1 + phi) gamma| >= (1 + phi) |gamma| when aligned
        drawn["phi"] = 0.5 + (2.0 - 0.5) * u[:, 2]
        drawn["sigma"] = lo + (hi - lo) * u[:, 3]
    rows = zip(*(col.tolist() for col in drawn.values()))
    return [MaskParams(**dict(zip(drawn, row))) for row in rows]


def choose_params(
    kind: MaskKind,
    privacy_level: float,
    x0_i: float,
    rng,
    rate_range: tuple = DEFAULT_RATE_RANGE,
) -> MaskParams:
    """Draw parameters guaranteeing a t=0 gap of at least 2 * privacy_level.

    The factor-2 margin keeps the strict inequality rho > privacy_level safe
    under floating-point evaluation. For the kinds whose gap depends on the
    state, the offset sign is aligned with the agent's own x0_i so the terms
    cannot cancel.
    """
    rng = np.random.default_rng(rng) if isinstance(rng, (int, np.integer)) else rng
    return _draw_params(kind, privacy_level, x0_i, rng, rate_range)[0]


@dataclass(frozen=True)
class MaskAxiomReport:
    """Outcome of the executable mask-axiom checks on a sampling grid.

    local                 each output channel depends only on its own state
    fixed_point_free      h(0, x) != x at every sampled state
    escapes_neighborhoods no sampled state has a ball mapped into itself at t=0
    strictly_increasing   h(t, .) strictly increasing at every sampled time
    vanishing             sup-over-states gap decreasing in t and below the
                          tail threshold at the final sampled time
    """

    local: bool
    fixed_point_free: bool
    escapes_neighborhoods: bool
    strictly_increasing: bool
    vanishing: bool
    witnesses: dict

    def as_dict(self) -> dict:
        return {
            "local": self.local,
            "fixed_point_free": self.fixed_point_free,
            "escapes_neighborhoods": self.escapes_neighborhoods,
            "strictly_increasing": self.strictly_increasing,
            "vanishing": self.vanishing,
        }


def check_mask_axioms(bank: MaskBank, times: np.ndarray, states: np.ndarray) -> MaskAxiomReport:
    """Numerically verify the mask axioms on a times x states grid.

    states is a shared scalar probe grid applied to every channel; it should
    be symmetric around 0 and include 0 (homogeneous masks fail exactly
    there). The vanishing check uses the supremum of the gap over the state
    grid, which is the uniform-convergence quantity that makes the masked
    dynamics collapse onto the unmasked ones; the pointwise gap need not be
    monotone when a state and its channel offset have opposite signs.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    if times.size == 0 or states.size == 0:
        raise ValueError("sampling grid must be non-empty")
    if times[0] != 0.0:
        raise ValueError("time grid must start at 0 (the t=0 axioms need it)")
    d = bank.dim
    witnesses: dict = {}

    # locality: perturbing channel k (row k of the probes) moves output
    # channel k only
    base = np.full(d, 0.37)
    local = True
    for t in (0.0, float(times[-1])):
        moved = bank.eval_series(np.full(d, t), base + 1.234 * np.eye(d)) != bank.eval(t, base)
        bad = np.flatnonzero((moved != np.eye(d, dtype=bool)).any(axis=1))
        if bad.size:
            local = False
            witnesses["local"] = {"channel": int(bad[0]), "t": t}
            break

    # neighborhood escape at t=0: a ball B(x*, r) is preserved iff its image
    # stays inside; with h monotone in x the sup over the ball is attained at
    # the endpoints, probed slightly inside so the identity map still counts
    # as preserving.
    escapes = True
    for r in BALL_RADII:
        ends = np.concatenate([states - 0.999 * r, states + 0.999 * r])
        img = bank.eval_series(np.zeros(ends.size), np.broadcast_to(ends[:, None], (ends.size, d)))
        inside = np.abs(img.reshape(2, states.size, d) - states[:, None]) < r
        preserved = (inside[0] & inside[1]).T  # [channel, state]
        if preserved.any():
            escapes = False
            ch, st = np.argwhere(preserved)[0]
            witnesses["escapes_neighborhoods"] = {
                "channel": int(ch),
                "state": float(states[st]),
                "radius": float(r),
            }
            break

    # the template's factors on the whole grid, h = scale * (x + offset)
    scale, offset = bank.factors(times)

    # strict monotonicity in x at sampled times, over the sorted states
    sampled = np.arange(0, times.size, max(1, times.size // 8))
    h = scale[sampled, None, :] * (np.sort(states)[:, None] + offset[sampled, None, :])
    rising = np.all(np.diff(h, axis=1) > 0, axis=(1, 2))
    increasing = bool(rising.all())
    if not increasing:
        witnesses["strictly_increasing"] = {"t": float(times[sampled[np.argmin(rising)]])}

    # gap[time, state, channel] = |h(t, x) - x|
    gap = states[:, None] + offset[:, None, :]
    gap *= scale[:, None, :]
    gap -= states[:, None]
    np.abs(gap, out=gap)

    fixed = gap[0].T <= 1e-12 * np.maximum(1.0, np.abs(states))
    fixed_point_free = not bool(fixed.any())
    if not fixed_point_free:
        ch, st = np.argwhere(fixed)[0]
        witnesses["fixed_point_free"] = {"channel": int(ch), "state": float(states[st])}

    # uniform vanishing: sup-over-states gap per channel, strictly decreasing
    # and below the tail threshold at the final grid time
    sup_gap = gap.max(axis=1)
    tail_ok = sup_gap[-1] < TAIL_REL * sup_gap[0] + TAIL_ABS
    diffs = np.diff(sup_gap, axis=0)
    decreasing = np.all((diffs < 0) | (sup_gap[1:] < TAIL_ABS), axis=0)
    vanishing = bool(np.all(tail_ok & decreasing))
    if not vanishing:
        bad = int(np.argmin(tail_ok & decreasing))
        witnesses["vanishing"] = {
            "channel": bad,
            "initial_sup_gap": float(sup_gap[0, bad]),
            "final_sup_gap": float(sup_gap[-1, bad]),
        }

    return MaskAxiomReport(
        local=local,
        fixed_point_free=fixed_point_free,
        escapes_neighborhoods=escapes,
        strictly_increasing=increasing,
        vanishing=vanishing,
        witnesses=witnesses,
    )


def mask_norm_bounds(bank: MaskBank, t: float, x: np.ndarray):
    """Two-sided bound on ||x||_2 from the masked output at time t.

    Returns (lower, upper) with lower <= ||x|| <= upper, where
    lower = ||y|| / k - zeta(t), upper = ||y|| + zeta(t), k is the largest
    t=0 channel gain and zeta(t) = ||offset(t)||_2. Only masks of affine
    structure (additive, affine, vanishing_affine) keep the channel gains
    >= 1, which the upper bound needs.
    """
    for kind in bank.kinds:
        if kind not in PRIVACY_KINDS:
            raise ValueError(f"norm bounds need affine-structure masks, got {kind.value}")
    y = bank.eval(t, x)
    k = float(np.max(bank.factors(0.0)[0]))
    zeta = float(np.linalg.norm(bank.factors(t)[1]))
    y_norm = float(np.linalg.norm(y))
    return y_norm / k - zeta, y_norm + zeta
