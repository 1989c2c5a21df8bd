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

RULES states each kind once: the parameters it takes, their range test,
and whether its gap h(t, x) - x vanishes (every kind but affine), so that
the masked system keeps the unmasked one as its limit system.

Masks are strictly increasing in x for every fixed t, hence invertible.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, NamedTuple

import numpy as np

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


#: The parameters, in the row order of a bank's (field, channel) arrays,
#: which is also the order in which a channel's missing or extra parameter
#: is reported.
_FIELDS = ("phi", "sigma", "gamma", "delta", "c")
#: Per field, the value that keeps an unused term inert.
_NEUTRAL = (0.0, 1.0, 0.0, 1.0, 1.0)


class _Rule(NamedTuple):
    """A mask kind's parameters, in _FIELDS order; the test that refuses
    their values, called with them by name, and its message; and whether
    the kind's gap vanishes."""

    takes: tuple
    refuses: Callable[..., bool]
    message: str
    vanishes: bool


#: Each mask kind stated once. A range test compares as written, never
#: negated: a NaN passes it as it passes the comparison.
RULES = {
    MaskKind.IDENTITY: _Rule((), lambda: False, "", True),
    MaskKind.LINEAR: _Rule(
        ("phi", "sigma"),
        lambda phi, sigma: phi < 0 or sigma <= 0,
        "linear mask needs phi >= 0 and sigma > 0",
        True,
    ),
    MaskKind.ADDITIVE: _Rule(
        ("gamma", "delta"),
        lambda gamma, delta: gamma == 0 or delta <= 0,
        "additive mask needs gamma != 0 and delta > 0",
        True,
    ),
    MaskKind.AFFINE: _Rule(
        ("gamma", "delta", "c"),
        lambda gamma, delta, c: c <= 1 or gamma == 0 or delta <= 0,
        "affine mask needs c > 1, gamma != 0, delta > 0",
        False,  # its static gain c > 1 never decays
    ),
    MaskKind.VANISHING_AFFINE: _Rule(
        ("phi", "sigma", "gamma", "delta"),
        lambda phi, sigma, gamma, delta: phi <= 0 or sigma <= 0 or gamma == 0 or delta <= 0,
        "vanishing_affine mask needs phi > 0, sigma > 0, gamma != 0, delta > 0",
        True,
    ),
}


class MaskBank:
    """One mask kind + parameter set per scalar state channel.

    The bank holds one array per parameter over the channels, with a neutral
    value wherever a channel's kind takes no such parameter. MaskBank(channels)
    stacks a config's channel dicts, such as {"kind": "linear", "phi": 1.0,
    "sigma": 2.0}, into those arrays after reading each channel against its
    kind's row of RULES, and raises for the first offending channel. auto()
    draws the arrays inside those rules, so it binds them unchecked.
    min_decay_rate is derived from the arrays. The bank is immutable after
    construction and evaluates all channels in a single vectorized pass.
    """

    def __init__(self, channels) -> None:
        kinds = tuple(MaskKind(ch["kind"]) for ch in channels)
        for kind, ch in zip(kinds, channels):
            for key in ch:  # a key that names no parameter is refused, not ignored
                if key != "kind" and key not in _FIELDS:
                    raise ValueError(f"{kind.value} mask does not take parameter {key}")
        values = np.array([[ch.get(f, n) for f, n in zip(_FIELDS, _NEUTRAL)] for ch in channels])
        if values.dtype.kind not in "biuf":
            raise TypeError("mask parameters must be real numbers")
        values = values.astype(float)
        for kind, ch, row in zip(kinds, channels, values.tolist()):
            rule = RULES[kind]
            params = {f: v for f, v in zip(_FIELDS, row) if f in ch}
            if tuple(params) != rule.takes:  # the first missing or extra parameter, in field order
                f = next(f for f in _FIELDS if (f in ch) != (f in rule.takes))
                verb = "does not take" if f in ch else "requires"
                raise ValueError(f"{kind.value} mask {verb} parameter {f}")
            if rule.refuses(**params):
                raise ValueError(rule.message)
        given = np.array([[f in ch for f in _FIELDS] for ch in channels], dtype=bool)
        self._bind(kinds, given.T, values.T)

    def _bind(self, kinds: tuple, given: np.ndarray, values: np.ndarray) -> None:
        """Bind the channels' kinds and (field, channel) arrays of set flags and values."""
        if not kinds:
            raise ValueError("mask bank needs at least one channel")
        self.kinds: tuple = kinds
        self._given = given
        self._values = values
        # Compiled coefficient arrays; neutral values keep inactive terms inert.
        self._phi, self._sigma, self._gamma, self._delta, self._c = values

    @property
    def dim(self) -> int:
        return len(self.kinds)

    @classmethod
    def identity(cls, dim: int) -> "MaskBank":
        return cls([{"kind": "identity"}] * dim)

    @classmethod
    def auto(
        cls,
        kind: MaskKind,
        privacy_level: float,
        x0: np.ndarray,
        seed,
        rate_range: tuple = DEFAULT_RATE_RANGE,
    ) -> "MaskBank":
        """A bank of one privacy kind whose parameters are drawn per channel of
        x0 for a t=0 gap of at least 2 * privacy_level: the factor 2 keeps
        rho > privacy_level safe in floating point, and where the gap depends
        on the state, the offset sign follows the channel's own x0_i so that
        the terms cannot cancel. Every parameter is drawn inside its kind's
        rules, so the bank is bound without a second check."""
        columns = _draw_params(kind, privacy_level, x0, np.random.default_rng(seed), rate_range)
        d = len(columns["delta"])
        given = np.array([np.full(d, f in columns) for f in _FIELDS])
        values = np.array([columns.get(f, np.full(d, n)) for f, n in zip(_FIELDS, _NEUTRAL)])
        bank = cls.__new__(cls)
        bank._bind((kind,) * d, given, values)
        return bank

    def factors(self, times, out=None):
        """Gain c(1 + phi e^{-sigma t}) and offset gamma e^{-delta t} per channel.

        times is a scalar or an array of times; each factor has shape
        np.shape(times) + (dim,), and h(t, x) = scale * (x + offset). The
        factors depend on t alone, so one call serves many states. out, if
        given, is the (scale, offset) pair of arrays to fill and return:
        integrate refills one table per block of steps in place.
        """
        t = np.asarray(times, dtype=float)[..., None]
        if out is None:
            out = np.empty((2,) + t.shape[:-1] + (self.dim,))
        scale, offset = out
        with np.errstate(over="ignore"):  # a fast rate times a long t is -inf, and exp(-inf) = 0
            np.multiply(-self._sigma, t, out=scale)
            np.multiply(-self._delta, t, out=offset)
        np.exp(scale, out=scale)
        scale *= self._phi
        scale += 1.0
        scale *= self._c
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
        """Vectorized eval over a (len(times), dim) array of states: each
        element by eval's operations in eval's order, so it equals row-wise
        eval bit for bit."""
        times = np.asarray(times, dtype=float)
        states = np.asarray(states, dtype=float)
        if times.ndim != 1 or states.shape != (times.size, self.dim):
            raise ValueError(
                f"states have shape {states.shape}, bank expects ({times.size}, {self.dim}) "
                f"for times of shape {times.shape}"
            )
        scale, offset = self.factors(times)
        y = states + offset
        y *= scale
        return y

    def min_decay_rate(self) -> float:
        """Slowest active decay rate across channels (inf for static banks)."""
        # the set rates of rows 1 (sigma) and 3 (delta), channel by channel:
        # Python's min then meets a NaN rate where the per-channel scan did
        rates = self._values[[1, 3]].T[self._given[[1, 3]].T]
        return min(rates.tolist(), default=np.inf)


def privacy_metric(bank: MaskBank, x0: np.ndarray):
    """Per-channel t=0 gap |h(0, x0) - x0| and its minimum over channels."""
    x0 = np.asarray(x0, dtype=float)
    rho_i = np.abs(bank.eval(0.0, x0) - x0)
    return rho_i, float(np.min(rho_i))


#: Uniform doubles drawn per channel, in draw order: delta, the offset
#: magnitude, then the offset sign (additive), c (affine) or phi and sigma
#: (vanishing_affine).
_DRAWS = {MaskKind.ADDITIVE: 3, MaskKind.AFFINE: 3, MaskKind.VANISHING_AFFINE: 4}


def _draw_params(kind: MaskKind, privacy_level: float, x0, rng, rate_range) -> dict:
    """The parameters MaskBank.auto draws for every entry of x0, as one array
    per parameter, from one (len(x0), k) block of uniform doubles; each
    uniform draw on [a, b) is a + (b - a) * u, which is what
    rng.uniform(a, b) computes from u."""
    if privacy_level <= 0:
        raise ValueError("privacy level must be positive")
    if not math.isfinite(4.0 * privacy_level):  # the largest offset magnitude drawn
        raise ValueError(f"privacy level {privacy_level!r} draws offsets past the float range")
    if kind not in PRIVACY_KINDS:
        raise ValueError(f"{kind.value} is not a privacy mask")
    lo, hi = rate_range
    if not 0 < lo <= hi < math.inf:  # so every rate drawn is positive and finite
        raise ValueError(f"rate range must be 0 < lo <= hi < inf, got {rate_range}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    u = rng.random((x0.size, _DRAWS[kind]))
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
    return drawn


def axiom_grid(bank: MaskBank) -> tuple:
    """The (times, states) grid on which `dynpriv check` decides the mask
    axioms: 121 times from 0 over 50 time constants of the bank's slowest
    decay (over [0, 1] for a static bank), and eleven scalar probe states,
    symmetric around 0 and holding 0. The horizon is capped at 1e300, so
    that every rate that RULES accepts, down to the smallest subnormal,
    gives finite times."""
    rate = bank.min_decay_rate()
    horizon = min(50.0 / rate, 1e300) if math.isfinite(rate) else 1.0
    states = np.array([-5.0, -2.0, -1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 2.0, 5.0])
    return np.linspace(0.0, horizon, 121), states


def check_mask_axioms(bank: MaskBank, times: np.ndarray, states: np.ndarray) -> tuple:
    """Numerically verify the mask axioms on a times x states grid.

    Returns the verdict of each axiom, keyed by its name, and a dict that
    holds, for each axiom that fails, the witness of its first failure:

    local                 each output channel depends only on its own state
    fixed_point_free      h(0, x) != x at every sampled state
    escapes_neighborhoods no sampled state has a ball mapped into itself at t=0
    strictly_increasing   h(t, .) strictly increasing at every sampled time
    vanishing             sup-over-states gap decreasing in t and below the
                          tail threshold at the final sampled time

    states is a shared scalar probe grid applied to every channel; it should
    be symmetric around 0 and include 0 (homogeneous masks fail exactly
    there). The vanishing check uses the supremum of the gap over the state
    grid, which is the uniform-convergence quantity that makes the masked
    dynamics collapse onto the unmasked ones; the pointwise gap need not be
    monotone when a state and its channel offset have opposite signs.

    The axioms are decided on the bank's template h = scale * (x + offset),
    its factors tabulated once by one factors(times) call: the escape and
    fixed-point probes read its t=0 row, monotonicity its sampled rows and
    vanishing every row. For a MaskBank that row is eval_series at t=0 bit
    for bit. The gap is never held for the whole (time, state, channel)
    grid: the vanishing test folds the states one at a time into a running
    (time, channel) max, which is exact. Locality alone is judged against
    the bank's own eval, one factor row per probe time, in O(d): the d
    probes differ from the base state on the diagonal only, so two length-d
    vectors decide every row of the d x d probe grid. No array of the check
    grows faster than the grid of times by channels.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    if times.size == 0 or states.size == 0:
        raise ValueError("sampling grid must be non-empty")
    if times[0] != 0.0:
        raise ValueError("time grid must start at 0 (the t=0 axioms need it)")
    d = bank.dim
    witnesses: dict = {}

    # locality: probe k perturbs channel k alone (row k of base + 1.234 * I),
    # and must move output channel k only, against the bank's own eval of
    # the unperturbed state. Every off-diagonal probe entry equals the base,
    # so it maps to scale * (base + offset) in every row: row k fails iff
    # its own probe leaves output k unmoved, or that map moves a channel
    # other than k. That decides all d rows from two length-d vectors.
    base = np.full(d, 0.37)
    local = True
    for t in (0.0, float(times[-1])):
        scale, offset = bank.factors(t)
        y = bank.eval(t, base)
        unmoved = scale * (base + 1.234 + offset) == y
        stray = scale * (base + offset) != y
        strays_off_row = np.count_nonzero(stray) - stray
        bad = unmoved | (strays_off_row > 0)
        if bad.any():
            local = False
            witnesses["local"] = {"channel": int(np.argmax(bad)), "t": t}
            break

    # the template's factors on the whole grid, h = scale * (x + offset);
    # row 0 (times[0] = 0) serves every t=0 axiom below
    scale, offset = bank.factors(times)

    # neighborhood escape at t=0: a ball B(x*, r) is preserved iff its image
    # stays inside; with h monotone in x the sup over the ball is attained at
    # the endpoints, probed slightly inside so the identity map still counts
    # as preserving. Row 0 of the factors maps the endpoints of every radius,
    # by eval_series's operations in its order.
    ends = np.concatenate([e for r in BALL_RADII for e in (states - 0.999 * r, states + 0.999 * r)])
    img = ends[:, None] + offset[0]
    img *= scale[0]
    img = img.reshape(len(BALL_RADII), 2, states.size, d)
    inside = np.abs(img - states[:, None]) < np.reshape(BALL_RADII, (-1, 1, 1, 1))
    preserved = inside[:, 0] & inside[:, 1]  # [radius, state, channel]
    escapes = not preserved.any()
    if not escapes:
        ri = int(np.argmax(preserved.any(axis=(1, 2))))
        ch, st = np.argwhere(preserved[ri].T)[0]
        witnesses["escapes_neighborhoods"] = {
            "channel": int(ch),
            "state": float(states[st]),
            "radius": float(BALL_RADII[ri]),
        }

    # strict monotonicity in x at sampled times, over the sorted states
    sampled = np.arange(0, times.size, max(1, times.size // 8))
    h = scale[sampled, None, :] * (np.sort(states)[:, None] + offset[sampled, None, :])
    rising = np.all(np.diff(h, axis=1) > 0, axis=(1, 2))
    increasing = bool(rising.all())
    if not increasing:
        witnesses["strictly_increasing"] = {"t": float(times[sampled[np.argmin(rising)]])}

    # gap[state, channel] = |h(0, x) - x|
    gap0 = states[:, None] + offset[0]
    gap0 *= scale[0]
    gap0 -= states[:, None]
    np.abs(gap0, out=gap0)
    fixed = gap0.T <= 1e-12 * np.maximum(1.0, np.abs(states))
    fixed_point_free = not bool(fixed.any())
    if not fixed_point_free:
        ch, st = np.argwhere(fixed)[0]
        witnesses["fixed_point_free"] = {"channel": int(ch), "state": float(states[st])}

    # uniform vanishing: sup-over-states gap per channel, strictly decreasing
    # and below the tail threshold at the final grid time
    sup_gap = np.zeros_like(scale)
    gap = np.empty_like(scale)
    for x in states.tolist():
        np.add(offset, x, out=gap)
        gap *= scale
        gap -= x
        np.abs(gap, out=gap)
        np.maximum(sup_gap, gap, out=sup_gap)
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

    axioms = {
        "local": local,
        "fixed_point_free": fixed_point_free,
        "escapes_neighborhoods": escapes,
        "strictly_increasing": increasing,
        "vanishing": vanishing,
    }
    return axioms, witnesses
