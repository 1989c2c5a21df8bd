"""The test builders and oracles that more than one test module uses.

Each is defined here once; tests/test_surface.py fails on a module-level
name that two test modules define, and on a public name here that fewer
than two test modules import.
"""

import os

import numpy as np

from dynpriv import scenario
from dynpriv.dynamics import MaskedSystem
from dynpriv.masks import RULES, MaskBank, MaskKind

#: Per mask kind, the verdicts that check_mask_axioms gives its banks on
#: masks.axiom_grid: every axiom holds except the ones listed.
AXIOM_PATTERNS = {
    kind: {
        axiom: axiom not in fails
        for axiom in ("local", "fixed_point_free", "escapes_neighborhoods", "strictly_increasing", "vanishing")
    }
    for kind, fails in {
        MaskKind.IDENTITY: ("fixed_point_free", "escapes_neighborhoods"),
        MaskKind.LINEAR: ("fixed_point_free",),  # x = 0 is a fixed point of every gain-only mask
        MaskKind.ADDITIVE: (),
        MaskKind.AFFINE: ("vanishing",),  # its static gain c > 1 never decays
        MaskKind.VANISHING_AFFINE: (),
    }.items()
}


def unmasked(spec):
    """The bare system as a run: spec under the identity mask bank."""
    return MaskedSystem(base=spec, bank=MaskBank.identity(spec.dim))


def simulated(sc):
    """scenario.run_simulation(sc), its trajectory.csv and series.csv bytes discarded."""
    with open(os.devnull, "wb") as sink:
        return scenario.run_simulation(sc, sink, sink)


def privacy_bank(x0, seed):
    """The vanishing-affine bank of privacy level 1 that MaskBank.auto draws
    for initial states x0 from seed (an integer or a Generator)."""
    return MaskBank.auto(MaskKind.VANISHING_AFFINE, 1.0, np.asarray(x0, dtype=float), seed=seed)


def random_bank(kind, rng, dim):
    """A bank of dim channels of one kind drawn from rng: linear gains with
    phi and sigma uniform on [0.5, 2], else (but for identity) the bank that
    MaskBank.auto draws at privacy level 1 for states uniform on [-5, 5]."""
    if kind is MaskKind.IDENTITY:
        return MaskBank.identity(dim)
    if kind is MaskKind.LINEAR:
        return MaskBank(
            [
                {"kind": "linear", "phi": rng.uniform(0.5, 2.0), "sigma": rng.uniform(0.5, 2.0)}
                for _ in range(dim)
            ]
        )
    return MaskBank.auto(kind, 1.0, rng.uniform(-5, 5, dim), seed=rng)


#: The range that mixed_bank draws each parameter from (for gamma, its magnitude).
_RANGES = {
    "phi": (0.5, 2.0),
    "sigma": (0.5, 2.0),
    "gamma": (2.0, 4.0),
    "delta": (0.5, 2.0),
    "c": (1.2, 2.5),
}


def mixed_bank(dim, rng):
    """Channels cycle through the five mask kinds from a random start, so a
    bank of five or more channels holds every kind. Each channel's parameters
    are drawn uniformly from _RANGES, and gamma's sign at random."""
    kinds = list(MaskKind)
    start = int(rng.integers(len(kinds)))
    lo, hi = np.array(list(_RANGES.values())).T
    drawn = rng.uniform(lo, hi, (dim, len(_RANGES)))
    drawn[:, list(_RANGES).index("gamma")] *= rng.choice([-1.0, 1.0], dim)
    channels = []
    for i, values in enumerate(drawn.tolist()):
        kind = kinds[(start + i) % len(kinds)]
        params = dict(zip(_RANGES, values))
        channels.append({"kind": kind.value, **{f: params[f] for f in RULES[kind].takes}})
    return MaskBank(channels)


def gauss_solve(a, b):
    """x with a x = b, by elimination with partial pivoting: an oracle
    independent of numpy.linalg."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    for col in range(n - 1):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x
