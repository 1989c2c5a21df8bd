"""solver.write_csv writes exactly the bytes of '%.17g' % value.

np.savetxt(..., fmt="%.17g", delimiter=",", comments="") is the oracle: the
encoder must match it value for value, on random doubles and bit patterns,
on an edge list around every branch of the encoder, and on whole
trajectories of bundled scenarios.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynpriv import g17
from dynpriv import scenario as scn
from dynpriv.cli import main
from dynpriv.dynamics import MaskedSystem
from dynpriv.g17 import G17Encoder
from dynpriv.scenario import CHUNK
from dynpriv.solver import integrate, write_csv


def _oracle(path, header, table):
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
    return path.read_bytes()


def _written(path, header, blocks):
    """The bytes write_csv gives the column blocks in a new file at path."""
    with open(path, "wb") as fh:
        write_csv(fh, header, blocks)
    return path.read_bytes()


def _encoded(values):
    """The encoder's lines for a 1-d array of doubles, one value per line."""
    values = np.ascontiguousarray(values, dtype=float)
    out = []
    for i in range(0, values.size, CHUNK):
        part = values[i : i + CHUNK]
        out.append(G17Encoder(part.size, 1)(part).tobytes())
    return b"".join(out).split(b"\n")[:-1]


def _assert_g17(values):
    values = np.asarray(values, dtype=float)
    got = _encoded(values)
    want = [b"%.17g" % v for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def _edge_values():
    tiny = np.finfo(float).tiny
    values = [
        0.0,
        -0.0,
        5e-324,  # smallest subnormal
        tiny - 5e-324,  # largest subnormal
        tiny,  # smallest normal
        np.finfo(float).max,
        np.inf,
        -np.inf,
        np.nan,
        # exact ties at the 17th digit: round half to even
        2251799813685248.25,
        2251799813685248.75,
        2251799813685249.25,
        0.1 + 0.2,
        1.0 / 3.0,
        # the boundaries of the fast domain
        1e-11,
        1e-10,
        1e15,
        2.0**51,
        2.0**51 - 0.25,
        2.0**53,
        1e16,
        9999999999999999.0,
        # the boundary between fixed and exponent form
        1e-4,
        1e-5,
        9.9999999999999995e-5,
        0.5,
        123.0,
    ]
    for k in range(-20, 21):
        x = 10.0**k
        values += [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]
    # short decimals and integers: trailing zeros across all four digit groups
    values += list(np.arange(1, 400) / 8) + list(3.0 * 10.0 ** np.arange(15)) + [1234.5, 0.0625]
    values = np.array(values)
    return np.concatenate([values, -values])


def test_encoder_matches_g17_on_the_edge_list():
    _assert_g17(_edge_values())


def test_encoder_matches_g17_on_a_million_bit_patterns():
    rng = np.random.default_rng(20190901)
    patterns = rng.integers(0, 2**64 - 1, 10**6, dtype=np.uint64, endpoint=True)
    _assert_g17(patterns.view(np.float64))


def test_encoder_matches_g17_across_the_decades():
    rng = np.random.default_rng(7)
    _assert_g17(rng.standard_normal(200_000) * 10.0 ** rng.uniform(-14, 18, 200_000))


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
def test_encoder_matches_g17_on_floats(values):
    _assert_g17(values)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_encoder_matches_g17_on_bit_patterns(patterns):
    _assert_g17(np.array(patterns, dtype=np.uint64).view(np.float64))


@pytest.mark.parametrize("n_cols", [1, 3, 201, CHUNK - 1, CHUNK + 5])
def test_write_csv_matches_savetxt_across_chunk_shapes(tmp_path, n_cols):
    rng = np.random.default_rng(n_cols)
    table = rng.standard_normal((max(1, 3 * CHUNK // n_cols), n_cols)) * 10.0 ** rng.integers(-6, 8)
    table[0, 0] = 0.0
    header = [f"c{i}" for i in range(n_cols)]
    assert _written(tmp_path / "got.csv", header, (table,)) == _oracle(tmp_path / "want.csv", header, table)


def _mixed_table(seed, n_rows, n_cols):
    """Doubles across the decades, with values that take the fallback."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.uniform(-14, 18, (n_rows, n_cols))
    specials = [0.0, -0.0, np.inf, np.nan, 5e-324, 0.5]
    table.flat[rng.integers(0, table.size, table.size // 8)] = rng.choice(specials, table.size // 8)
    return table


@settings(deadline=None, max_examples=60)
@given(
    n_cols=st.integers(1, 12),
    n_rows=st.integers(1, 40),
    batch=st.one_of(st.just(1), st.integers(2, 500)),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_csv_bytes_do_not_depend_on_the_encoder_batch(tmp_path_factory, n_cols, n_rows, batch, seed):
    path = tmp_path_factory.mktemp("batch")
    table = _mixed_table(seed, n_rows, n_cols)
    header = [f"c{i}" for i in range(n_cols)]
    whole = _written(path / "whole.csv", header, (table,))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(g17, "BATCH", batch)
        assert _written(path / "split.csv", header, (table,)) == whole
    assert whole == _oracle(path / "want.csv", header, table)


@pytest.mark.parametrize("batch", [1, 7, 200, 202, 403, g17.BATCH + 1])
def test_write_csv_trajectory_width_bytes_do_not_depend_on_the_encoder_batch(tmp_path, monkeypatch, batch):
    # the n=100 trajectory's 201 columns, split where no row ends
    table = _mixed_table(batch, 45, 201)
    header = [f"c{i}" for i in range(201)]
    whole = _written(tmp_path / "whole.csv", header, (table,))
    monkeypatch.setattr(g17, "BATCH", batch)
    assert _written(tmp_path / "split.csv", header, (table,)) == whole


def test_encoder_scratch_stays_under_0_6_mib_a_call():
    encode = g17.G17Encoder(g17.BATCH, 201)
    scratch = sum(a.nbytes for a in vars(encode).values() if isinstance(a, np.ndarray))
    assert scratch == 115 * g17.BATCH <= 0.6 * 2**20


@pytest.mark.parametrize(
    "name,t_final,stride",
    [
        pytest.param(name, t_final, stride, id=f"{name}-{t_final}")
        for name, t_final, stride in (
            ("example3_consensus_n3", 30.0, 1),
            ("example3_consensus", 1.0, 10),
            ("example4_pinning", 1.0, 10),
        )
    ],
)
def test_trajectory_csv_matches_savetxt_on_bundled_runs(tmp_path, name, t_final, stride):
    # the file that simulate streams window by window, against the oracle
    # of the whole trajectory that one integrate call records
    config = scn.load_bundled(name)
    config["integrator"].update(t_final=t_final, record_stride=stride)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["simulate", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path)]) in (0, 5)
    sc = scn.build_scenario(config)
    traj = integrate(MaskedSystem(sc.system, sc.bank), sc.x0, sc.integrator, s0=sc.s0)
    width = sum(v.size for v in (sc.x0, sc.s0) if v is not None)
    assert len(traj.times) - 1 > CHUNK // width  # more rows than one window holds
    y = sc.bank.eval_series(traj.times, traj.x)  # one whole-record table, as the reference
    blocks = [traj.times[:, None], traj.x, y] + ([traj.s] if traj.s is not None else [])
    got = (tmp_path / name / "trajectory.csv").read_bytes()
    header = got.split(b"\n", 1)[0].decode().split(",")
    assert got == _oracle(tmp_path / "want.csv", header, np.hstack(blocks))
    assert (traj.s is not None) == (name == "example4_pinning")


def test_write_csv_column_blocks_equal_the_stacked_table(tmp_path):
    rng = np.random.default_rng(3)
    blocks = (rng.standard_normal((50, 1)), rng.standard_normal((50, 4)), rng.standard_normal((50, 2)))
    got = _written(tmp_path / "blocks.csv", ["a"] * 7, blocks)
    assert got == _written(tmp_path / "table.csv", ["a"] * 7, (np.hstack(blocks),))
    assert got == _oracle(tmp_path / "want.csv", ["a"] * 7, np.hstack(blocks))


def test_write_csv_writes_the_header_alone_for_no_rows(tmp_path):
    got = _written(tmp_path / "empty.csv", ["a", "b"], (np.empty((0, 2)),))
    assert got == _oracle(tmp_path / "want.csv", ["a", "b"], np.empty((0, 2)))


@pytest.mark.parametrize(
    "blocks",
    [
        (np.arange(3.0),),
        (np.zeros((2, 2, 2)),),
        (np.array(1.0),),
        (np.zeros((3, 1)), np.zeros((4, 1))),
        (np.zeros((3, 1)), np.zeros(3)),
        (np.empty((3, 0)),),
    ],
    ids=["1-d", "3-d", "0-d", "row-counts-differ", "1-d-block", "no-columns"],
)
def test_write_csv_rejects_what_is_not_a_table(tmp_path, blocks):
    with open(tmp_path / "bad.csv", "wb") as fh, pytest.raises(ValueError):
        write_csv(fh, ["a"], blocks)
    assert (tmp_path / "bad.csv").read_bytes() == b""  # not even the header
