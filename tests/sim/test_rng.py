"""Determinism tests for the rng helpers and :class:`BatchedStream`.

The load-bearing claim (S3): batched draws are *draw-for-draw identical*
to unbatched scalar draws from the same seed, for any batch size.  That
is what makes a serial run and a ``--jobs N`` run (each worker installs
the seed and rebuilds its streams) produce identical variates.
"""

import numpy as np
import pytest

from repro.config import active_config
from repro.sim.rng import (
    DEFAULT_SEED,
    BatchedStream,
    derive,
    install_seed,
    make_rng,
)


@pytest.fixture(autouse=True)
def _clean_seed():
    yield
    install_seed(None)


def test_install_seed_round_trip():
    assert active_config().seed == DEFAULT_SEED
    install_seed(99)
    assert active_config().seed == 99
    install_seed(None)
    assert active_config().seed == DEFAULT_SEED


def test_install_seed_rejects_non_int():
    with pytest.raises(TypeError):
        install_seed("42")


def test_derive_is_stable_and_stream_keyed():
    a1 = derive(make_rng(7), 3).uniform(size=4)
    a2 = derive(make_rng(7), 3).uniform(size=4)
    b = derive(make_rng(7), 4).uniform(size=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    with pytest.raises(ValueError):
        derive(make_rng(7), -1)


# -- BatchedStream ---------------------------------------------------------


def test_batched_equals_unbatched_scalar_draws():
    # numpy Generators consume the bit stream identically for one
    # size=n call and n size=1 calls, so batched hand-out must match
    # plain scalar draws exactly.
    n = 1000
    plain = [float(make_rng(11).exponential(5.0, size=1)[0])]  # shape probe
    reference = make_rng(11).exponential(5.0, size=n)
    stream = BatchedStream(make_rng(11), batch=64)
    got = [stream.exponential(5.0) for _ in range(n)]
    assert got == reference.tolist()
    assert plain[0] == got[0]


@pytest.mark.parametrize("batch", [1, 7, 64, 4096])
def test_batch_size_invariance(batch):
    reference = make_rng(3).uniform(0.0, 2.0, size=500)
    stream = BatchedStream(make_rng(3), batch=batch)
    got = [stream.uniform(0.0, 2.0) for _ in range(500)]
    assert got == reference.tolist()


def test_serial_equals_worker_rebuild():
    # The --jobs path: each worker calls install_seed(s) then rebuilds
    # its streams from make_rng(None).  Two independent rebuilds must be
    # draw-for-draw identical to one long serial pass.
    install_seed(1234)
    serial = BatchedStream(derive(make_rng(None), 5), batch=32)
    serial_draws = [serial.exponential(2.0) for _ in range(200)]

    install_seed(1234)  # "worker" re-install
    worker = BatchedStream(derive(make_rng(None), 5), batch=512)
    worker_draws = [worker.exponential(2.0) for _ in range(200)]
    assert serial_draws == worker_draws


def test_per_key_buffers_are_independent():
    # Interleaving two parameterizations must give each key its own
    # cursor (no cross-key buffer mixing).
    stream = BatchedStream(make_rng(5), batch=16)
    a = [stream.exponential(1.0) for _ in range(3)]
    b = [stream.uniform(0.0, 1.0) for _ in range(3)]
    a += [stream.exponential(1.0) for _ in range(3)]
    b += [stream.uniform(0.0, 1.0) for _ in range(3)]
    assert len(set(a)) == 6 and len(set(b)) == 6
    assert all(0.0 <= x < 1.0 for x in b)
    assert all(x >= 0.0 for x in a)


def test_exponential_array_bulk():
    stream = BatchedStream(make_rng(8))
    arr = stream.exponential_array(1000, scale=3.0)
    assert arr.shape == (1000,)
    assert abs(arr.mean() - 3.0) < 0.5
    with pytest.raises(ValueError):
        stream.exponential_array(-1, scale=3.0)


def test_batched_stream_rejects_bad_batch():
    with pytest.raises(ValueError):
        BatchedStream(make_rng(0), batch=0)
