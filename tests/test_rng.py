"""The counter-mode generator: determinism, independence, exactness.

The golden vector below pins the byte stream across platforms and numpy
versions; if it ever changes, every recorded sweep and random set in the
wild silently changes with it, so the file is committed and compared
verbatim.  `rng_stream_sha256.txt` pins two large draws the same way: a
`random:` function table (`integers`) and a zero-free random set
(`subset`), as SHA-256 of their comma-joined decimal values.
"""

import hashlib
import os

import numpy as np
import pytest

from fpsp.errors import BadParams
from fpsp.field import make_field
from fpsp.functions import make_fn
from fpsp.rng import CounterRng
from fpsp.sets import generate

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN = os.path.join(GOLDEN_DIR, "rng_seed0_id0_p101_n5.txt")
STREAM_DIGESTS = os.path.join(GOLDEN_DIR, "rng_stream_sha256.txt")


def test_golden_vector_seed0_id0():
    f = make_field(101)
    a = generate(f, "random", size=5, seed=0, instance_id=0)
    got = a.elements().tolist()
    with open(GOLDEN) as fh:
        want = [int(line) for line in fh if line.strip()]
    assert got == want, "pinned (seed=0, id=0, p=101, n=5) draw moved: %r" % got


def _digest(values):
    return hashlib.sha256(",".join(map(str, values.tolist())).encode()
                          ).hexdigest()


def test_golden_stream_digests():
    with open(STREAM_DIGESTS) as fh:
        want = dict(line.split() for line in fh if line.strip())
    got = {
        "make_fn_random11_p65537":
            _digest(make_fn(make_field(65537), "random", seed=11).values),
        "generate_random_p1048573_n5000_zero_free":
            _digest(generate(make_field(1048573), "random", size=5000,
                             seed=0, zero_free=True).elements()),
    }
    assert got == want


def test_stream_is_sha256_of_key_and_counter():
    blocks = b"".join(hashlib.sha256(b"fpsp|3|x|%d" % c).digest()
                      for c in range(5))
    r = CounterRng(3, "x")
    assert r.bytes(5) == blocks[:5]
    assert r.u64() == int.from_bytes(blocks[5:13], "little")
    assert r.bytes(100) == blocks[13:113]
    assert r._counter == 4 and r._buf == blocks[113:128]


def test_same_key_same_stream():
    r1 = CounterRng(7, "x")
    r2 = CounterRng(7, "x")
    assert r1.bytes(100) == r2.bytes(100)
    assert [r1.u64() for _ in range(10)] == [r2.u64() for _ in range(10)]


def test_distinct_ids_are_independent():
    # 1000 draws from a 2^30 range across two ids: collisions between the
    # streams should be as rare as for true uniforms (expected ~0.0005).
    xs = {CounterRng(0, i).below(1 << 30) for i in range(1000)}
    ys = {CounterRng(1, i).below(1 << 30) for i in range(1000)}
    assert len(xs) >= 999
    assert len(xs & ys) <= 2


def test_seed_and_id_both_matter():
    base = CounterRng(0, 0).bytes(32)
    assert CounterRng(1, 0).bytes(32) != base
    assert CounterRng(0, 1).bytes(32) != base
    assert CounterRng(0, "0").bytes(32) == base  # ids stringify


def test_below_range_and_errors():
    r = CounterRng(3)
    for n in (1, 2, 3, 10, 1 << 40):
        for _ in range(50):
            assert 0 <= r.below(n) < n
    with pytest.raises(BadParams):
        r.below(0)
    with pytest.raises(BadParams):
        r.below((1 << 64) + 1)  # no 64-bit word is below 0: would spin


def test_below_is_unbiased_mod_small():
    # with n=3 the 2^64 tail rejection keeps residues exactly uniform; a
    # crude frequency check catches gross modulo bias
    r = CounterRng(11, "bias")
    counts = [0, 0, 0]
    for _ in range(3000):
        counts[r.below(3)] += 1
    assert min(counts) > 850, counts


def test_integers_and_subset():
    r = CounterRng(5, "arr")
    arr = r.integers(10, 20, 200)
    assert arr.dtype == np.int64
    assert arr.min() >= 10 and arr.max() < 20
    with pytest.raises(BadParams):
        r.integers(5, 5, 1)

    for k in (0, 1, 7, 50):
        s = CounterRng(5, "sub%d" % k).subset(50, k)
        assert len(s) == k
        assert len(set(s.tolist())) == k
        assert (np.diff(s) > 0).all() if k > 1 else True
        assert s.min(initial=0) >= 0 and s.max(initial=0) < 50
    with pytest.raises(BadParams):
        r.subset(5, 6)


def test_integers_validates_before_drawing():
    r = CounterRng(5, "val")
    for args in ((0, 5, -1), (0, (1 << 63) + 1, 3), (-(1 << 63) - 1, 0, 3)):
        with pytest.raises(BadParams):
            r.integers(*args)
    with pytest.raises(BadParams):
        r.subset((1 << 63) + 1, 0)
    assert r._counter == 0 and r._buf == b""  # nothing was drawn
    assert r.integers(0, 5, 0).dtype == np.int64


def test_integers_int64_extremes():
    # the whole int64 range (span 2^64, no rejection) and its two ends
    lo, hi = -(1 << 63), 1 << 63
    for a, b in ((lo, hi), (lo, lo + 3), (hi - 3, hi), (0, hi)):
        fast, slow = CounterRng(8, "ext"), CounterRng(8, "ext")
        got = fast.integers(a, b, 41)
        want = [a + slow.below(b - a) for _ in range(41)]
        assert got.dtype == np.int64 and got.tolist() == want, (a, b)
        assert fast.bytes(64) == slow.bytes(64)


def test_subset_full_population():
    s = CounterRng(0, "all").subset(12, 12)
    assert s.tolist() == list(range(12))


def test_shuffle_is_permutation():
    r = CounterRng(9, "sh")
    arr = np.arange(40)
    r.shuffle(arr)
    assert sorted(arr.tolist()) == list(range(40))
    assert arr.tolist() != list(range(40))  # 1/40! chance, effectively never
