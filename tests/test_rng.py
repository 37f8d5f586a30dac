"""The counter-mode generator: determinism, independence, exactness.

The golden vector below pins the byte stream across platforms and numpy
versions; if it ever changes, every recorded sweep and random set in the
wild silently changes with it, so the file is committed and compared
verbatim.  `rng_stream_sha256.txt` pins two large draws the same way: a
`random:` function table (`integers`) and a zero-free random set
(`subset`), as SHA-256 of their comma-joined decimal values.
"""

import hashlib
import importlib.util
import os
import sys

import numpy as np
import pytest

from fpsp import rng
from fpsp.errors import BadParams
from fpsp.field import make_field
from fpsp.functions import make_fn
from fpsp.rng import _CHUNK, CounterRng
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


def test_builtin_sha256_is_hashlib_sha256():
    # the constructor resolved at import is CPython's own SHA-256 where
    # the interpreter has one; its blocks equal hashlib's on counters of
    # 1 to 7 digits, with keys putting the message on each side of the
    # 55/56- and 64-byte padding boundaries of one and two SHA-256 blocks
    for name in ("_sha2", "_sha256"):
        if importlib.util.find_spec(name) is not None:
            assert rng._sha256 is importlib.import_module(name).sha256
            break
    else:
        assert rng._sha256 is hashlib.sha256
    for digits in range(1, 8):
        counter = 10 ** digits - 1
        for size in (1, 31, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128):
            stem = b"fpsp|0||%d" % counter
            r = CounterRng(0, "x" * max(0, size - len(stem)))
            r._counter = counter
            message = r._key + b"|%d" % counter
            assert len(message) == max(size, len(stem))
            assert r.bytes(32) == hashlib.sha256(message).digest(), message


def _rng_on_hashlib(monkeypatch):
    """A fresh copy of the rng module imported where neither _sha2 nor
    _sha256 exists, so it takes the hashlib.sha256 fallback."""
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    spec = importlib.util.spec_from_file_location("fpsp._rng_on_hashlib",
                                                  rng.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hashlib_fallback_gives_the_same_stream(monkeypatch):
    fallback = _rng_on_hashlib(monkeypatch)
    assert fallback._sha256 is hashlib.sha256
    p = 1048573
    draws = (lambda r: r.bytes(1000),
             lambda r: r.integers(1, p, 2 * _CHUNK + 5),
             lambda r: r.subset(p, 3000),
             lambda r: r.bytes(77))
    ours, theirs = CounterRng(4, "fb"), fallback.CounterRng(4, "fb")
    for draw in draws:
        a, b = draw(ours), draw(theirs)
        assert (a == b) if isinstance(a, bytes) else np.array_equal(a, b)
    assert (ours._counter, ours._buf) == (theirs._counter, theirs._buf)


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


def test_integers_memory_bounded():
    """A whole random: table's draws, 1,048,572 words at p = 1048573, are
    hashed and filtered in bounded chunks straight into the output: the
    peak stays within 1.5x the output's bytes."""
    import tracemalloc
    p = 1048573
    tracemalloc.start()
    try:
        out = CounterRng(11, "x").integers(1, p, p - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * out.nbytes, (peak, out.nbytes)


def test_integers_rejection_across_chunks_matches_below():
    # span 2^63 + 1 rejects about half of all words, so a draw of 2.5
    # chunks refills many times across chunk boundaries; the values and
    # the stream position must still be those of a below() loop.
    lo, hi = -(1 << 63), 1
    size = 5 * _CHUNK // 2
    fast, slow = CounterRng(8, "reject"), CounterRng(8, "reject")
    got = fast.integers(lo, hi, size)
    want = [lo + slow.below(hi - lo) for _ in range(size)]
    assert got.tolist() == want
    words_used = (32 * fast._counter - len(fast._buf)) // 8
    assert words_used > 3 * _CHUNK  # rejected words crossed chunk borders
    assert fast.bytes(40) == slow.bytes(40)
    assert (fast._counter, fast._buf) == (slow._counter, slow._buf)


def test_word_ranges_are_whole_blocks():
    for n, parts in ((100, 3), (1008, 2), (1048572, 2), (1048572, 3),
                     (5, 3), (7, 7)):
        ranges = rng._word_ranges(n, parts)
        assert len(ranges) <= parts
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
        assert ranges[-1][1] == n
        assert all(lo % 4 == 0 and lo < hi for lo, hi in ranges)
    assert rng._word_ranges(100, 3) == [(0, 36), (36, 72), (72, 100)]


def test_counter_rng_starts_at_any_word():
    # word w is bytes 8w .. 8w + 7 of the stream, whichever block it is in
    whole = CounterRng(3, "w").bytes(8 * 40)
    for w in (0, 1, 3, 4, 5, 17, 32):
        assert CounterRng(3, "w", word=w).bytes(8 * (40 - w)) == \
            whole[8 * w:], w
