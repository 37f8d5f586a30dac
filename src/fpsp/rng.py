"""Deterministic, splittable randomness for reproducible instances.

Everything random in this package flows through CounterRng, a counter-mode
SHA-256 stream keyed by (seed, instance_id).  The same key always yields the
same bytes on every platform and numpy version, which is what makes sweep
reports byte-identical across reruns and worker counts.  Distinct instance
ids give independent streams, so a grid of instances can be built in any
order (or in parallel) without coordination.

Stream contract: block c of the stream is SHA-256(b"fpsp|<seed>|<id>|<c>"),
and the generator's whole state is the next block counter plus the leftover
bytes of the last block hashed.  Every call consumes a prefix of the
remaining stream and hashes only the blocks that prefix needs, so the
stream a caller sees does not depend on how its draws are split into calls.
A 64-bit word is 8 little-endian bytes; `below(n)` draws words until one
falls below the largest multiple of n that fits in 2^64 and returns it
mod n.

`integers` and `subset` give the results of a `below` loop, bit for bit,
without one Python call per word: they hash the blocks for the words
still needed in batches of at most _CHUNK words, read them with
`np.frombuffer`, and reject with one vectorised comparison; only the
shortfall left by rejected words is drawn again.  A batch never asks for
more words than could still be needed, so the batches consume the same
minimal stream prefix as the loop, and the bounded batch keeps transient
buffers small next to the output.  Every bounded draw goes through one
step, `accepted(dest, lo, hi, count)`: it writes the values that the next
count words give to dest, a batch at a time, drops each batch before it
hashes the next, and returns how many it wrote.  `fill(dest, lo, hi)` is
the one loop over it, `integers(lo, hi, len(dest))` written into the
caller's array, and `integers` is `fill` into a new one.  All of that
arithmetic stays in uint64 with explicit uint64 scalars, so numpy 1.x
value-based casting and numpy 2 (NEP 50) alike keep it in uint64 and
never promote it to float64.

Split rule: word w is bytes 8(w mod 4) .. 8(w mod 4) + 7 of block
floor(w / 4), so `CounterRng(seed, id, word=w)` starts the same stream at
word w.  The values of `integers(lo, hi, n)` are therefore the values
`accepted` writes for words [0, n), followed by `integers(lo, hi,
shortfall)` drawn from word n on, where shortfall is the number of words
rejected.  Words [0, n) may be cut into ranges that are read separately,
by different processes, and joined in range order (_join); ranges that
start on a multiple of 4 words (_word_ranges) hash disjoint blocks, so the
whole draw hashes each block once.

The blocks are hashed by CPython's own SHA-256 (`_sha2` from Python
3.12, `_sha256` on 3.10-3.11), resolved once at import, else by
`hashlib.sha256`; the digests are the same.  The built-in one skips
OpenSSL's per-object setup: 2^15 blocks took 27.7 -> 20.5 ms on Python
3.11.7, 28.1 -> 22.7 on 3.10.13, 26.6 -> 23.8 on 3.12.1 and 25.4 -> 24.8
on 3.13.0 (OpenSSL -> built-in, interleaved medians of 11, one x86-64
host).
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import BadParams

try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

_BLOCK = 32  # bytes per SHA-256 output
_TWO64 = 1 << 64
_INT64_MIN, _INT64_END = -(1 << 63), 1 << 63
_U64_MAX = np.uint64(_TWO64 - 1)
# Words per hashed batch, 128 KiB of stream.  A sweep worker keeps part of
# a batch's scratch in its heap: sweep_large_p's peak_rss_mb read
# 142.8-143.2 MB at 2^15 words, 141.1-141.4 MB at 2^14 (2 cores).
_CHUNK = 1 << 14
_BLOCK_WORDS = _BLOCK // 8  # 64-bit words per block


def _word_ranges(n: int, parts: int) -> list:
    """Words [0, n) cut into at most `parts` ranges [start, stop) of
    nearly equal length, each starting on a block, so that ranges read
    separately hash no block twice."""
    step = -(-n // parts)
    step += -step % _BLOCK_WORDS
    return [(i, min(i + step, n)) for i in range(0, n, step)]


def _join(dest: np.ndarray, key: tuple, lo: int, hi: int,
          parts: list) -> None:
    """Complete dest as CounterRng(*key).integers(lo, hi, len(dest)), bit
    for bit (the split rule), from parts [(start, count), ...]:
    `accepted` wrote count values at dest[start:] for words [start, next
    start), the last part ending at word len(dest).  The parts' values
    move together in order, and any shortfall is drawn from word
    len(dest) on.  Nothing is written when no word was rejected, which at
    span p - 1 < 2^20 has probability below 2^-44 a word."""
    n, at = len(dest), 0
    for start, count in parts:
        if at != start:
            dest[at:at + count] = dest[start:start + count]
        at += count
    if at < n:
        CounterRng(*key, word=n).fill(dest[at:], lo, hi)


class CounterRng:
    """SHA-256 counter stream keyed by (seed, instance_id)."""

    def __init__(self, seed: int, instance_id: str | int = 0,
                 word: int = 0):
        """The stream of (seed, instance_id), from its 64-bit word `word`
        on (the split rule in the module docstring)."""
        self._key = b"fpsp|%d|%s" % (int(seed), str(instance_id).encode())
        self._counter, skip = divmod(operator.index(word), _BLOCK_WORDS)
        self._buf = b""
        if skip:
            self.bytes(8 * skip)

    def _refill(self, need: int) -> None:
        short = need - len(self._buf)
        if short <= 0:
            return
        first, count = self._counter, -(-short // _BLOCK)
        self._counter += count
        block, sha = self._key + b"|%d", _sha256
        self._buf += b"".join([sha(block % c).digest()
                               for c in range(first, first + count)])

    def bytes(self, n: int) -> bytes:
        self._refill(n)
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def u64(self) -> int:
        return int.from_bytes(self.bytes(8), "little")

    def _words(self, count: int) -> np.ndarray:
        """The next count 64-bit words, as a uint64 array."""
        return np.frombuffer(self.bytes(8 * count), dtype="<u8")

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, exact (no modulo bias)."""
        if not 1 <= n <= _TWO64:
            raise BadParams("below() needs 1 <= n <= 2^64, got %d" % n)
        # Reject draws from the tail of the 64-bit range.
        limit = _TWO64 - (_TWO64 % n)
        while True:
            x = self.u64()
            if x < limit:
                return x % n

    def integers(self, lo: int, hi: int, size: int) -> np.ndarray:
        """size uniform draws from [lo, hi), as an int64 array; the same
        values and stream position as `lo + below(hi - lo)` size times."""
        size = operator.index(size)
        if size < 0:
            raise BadParams("integers() needs size >= 0, got %d" % size)
        out = np.empty(size, dtype=np.int64)
        self.fill(out, lo, hi)
        return out

    def fill(self, dest: np.ndarray, lo: int, hi: int) -> None:
        """Write integers(lo, hi, len(dest))'s values to dest, in any
        integer dtype that holds them, with no array of that length
        beside it."""
        done = self.accepted(dest, lo, hi, len(dest))
        while done < len(dest):
            done += self.accepted(dest[done:], lo, hi, len(dest) - done)

    def accepted(self, dest: np.ndarray, lo: int, hi: int,
                 count: int) -> int:
        """Write to dest, in order, the draws from [lo, hi) that
        `integers` makes of the next count words, and return how many
        there are: a word is kept when it lies below the largest multiple
        of hi - lo that fits in 2^64, and a rejected word gives no value.
        The range is checked even when count is 0."""
        lo, hi, count = map(operator.index, (lo, hi, count))
        if hi <= lo:
            raise BadParams("empty range [%d, %d)" % (lo, hi))
        if lo < _INT64_MIN or hi > _INT64_END:
            raise BadParams("range [%d, %d) does not fit in int64" % (lo, hi))
        span = hi - lo
        # accept x <= top, i.e. x < 2^64 - (2^64 mod span)
        top = _U64_MAX - np.uint64(_TWO64 % span)
        at = 0
        for w in range(0, count, _CHUNK):
            words = self._words(min(_CHUNK, count - w))
            vals = words[words <= top]
            if span < _TWO64:
                vals %= np.uint64(span)
            # lo + x wraps mod 2^64 onto the int64 bit pattern of the result
            vals += np.uint64(lo % _TWO64)
            dest[at:at + vals.size] = vals.view(np.int64)
            at += vals.size
            del words, vals  # before the next batch is hashed
        return at

    def subset(self, population: int, k: int) -> np.ndarray:
        """Uniform k-subset of {0,...,population-1}, sorted, via partial
        Fisher-Yates on a lazy index map; step i swaps in index
        i + below(population - i)."""
        population, k = operator.index(population), operator.index(k)
        if not 0 <= k <= population:
            raise BadParams("cannot draw %d from %d" % (k, population))
        if population > _INT64_END:
            raise BadParams("population %d does not fit in int64"
                            % population)
        spans = np.uint64(population) - np.arange(k, dtype=np.uint64)
        swapped: dict[int, int] = {}
        picked = []
        for i, off in enumerate(self._below_each(spans).tolist()):
            j = i + off
            picked.append(swapped.get(j, j))
            swapped[j] = swapped.get(i, i)
        return np.sort(np.array(picked, dtype=np.int64))

    def _below_each(self, spans: np.ndarray) -> np.ndarray:
        """below(spans[i]) for each uint64 span in order, as a uint64 array:
        the same values and stream position as a `below` loop."""
        count = len(spans)
        # step i accepts x <= tops[i], i.e. x < 2^64 - (2^64 mod spans[i])
        tops = _U64_MAX - (_U64_MAX % spans + np.uint64(1)) % spans
        accepted = np.empty(count, dtype=np.uint64)
        done = 0
        while done < count:
            words = self._words(min(_CHUNK, count - done))
            # a rejected word shifts every later word on by one step
            while words.size:
                ok = words <= tops[done:done + words.size]
                run = words.size if ok.all() else int(ok.argmin())
                accepted[done:done + run] = words[:run]
                done += run
                words = words[run + 1:]
        return accepted % spans
