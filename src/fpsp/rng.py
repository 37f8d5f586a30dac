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
without one Python call per word: they hash the blocks for all the words
still needed in one batch, read them with `np.frombuffer`, and reject with
one vectorised comparison; only the shortfall left by rejected words is
drawn again.  All of that arithmetic stays in uint64 with explicit uint64
scalars, so numpy 1.x value-based casting and numpy 2 (NEP 50) alike keep
it in uint64 and never promote it to float64.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

from .errors import BadParams

_BLOCK = 32  # bytes per SHA-256 output
_TWO64 = 1 << 64
_INT64_MIN, _INT64_END = -(1 << 63), 1 << 63
_U64_MAX = np.uint64(_TWO64 - 1)


class CounterRng:
    """SHA-256 counter stream keyed by (seed, instance_id)."""

    def __init__(self, seed: int, instance_id: str | int = 0):
        self._key = b"fpsp|%d|%s" % (int(seed), str(instance_id).encode())
        self._counter = 0
        self._buf = b""

    def _refill(self, need: int) -> None:
        short = need - len(self._buf)
        if short <= 0:
            return
        first, count = self._counter, -(-short // _BLOCK)
        self._counter += count
        block, sha = self._key + b"|%d", hashlib.sha256
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
        lo, hi, size = map(operator.index, (lo, hi, size))
        if size < 0:
            raise BadParams("integers() needs size >= 0, got %d" % size)
        if hi <= lo:
            raise BadParams("empty range [%d, %d)" % (lo, hi))
        if lo < _INT64_MIN or hi > _INT64_END:
            raise BadParams("range [%d, %d) does not fit in int64" % (lo, hi))
        span = hi - lo
        # accept x <= top, i.e. x < 2^64 - (2^64 mod span)
        top = _U64_MAX - np.uint64(_TWO64 % span)
        out = np.empty(size, dtype=np.uint64)
        done = 0
        while done < size:
            words = self._words(size - done)
            words = words[words <= top]
            out[done:done + words.size] = words
            done += words.size
        if span < _TWO64:
            out %= np.uint64(span)
        # lo + x wraps mod 2^64 onto the int64 bit pattern of the result
        out += np.uint64(lo % _TWO64)
        return out.view(np.int64)

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
        # step i accepts x <= tops[i], i.e. x < 2^64 - (2^64 mod spans[i])
        tops = _U64_MAX - (_U64_MAX % spans + np.uint64(1)) % spans
        accepted = np.empty(k, dtype=np.uint64)
        done = 0
        while done < k:
            words = self._words(k - done)
            # a rejected word shifts every later word on by one step
            while words.size:
                ok = words <= tops[done:done + words.size]
                run = words.size if ok.all() else int(ok.argmin())
                accepted[done:done + run] = words[:run]
                done += run
                words = words[run + 1:]
        swapped: dict[int, int] = {}
        picked = []
        for i, off in enumerate((accepted % spans).tolist()):
            j = i + off
            picked.append(swapped.get(j, j))
            swapped[j] = swapped.get(i, i)
        return np.sort(np.array(picked, dtype=np.int64))

    def shuffle(self, arr: np.ndarray) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(arr) - 1, 0, -1):
            j = self.below(i + 1)
            arr[i], arr[j] = arr[j], arr[i]
