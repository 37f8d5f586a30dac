"""Prime-field arithmetic with an explicit discrete-log table.

A PrimeField packages a prime p together with a fixed primitive root g of
F_p^*.  Three flat tables (powers of g, discrete logs, inverses) are built
lazily on first use; each is O(p) memory, which is fine under the p <= 2^20
cap enforced at construction.  The tables make multiplicative structure
(ratio histograms, subgroups) as cheap as additive structure.  The tables
are read-only arrays, so no caller can change them for the next.

Residues are canonical: every element is an int in [0, p).
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import BadParams, NotPrime, TooSmall, ZeroInverse

DEFAULT_MAX_P = 1 << 20

# Deterministic Miller-Rabin witnesses, sufficient for every n < 3.3e24,
# far beyond the field cap.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit inputs."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; n stays below 2^20 here."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _find_primitive_root(p: int) -> int:
    prime_divs = list(factorize(p - 1))
    for cand in range(2, p):
        if all(pow(cand, (p - 1) // q, p) != 1 for q in prime_divs):
            return cand
    raise NotPrime("no primitive root found for %d; not prime?" % p)


def _max_p() -> int:
    """Effective cap: the environment may lower DEFAULT_MAX_P, never raise."""
    env = os.environ.get("FPSP_MAX_P")
    if env is None:
        return DEFAULT_MAX_P
    try:
        return min(DEFAULT_MAX_P, int(env))
    except ValueError:
        return DEFAULT_MAX_P


class PrimeField:
    """F_p with a fixed primitive root and lazy power/dlog/inverse tables."""

    __slots__ = ("p", "root", "_pow_table", "_dlog_table", "_inv_table")

    def __init__(self, p: int, root: int):
        self.p = p
        self.root = root
        self._pow_table = None
        self._dlog_table = None
        self._inv_table = None

    def __repr__(self) -> str:
        return "PrimeField(p=%d, root=%d)" % (self.p, self.root)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PrimeField)
                and self.p == other.p and self.root == other.root)

    def __hash__(self) -> int:
        return hash((self.p, self.root))

    # -- tables ---------------------------------------------------------

    def _build_tables(self) -> None:
        # Idempotent, so a racing second build is harmless (it writes
        # identical arrays).  g^(iB+j) = (g^B)^i g^j with B = ceil(sqrt(p-1)):
        # two length-B power runs and one outer product, reduced in place.
        # Every product is below p^2 <= 2^40, so int64 is exact.
        p, g = self.p, self.root

        def powers(base: int, count: int) -> np.ndarray:
            out = np.empty(count, dtype=np.int64)
            acc = 1
            for e in range(count):
                out[e] = acc
                acc = acc * base % p
            return out

        n = p - 1
        width = math.isqrt(n - 1) + 1
        rows = -(-n // width)
        low, high = powers(g, width), powers(pow(g, width, p), rows)
        grid = np.empty((rows, width), dtype=np.int64)
        np.multiply(high[:, None], low[None, :], out=grid)
        grid %= p
        powt = grid.reshape(-1)[:n]
        dlog = np.full(p, -1, dtype=np.int64)
        dlog[powt] = np.arange(n, dtype=np.int64)
        inv = np.zeros(p, dtype=np.int64)
        # x = g^e  =>  x^-1 = g^(p-1-e): g^0 is its own inverse, and the
        # rest of powt read backwards pairs each g^e with g^(p-1-e)
        inv[1] = 1
        inv[powt[1:]] = powt[:0:-1]
        for table in (powt, dlog, inv):
            table.flags.writeable = False
        self._pow_table = powt
        self._dlog_table = dlog
        self._inv_table = inv

    @property
    def pow_table(self) -> np.ndarray:
        """pow_table[e] = root^e for e in [0, p-1)."""
        if self._pow_table is None:
            self._build_tables()
        return self._pow_table

    @property
    def dlog_table(self) -> np.ndarray:
        """dlog_table[x] = e with root^e = x; -1 at index 0."""
        if self._dlog_table is None:
            self._build_tables()
        return self._dlog_table

    @property
    def inv_table(self) -> np.ndarray:
        """inv_table[x] = x^-1 for x in F_p^*; 0 at index 0."""
        if self._inv_table is None:
            self._build_tables()
        return self._inv_table

    # -- scalar ops ------------------------------------------------------

    def inverse(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroInverse("0 has no inverse mod %d" % self.p)
        return pow(x, self.p - 2, self.p)

    def dlog(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroInverse("dlog(0) undefined mod %d" % self.p)
        return int(self.dlog_table[x])

    def pow(self, x: int, e: int) -> int:
        """x^e mod p; negative e inverts first (x must be nonzero then)."""
        x %= self.p
        if e < 0:
            return pow(self.inverse(x), -e, self.p)
        return pow(x, e, self.p)


def make_field(p: int) -> PrimeField:
    """Validate p and construct the field with its canonical root."""
    if p < 3:
        raise TooSmall("need p >= 3, got %d" % p)
    cap = _max_p()
    if p > cap:
        raise BadParams("p=%d exceeds the table cap %d (FPSP_MAX_P)" % (p, cap))
    if not is_prime(p):
        raise NotPrime("%d is not prime" % p)
    return PrimeField(p, _find_primitive_root(p))
