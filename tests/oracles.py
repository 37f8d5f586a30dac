"""Slow, independent oracles for the fast routes in `fpsp`, imported by
the tests (pytest collects only test_*.py, so it never runs this file).

* The double-prime NTT: the convolution modulo two NTT-friendly primes
  (998244353 = 119*2^23+1 with generator 3, 754974721 = 45*2^24+1 with
  generator 11), recombined by CRT.  Their product ~7.5e17 bounds the
  coefficients it gets right; past that the CRT lift wraps silently.  In
  the NTT int64 never overflows: residues are < 2^30, so butterfly
  products stay < 2^60, and the CRT lift stays < 2^60.  It is the
  large-n oracle of `convolve.cyclic_convolve`.
* `convolve_naive`, the O(n^2) schoolbook cyclic convolution.
* `quad_energy_brute`, `solution_count_M_brute` and `count_X_brute`,
  enumeration oracles for `verify.quad_energy`, `verify.solution_count_M`
  and `verify.count_X`.
"""

from __future__ import annotations

import numpy as np

from fpsp.errors import (BadParams, FieldMismatch, SizeCap, ZeroDivisor,
                         ZeroInA)
from fpsp.functions import FnTable
from fpsp.incidence import VARIANTS
from fpsp.sets import FSet, combine

_P1, _G1 = 998244353, 3
_P2, _G2 = 754974721, 11
_INV_P1_MOD_P2 = pow(_P1, _P2 - 2, _P2)

_MAX_LOG2 = 23  # limited by _P1's 2-adic valuation

QUAD_BRUTE_CAP = 3_000
X_BRUTE_CAP = 60

_bitrev_cache: dict[int, np.ndarray] = {}
_twiddle_cache: dict[tuple[int, int, bool], np.ndarray] = {}


def _bitrev(n: int) -> np.ndarray:
    got = _bitrev_cache.get(n)
    if got is not None:
        return got
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev = (rev << 1) | ((idx >> b) & 1)
    _bitrev_cache[n] = rev
    return rev


def _powmod_vec(base: int, exps: np.ndarray, prime: int) -> np.ndarray:
    """base^exps mod prime, vectorized square-and-multiply."""
    result = np.ones(len(exps), dtype=np.int64)
    b = base % prime
    e = exps.copy()
    while e.max(initial=0) > 0:
        odd = (e & 1).astype(bool)
        result[odd] = result[odd] * b % prime
        b = b * b % prime
        e >>= 1
    return result


def _twiddles(prime: int, gen: int, length: int, invert: bool) -> np.ndarray:
    key = (prime, length, invert)
    got = _twiddle_cache.get(key)
    if got is not None:
        return got
    w0 = pow(gen, (prime - 1) // length, prime)
    if invert:
        w0 = pow(w0, prime - 2, prime)
    w = _powmod_vec(w0, np.arange(length // 2, dtype=np.int64), prime)
    _twiddle_cache[key] = w
    return w


def _ntt(vec: np.ndarray, prime: int, gen: int, invert: bool) -> np.ndarray:
    n = len(vec)
    a = (vec % prime)[_bitrev(n)]
    length = 2
    while length <= n:
        half = length // 2
        w = _twiddles(prime, gen, length, invert)
        blocks = a.reshape(-1, length)
        # copy: the first write below would otherwise clobber the view
        even = blocks[:, :half].copy()
        odd = blocks[:, half:] * w % prime
        blocks[:, :half] = (even + odd) % prime
        blocks[:, half:] = (even - odd) % prime
        a = blocks.reshape(-1)
        length *= 2
    if invert:
        n_inv = pow(n, prime - 2, prime)
        a = a * n_inv % prime
    return a


def _cyclic_mod(x: np.ndarray, y: np.ndarray, n: int, prime: int,
                gen: int) -> np.ndarray:
    """Cyclic convolution of length n (n a power of two) mod prime."""
    fx = _ntt(x, prime, gen, False)
    fy = _ntt(y, prime, gen, False)
    return _ntt(fx * fy % prime, prime, gen, True)


def _crt(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Lift residue pairs to the unique value below P1*P2 (fits int64)."""
    diff = (r2 - r1) % _P2
    return r1 + _P1 * (diff * _INV_P1_MOD_P2 % _P2)


def _convolve_ntt(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Exact cyclic convolution of int64 vectors of length n >= 2 by the
    double-prime NTT with CRT lift; the oracle of the FFT."""
    if n & (n - 1) == 0:
        # Power-of-two length transforms directly, no padding or folding.
        if n.bit_length() - 1 > _MAX_LOG2:
            raise BadParams("transform length %d beyond NTT support" % n)
        c1 = _cyclic_mod(x, y, n, _P1, _G1)
        c2 = _cyclic_mod(x, y, n, _P2, _G2)
        return _crt(c1, c2)
    # General n: zero-pad to a power of two, linear convolution, fold.
    need = 2 * n - 1
    size = 1 << (need - 1).bit_length()
    if size.bit_length() - 1 > _MAX_LOG2:
        raise BadParams("padded length %d beyond NTT support" % size)
    xp = np.zeros(size, dtype=np.int64)
    yp = np.zeros(size, dtype=np.int64)
    xp[:n] = x
    yp[:n] = y
    l1 = _cyclic_mod(xp, yp, size, _P1, _G1)
    l2 = _cyclic_mod(xp, yp, size, _P2, _G2)
    lin = _crt(l1, l2)[:need]
    out = lin[:n].copy()
    out[: n - 1] += lin[n:]
    return out


def convolve_naive(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Direct O(n^2) cyclic convolution; the oracle for cyclic_convolve."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    for i in range(n):
        if x[i]:
            out += x[i] * np.roll(y, i)
    return out


# -- enumeration oracles of verify ------------------------------------------


def quad_energy_brute(variant: str, a: FSet, x: FSet, third: FSet,
                      g: FnTable, h: FnTable,
                      cap: int = QUAD_BRUTE_CAP) -> int:
    """O(T^2) oracle: evaluate the value map on every triple explicitly and
    count colliding pairs.  Only for small instances."""
    if variant not in VARIANTS:
        raise BadParams("unknown quad-energy variant %r" % variant)
    if not (a.field == x.field == third.field == g.field == h.field):
        raise FieldMismatch("mixed fields in quad_energy_brute")
    if not a.is_zero_free:
        raise ZeroInA("0 in A")
    if variant in ("prod_E1", "prod_E2") and not x.is_zero_free:
        raise ZeroDivisor("prod variants need 0 not in X")
    p = a.field.p
    inv = a.field.inv_table
    ae, xe, te = a.elements(), x.elements(), third.elements()
    total = len(ae) * len(xe) * len(te)
    if total > cap:
        raise SizeCap("brute quad energy capped at %d triples, got %d"
                      % (cap, total))
    vals = []
    for av in ae.tolist():
        ga, ha = int(g.values[av]), int(h.values[av])
        for xv in xe.tolist():
            for tv in te.tolist():
                if variant == "sum_E1":
                    v = ga * (xv + tv + ha) % p
                elif variant == "prod_E1":
                    v = ga * (xv * tv + ha) % p
                elif variant == "sum_E2":
                    v = (tv * int(inv[ga]) - xv - ha) % p
                else:
                    v = (tv * int(inv[ga]) - ha) * int(inv[xv]) % p
                vals.append(v)
    if not vals:
        return 0
    arr = np.array(vals, dtype=np.int64)
    return int((arr[:, None] == arr[None, :]).sum())


def solution_count_M_brute(a: FSet, b: FSet, c: FSet, x: FSet,
                           kind: str) -> int:
    """Oracle for solution_count_M: outer difference/ratio table plus a
    membership test, no histogram."""
    if kind not in ("sum", "prod"):
        raise BadParams("kind must be sum or prod, got %r" % kind)
    if not (a.field == b.field == c.field == x.field):
        raise FieldMismatch("mixed fields in solution_count_M_brute")
    p = b.field.p
    be, ce = b.elements(), c.elements()
    if len(be) == 0 or len(ce) == 0:
        return 0
    if kind == "sum":
        table = (be[:, None] - ce[None, :]) % p
    else:
        if not x.is_zero_free:
            raise ZeroDivisor("prod kind needs 0 not in X")
        if not c.is_zero_free or not b.is_zero_free:
            raise ZeroDivisor("ratio table needs 0 not in B or C")
        table = be[:, None] * b.field.inverses(ce)[None, :] % p
    return a.size * int(x.mask[table].sum())


def count_X_brute(pset: FSet, b: FSet, cap: int = X_BRUTE_CAP) -> int:
    """Quadruple enumeration oracle for count_X."""
    d = combine(b, b, "diff")
    if pset.size > cap or d.size > cap:
        raise SizeCap("brute count_X capped at |P|, |D| <= %d" % cap)
    pe, de = pset.elements(), d.elements()
    if len(pe) == 0 or len(de) == 0:
        return 0
    p = b.field.p
    dif = ((pe[:, None] - de[None, :]) % p).ravel()
    return int((dif[:, None] == dif[None, :]).sum())
