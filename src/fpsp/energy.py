"""Representation functions, moment energies, and popularity selections.

The central object is the exact histogram r_{B?C}(x): how many pairs
(b, c) in B x C realize x as b-c, b/c, or b+c.  It comes from the two
pair-count routes in the sets module, shared with combine: a chunked
enumeration ("naive") and a certified FFT convolution ("transform"), and
"auto" takes the transform once |B||C| > p log2 p.  They must agree bit
for bit and serve as each other's oracle.  A RepFn keeps the histogram as
a sets.Hist, and everything below reads its sparse form: the sorted
support and the positive counts on it.  Small histograms (at most p/8
pairs, the sets module's measured crossover) never exist as a length-p
array; the dense `RepFn.counts` is built only when a caller asks for it.

On top of the histogram sit the moment energies E_n = sum_x r(x)^n (exact
big integers for integer n, floats for fractional n), level sets
X_k = {x : r(x) >= k}, dyadic buckets, and the two popularity selections the
inequality chains consume: popular differences (threshold |B||C| / (2|B-C|))
and the popular-sum core construction with its epsilon parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (BadEpsilon, BadExponent, BadParams, EmptySet,
                     FieldMismatch, ZeroDivisor)
from .field import PrimeField
from .sets import FSet, Hist, _pair_counts

KINDS = ("difference", "ratio", "sum")


class RepFn:
    """Exact histogram of a representation function over F_p.

    hist holds r(x) = number of (b, c) in B x C with b ? c = x, as a
    sets.Hist; counts is the dense length-p int64 array r, built on first
    use.  The constructor takes either.  For the ratio kind, index 0 is
    structurally zero.  mass = |B| * |C| always.
    """

    __slots__ = ("field", "kind", "hist", "size_b", "size_c")

    def __init__(self, field: PrimeField, kind: str,
                 counts: Hist | np.ndarray, size_b: int, size_c: int):
        self.field, self.kind = field, kind
        self.hist = counts if isinstance(counts, Hist) else Hist(
            field.p, dense=np.asarray(counts, dtype=np.int64))
        self.size_b, self.size_c = size_b, size_c

    @property
    def counts(self) -> np.ndarray:
        return self.hist.dense

    @property
    def mass(self) -> int:
        return self.size_b * self.size_c

    def support(self) -> FSet:
        return self.hist.support(self.field)

    def support_size(self) -> int:
        return len(self.hist.values)


_OP_OF = {"difference": "diff", "ratio": "ratio", "sum": "sum"}


def rep_fn(b: FSet, c: FSet, kind: str, method: str = "auto") -> RepFn:
    """Exact representation histogram for kind in {difference, ratio, sum}."""
    if b.field != c.field:
        raise FieldMismatch("rep_fn operands over different fields")
    if kind not in KINDS:
        raise BadParams("unknown rep kind %r" % kind)
    if kind == "ratio" and (not b.is_zero_free or not c.is_zero_free):
        raise ZeroDivisor("ratio histogram needs both sets inside F_p^*")
    hist = _pair_counts(b, c, _OP_OF[kind], method, "naive")
    return RepFn(b.field, kind, hist, b.size, c.size)


def _is_integral(n) -> bool:
    if isinstance(n, int):
        return True
    if isinstance(n, Fraction):
        return n.denominator == 1
    return False


def moment(r: RepFn, n) -> int | float:
    """E_n = sum_x r(x)^n.  Exact int for integral n >= 1: the sum runs
    over the distinct count values v as v^n * #{x : r(x) = v}, in Python
    ints, since counts^n can exceed int64; a dense histogram is counted
    as it stands (Hist.multiplicities), without its sparse form.  Float
    via fsum for fractional n, over every nonzero count: grouping would
    round each v^n * #{...} product and could change the result."""
    if n < 1:
        raise BadExponent("moment needs n >= 1, got %r" % (n,))
    if _is_integral(n):
        k = int(n)
        mult = r.hist.multiplicities()
        vals = np.flatnonzero(mult)
        return sum(v ** k * c
                   for v, c in zip(vals.tolist(), mult[vals].tolist()))
    e = float(n)
    return math.fsum(float(cnt) ** e for cnt in r.hist.counts.tolist())


@dataclass(frozen=True)
class LevelSet:
    k: int
    x: FSet
    n_k: int


def level_set(r: RepFn, k: int) -> LevelSet:
    """X_k = {x : r(x) >= k} with its size n_k."""
    if k < 1:
        raise BadParams("level_set needs k >= 1")
    x = FSet._from_sorted(r.field, r.hist.values[r.hist.counts >= k])
    return LevelSet(k, x, x.size)


def level_counts(r: RepFn) -> np.ndarray:
    """n_k for k = 0..max count: n[k] = |{x : r(x) >= k}| (n[0] = p)."""
    nz = r.hist.counts
    top = int(nz.max()) if len(nz) else 0
    hist = np.bincount(nz, minlength=top + 1)
    n = np.zeros(top + 1, dtype=np.int64)
    n[0] = r.field.p
    if top:
        # suffix sums of the count histogram
        n[1:] = np.cumsum(hist[::-1])[::-1][1:]
    return n


def select_dyadic_k(r: RepFn) -> int:
    """The proofs' automatic level: the smallest power of two k maximizing
    k^4 * n_k (ties broken toward smaller k)."""
    n = level_counts(r)
    top = len(n) - 1
    if top < 1:
        raise EmptySet("histogram has empty support")
    best_k, best_score = 1, 0
    k = 1
    while k <= top:
        score = k ** 4 * int(n[k])
        if score > best_score:
            best_k, best_score = k, score
        k *= 2
    return best_k


def popular_diff(b: FSet, c: FSet) -> FSet:
    """P = {x in B-C : r_{B-C}(x) >= |B||C| / (2|B-C|)}, threshold compared
    exactly as 2 * r(x) * |B-C| >= |B||C|."""
    if b.size == 0 or c.size == 0:
        raise EmptySet("popular_diff needs nonempty sets")
    hist = rep_fn(b, c, "difference").hist
    keep = 2 * hist.counts * len(hist.values) >= b.size * c.size
    return FSet._from_sorted(b.field, hist.values[keep])


def normalize_eps(eps: Fraction | float | str | None, size: int) -> Fraction:
    """Epsilon handling shared by the popularity machinery: None means the
    default 1/log2(size) (rationalized so comparisons stay exact), anything
    else is converted to a Fraction: a string is read exactly ("a/b",
    "0.1", "1e-1"), a float keeps its binary value up to a denominator of
    2^62; the result must land in (0,1)."""
    if eps is None:
        if size < 3:
            raise BadEpsilon("default eps = 1/log2|C| needs |C| >= 3")
        eps = Fraction(1.0 / math.log2(size)).limit_denominator(1 << 40)
    elif isinstance(eps, float):
        eps = Fraction(eps).limit_denominator(1 << 62)
    else:
        eps = Fraction(eps)
    if not 0 < eps < 1:
        raise BadEpsilon("eps must be in (0,1), got %s" % eps)
    return eps


def popular_sum_core(c: FSet, eps: Fraction | float | None = None
                     ) -> tuple[FSet, FSet]:
    """Popular sums P of C and the core C' of elements mostly summing into P.

    P  = {x in C+C : r_{C+C}(x) >= eps |C|^2 / |C+C|}
    C' = {c' in C : |{c'' in C : c'+c'' in P}| >= (1-eps)|C|}

    eps defaults to 1/log2|C| and must lie in (0,1); comparisons are exact
    via Fraction cross-multiplication.
    """
    if c.size == 0:
        raise EmptySet("popular_sum_core needs a nonempty set")
    eps = normalize_eps(eps, c.size)
    p = c.field.p
    hist = rep_fn(c, c, "sum").hist
    num, den = eps.numerator, eps.denominator
    # r(x) * |C+C| >= eps * |C|^2  <=>  r(x) >= ceil(num |C|^2 / (den |C+C|))
    # as r(x) is an integer; the bound is a Python int, so a float eps's
    # denominator (2^55 for 0.1) cannot overflow int64 here
    keep = hist.counts >= -(-num * c.size * c.size
                            // (den * len(hist.values)))
    pset = FSet._from_sorted(c.field, hist.values[keep])
    ce = c.elements()
    # |{c'': c'+c'' in P}| >= (1-eps)|C|  <=>  den*count >= (den-num)*|C|
    good = [cp for cp in ce.tolist()
            if den * int(pset.mask[(cp + ce) % p].sum())
            >= (den - num) * c.size]
    return pset, FSet._from_sorted(c.field, np.array(good, dtype=np.int64))


@dataclass(frozen=True)
class DyadicBucket:
    delta: int
    members: FSet
    size: int


def dyadic_buckets(r: RepFn) -> list[DyadicBucket]:
    """Nonempty buckets {x : Delta <= r(x) < 2*Delta} for Delta = 1,2,4,..."""
    out = []
    counts = r.hist.counts
    top = int(counts.max()) if len(counts) else 0
    delta = 1
    while delta <= top:
        sel = r.hist.values[(counts >= delta) & (counts < 2 * delta)]
        if len(sel):
            out.append(DyadicBucket(delta, FSet._from_sorted(r.field, sel),
                                    len(sel)))
        delta *= 2
    return out


def energy_popular(r: RepFn, n=Fraction(4, 3)) -> tuple[int, FSet]:
    """The dyadic bucket (Delta', P') maximizing |P'| * Delta'^n.

    With a Fraction exponent a/b the argmax is decided exactly by comparing
    size^b * Delta^a as big integers; float exponents fall back to float
    scores.  Ties go to the smaller Delta.  Returns (Delta', P').
    """
    buckets = dyadic_buckets(r)
    if not buckets:
        raise EmptySet("histogram has empty support")
    if isinstance(n, (int, Fraction)):
        frac = Fraction(n)
        a, bden = frac.numerator, frac.denominator

        def key(bucket):
            return bucket.size ** bden * bucket.delta ** a
    else:
        e = float(n)

        def key(bucket):
            return bucket.size * bucket.delta ** e
    best = buckets[0]
    best_key = key(best)
    for bucket in buckets[1:]:
        kv = key(bucket)
        if kv > best_key:
            best, best_key = bucket, kv
    return best.delta, best.members
