"""Subsets of F_p as bit-vector masks, plus generators and set algebra.

An FSet is a boolean membership mask of length p with a cached size.
Elements always come back sorted ascending, so everything downstream is
deterministic.

This module also holds the package's one pairwise counter.  Sumsets, ratio
sets, the image g(a)(h(a)+b), the histograms r_{B-C}, r_{B/C}, r_{B+C} and
the proof's point-plane kernels are all histograms, or supports of
histograms, of alpha_i * t_j + beta_i mod p.  _pair_count is the one
enumeration of that pattern: combine, energy.rep_fn, functions.f_image and
incidence.bilinear_hist all call it.  _pair_transform is the one
convolution route for sum, diff, prod and ratio, and _pair_counts picks
between the two routes for combine and rep_fn.  Enumeration and transform
are kept as mutual oracles, checked bit for bit in the tests.

Every count comes back as a Hist, read in its sparse form: the sorted
support `values` and the positive `counts` on it.  Up to p/8 cells the
kernel builds that form directly, by one sort of all the cells, and
nothing of length p is allocated; above, it reduces chunks into a dense
length-p bincount, as the transform route does, and the sparse form is
read off that array on first use.  The p/8 rule is measured, as one kernel call
plus its sum of squares (or its support set) on a 2-core x86 host.  At
p = 1048573 the sort takes 0.03-0.11 ms for 16-4096 cells against
1.3-1.5 ms dense, 2.9 ms against 4.4 ms at 2^17 cells (about p/8), and
loses past about p/6 (7.4 against 5.9 ms at p/4, 43 against 21 ms at
2^20); at p = 65537 and 262147 the two tie near p/8.  At p = 1009 the
dense call is faster at every size, but by at most 0.015 ms on the at
most 126 cells the rule sorts.

The module also owns the on-disk line format shared by set, function-table
and point/plane files: a `p=<modulus>` header line followed by one row of
decimal integers per line, `#` comments allowed.  A set file holds one
strictly increasing element per line.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from . import convolve
from .errors import (BadParams, FieldMismatch, ParseError, ZeroDilation,
                     ZeroDivisor)
from .field import PrimeField, factorize, powmod
from .rng import CounterRng

FAMILIES = ("interval", "ap", "gp", "mul_subgroup", "random", "explicit")


class FSet:
    """An immutable subset of F_p backed by a boolean mask."""

    __slots__ = ("field", "mask", "_size", "_elems")

    def __init__(self, field: PrimeField, mask: np.ndarray):
        if len(mask) != field.p:
            raise BadParams("mask length %d != p=%d" % (len(mask), field.p))
        self.field = field
        self.mask = mask.astype(bool)  # a copy: the caller keeps its array
        self.mask.flags.writeable = False
        self._size = int(np.count_nonzero(self.mask))
        self._elems = None

    @classmethod
    def _from_mask(cls, field: PrimeField, mask: np.ndarray) -> "FSet":
        """The set with the boolean length-p mask, taken as it is: no
        copy, so no other reference may write to mask afterwards."""
        mask.flags.writeable = False
        out = cls.__new__(cls)
        out.field, out.mask = field, mask
        out._size, out._elems = int(np.count_nonzero(mask)), None
        return out

    @classmethod
    def _from_sorted(cls, field: PrimeField, elems: np.ndarray) -> "FSet":
        """The set of strictly increasing int64 elems in [0, p), taken as
        its elements: no length-p scan counts or lists them again."""
        mask = np.zeros(field.p, dtype=bool)
        mask[elems] = True
        mask.flags.writeable = False
        out = cls.__new__(cls)
        out.field, out.mask = field, mask
        out._size, out._elems = len(elems), elems
        return out

    @classmethod
    def from_elements(cls, field: PrimeField, elems: Iterable[int]) -> "FSet":
        mask = np.zeros(field.p, dtype=bool)
        arr = np.asarray(list(elems) if not isinstance(elems, np.ndarray)
                         else elems, dtype=np.int64)
        if len(arr):
            mask[arr % field.p] = True
        return cls._from_mask(field, mask)

    @property
    def size(self) -> int:
        return self._size

    def elements(self) -> np.ndarray:
        """Sorted int64 array of members."""
        if self._elems is None:
            self._elems = np.flatnonzero(self.mask).astype(np.int64)
        return self._elems

    @property
    def is_zero_free(self) -> bool:
        return not self.mask[0]

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return iter(self.elements().tolist())

    def __contains__(self, x: int) -> bool:
        return bool(self.mask[x % self.field.p])

    def __eq__(self, other) -> bool:
        return (isinstance(other, FSet) and self.field == other.field
                and bool(np.array_equal(self.mask, other.mask)))

    def __hash__(self) -> int:
        return hash((self.field, self.elements().tobytes()))

    def __repr__(self) -> str:
        el = self.elements()
        shown = ",".join(map(str, el[:8].tolist()))
        if self._size > 8:
            shown += ",..."
        return "FSet(p=%d, n=%d, {%s})" % (self.field.p, self._size, shown)


def generate(field: PrimeField, family: str, *, start: int | None = None,
             step: int | None = None, ratio: int | None = None,
             order: int | None = None, size: int | None = None,
             seed: int = 0, instance_id: str | int | None = None,
             elements: Iterable[int] | None = None,
             zero_free: bool = False) -> FSet:
    """Build one of the standard set families.

    interval:     start, size          {start, start+1, ...}
    ap:           start, step, size    {start + i*step}
    gp:           start, ratio, size   {start * ratio^i}
    mul_subgroup: order                the subgroup of F_p^* of that order
    random:       size, seed           uniform size-subset
    explicit:     elements             literal members
    zero_free=True rejects (or for random: avoids) 0.
    """
    p = field.p
    if family not in FAMILIES:
        raise BadParams("unknown family %r" % family)

    if family == "explicit":
        if elements is None:
            raise BadParams("explicit family needs elements")
        elems = [e % p for e in elements]
        if len(set(elems)) != len(elems):
            raise BadParams("duplicate explicit elements")
        out = FSet.from_elements(field, elems)
    elif family == "mul_subgroup":
        if order is None or order < 1:
            raise BadParams("mul_subgroup needs order >= 1")
        if (p - 1) % order != 0:
            raise BadParams("order %d does not divide p-1=%d" % (order, p - 1))
        stride = (p - 1) // order
        exps = (np.arange(order, dtype=np.int64) * stride) % (p - 1)
        out = FSet.from_elements(field, field.powers(exps))
    else:
        if size is None or size < 0:
            raise BadParams("%s family needs size >= 0" % family)
        if size > p:
            raise BadParams("size %d > p = %d" % (size, p))
        if family == "interval":
            if start is None:
                raise BadParams("interval needs start")
            # parameters are reduced mod p before the int64 arithmetic
            elems = (start % p + np.arange(size, dtype=np.int64)) % p
        elif family == "ap":
            if start is None or step is None:
                raise BadParams("ap needs start and step")
            if step % p == 0 and size > 1:
                raise BadParams("ap with step 0 repeats elements")
            elems = (start % p
                     + (step % p) * np.arange(size, dtype=np.int64)) % p
        elif family == "gp":
            if start is None or ratio is None:
                raise BadParams("gp needs start and ratio")
            if start % p == 0:
                raise BadParams("gp start must be nonzero")
            if ratio % p == 0:
                raise BadParams("gp ratio must be nonzero")
            elems = start % p * powmod(ratio % p, np.arange(size), p) % p
        else:  # random
            rng = CounterRng(seed, instance_id if instance_id is not None
                             else "set:p=%d:n=%d" % (p, size))
            if zero_free:
                if size > p - 1:
                    raise BadParams("zero-free size %d > p-1" % size)
                elems = rng.subset(p - 1, size) + 1
            else:
                elems = rng.subset(p, size)
        out = FSet.from_elements(field, elems)

    if zero_free and not out.is_zero_free:
        raise BadParams("family produced 0 but zero_free was requested")
    if family not in ("random", "mul_subgroup", "explicit") and \
            size is not None and out.size != size:
        raise BadParams("%s family repeats elements" % family)
    return out


class Hist:
    """How many pairs land on each value of F_p.

    Consumers read the sparse form: `values`, the sorted support (int64),
    and `counts`, the positive int64 count on each value, or None for a
    support-only count.  The kernel builds that form directly for small
    inputs.  The large-input kernel and the transform route build the
    dense length-p array anyway; it is kept in `dense`, and the sparse
    form is read off it on first use.  `dense` of a sparse Hist is built
    on first use.  A support-only count has no counts on any route: its
    counts are None, a dense route keeps a bool mask in `dense`, read only
    by `support`, and sum_squares refuses it.
    """

    __slots__ = ("p", "_values", "_counts", "_dense")

    def __init__(self, p: int, values: np.ndarray | None = None,
                 counts: np.ndarray | None = None,
                 dense: np.ndarray | None = None):
        self.p = p
        self._values, self._counts, self._dense = values, counts, dense

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = np.flatnonzero(self._dense > 0)
        return self._values

    @property
    def counts(self) -> np.ndarray | None:
        d = self._dense
        if self._counts is None and d is not None and d.dtype != bool:
            self._counts = d[self.values]
        return self._counts

    @property
    def dense(self) -> np.ndarray:
        if self._dense is None:
            self._dense = np.zeros(self.p, dtype=np.int64)
            self._dense[self._values] = self._counts
        return self._dense

    def sum_squares(self) -> int:
        """sum_x count(x)^2, exact in int64 while the counts total at most
        2^31, as the capped kernels do.  Zeros add nothing, so a dense
        array is summed as it stands, without reading its support off."""
        c = self._dense if self._counts is None else self._counts
        if c is None or c.dtype == bool:
            raise BadParams("a support-only Hist has no counts to square")
        return int(np.dot(c, c))

    def at(self, xs: np.ndarray) -> np.ndarray:
        """The counts at the points xs, 0 off the support."""
        vals = self.values
        if len(vals) == 0:
            return np.zeros(len(xs), dtype=np.int64)
        pos = np.minimum(np.searchsorted(vals, xs), len(vals) - 1)
        return np.where(vals[pos] == xs, self.counts[pos], 0)

    def support(self, field: PrimeField) -> FSet:
        """The support as a set over field."""
        if self._dense is not None:
            d = self._dense
            return FSet._from_mask(field, d if d.dtype == bool else d > 0)
        return FSet._from_sorted(field, self._values)


# At most p / SPARSE_DIV cells go to the sort; see the module docstring.
SPARSE_DIV = 8
# Fewest cells a dense _pair_count splits over two threads.  Measured on a
# 2-core x86 host (medians of 7 calls), two threads took 0.54-0.77 of the
# one-thread time from 2^18 cells at p = 1009; at p = 1048573, where each
# thread's own length-p bincount and their sum cost more, 1.24-1.62 at
# 2^17-2^18 cells, 0.95 at 2^19 and 0.60-0.71 from 2^20 up.
PAIR_THREAD_MIN = 1 << 20


def _pair_count(alpha, t: np.ndarray, beta: np.ndarray | None, p: int,
                support: bool = False) -> Hist:
    """Histogram of (alpha_i * t_j + beta_i) mod p over all (i, j), or with
    support=True its support only (counts None).

    alpha is a per-row int64 array, or a scalar shared by every row (then
    beta gives the rows); beta is a per-row int64 array, or None for no
    shift.  Up to p / SPARSE_DIV cells, all cells are enumerated at once
    and sorted (np.unique) into the sparse form.  Above, rows are
    enumerated into one buffer of about 4e6 cells, so memory stays
    bounded, and reduced into a length-p bincount, or a boolean scatter
    for the support; either is kept as the Hist's dense array.  From
    PAIR_THREAD_MIN cells, where a second thread may run
    (convolve._second_thread), the calling thread and one worker each take
    half the rows, through their own half of the buffer, into their own
    bincount (or mask); the two are then summed (or OR-ed).
    """
    rows = len(alpha) if np.ndim(alpha) else len(beta)
    shared = None if np.ndim(alpha) else alpha * t
    width = len(t)

    def cells(i, j, vals):
        # Into vals, one block-sized array: the shift and the reduction
        # run in place.
        if shared is not None:
            np.add(shared, beta[i:j, None], out=vals)
        else:
            np.multiply(alpha[i:j, None], t, out=vals)
            if beta is not None:
                vals += beta[i:j, None]
        vals %= p
        return vals.ravel()

    if SPARSE_DIV * rows * width <= p:
        values, counts = np.unique(
            cells(0, rows, np.empty((rows, width), dtype=np.int64)),
            return_counts=True)
        return Hist(p, values,
                    None if support else counts.astype(np.int64, copy=False))

    def reduce(lo, hi, space):
        # rows lo..hi-1 through space, one chunk at a time; None for none
        if lo == hi:
            return None
        out = np.zeros(p, dtype=bool) if support else None
        for i in range(lo, hi, len(space)):
            j = min(i + len(space), hi)
            vals = cells(i, j, space[:j - i])
            if support:
                out[vals] = True
            elif out is None:
                # The first chunk's bincount is the output: no zeroed
                # length-p array is touched before it.
                out = np.bincount(vals, minlength=p).astype(np.int64,
                                                            copy=False)
            else:
                out += np.bincount(vals, minlength=p)
            del vals
        return out

    with convolve._worker(rows > 1 and rows * width >= PAIR_THREAD_MIN
                          ) as pool:
        # one thread takes every row unless the worker takes half
        halves = 1 if pool is None else 2
        buf = np.empty((min(rows, max(halves, 4_000_000 // width)), width),
                       dtype=np.int64)
        cut, part = -(-rows // halves), -(-len(buf) // halves)
        out, other = convolve._both(pool,
                                    lambda: reduce(0, cut, buf[:part]),
                                    lambda: reduce(cut, rows, buf[part:]))
    if other is not None:
        if support:
            out |= other
        else:
            out += other
    return Hist(p, dense=out)


def _pair_transform(x: FSet, y: FSet, op: str,
                    support: bool = False) -> np.ndarray:
    """counts[v] = #{(s, u) in X x Y : s op u = v} by one cyclic
    convolution of uint8 indicator vectors: over Z_p for sum and diff,
    over the discrete logs in Z_{p-1} for prod and ratio.  diff and ratio
    negate Y in that group.  For prod and ratio the pairs with a zero
    factor all land on 0 and are counted apart (callers keep 0 out of a
    ratio's Y), and support=True reads off the bool mask counts > 0 in
    place of the counts, for every op."""
    f = x.field
    xe, ye = x.elements(), y.elements()
    n = f.p
    if op in ("prod", "ratio"):
        n = f.p - 1
        xe = f.dlog_table[xe[xe > 0]]
        ye = f.dlog_table[ye[ye > 0]]
    xv = np.zeros(n, dtype=np.uint8)
    yv = np.zeros(n, dtype=np.uint8)
    xv[xe] = 1
    yv[(-ye) % n if op in ("diff", "ratio") else ye] = 1
    hist = convolve.cyclic_convolve(xv, yv, n)
    if op in ("sum", "diff"):
        return hist > 0 if support else hist
    # counts[g^e] = hist[e], gathered as bools for the support (5 ms
    # against 11 ms for int64 at p = 1048573); [0] is set next
    counts = (hist > 0 if support else hist)[f.dlog_table]
    counts[0] = x.size * y.size - len(xe) * len(ye)
    return counts


def _pair_counts(x: FSet, y: FSet, op: str, method: str, enum: str,
                 support: bool = False) -> Hist:
    """The Hist of x op y over X x Y, op in {sum, diff, prod, ratio} (with
    support=True either route may leave out the counts), by the route
    `method` names: `enum` (the caller's spelling of the
    enumeration), "transform", or "auto", which takes the transform once
    |X||Y| > p log2 p.  That is where the two cost about the same,
    measured at p = 1009 and p = 1048573 on a 2-core x86 host: the
    enumeration takes about 1e-8 s a cell, and one FFT convolution about
    as long as p log2 p cells.  Re-measured with both routes on two
    threads (medians of 7 calls), the break-even at p = 1048573 lies at
    12-14 M cells for rep_fn (4000 x 4000: 0.13 s enumerated, 0.12 s
    transformed) and near 20 M for a combine support (2000 x 8000: 0.09
    against 0.13 s; 2000 x 12000: 0.15 against 0.13 s), against the
    rule's 21 M.  At p = 1009 and 65539 the enumeration still wins at 1.2
    p log2 p cells (by 2x at 65539), so a smaller constant would lose
    there, and the rule is kept."""
    p = x.field.p
    if method == "auto":
        heavy = x.size * y.size > p * max(1, int(math.log2(p)))
        method = "transform" if heavy else enum
    if method == "transform":
        return Hist(p, dense=_pair_transform(x, y, op, support))
    if method != enum:
        raise BadParams("unknown method %r" % method)
    xe, ye = x.elements(), y.elements()
    if op in ("sum", "diff"):
        return _pair_count(1 if op == "sum" else -1, ye, xe, p, support)
    if op == "ratio":
        ye = x.field.inverses(ye)
    return _pair_count(xe, ye, None, p, support)


def combine(a: FSet, b: FSet, op: str, method: str = "auto") -> FSet:
    """Element-wise set operation: op in {sum, diff, prod, ratio}."""
    if a.field != b.field:
        raise FieldMismatch("operands over different fields: %r vs %r"
                            % (a.field, b.field))
    if op not in ("sum", "diff", "prod", "ratio"):
        raise BadParams("unknown combine op %r" % op)
    if op == "ratio" and b.mask[0]:
        raise ZeroDivisor("0 in denominator set")
    return _pair_counts(a, b, op, method, "pairwise",
                        support=True).support(a.field)


def affine(a: FSet, lam: int, t: int) -> FSet:
    """{lam*x + t : x in A}; lam must be invertible so sizes are preserved."""
    p = a.field.p
    lam %= p
    if lam == 0:
        raise ZeroDilation("affine scaling by 0")
    elems = (lam * a.elements() + t % p) % p
    return FSet.from_elements(a.field, elems)


def subgroup_orders(field: PrimeField) -> list[int]:
    """All divisors of p-1, ascending: the available subgroup orders."""
    divs = [1]
    for q, e in factorize(field.p - 1).items():
        divs = [d * q ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


# -- on-disk format ------------------------------------------------------


def _format_lines(p: int, values: np.ndarray) -> str:
    """The line format as text: the header, then one value (1-d input) or
    one space-separated row (2-d input) per line."""
    v = np.asarray(values)
    if v.ndim == 1:
        lines = map(str, v.tolist())
    else:
        lines = (" ".join(map(str, row)) for row in v.tolist())
    return "\n".join(["p=%d" % p, *lines]) + "\n"


def _read_lines(text: str, width: int, field: PrimeField | None = None):
    """Read the line format shared by set, function-table and point/plane
    files: a `p=<modulus>` header (checked against field when given), then
    `width` whitespace-separated integers per line; blank lines and `#`
    comments are skipped.  Returns (p, rows), rows yielding
    (lineno, [ints]) lazily; callers apply their own content rules."""
    lines = ((lineno, raw.split("#", 1)[0].strip())
             for lineno, raw in enumerate(text.splitlines(), 1))
    lines = ((lineno, line) for lineno, line in lines if line)
    lineno, line = next(lines, (0, None))
    if line is None:
        raise ParseError("missing p=<modulus> header")
    if not line.startswith("p="):
        raise ParseError("line %d: expected p=<modulus> header" % lineno)
    try:
        p = int(line[2:])
    except ValueError:
        raise ParseError("line %d: bad modulus %r" % (lineno, line))
    if field is not None and p != field.p:
        raise ParseError("file modulus %d != expected %d" % (p, field.p))

    def rows():
        for lineno, line in lines:
            parts = line.split()
            if len(parts) != width:
                raise ParseError("line %d: expected %d integers, got %d"
                                 % (lineno, width, len(parts)))
            try:
                ints = [int(v) for v in parts]
            except ValueError:
                raise ParseError("line %d: bad integer in %r"
                                 % (lineno, line))
            yield lineno, ints
    return p, rows()


def write_set_file(path: str, a: FSet) -> None:
    with open(path, "w") as fh:
        fh.write(_format_lines(a.field.p, a.elements()))


def parse_set_text(text: str, field: PrimeField | None = None
                   ) -> tuple[int, list[int]]:
    """Parse the set format; returns (p, elements).  Strictness follows the
    format contract: header first, strictly increasing elements, in range."""
    p, rows = _read_lines(text, 1, field)
    elems: list[int] = []
    for lineno, (v,) in rows:
        if not 0 <= v < p:
            raise ParseError("line %d: element %d out of range [0,%d)"
                             % (lineno, v, p))
        if elems and v <= elems[-1]:
            raise ParseError("line %d: elements must be strictly increasing"
                             % lineno)
        elems.append(v)
    return p, elems


def read_set_file(path: str, field: PrimeField | None = None) -> FSet:
    from .field import make_field
    with open(path) as fh:
        p, elems = parse_set_text(fh.read(), field)
    f = field if field is not None else make_field(p)
    return FSet.from_elements(f, elems)
