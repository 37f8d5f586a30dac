"""Point-plane incidences in F_p^3 and the proof-specific configurations.

incidences() is the generic exact counter: blocked dot products in float64
(every intermediate is an integer below 2^42, so the BLAS path is exact),
reduced mod p.  max_collinear() canonicalizes pairwise directions per anchor
point, inverting every pair's leading coordinate in one table-free batch
while the batch is small (PrimeField.table_free) and reading the inverse
table above; it serves file-mode configs, and it is the oracle for
ProofKernel.max_collinear().  rudnev_ratio() reports either record's
observed count against the |R|^(1/2)|S| + k|S| shape.

The four proof configurations (sum_E1, sum_E2, prod_E1, prod_E2) all share
one algebraic skeleton: both the point set and the plane set are products
PAIRS x T of a deduplicated pair set with a scalar set, and a point lies on
a plane exactly when one bilinear kernel (alpha*t + beta mod p) collides.
That turns incidence counting for these configs into a histogram sum of
squares, O(|PAIRS| * |T|) instead of O(|R| * |S|), and the same kernel with
multiset pairs is the quadruple-energy histogram used by the verify module.
proof_kernel() builds a variant's kernel once, as a ProofKernel record
that the energy, the incidence count, the line count and
build_proof_config() read.  bilinear_hist runs the kernel through the
sets module's pair counter, the enumeration behind combine, rep_fn and
f_image too, and returns its sets.Hist.  Up to p/8 cells (the sets
module's measured crossover) the sums of squares run over the sparse
counts and no length-p array is built; above, over the chunked dense
bincount as it stands.

The product shape also settles collinearity.  With the point set
R = T x PAIRS, where each slice t = const is a copy of the planar set
PAIRS,

    max_collinear(T x PAIRS) = max(|T|, max_collinear(PAIRS)).

A line inside one slice meets R only in that slice's copy of PAIRS.  Any
other line meets each slice at most once, so it holds at most |T| points,
and the line through one pair parallel to the t-axis holds exactly |T|.
ProofKernel.max_collinear() evaluates the right side:
O(|PAIRS|^2 log|PAIRS|) instead of O(|R|^2 log|R|), and R is never built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (BadParams, EmptySet, FieldMismatch, SizeCap, ZeroDivisor,
                     ZeroInA)
from .field import PrimeField
from .functions import FnTable
from .sets import FSet, Hist, _pair_count

VARIANTS = ("sum_E1", "sum_E2", "prod_E1", "prod_E2")

TRIPLES_CAP = 10_000_000
COLLINEAR_CAP = 20_000
MATERIALIZE_CAP = 1_000_000


@dataclass(frozen=True)
class IncidenceConfig:
    """A deduplicated point set and normalized plane set over one field.
    It answers incidences and max_collinear as a ProofKernel does."""
    field: PrimeField
    points: np.ndarray   # (n, 3) int64, unique rows, lexicographic order
    planes: np.ndarray   # (m, 4) int64, normalized, unique rows
    provenance: str = ""

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_planes(self) -> int:
        return len(self.planes)

    def incidences(self, cap: int | None = None) -> int:
        return incidences(self)  # uncapped: cap bounds a kernel's cells

    def max_collinear(self, cap: int = COLLINEAR_CAP) -> int:
        return max_collinear(self.points, self.field, cap=cap)


def normalize_planes(field: PrimeField, raw: np.ndarray) -> np.ndarray:
    """Scale each plane so its first nonzero (a,b,c) coefficient is 1, then
    deduplicate.  Rows with (a,b,c) = 0 are rejected."""
    p = field.p
    arr = np.asarray(raw, dtype=np.int64).reshape(-1, 4) % p
    abc = arr[:, :3]
    nz = abc != 0
    if not nz.any(axis=1).all():
        raise BadParams("plane with zero normal vector")
    lead_idx = np.argmax(nz, axis=1)
    lead = abc[np.arange(len(arr)), lead_idx]
    mult = field.inverses(lead)
    normalized = arr * mult[:, None] % p
    return np.unique(normalized, axis=0)


def make_config(field: PrimeField, points, planes,
                provenance: str = "") -> IncidenceConfig:
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 3) % field.p
    pts = np.unique(pts, axis=0)
    pls = normalize_planes(field, np.asarray(planes, dtype=np.int64))
    return IncidenceConfig(field, pts, pls, provenance)


def incidences(cfg: IncidenceConfig) -> int:
    """Exact |{(r, s) : r in R, s in S, r on s}|."""
    R, S = cfg.points, cfg.planes
    if len(R) == 0 or len(S) == 0:
        return 0
    p = cfg.field.p
    aug = np.concatenate(
        [R, np.ones((len(R), 1), dtype=np.int64)], axis=1).astype(np.float64)
    total = 0
    block = max(1, 8_000_000 // max(len(R), 1))
    Sf = S.astype(np.float64)
    for j in range(0, len(S), block):
        vals = aug @ Sf[j:j + block].T
        resid = np.rint(vals).astype(np.int64) % p
        total += int(np.count_nonzero(resid == 0))
    return total


def _direction_keys(d: np.ndarray, invert, p: int) -> np.ndarray:
    """One int key per direction row of d, equal exactly when the
    directions are parallel: scale each row by the inverse of its first
    nonzero coordinate, as invert(array) gives it, and read (x, y, z) in
    base p."""
    dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]
    lead = np.where(dx != 0, dx, np.where(dy != 0, dy, dz))
    canon = d * invert(lead)[:, None] % p
    return (canon[:, 0] * p + canon[:, 1]) * p + canon[:, 2]


def max_collinear(points: np.ndarray, field: PrimeField,
                  cap: int = COLLINEAR_CAP) -> int:
    """Largest number of points of R on one line, by exact direction
    canonicalization per anchor.  O(|R|^2 log |R|)."""
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 3)
    n = len(pts)
    if n == 0:
        raise EmptySet("max_collinear needs at least one point")
    if n > cap:
        raise SizeCap("max_collinear capped at |R| <= %d, got %d" % (cap, n))
    return _longest_line(pts, field,
                         batched=field.table_free(n * (n - 1) // 2))


def _longest_line(pts: np.ndarray, field: PrimeField, batched: bool) -> int:
    """max_collinear's scan of n >= 1 points.  batched keys the
    directions of all n(n-1)/2 pairs up front, with one batch of
    field.inverses; max_collinear takes it while that batch needs no
    length-p table.  Otherwise each anchor's directions are keyed as it
    is scanned, from the inverse table, in O(n) memory.  The two give the
    same keys."""
    n, p = len(pts), field.p
    if batched:
        # row i of the upper triangle holds anchor i's pairs, contiguously
        left, right = np.triu_indices(n, 1)
        d = (pts[right] - pts[left]) % p
        keys = _direction_keys(d, field.inverses, p)
        starts = np.r_[0, np.cumsum(np.arange(n - 1, 0, -1))]

        def anchor_keys(i):
            return keys[starts[i]:starts[i + 1]]
    else:
        invert = field.inv_table.__getitem__

        def anchor_keys(i):
            return _direction_keys((pts[i + 1:] - pts[i]) % p, invert, p)
    best = 1
    for i in range(n - 1):
        if n - 1 - i <= best - 1:
            break  # not enough points left to beat the current best
        keys_i = anchor_keys(i)
        keys_i.sort()
        edges = np.flatnonzero(keys_i[1:] != keys_i[:-1])
        run = int(np.diff(np.r_[-1, edges, len(keys_i) - 1]).max())
        best = max(best, 1 + run)
    return best


def rudnev_ratio(rec: IncidenceConfig | ProofKernel, cap: int = COLLINEAR_CAP,
                 triples_cap: int = TRIPLES_CAP) -> dict:
    """Report row: observed incidences against |R|^(1/2)|S| + k|S|, off
    either record; triples_cap bounds a ProofKernel's cells."""
    nr, ns = rec.n_points, rec.n_planes
    count = rec.incidences(triples_cap)
    k = rec.max_collinear(cap) if nr else 0
    bound = (nr ** 0.5) * ns + k * ns
    ratio = count / bound if bound > 0 else 0.0
    return {
        "provenance": rec.provenance,
        "n_points": nr,
        "n_planes": ns,
        "incidences": count,
        "max_collinear": k,
        "bound": bound,
        "ratio": ratio,
        "hyp_r_le_s": nr <= ns,
        "hyp_r_le_p2": nr <= rec.field.p ** 2,
    }


# -- proof configurations ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProofKernel:
    """One variant's kernel alpha*t + beta, as proof_kernel builds it: the
    pairs with multiplicity (alpha, beta), one per cell of the A x column
    grid, and the scalar set ts.  pairs, the deduplicated pairs, is kept
    once computed; every array is read-only, so it cannot go stale."""
    variant: str
    field: PrimeField
    alpha: np.ndarray
    beta: np.ndarray
    ts: np.ndarray

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        keys = np.unique(self.alpha * self.field.p + self.beta)
        ua, ub = np.divmod(keys, self.field.p)
        ua.flags.writeable = ub.flags.writeable = False
        return ua, ub

    @property
    def provenance(self) -> str:
        return self.variant

    @property
    def n_points(self) -> int:
        """|R| = |S| = |PAIRS| |T|: both are products of pairs and ts."""
        return len(self.pairs[0]) * len(self.ts)

    n_planes = n_points

    def energy(self, cap: int = TRIPLES_CAP) -> int:
        """The quad energy: sum_t H(t)^2 over the pairs with multiplicity."""
        return bilinear_hist(self.alpha, self.beta, self.ts, self.field.p,
                             cap).sum_squares()

    def incidences(self, cap: int = TRIPLES_CAP) -> int:
        """I(R, S): the same sum over the deduplicated pairs."""
        return bilinear_hist(*self.pairs, self.ts, self.field.p,
                             cap).sum_squares()

    def energy_and_incidences(self, cap: int = TRIPLES_CAP) -> tuple[int, int]:
        """(energy, incidences), enumerating the cells once when no pair
        repeats (g injective on A, say): then the histograms agree, E = I."""
        energy = self.energy(cap)
        once = len(self.pairs[0]) == len(self.alpha)
        return energy, energy if once else self.incidences(cap)

    def max_collinear(self, cap: int = COLLINEAR_CAP) -> int:
        """max_collinear(R) by the product identity above, with PAIRS in
        one slice as (0, alpha, beta) (the E2 shapes store -beta, an
        affine image).  The cap counts |T| |PAIRS|, the points of R, so
        SizeCap comes exactly where materializing R would raise it."""
        n = self.n_points
        if n > cap:
            raise SizeCap("max_collinear capped at |R| <= %d, got %d"
                          % (cap, n))
        if n == 0:
            raise EmptySet("max_collinear needs at least one point")
        plane = np.stack([np.zeros_like(self.pairs[0]), *self.pairs], axis=1)
        return max(len(self.ts), max_collinear(plane, self.field, cap=cap))


def proof_kernel(variant: str, a: FSet, x: FSet, third: FSet, g: FnTable,
                 h: FnTable) -> ProofKernel:
    """The ProofKernel record of a variant.

    E1 variants: pairs run over A x C (third = C), ts = X elements.
    E2 variants: pairs run over A x X, ts = f(A,B) elements (third = F).
    The pairs are the grid of one row per element of A, raveled.
    A point lies on a plane iff alpha*t + beta collides across the two
    product factors, and the quad energy is the same histogram taken with
    multiplicity.
    """
    if variant not in VARIANTS:
        raise BadParams("unknown variant %r" % variant)
    if not (a.field == x.field == third.field == g.field == h.field):
        raise FieldMismatch("mixed fields in proof config")
    if not a.is_zero_free:
        raise ZeroInA("0 in A")
    if variant in ("prod_E1", "prod_E2") and not x.is_zero_free:
        raise ZeroDivisor("prod variants need 0 not in X")
    p = a.field.p
    ae = a.elements()
    ga = g.values[ae].astype(np.int64)[:, None]  # int32 ga * ha would wrap
    ha = h.values[ae][:, None]
    if variant.endswith("E1"):
        col, ts = third.elements(), x.elements()
    else:
        col, ts = x.elements(), third.elements()
    # prod_E1 with 0 in C gives alpha = 0 pairs; those are still fine: the
    # plane rows carry a fixed -1 (E1) or +1 (E2) in the third slot, so
    # distinct raw planes are never scalar multiples of each other and the
    # kernel-collision identity does not care whether alpha vanishes.
    if variant == "sum_E1":
        alpha, beta = ga, ga * ((ha + col) % p) % p
    elif variant == "prod_E1":
        alpha, beta = ga * col % p, ga * ha % p
    elif variant == "sum_E2":
        alpha, beta = a.field.inverses(ga), -(ha + col) % p
    else:  # prod_E2
        inv_x = a.field.inverses(col)
        alpha = a.field.inverses(ga) * inv_x % p
        beta = -(ha * inv_x % p) % p
    grid = (len(ae), len(col))
    alpha, beta = (np.broadcast_to(v, grid).ravel() for v in (alpha, beta))
    ts = ts.view()  # read-only below; the set keeps its own array writeable
    alpha.flags.writeable = beta.flags.writeable = ts.flags.writeable = False
    return ProofKernel(variant, a.field, alpha, beta, ts)


def bilinear_hist(alpha: np.ndarray, beta: np.ndarray, ts: np.ndarray,
                  p: int, cap: int = TRIPLES_CAP) -> Hist:
    """Histogram of (alpha_i * t_j + beta_i) mod p over all (i, j), as a
    sets.Hist: read `values` and `counts`, or `dense` for the length-p
    array."""
    work = len(alpha) * len(ts)
    if work > cap:
        raise SizeCap("kernel histogram needs %d cells, cap is %d"
                      % (work, cap))
    return _pair_count(alpha, ts, beta, p)


def build_proof_config(variant: str, a: FSet, x: FSet, third: FSet,
                       g: FnTable, h: FnTable,
                       cap: int = MATERIALIZE_CAP) -> IncidenceConfig:
    """Materialize the point/plane sets of a proof configuration.

    sum_E1:  R = {(x, g(a'), g(a')(c'+h(a')))},
             S = {g(a) X - x' Y - Z + g(a)(c+h(a)) = 0}
    sum_E2:  R = {(F, 1/g(a'), h(a')+x')},
             S = {X/g(a) - F' Y + Z - (h(a)+x) = 0}
    prod_E1: R = {(x, g(a')c', g(a')h(a'))},
             S = {g(a)c X - x' Y - Z + g(a)h(a) = 0}
    prod_E2: R = {(F, 1/(g(a')x'), h(a')/x')},
             S = {X/(x g(a)) - F' Y + Z - h(a)/x = 0}
    """
    kern = proof_kernel(variant, a, x, third, g, h)
    if kern.n_points > cap:
        raise SizeCap("materializing %d points exceeds cap %d"
                      % (kern.n_points, cap))
    p, (ua, ub), ts = a.field.p, kern.pairs, kern.ts
    # one cell per point and per plane: (t, alpha, beta) gives the point
    # (t, alpha, beta) and the plane (alpha, -t, -1, beta) for E1 shapes,
    # (t, alpha, -beta) and (alpha, -t, +1, beta) for E2
    t, al, be = (np.repeat(ts, len(ua)), np.tile(ua, len(ts)),
                 np.tile(ub, len(ts)))
    e2 = variant in ("sum_E2", "prod_E2")
    points = np.stack([t, al, (-be) % p if e2 else be], axis=1)
    planes = np.stack([al, (-t) % p, np.full(len(t), 1 if e2 else p - 1),
                       be], axis=1)
    return make_config(a.field, points, planes, provenance=variant)
