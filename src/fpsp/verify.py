"""Exact inequality chains and ratio reports for the growth machinery.

Two strictly separated tiers:

  * EXACT checks (Check / ChainReport): inequalities the underlying
    arguments prove with constant 1 (Cauchy-Schwarz, Holder, termwise
    bounds, injective reparameterizations) or with an explicit constant
    (the 1/2 popularity threshold, the classical q^{1/2} incidence term).
    Every comparison is done on integers, cross-multiplied where the
    source statement has rational or fractional-power sides, so a pass
    flag is decided without any rounding.
  * REPORT rows (ReportRow / RatioRow): bounds with unspecified absolute
    constants or log factors.  These are never asserted; we record
    lhs / rhs so sweeps can watch the constant empirically.

The quad energies, solution counts and incidence configurations here all
ride on the shared bilinear kernel alpha*t + beta, read off the incidence
module's ProofKernel record: the energy is the second moment of the
kernel histogram taken with pair multiplicity, the incidence count is
the same second moment after deduplication, and E <= m^2 I is a termwise
multiplicity bound.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .energy import (energy_popular, level_counts, level_set, moment,
                     normalize_eps, popular_diff, popular_sum_core, rep_fn,
                     select_dyadic_k)
from .errors import (BadP, BadParams, EmptySet, FieldMismatch,
                     HypothesisViolated, SizeCap, ZeroDivisor)
from .functions import FnTable, _unit_image, f_image, mu, mu_product
from .incidence import COLLINEAR_CAP, TRIPLES_CAP, proof_kernel
from .sets import FSet, combine

# theorem id -> (the sets its statement reads, the operation it applies to
# B and C, or to A on the rows that read A alone; None on the rows about
# |A+A| and |AA|).  The CSV records 0 for the sizes of the other sets.
THEOREMS = {
    "HIS_1_1": ("a", None), "Vinh_1_2": ("a", None),
    "HH_1_1": ("abc", "prod"), "HH_1_2": ("abc", "sum"),
    "PM_1_3": ("abc", "prod"), "PM_1_4": ("abc", "sum"),
    "T_1_5": ("abcd", "diff"), "T_1_6": ("abcd", "sum"),
    "Cor_1_7": ("a", "sum"), "Cor_1_8": ("abc", "sum"),
    "T_1_9": ("abcd", "prod"), "Cor_1_10": ("a", "prod"),
    "Cor_1_11_Warren": ("abcd", "prod"), "Cor_mult": ("abc", "prod"),
    "T_1_12_threshold": ("a", None),
}

# chain name -> (its `fpsp verify` mode, that mode's one-line help, the
# inputs it reads in the mode's flag order, its call on an object holding
# those inputs as attributes).  Each call looks its chain function up in
# this module's globals when it runs, not when the table is built, so a
# rebinding of the module attribute (a profiler's timing wrapper, a test's
# monkeypatch) sees every call made through the table.
CHAINS = {name: (mode, about, tuple(reads.split()), call)
          for name, mode, about, reads, call in (
    ("lemma", "lemma-chain", "the fourth-moment chain",
     "A B C g h kind k triples_cap collinear_cap",
     lambda x: lemma_chain_check(x.A, x.B, x.C, x.g, x.h, x.kind, k=x.k,
                                 triples_cap=x.triples_cap,
                                 collinear_cap=x.collinear_cap)),
    ("n-chain", "n-chain", "shifted-difference count N for a given P",
     "B C P", lambda x: n_chain_check(x.B, x.C, x.P)),
    ("composite", "composite", "full N chain with Hoelder closure", "B C",
     lambda x: composite_N_check(x.B, x.C)),
    ("eplus", "eplus", "additive-energy transfer bound",
     "A B C g h triples_cap",
     lambda x: eplus_chain(x.A, x.B, x.C, x.g, x.h, cap=x.triples_cap)),
    ("phi", "phi", "popular-sum core machinery", "B C eps",
     lambda x: phi_chain(x.B, x.C, eps=x.eps)),
)}

PHI_CAP = 100
THRESHOLD_EPS_DEN_CAP = 10_000


# -- report plumbing ---------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One asserted comparison between exact integers."""

    name: str
    relation: str  # "<=", ">=" or "=="
    lhs: int
    rhs: int
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


_RELATIONS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


def _mk_check(name: str, relation: str, lhs: int, rhs: int,
              note: str = "") -> Check:
    if relation not in _RELATIONS:
        raise BadParams("unknown relation %r" % relation)
    return Check(name, relation, int(lhs), int(rhs),
                 bool(_RELATIONS[relation](lhs, rhs)), note)


@dataclass(frozen=True)
class ReportRow:
    """One unasserted comparison; ratio = lhs / rhs (or -1 when rhs <= 0,
    which keeps the serialized report valid JSON)."""

    name: str
    lhs: float
    rhs: float
    ratio: float
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _mk_row(name: str, lhs: float, rhs: float, note: str = "") -> ReportRow:
    if rhs > 0:
        ratio = float(lhs) / float(rhs)
    else:
        ratio = -1.0
        note = (note + "; " if note else "") + "rhs nonpositive"
    return ReportRow(name, float(lhs), float(rhs), ratio, note)


@dataclass
class ChainReport:
    """Outcome of one verification chain on one instance."""

    instance: dict
    checks: list
    rows: list

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {"instance": self.instance,
                "ok": self.ok,
                "checks": [c.to_dict() for c in self.checks],
                "rows": [r.to_dict() for r in self.rows]}


# -- quadruple energies ------------------------------------------------------


def quad_energy(variant: str, a: FSet, x: FSet, third: FSet, g: FnTable,
                h: FnTable, cap: int = TRIPLES_CAP) -> int:
    """E = sum_t N_t^2 for the variant's value map over its index triples.

    sum_E1:  v(a, x, c) = g(a)(x + c + h(a))    over A x X x C
    prod_E1: v(a, x, c) = g(a)(x c + h(a))      over A x X x C
    sum_E2:  w(a, x, F) = F/g(a) - x - h(a)     over A x X x f(A,B)
    prod_E2: w(a, x, F) = F/(g(a) x) - h(a)/x   over A x X x f(A,B)

    The variants are incidence.VARIANTS; third is C for the E1 shapes and
    the image set for the E2 shapes.  Every variant factors through its
    kernel record's alpha*t + beta, with the pairs taken WITH multiplicity.
    """
    return proof_kernel(variant, a, x, third, g, h).energy(cap)


def _mult(op: str, g: FnTable, h: FnTable, domain: FSet | None = None) -> int:
    """The multiplicity the proofs divide by: mu(g*h) for prod, mu(g) for
    sum and diff, over domain (default all of F_p^*)."""
    return mu_product(g, h, domain) if op == "prod" else mu(g, domain)


# -- solution counts ---------------------------------------------------------


def solution_count_M(a: FSet, b: FSet, c: FSet, x: FSet, kind: str) -> int:
    """M = |A| * sum_{x in X} r(x) with r the difference histogram of (B, C)
    for kind sum, the ratio histogram for kind prod: the number of
    solutions (a, b, c, x) in A x B x C x X of b - c = x resp. b/c = x."""
    if kind not in ("sum", "prod"):
        raise BadParams("kind must be sum or prod, got %r" % kind)
    if not (a.field == b.field == c.field == x.field):
        raise FieldMismatch("mixed fields in solution_count_M")
    if kind == "prod" and not x.is_zero_free:
        raise ZeroDivisor("prod kind needs 0 not in X")
    r = rep_fn(b, c, "difference" if kind == "sum" else "ratio")
    return a.size * int(r.hist.at(x.elements()).sum())


# -- the main energy chain ---------------------------------------------------


def lemma_chain_check(a: FSet, b: FSet, c: FSet, g: FnTable, h: FnTable,
                      kind: str, k="auto", triples_cap: int = TRIPLES_CAP,
                      collinear_cap: int = COLLINEAR_CAP) -> ChainReport:
    """Run the full fourth-moment chain on one instance, exactly.

    With f(a,y) = g(a)(h(a)+y), X = X_k the level set of r_{B-C} (sum) or
    r_{B/C} (prod), and M the solution count over A x B x C x X:

      M >= k |A| n_k                    termwise, r >= k on X_k
      M^2 <= |f(A,B)| E_1               Cauchy-Schwarz over image values
      M^2 <= |C| E_2                    Cauchy-Schwarz over C
      E_1 <= m^2 I(R_1, S_1)            pair multiplicity <= m
      E_2 <= m^2 I(R_2, S_2)
      E_4 == sum_k (k^4 - (k-1)^4) n_k  level-set reconstruction

    with m = mu(g) for kind sum and m = mu(g*h) for kind prod.  Two line
    bounds on R_1 are also asserted when the point set fits the cap: the
    plain max(|A|, |C|, n_k), and max(|A|, mu_A |C|, n_k) where mu_A
    restricts the fiber count to A.  The plain form can genuinely fail
    once mu_A >= 2 and h separates a fiber of g (the vertical direction
    then carries up to mu_A |C| points); it is kept as a falsifiable
    check rather than weakened silently.  Each kernel is built once, as
    an incidence.ProofKernel: E_i and I_i are read off it, and the line
    count k_obs = max(|X_k|, max_collinear(PAIRS)) off the first, so R_1
    is never built; collinear_cap still counts |X_k| |PAIRS|, the points
    of R_1, and above it the check becomes a collinear_R1_skipped row.

    Report rows carry the final fourth-moment bound
    m^4 min{|f|^3 |C|^2, |f|^2 |C|^3} log|A| / |A| (log base 2, floored
    at 1) and, when B = C, the self-shape m^4 |f|^2 |B|^3 log|A| / |A|.
    """
    if kind not in ("sum", "prod"):
        raise BadParams("kind must be sum or prod, got %r" % kind)
    if a.size == 0 or b.size == 0 or c.size == 0:
        raise EmptySet("chain needs nonempty A, B, C")
    if a.size > b.size:
        raise BadParams("chain needs |A| <= |B|")
    field = a.field
    m, mu_a = _mult(kind, g, h), _mult(kind, g, h, a)
    fimg = f_image(g, h, a, b)
    r = rep_fn(b, c, "difference" if kind == "sum" else "ratio")
    k_sel = select_dyadic_k(r) if k == "auto" else int(k)
    lv = level_set(r, k_sel)
    xk, n_k = lv.x, lv.n_k

    # M = |A| sum_{x in X_k} r(x), read off the histogram X_k came from
    counts = r.hist.counts
    bigm = a.size * int(counts[counts >= k_sel].sum())
    kern1 = proof_kernel(kind + "_E1", a, xk, c, g, h)
    kern2 = proof_kernel(kind + "_E2", a, xk, fimg, g, h)
    e1, i1 = kern1.energy_and_incidences(triples_cap)
    e2, i2 = kern2.energy_and_incidences(triples_cap)
    e4 = moment(r, 4)
    nlev = level_counts(r)
    recon = sum((j ** 4 - (j - 1) ** 4) * int(nlev[j])
                for j in range(1, len(nlev)))

    checks = [
        _mk_check("M_lower", ">=", bigm, k_sel * a.size * n_k,
                  "r >= k termwise on the level set"),
        _mk_check("M_sq_le_f_E1", "<=", bigm * bigm, fimg.size * e1,
                  "Cauchy-Schwarz over image values"),
        _mk_check("M_sq_le_C_E2", "<=", bigm * bigm, c.size * e2,
                  "Cauchy-Schwarz over C"),
        _mk_check("E1_le_m2_I1", "<=", e1, m * m * i1,
                  "pair multiplicity at most m"),
        _mk_check("E2_le_m2_I2", "<=", e2, m * m * i2,
                  "pair multiplicity at most m"),
        _mk_check("E4_level_recon", "==", e4, recon,
                  "Abel summation over level sets"),
    ]
    rows = []
    loga = max(1.0, math.log2(a.size))
    nf = fimg.size
    rhs_min = (m ** 4 * min(nf ** 3 * c.size ** 2, nf ** 2 * c.size ** 3)
               / a.size * loga)
    rows.append(_mk_row("E4_vs_lemma_bound", float(e4), rhs_min))
    if b == c:
        rhs_sq = m ** 4 * nf ** 2 * b.size ** 3 / a.size * loga
        rows.append(_mk_row("E4_vs_self_bound", float(e4), rhs_sq,
                            "B = C shape"))

    if n_k == 0:
        rows.append(_mk_row("collinear_R1_skipped", 0.0, 1.0,
                            "empty level set"))
    else:
        try:
            k_obs = kern1.max_collinear(collinear_cap)
            checks.append(_mk_check(
                "collinear_R1_literal", "<=", k_obs,
                max(a.size, c.size, n_k),
                "plain line bound; falsifiable when mu_A >= 2"))
            checks.append(_mk_check(
                "collinear_R1_mu", "<=", k_obs,
                max(a.size, mu_a * c.size, n_k),
                "fiber-corrected line bound"))
        except SizeCap:
            rows.append(_mk_row("collinear_R1_skipped",
                                float(n_k), float(collinear_cap),
                                "points above the collinearity cap"))

    instance = {
        "p": field.p, "kind": kind, "k": k_sel, "n_k": n_k,
        "na": a.size, "nb": b.size, "nc": c.size, "nf": nf,
        "m": m, "mu_a": mu_a, "g": g.label, "h": h.label,
        "M": bigm, "E1": e1, "E2": e2, "E4": int(e4), "I1": i1, "I2": i2,
    }
    return ChainReport(instance, checks, rows)


# -- shifted-difference machinery --------------------------------------------


def count_N_shifted(b: FSet, c: FSet, pset: FSet) -> dict:
    """N and mass for the shifted popular-difference system.

    n(c) = |{a in B : a - c in P}|; mass = sum_c n(c); N = |B| sum_c
    n(c)^2, the number of (a, b, c, d) in B x B x C x B with a - c and
    d - c in P (b is free, giving the |B| factor)."""
    if not (b.field == c.field == pset.field):
        raise FieldMismatch("mixed fields in count_N_shifted")
    be, ce = b.elements(), c.elements()
    p = b.field.p
    # Rows of B in chunks of about 4e6 cells, so memory stays bounded; the
    # same pass marks the support of B - C, and P within B - C is read at
    # the elements of P only, so no length-p array is scanned.
    seen = np.zeros(p, dtype=bool)
    nvec = np.zeros(len(ce), dtype=np.int64)
    chunk = max(1, 4_000_000 // max(len(ce), 1))
    for i in range(0, len(be), chunk):
        diffs = be[i:i + chunk, None] - ce
        diffs %= p
        seen[diffs] = True
        nvec += pset.mask[diffs].sum(axis=0)
        del diffs
    if not seen[pset.elements()].all():
        raise BadP("P is not contained in B - C")
    mass = int(nvec.sum())
    return {"N": b.size * int(np.dot(nvec, nvec)), "mass": mass}


def count_X(pset: FSet, b: FSet) -> int:
    """X = |{(x, y, u, v) in P^2 x D^2 : x - u = y - v}| with D = B - B as
    a set, i.e. the second moment of r_{P-D}; convolution route."""
    d = combine(b, b, "diff")
    if pset.size == 0 or d.size == 0:
        return 0
    return int(moment(rep_fn(pset, d, "difference"), 2))


def holder_weighted_sum(b: FSet, c: FSet) -> dict:
    """lhs = sum_x r_{B-B}(x)^3 r_{C-C}(x) exactly, against the fourth-
    moment majorant E_4(B)^{3/4} E_4(C)^{1/4}.

    The verdict is exact: lhs <= rhs iff lhs^4 <= E_4(B)^3 E_4(C), decided
    on big integers; the float rhs is reported alongside for reading."""
    rb = rep_fn(b, b, "difference")
    rc = rep_fn(c, c, "difference")
    _, ib, ic = np.intersect1d(rb.hist.values, rc.hist.values,
                               assume_unique=True, return_indices=True)
    lhs = sum(u ** 3 * v for u, v in zip(rb.hist.counts[ib].tolist(),
                                         rc.hist.counts[ic].tolist()))
    e4b = int(moment(rb, 4))
    e4c = int(moment(rc, 4))
    holds = lhs ** 4 <= e4b ** 3 * e4c
    rhs = float(e4b) ** 0.75 * float(e4c) ** 0.25
    return {"lhs": lhs, "rhs": rhs, "holds": bool(holds),
            "e4b": e4b, "e4c": e4c}


def composite_N_check(b: FSet, c: FSet) -> ChainReport:
    """The shifted-difference chain with P = the popular difference set.

      2 mass >= |B||C|              popularity with the explicit 1/2
      N |C| >= mass^2 |B|           Cauchy-Schwarz over the c-classes
      4 N >= |B|^3 |C|              the two combined
      N^2 <= X * S                  class Cauchy-Schwarz; the classes of
                                    quadruples are parameterized injectively
                                    by (x - u), landing in P - (B - B)
      S^4 <= E_4(B)^3 E_4(C)        Holder with exponents (4/3, 4)

    where S = sum_x r_{B-B}(x)^3 r_{C-C}(x).  The literal lower bound
    N >= |P|^2 |B| / |C| stays a report row (it needs r >= threshold on
    all of P times a count of distinct differences, which the popularity
    threshold alone does not give with constant 1)."""
    if b.size == 0 or c.size == 0:
        raise EmptySet("composite chain needs nonempty sets")
    pset = popular_diff(b, c)
    nm = count_N_shifted(b, c, pset)
    bigN, mass = nm["N"], nm["mass"]
    bigX = count_X(pset, b)
    hw = holder_weighted_sum(b, c)
    s_weight = hw["lhs"]
    checks = [
        _mk_check("popular_mass", ">=", 2 * mass, b.size * c.size,
                  "each discarded difference is below half average"),
        _mk_check("N_cauchy_schwarz", ">=", bigN * c.size,
                  mass * mass * b.size),
        _mk_check("N_cube_lower", ">=", 4 * bigN, b.size ** 3 * c.size),
        _mk_check("N_sq_le_X_S", "<=", bigN * bigN, bigX * s_weight,
                  "injective class parameterization"),
        _mk_check("holder_quartic", "<=", s_weight ** 4,
                  hw["e4b"] ** 3 * hw["e4c"]),
    ]
    rows = [
        _mk_row("N_vs_P_sq_bound", float(bigN),
                pset.size ** 2 * b.size / c.size if c.size else 0.0,
                "literal popular-set lower bound, constant unspecified"),
        _mk_row("holder_float", float(s_weight), hw["rhs"]),
    ]
    instance = {"p": b.field.p, "nb": b.size, "nc": c.size,
                "nP": pset.size, "mass": mass, "N": bigN, "X": bigX,
                "S": s_weight, "E4B": hw["e4b"], "E4C": hw["e4c"]}
    return ChainReport(instance, checks, rows)


def n_chain_check(b: FSet, c: FSet, pset: FSet | None = None) -> ChainReport:
    """count_N_shifted plus the consequences valid for the given P.

    With the default P (the popular difference set) the full mass chain
    is asserted; with a caller-supplied P only Cauchy-Schwarz over the
    c-classes (N |C| >= mass^2 |B|) holds unconditionally, so the two
    popularity inequalities are demoted to report rows.
    """
    if b.size == 0 or c.size == 0:
        raise EmptySet("n-chain needs nonempty sets")
    default_p = pset is None
    if default_p:
        pset = popular_diff(b, c)
    nm = count_N_shifted(b, c, pset)
    bigN, mass = nm["N"], nm["mass"]
    checks = [_mk_check("N_cauchy_schwarz", ">=", bigN * c.size,
                        mass * mass * b.size)]
    rows = []
    if default_p:
        checks.append(_mk_check("popular_mass", ">=", 2 * mass,
                                b.size * c.size))
        checks.append(_mk_check("N_cube_lower", ">=", 4 * bigN,
                                b.size ** 3 * c.size))
    else:
        rows.append(_mk_row("popular_mass", 2.0 * mass,
                            float(b.size * c.size),
                            "only guaranteed for the popular P"))
        rows.append(_mk_row("N_cube_lower", 4.0 * bigN,
                            float(b.size ** 3 * c.size),
                            "only guaranteed for the popular P"))
    instance = {"p": b.field.p, "nb": b.size, "nc": c.size,
                "nP": pset.size, "default_P": default_p,
                "mass": mass, "N": bigN}
    return ChainReport(instance, checks, rows)


def eplus_chain(a: FSet, b: FSet, c: FSet, g: FnTable, h: FnTable,
                cap: int = TRIPLES_CAP) -> ChainReport:
    """The additive-energy transfer step.  With D = B - C as a set and
    W the sum_E2 quad energy of (A, D, f(A,B)):

      |A|^2 E^+(B, D) <= W   exactly,

    because (a1, a2, b1, b2, d1, d2) with b1 - d1 = b2 - d2 maps
    injectively to a kernel collision via F_i = g(a_i)(h(a_i) + b_i),
    where b_i is recovered as F_i/g(a_i) - h(a_i).  Report rows compare
    E^+(B, D) against m^2 |f|^{3/2} |D|^{3/2} / |A|^{1/2} and the
    popular-difference X count against m^4 |D|^4 |f|^3 / (|B|^2 |C|^2 |A|),
    both with unspecified constants in the source."""
    if a.size == 0 or b.size == 0 or c.size == 0:
        raise EmptySet("eplus chain needs nonempty sets")
    d = combine(b, c, "diff")
    fimg = f_image(g, h, a, b)
    eplus = int(moment(rep_fn(b, d, "difference"), 2))
    w = quad_energy("sum_E2", a, d, fimg, g, h, cap=cap)
    m = mu(g)
    checks = [
        _mk_check("A2_eplus_le_W", "<=", a.size ** 2 * eplus, w,
                  "injective lift of additive quadruples"),
    ]
    rows = [
        _mk_row("eplus_vs_image_bound", float(eplus),
                m ** 2 * fimg.size ** 1.5 * d.size ** 1.5 / a.size ** 0.5),
    ]
    pset = popular_diff(b, c)
    bigX = count_X(pset, b)
    rows.append(_mk_row(
        "X_vs_image_bound", float(bigX),
        m ** 4 * d.size ** 4 * fimg.size ** 3
        / (b.size ** 2 * c.size ** 2 * a.size)))
    instance = {"p": a.field.p, "na": a.size, "nb": b.size, "nc": c.size,
                "nD": d.size, "nf": fimg.size, "m": m,
                "Eplus": eplus, "W": w, "X": bigX}
    return ChainReport(instance, checks, rows)


# -- popular-sum machinery ---------------------------------------------------


def phi_count(b: FSet, c: FSet, pset: FSet, pprime: FSet) -> int:
    """phi = |{(a, bb, cc, d) in B x C x C x B : bb - cc in P' and
    a+bb, a+cc, d+cc, d+bb all in P}|.

    Factored: phi = sum over pairs (bb, cc) with bb - cc in P' of
    q(bb, cc)^2 where q = |{a in B : a+bb in P, a+cc in P}|, computed as
    a boolean Gram matrix."""
    if not (b.field == c.field == pset.field == pprime.field):
        raise FieldMismatch("mixed fields in phi_count")
    if b.size > PHI_CAP or c.size > PHI_CAP:
        raise SizeCap("phi_count capped at |B|, |C| <= %d" % PHI_CAP)
    be, ce = b.elements(), c.elements()
    if len(be) == 0 or len(ce) == 0:
        return 0
    p = b.field.p
    hit = pset.mask[(be[:, None] + ce[None, :]) % p].astype(np.int64)
    gram = hit.T @ hit  # q(bb, cc) indexed by positions in ce
    sel = pprime.mask[(ce[:, None] - ce[None, :]) % p]
    return int((gram[sel] ** 2).sum())


def phi_chain(b: FSet, c: FSet, eps=None) -> ChainReport:
    """The popular-sum core machinery on (B, C).

    P = popular sums of C at threshold eps, C' the core of elements whose
    sums mostly land in P, (Delta', P') the dominant dyadic bucket of
    r_{C'-C'} for the 4/3 energy, phi the quadruple count over B and C'.

    EXACT: sum_{x in P} r_{C+C}(x) >= (1-eps)|C|^2 (every discarded sum
    is below the eps-average, cross-multiplied); bucket integrity
    Delta' <= r_{C'-C'} <= 2 Delta' - 1 on P'; termwise
    E_{4/3}(C') >= the P' part of the sum.

    REPORT: |C'| against (1-eps)|C| (the proofs assume it; the threshold
    alone gives only a vacuous bound), phi against
    (1-4 eps)|P'| Delta' |B|^2, E_{4/3}(C') against E_{4/3}(C), and
    |P'| Delta'^{4/3} against E_{4/3}(C') (the dyadic pigeonhole drops a
    log factor)."""
    if b.size == 0 or c.size == 0:
        raise EmptySet("phi chain needs nonempty sets")
    if b.size > PHI_CAP or c.size > PHI_CAP:
        raise SizeCap("phi chain capped at |B|, |C| <= %d" % PHI_CAP)
    eps = normalize_eps(eps, c.size)
    num, den = eps.numerator, eps.denominator
    pset, core = popular_sum_core(c, eps)
    kept = int(rep_fn(c, c, "sum").hist.at(pset.elements()).sum())
    checks = [
        _mk_check("popular_sum_pairs", ">=", den * kept,
                  (den - num) * c.size * c.size,
                  "discarded sums are each below the eps-average"),
    ]
    rows = [
        _mk_row("core_size_vs_C", float(core.size),
                float(den - num) / den * c.size,
                "assumed in the source; not implied by the threshold"),
    ]
    instance = {"p": c.field.p, "nb": b.size, "nc": c.size,
                "eps": str(eps), "nP": pset.size, "n_core": core.size}
    if core.size == 0:
        rows.append(_mk_row("phi_skipped", 0.0, 1.0, "empty core"))
        return ChainReport(instance, checks, rows)
    rcore = rep_fn(core, core, "difference")
    delta, pprime = energy_popular(rcore, Fraction(4, 3))
    on_bucket = rcore.hist.at(pprime.elements())
    checks.append(_mk_check("bucket_low", ">=", int(on_bucket.min()), delta,
                            "dyadic bucket lower edge"))
    checks.append(_mk_check("bucket_high", "<=", int(on_bucket.max()),
                            2 * delta - 1, "dyadic bucket upper edge"))
    e43_core = moment(rcore, Fraction(4, 3))
    e43_full = moment(rep_fn(c, c, "difference"), Fraction(4, 3))
    phi = phi_count(b, core, pset, pprime)
    rows.append(_mk_row("E43_core_vs_bucket", e43_core,
                        pprime.size * float(delta) ** (4.0 / 3.0),
                        "termwise once the bucket edges hold"))
    rows.append(_mk_row("E43_core_vs_full", e43_core, e43_full,
                        "external comparison lemma, constant unspecified"))
    rows.append(_mk_row("phi_vs_popular_bound", float(phi),
                        float(den - 4 * num) / den
                        * pprime.size * delta * b.size ** 2))
    instance.update({"delta": delta, "nP_prime": pprime.size, "phi": phi})
    return ChainReport(instance, checks, rows)


# -- theorem ratio rows -------------------------------------------------------


@dataclass
class ThmInstance:
    """Input bundle for one ratio row.  b, c, d default to a; g2, h2
    default to g, h (same map on both wings)."""

    a: FSet
    b: FSet | None = None
    c: FSet | None = None
    d: FSet | None = None
    g: FnTable | None = None
    h: FnTable | None = None
    g2: FnTable | None = None
    h2: FnTable | None = None
    family: str = ""
    seed: int = 0
    eps: Fraction = Fraction(1, 10)


CSV_HEADER = "theorem,p,family,seed,|A|,|B|,|C|,|D|,m,lhs,rhs,ratio,hyp_ok"


def _csv_row(row: dict) -> str:
    """One ratio row, given as RatioRow.to_dict(), in CSV_HEADER's columns."""
    return "%s,%d,%s,%d,%d,%d,%d,%d,%d,%d,%.10g,%.10g,%s" % (
        row["theorem"], row["p"], row["family"], row["seed"], row["na"],
        row["nb"], row["nc"], row["nd"], row["m"], row["lhs"], row["rhs"],
        row["ratio"], "true" if row["hyp_ok"] else "false")


@dataclass
class RatioRow:
    """One theorem instance: lhs is the max-term computed exactly, rhs the
    exponent formula from the recorded sizes with constants and logs
    dropped.  relation says which way the source statement points
    ("lower": lhs should dominate rhs; "upper": lhs is bounded by rhs).
    Unused size columns are recorded as 0."""

    theorem: str
    p: int
    family: str
    seed: int
    na: int
    nb: int
    nc: int
    nd: int
    m: int
    lhs: int
    rhs: float
    ratio: float
    hyp_ok: bool
    relation: str = "lower"
    exact_pass: bool | None = None
    extras: dict = dc_field(default_factory=dict)

    def csv_line(self) -> str:
        return _csv_row(self.to_dict())

    def to_dict(self) -> dict:
        """The fields by name, leaving out a None exact_pass and empty
        extras."""
        out = asdict(self)
        if out["exact_pass"] is None:
            del out["exact_pass"]
        if not out["extras"]:
            del out["extras"]
        return out


def theorem_ratio(theorem_id: str, inst: ThmInstance,
                  strict: bool = False) -> RatioRow:
    """Build the RatioRow for one theorem id on one instance.

    Hypotheses are evaluated exactly (fractional-power size conditions by
    cross-powering integers) and recorded in hyp_ok; the row is emitted
    either way unless strict is set, in which case a violated hypothesis
    raises HypothesisViolated.  The second classical bound
    |A|^2 <= mn|A|/q + (qmn)^{1/2} holds unconditionally and is the one
    row asserted exactly (exact_pass); everything else is report-only.
    """
    if theorem_id not in THEOREMS:
        raise BadParams("unknown theorem id %r" % theorem_id)
    used, op = THEOREMS[theorem_id]
    a = inst.a
    p = a.field.p
    b = inst.b if inst.b is not None else a
    c = inst.c if inst.c is not None else a
    d = inst.d if inst.d is not None else a
    g, h = inst.g, inst.h
    g2 = inst.g2 if inst.g2 is not None else g
    h2 = inst.h2 if inst.h2 is not None else h
    if a.size == 0 or b.size == 0 or c.size == 0 or d.size == 0:
        raise BadParams("theorem_ratio needs nonempty sets")
    missing = [nm for nm in ("g", "h") if getattr(inst, nm) is None]
    if missing and theorem_id not in ("HIS_1_1", "Vinh_1_2",
                                      "Cor_1_11_Warren"):
        raise BadParams("theorem instance needs %s" % missing[0])
    na, nb, nc, nd = a.size, b.size, c.size, d.size

    # p^{3/5} and p^{5/8} size hypotheses, decided by cross-powering
    def le35(n: int) -> bool:
        return n ** 5 <= p ** 3

    def le58(n: int) -> bool:
        return n ** 8 <= p ** 5

    relation = "lower"
    exact_pass = None
    m = 0
    hyp_ok = True

    if op is None:  # the rows on |A+A| and |AA|
        if theorem_id == "T_1_12_threshold":
            eps = Fraction(inst.eps)
            if not 0 < eps < 1:
                raise BadParams("threshold eps must be in (0,1), got %s"
                                % eps)
            num, den = eps.numerator, eps.denominator
            # the conditions below raise sizes to the 8*den-th power
            if den > THRESHOLD_EPS_DEN_CAP:
                raise BadParams("threshold eps needs a denominator <= %d, "
                                "got %s" % (THRESHOLD_EPS_DEN_CAP, eps))
            fimg = f_image(g, h, a, a)
        ms = combine(a, a, "sum").size
        np_ = combine(a, a, "prod").size
        extras = {"n_sumset": ms, "n_prodset": np_}
    else:
        # the image f(A, B), and f(D, C) under g2, h2 on the rows that read
        # D, against B op C; the rows that read A alone put A for B and C
        left, right = (a, a) if used == "a" else (b, c)
        if theorem_id == "Cor_1_11_Warren":
            # f(A, B) with g = x, h = 1 and f(D, C) with g = -x, h = -1,
            # and no multiplicity factor
            images = [_unit_image(a, b, 1), _unit_image(d, c, -1)]
            mults = [1]
        else:
            images = [f_image(g, h, a, left)]
            mults = [_mult(op, g, h)]
            if "d" in used:
                images.append(f_image(g2, h2, d, c))
                mults.append(_mult(op, g2, h2))
        n_bc = combine(left, right, op).size
        m = max(mults)
        sizes = [f.size for f in images]
        lhs = max(*sizes, n_bc)
        names = ("n_image",) if len(sizes) == 1 else ("n_image1", "n_image2")
        extras = dict(zip(names, sizes), n_combined=n_bc)

    if theorem_id in ("HIS_1_1", "Vinh_1_2"):
        relation = "upper"
        if theorem_id == "HIS_1_1":
            lhs = na ** 3
            rhs = ms ** 2 * np_ * na / p + math.sqrt(p) * ms * np_
        else:
            lhs = na ** 2
            rhs = ms * np_ * na / p + math.sqrt(p * ms * np_)
            t = p * na ** 2 - ms * np_ * na
            exact_pass = t <= 0 or t * t <= p ** 3 * ms * np_
    elif theorem_id == "T_1_12_threshold":
        mn = min(ms, np_)
        m = mu(g)
        # statement reading: min <= |A|^{6/5-eps} forces
        # |f| >> |A|^{8/5-3/25+2eps/5}
        cond_stmt = mn ** (5 * den) <= na ** (6 * den - 5 * num)
        # proof reading: threshold 9/8-eps, conclusion 13/10+4eps/5
        cond_proof = mn ** (8 * den) <= na ** (9 * den - 8 * num)
        lhs = fimg.size
        rhs = na ** (37 / 25 + 2 * float(eps) / 5)
        rhs_proof = na ** (13 / 10 + 4 * float(eps) / 5)
        hyp_ok = le35(na) and cond_stmt
        extras.update({"eps": str(eps), "n_image": fimg.size,
                       "cond_statement": bool(cond_stmt),
                       "cond_proof": bool(cond_proof),
                       "rhs_proof": rhs_proof,
                       "ratio_proof": lhs / rhs_proof})
    elif theorem_id in ("HH_1_1", "HH_1_2"):
        lhs = sizes[0] * n_bc
        rhs = min(na * nb ** 2 * nc / (p * m * m), p * nb / m)
    elif theorem_id in ("PM_1_3", "PM_1_4"):
        rhs = min(
            na ** 0.2 * nb ** 0.8 * nc ** 0.2 / m ** 0.8,
            nb * nc ** 0.5 / m,
            nb * na ** 0.5 / m,
            nb ** (2 / 3) * nc ** (1 / 3) * na ** (1 / 3) / m ** (2 / 3))
        hyp_ok = le58(na) and le58(nb) and le58(nc)
    elif "d" in used:  # T_1_5, T_1_6, T_1_9 and Warren's T_1_9 shape
        if theorem_id == "T_1_5":
            rhs = (nb ** (23 / 36) * nc ** (13 / 36) * na ** (7 / 36)
                   * nd ** (1 / 36) / m ** (8 / 9))
        else:
            rhs = (nc ** (5 / 18) * nb ** (13 / 18) * na ** (1 / 6)
                   * nd ** (1 / 18) / m ** (8 / 9))
        hyp_ok = na <= nb and nd <= nc and le35(nb) and le35(nc)
        if theorem_id == "T_1_6":
            extras["mu_equal"] = mults[0] == mults[1]
            hyp_ok = hyp_ok and extras["mu_equal"]
    elif used == "a":  # Cor_1_7, Cor_1_10
        rhs = na ** (11 / 9)
        hyp_ok = le35(na)
    else:  # Cor_1_8, Cor_mult
        rhs = (nc ** (5 / 18) * nb ** (13 / 18) * na ** (2 / 9)
               / m ** (8 / 9))
        hyp_ok = na <= nb and na <= nc and le35(nb) and le35(nc)
    if theorem_id in ("Cor_1_7", "Cor_1_8"):
        # the same max with A - A (B - C) in place of A + A (B + C)
        n_diff = combine(left, right, "diff").size
        extras["lhs_diff"] = max(sizes[0], n_diff)
        if theorem_id == "Cor_1_7":
            extras["n_diffset"] = n_diff
            rhs_diff = rhs
        else:
            rhs_diff = extras["rhs_diff"] = (
                nb ** (23 / 36) * nc ** (13 / 36) * na ** (2 / 9)
                / m ** (8 / 9))
        extras["ratio_diff"] = extras["lhs_diff"] / rhs_diff

    if strict and not hyp_ok:
        raise HypothesisViolated("%s hypotheses fail on this instance"
                                 % theorem_id)
    return RatioRow(
        theorem=theorem_id, p=p, family=inst.family, seed=inst.seed,
        na=na, nb=nb if "b" in used else 0, nc=nc if "c" in used else 0,
        nd=nd if "d" in used else 0, m=m, lhs=int(lhs), rhs=float(rhs),
        ratio=float(lhs) / float(rhs), hyp_ok=bool(hyp_ok),
        relation=relation, exact_pass=exact_pass, extras=extras)
