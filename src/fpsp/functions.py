"""Tables for functions g, h : F_p^* -> F_p^* and the image f(A,B).

The two-variable maps under study all have the shape

    f(a, b) = g(a) * (h(a) + b),

so a function is just a flat int32 value table over F_p^* (index 0 unused;
entries are below p <= 2^20 < 2^31), 4 MB at p = 2^20.  A product of two
entries wraps in int32 with no warning, so each is taken in int64.  The
key structural quantity is the multiplicity mu(g): the largest fiber size
max_x |g^{-1}(x)|, optionally restricted to a domain set.  Its
whole-domain value is kept on the table, and mu(g*h) on g, as ints, so a
verification run counts each table's fibers once.  Constructors
reject any table that would take the value 0 on F_p^*.  The image f(A,B)
is the support of the sets module's pair counter, since
g(a)(h(a)+b) = g(a) b + g(a)h(a), in its sparse form for small |A||B|;
_unit_image is the same count for g = +-x, h = +-1, with no table at all.
Set and table files share the sets module's line format.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import (BadParams, FieldMismatch, ParseError, ZeroInA,
                     ZeroInCodomain)
from .field import PrimeField, _pow_ladder
from .rng import CounterRng
from .sets import (PAIR_CHUNK, FSet, _format_lines, _pair_count, _read_lines,
                   _reduce, _residues)

class FnTable:
    """A function F_p^* -> F_p^* as a read-only int32 table, one copy of
    values; entries reduce mod p exactly, non-integers raise BadParams.
    With copy=False an int32 array of residues is kept as it is (made
    read-only, slot 0 zeroed), so no other reference may write to it
    afterwards; make_fn hands over the arrays it builds that way."""

    __slots__ = ("field", "values", "label", "_mu", "_mu_product",
                 "__weakref__")

    def __init__(self, field: PrimeField, values: np.ndarray, label: str = "",
                 copy: bool = True):
        p = field.p
        if len(values) != p:
            raise BadParams("value table must have length p (index 0 unused)")
        vals = _residues(values, p, np.int32, copy)
        vals[0] = 0  # unused slot, normalized for equality checks
        if not vals[1:].all():
            raise ZeroInCodomain("function takes value 0 on F_p^*")
        vals.flags.writeable = False
        self.field, self.values, self.label = field, vals, label
        self._mu = None  # mu over all of F_p^*, once computed
        self._mu_product = None  # (weakref(h), mu(self*h)) of the last h

    def __call__(self, x: int) -> int:
        x %= self.field.p
        if x == 0:
            raise BadParams("function tables are defined on F_p^* only")
        return int(self.values[x])

    def __eq__(self, other) -> bool:
        return (isinstance(other, FnTable) and self.field == other.field
                and bool(np.array_equal(self.values, other.values)))

    def __hash__(self) -> int:
        return hash((self.field, self.values.tobytes()))

    def __repr__(self) -> str:
        return "FnTable(p=%d, %s)" % (self.field.p, self.label or "custom")


def make_fn(field: PrimeField, kind: str, *, c: int | None = None,
            k: int | None = None, u: int | None = None, v: int | None = None,
            seed: int | None = None, table: np.ndarray | None = None,
            instance_id: str | int | None = None) -> FnTable:
    """Build a function table.

    kind: const (c), identity, power (k), affine (u, v), random (seed),
    table (explicit values indexed 1..p-1 or 0..p-1).  affine, u x + v,
    maps into F_p^* only when exactly one of u and v is 0 mod p.
    """
    p = field.p
    if kind == "const":
        if c is None:
            raise BadParams("const needs c")
        if c % p == 0:
            raise ZeroInCodomain("const 0 is not a map into F_p^*")
        vals = np.full(p, c % p, dtype=np.int32)
        label = "const:%d" % (c % p)
    elif kind == "identity":
        vals = np.arange(p, dtype=np.int32)
        label = "id"
    elif kind == "power":
        if k is None:
            raise BadParams("power needs k")
        # x^k on F_p^*; negative k acts through the group, via exponent
        # reduction mod p-1.  The ladder squares its own arange in place.
        vals = _pow_ladder(np.arange(p, dtype=np.int64), k % (p - 1), p)
        label = "power:%d" % k
    elif kind == "affine":
        if u is None or v is None:
            raise BadParams("affine needs u and v")
        u, v = u % p, v % p  # before the int64 arithmetic
        if (u == 0) == (v == 0):  # 0 everywhere, or at x = -v/u
            raise ZeroInCodomain("affine:%d,%d takes the value 0 on F_p^*: "
                                 "exactly one of u and v must be 0 mod p"
                                 % (u, v))
        vals = np.arange(p, dtype=np.int64)  # in place: one int64 array
        vals *= u
        vals += v
        vals %= p
        label = "affine:%d,%d" % (u, v)
    elif kind == "random":
        if seed is None:
            raise BadParams("random needs seed")
        vals = np.zeros(p, dtype=np.int32)
        CounterRng(*_random_key(p, seed, instance_id)).fill(vals[1:], 1, p)
        label = "random:%d" % seed
    elif kind == "table":
        if table is None:
            raise BadParams("table kind needs values")
        vals = _residues(table, p, np.int32)
        if len(vals) == p - 1:
            vals = np.concatenate((vals[:1], vals))  # FnTable zeroes slot 0
        elif len(vals) != p:
            raise BadParams("table must list p-1 (or p) values")
        label = "table"
    else:
        raise BadParams("unknown function kind %r" % kind)
    return FnTable(field, vals, label, copy=False)  # every vals is new


def _random_key(p: int, seed: int, instance_id: str | int | None = None
               ) -> tuple:
    """The CounterRng (seed, instance_id) of make_fn(field, "random")."""
    return seed, instance_id if instance_id is not None else "fn:p=%d" % p


_SPEC_ARGS = {"id": (), "const": ("c",), "power": ("k",),
              "affine": ("u", "v"), "random": ("seed",)}


def fn_spec_args(spec: str) -> tuple[str, dict]:
    """The make_fn kind and keyword arguments, or ("file", {"path": ...}),
    of a spec in the grammar of the CLI and sweep configs, const:<c> | id |
    power:<k> | affine:<u>,<v> | random:<seed> | file:<path>.  Syntax
    only: no table is built, and make_fn refuses affine:<u>,<v> unless
    exactly one of u and v is 0 mod p.  Anything else raises ParseError."""
    if not isinstance(spec, str):
        raise ParseError("bad function spec %r" % (spec,))
    spec = spec.strip()
    kind, colon, arg = spec.partition(":")
    if kind == "file" and colon:
        return kind, {"path": arg}
    vals = arg.split(",") if colon else []
    if kind in _SPEC_ARGS and len(vals) == len(_SPEC_ARGS[kind]):
        try:
            return ("identity" if kind == "id" else kind,
                    dict(zip(_SPEC_ARGS[kind], map(int, vals))))
        except ValueError as exc:
            raise ParseError("bad function spec %r: %s" % (spec, exc))
    raise ParseError("bad function spec %r" % spec)


def parse_fn_spec(field: PrimeField, spec: str) -> FnTable:
    """The table of a spec in fn_spec_args's grammar."""
    kind, args = fn_spec_args(spec)
    try:
        return (read_fn_file(args["path"], field) if kind == "file"
                else make_fn(field, kind, **args))
    except (ValueError, BadParams) as exc:
        raise ParseError("bad function spec %r: %s" % (spec.strip(), exc))


def write_fn_file(path: str, fn: FnTable) -> None:
    with open(path, "w") as fh:
        fh.write(_format_lines(fn.field.p, fn.values[1:]))


def read_fn_file(path: str, field: PrimeField) -> FnTable:
    with open(path) as fh:
        _, rows = _read_lines(fh.read(), 1, field)
        vals = [v for _, (v,) in rows]
    if len(vals) != field.p - 1:
        raise ParseError("expected %d values, got %d" % (field.p - 1, len(vals)))
    return make_fn(field, "table", table=vals)


def _fiber_max(vals: np.ndarray) -> int:
    """Largest number of equal entries in vals (0 when vals is empty),
    counted over the values themselves, not over a length-p table."""
    if len(vals) == 0:
        return 0
    return int(np.unique(vals, return_counts=True)[1].max())


def _domain(fn: FnTable, domain: FSet) -> np.ndarray:
    """The elements of domain inside F_p^*, where tables are defined."""
    if domain.field != fn.field:
        raise FieldMismatch("domain over a different field")
    dom = domain.elements()
    return dom[dom > 0]


def mu(fn: FnTable, domain: FSet | None = None) -> int:
    """Largest fiber size of fn over the domain (default all of F_p^*).

    The whole-domain value is one count over the table (_count_max),
    computed once per table and kept on it (tables are read-only).  On a
    domain A the fibers are counted over the |A| values fn takes there."""
    if domain is not None:
        return _fiber_max(fn.values[_domain(fn, domain)])
    if fn._mu is None:
        fn._mu = _count_max(fn.values, fn.field.p)
    return fn._mu


def _count_max(vals: np.ndarray, p: int,
               times: np.ndarray | None = None) -> int:
    """Largest fiber over F_p^* of a length-p table (slot 0 unused), or
    with times of the products vals[x] * times[x] mod p.  The fibers are
    counted in one int64 array of length p, PAIR_CHUNK entries at a time
    (np.add.at), as _pair_count adds its chunks; the products are formed a
    chunk at a time too."""
    counts = np.zeros(p, dtype=np.int64)
    for i in range(1, p, PAIR_CHUNK):
        chunk = vals[i:i + PAIR_CHUNK]
        if times is not None:
            chunk = _reduce(np.multiply(chunk, times[i:i + PAIR_CHUNK],
                                        dtype=np.int64), p)
        np.add.at(counts, chunk, 1)
    return int(counts.max())


def mu_product(g: FnTable, h: FnTable, domain: FSet | None = None) -> int:
    """mu(g*h, domain), the largest fiber of x -> g(x)h(x) over the domain.

    On a domain A the fibers are counted over the |A| products g(a)h(a).
    The whole-domain value is one count over the products (_count_max).
    Only the int is kept, on g, for the last h it was paired with (a sweep
    instance pairs each g with one h), so no product table outlives the
    call and no table keeps more than one value.  A constant h (nonzero,
    as every table value is) keeps g's fibers, so then it is mu(g)."""
    if g.field != h.field:
        raise FieldMismatch("tables over different fields")
    if domain is not None:
        dom = _domain(g, domain)
        prod = np.multiply(g.values[dom], h.values[dom], dtype=np.int64)
        return _fiber_max(prod % g.field.p)
    hit = g._mu_product
    if hit is None or hit[0]() is not h:
        hv = h.values[1:]
        if hv.min() == hv.max():
            got = mu(g)
        else:
            got = _count_max(g.values, g.field.p, h.values)
        hit = g._mu_product = (weakref.ref(h), got)
    return hit[1]


def _image(a: FSet, b: FSet, ga: np.ndarray, gha: np.ndarray) -> FSet:
    """{ga_i * y + gha_i : i, y in B}, the rows i running over A's elements
    (g(a) and g(a)h(a) as arrays), after f_image's checks on A and B."""
    if not a.is_zero_free:
        raise ZeroInA("0 in A")
    if not b.is_zero_free:
        raise BadParams("0 in B; the maps need B inside F_p^*")
    return _pair_count(ga, b.elements(), gha, a.field.p,
                       support=True).support(a.field)


def f_image(g: FnTable, h: FnTable, a: FSet, b: FSet) -> FSet:
    """The image set f(A,B) = {g(a)(h(a)+b) : a in A, b in B}.

    A must avoid 0 (tables are defined on F_p^* only); B must too, per the
    maps under study, though values g(a)(h(a)+b) may legitimately be 0 when
    b = -h(a), and those values are kept.
    """
    if g.field != h.field or g.field != a.field or a.field != b.field:
        raise FieldMismatch("mixed fields in f_image")
    ae = a.elements()
    ga = g.values[ae].astype(np.int64)
    # g(a)(h(a) + b) = g(a) * b + g(a)h(a)
    return _image(a, b, ga, ga * h.values[ae] % a.field.p)


def _unit_image(a: FSet, b: FSet, sign: int) -> FSet:
    """{a(1 + sign*b) : a in A, b in B} for sign = 1 or -1: f_image with
    g = x, h = 1 (sign 1) or g = -x, h = -1 (sign -1), and the same checks,
    without building either length-p table."""
    if a.field != b.field:
        raise FieldMismatch("mixed fields in f_image")
    ae = a.elements()
    return _image(a, b, sign * ae % a.field.p, ae)
