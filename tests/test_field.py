"""Field construction, primality, the three lazy tables, and the
table-free array inverses and powers."""

import numpy as np
import pytest

from fpsp.errors import BadParams, NotPrime, TooSmall, ZeroInverse
from fpsp.field import (DEFAULT_MAX_P, PrimeField, _pow_ladder, factorize,
                        is_prime, make_field, powmod)
from fpsp.rng import CounterRng


def test_is_prime_small_and_carmichael():
    primes = {2, 3, 5, 7, 11, 13, 101, 257, 1009, 65537, 998244353}
    for n in primes:
        assert is_prime(n), n
    for n in (0, 1, 4, 6, 9, 561, 1105, 1729, 25326001, 1048575):
        # 561, 1105, 1729 are Carmichael numbers; Miller-Rabin with the
        # fixed witness list must still reject them.
        assert not is_prime(n), n


def test_factorize_recombines():
    for n in (2, 12, 100, 1008, 65536, 1048572, 999983):
        fac = factorize(n)
        prod = 1
        for q, e in fac.items():
            assert is_prime(q), (n, q)
            prod *= q ** e
        assert prod == n, n


def test_make_field_validation():
    with pytest.raises(TooSmall):
        make_field(2)
    with pytest.raises(NotPrime):
        make_field(9)
    with pytest.raises(NotPrime):
        make_field(561)
    # largest prime below the cap is fine; anything above is refused
    # before the primality check even runs
    assert make_field(1048573).p == 1048573
    with pytest.raises(BadParams):
        make_field(1048583)  # prime, but > 2^20


def test_env_cap_lowers_never_raises(monkeypatch):
    monkeypatch.setenv("FPSP_MAX_P", "1000")
    with pytest.raises(BadParams):
        make_field(1009)
    assert make_field(997).p == 997
    # a nonsense value falls back to the default, and the env cannot
    # raise the cap past the compiled-in bound
    monkeypatch.setenv("FPSP_MAX_P", "lots")
    assert make_field(1009).p == 1009
    monkeypatch.setenv("FPSP_MAX_P", str(1 << 40))
    with pytest.raises(BadParams):
        make_field(1048583)


def test_primitive_root_generates():
    for p in (3, 5, 7, 101, 257, 1009):
        f = make_field(p)
        powt = f.pow_table
        assert len(powt) == p - 1
        assert powt[0] == 1
        # the orbit of the root is all of F_p^*
        assert len(set(powt.tolist())) == p - 1
        assert set(powt.tolist()) == set(range(1, p))


def _scalar_tables(p, g):
    """The three tables by one sequential pass: the oracle for the build."""
    powt = np.empty(p - 1, dtype=np.int64)
    acc = 1
    for e in range(p - 1):
        powt[e] = acc
        acc = acc * g % p
    dlog = np.full(p, -1, dtype=np.int64)
    dlog[powt] = np.arange(p - 1, dtype=np.int64)
    inv = np.zeros(p, dtype=np.int64)
    inv[powt] = powt[(-np.arange(p - 1, dtype=np.int64)) % (p - 1)]
    return powt, dlog, inv


def test_tables_match_scalar_build():
    for p in (3, 5, 101, 65537, 1048573):
        f = make_field(p)
        want = _scalar_tables(p, f.root)
        got = (f.pow_table, f.dlog_table, f.inv_table)
        for name, w, t in zip(("pow", "dlog", "inv"), want, got):
            assert t.dtype == np.int32 and t.shape == w.shape, (p, name)
            assert np.array_equal(t, w), (p, name)


def test_tables_are_read_only():
    f = make_field(101)
    for table in (f.pow_table, f.dlog_table, f.inv_table):
        with pytest.raises(ValueError):
            table[1] = 0
    assert f.inv_table[1] == 1 and f.pow_table[1] == f.root


def test_dlog_pow_roundtrip():
    f = make_field(257)
    for e in range(256):
        assert f.dlog(int(f.pow_table[e])) == e
    assert f.dlog_table[0] == -1
    with pytest.raises(ZeroInverse):
        f.dlog(0)


def test_inverse_table_and_scalar():
    f = make_field(101)
    inv = f.inv_table
    assert inv[0] == 0
    for x in range(1, 101):
        assert x * int(inv[x]) % 101 == 1, x
        assert f.inverse(x) == int(inv[x])
    with pytest.raises(ZeroInverse):
        f.inverse(0)
    with pytest.raises(ZeroInverse):
        f.inverse(101)  # canonical residue of 101 is 0


def test_pow_negative_exponent():
    f = make_field(101)
    for x in (1, 2, 50, 100):
        assert f.pow(x, -1) == f.inverse(x)
        assert f.pow(x, -3) * f.pow(x, 3) % 101 == 1
    assert f.pow(7, 0) == 1


def test_field_equality_and_hash():
    a, b = make_field(101), make_field(101)
    assert a == b and hash(a) == hash(b)
    assert a != make_field(103)
    assert PrimeField(101, 3) != a or a.root == 3


def test_default_cap_is_2_to_20():
    assert DEFAULT_MAX_P == 1 << 20


@pytest.mark.parametrize("p", [101, 1009, 1048573])
def test_inverses_and_powers_match_tables(p):
    # The ladder and the table route give the tables' values bit for bit,
    # on 0, 1 and p-1 (exponents 0, 1 and p-2), empty and 2-D requests.
    ref = make_field(p)
    inv, powt = ref.inv_table, ref.pow_table
    if p < 2000:
        xs, es = np.arange(p, dtype=np.int64), np.arange(p - 1)
    else:
        draws = CounterRng(p, "inverses-vs-tables").integers(0, p - 1, 300)
        xs = np.r_[0, 1, p - 1, draws]
        es = np.r_[0, 1, p - 2, draws]
    assert np.array_equal(powmod(xs, p - 2, p), inv[xs])
    assert np.array_equal(powmod(ref.root, es, p), powt[es])
    for want, ask, arg in ((inv, "inverses", xs), (powt, "powers", es)):
        for shaped in (arg, arg[:0], arg[:0].reshape(0, 3),
                       arg[:len(arg) // 6 * 6].reshape(-1, 6),
                       arg[:3], arg[:3].reshape(3, 1)):
            for f in (make_field(p), ref):  # fresh, then with tables
                got = getattr(f, ask)(shaped)
                assert got.dtype == np.int64 and got.shape == shaped.shape
                assert np.array_equal(got, want[shaped]), (ask, shaped.shape)


def test_small_requests_build_no_tables():
    p = 1048573
    f = make_field(p)
    assert f.table_free(p // 64) and not f.table_free(p // 64 + 1)
    f.inverses(np.arange(p // 64))
    f.powers(np.arange(p // 64))
    assert f._pow_table is None
    # a large request builds the power and dlog tables, and from then on
    # every request reads them; the inverse table waits for its own read
    f.inverses(np.arange(p // 64 + 1))
    assert f._pow_table is not None and f._dlog_table is not None
    assert not f.table_free(1)
    assert f._inv_table is None
    f.inv_table
    assert f._inv_table is not None


@pytest.mark.parametrize("p", [101, 1048573])
def test_tabled_inverses_need_no_inverse_table(p):
    # with the power and dlog tables built, inverses reads g^(-dlog x) off
    # them and builds no inverse table
    f = make_field(p)
    f.pow_table
    draws = CounterRng(p, "tabled-inverses").integers(0, p, 200)
    xs = np.r_[0, 1, p - 1, draws]
    for shaped in (xs, xs[:0], xs[:3].reshape(3, 1)):
        got = f.inverses(shaped)
        assert got.dtype == np.int64 and got.shape == shaped.shape
        assert np.array_equal(got, powmod(shaped, p - 2, p))
    assert f._inv_table is None


def test_powmod_scalar_and_array_exponents():
    p = 1009
    xs = np.arange(p, dtype=np.int64)
    for e in (0, 1, 2, 7, p - 2, p - 1, 3 * p):
        want = np.array([pow(x, e, p) for x in range(p)], dtype=np.int64)
        assert np.array_equal(powmod(xs, e, p), want), e
        assert np.array_equal(powmod(xs, np.full(p, e), p), want), e


def test_powmod_leaves_its_input_unchanged():
    # The scalar ladder multiplies and reduces in place, on the copy its
    # entry `% p` makes; the caller's array, reduced or not, int64 or not,
    # is never written.
    p = 1009
    for xs in (np.arange(p, dtype=np.int64), np.arange(3 * p) - p,
               np.arange(p, dtype=np.int32)):
        before = xs.copy()
        for e in (0, 1, 5, p - 2, np.full(xs.shape, 5)):
            got = powmod(xs, e, p)
            assert np.array_equal(xs, before) and xs.dtype == before.dtype
            assert got is not xs and not np.shares_memory(got, xs)


def test_pow_ladder_allocates_only_the_product():
    # make_fn's power table hands the scalar ladder an arange nothing else
    # reads; the ladder squares it in place and allocates only the product.
    # The test holds base through the call, as a CPython 3.10 caller's value
    # stack holds an argument, so the bound does not depend on how the
    # interpreter passes arguments.
    import tracemalloc
    p = 1048573
    xs = np.arange(p, dtype=np.int64)
    want = powmod(xs, 3, p)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = _pow_ladder(xs, 3, p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < xs.nbytes + 2 ** 16, peak
    assert np.array_equal(got, want)
