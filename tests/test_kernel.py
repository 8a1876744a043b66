"""The geometric-product kernel against naive references written here.

Blade signs are recounted pair by pair on index lists, and products are
summed term by term in Fraction / QC arithmetic, with no shared code path.
"""

import hashlib
import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cliffordkit import QC, cli, clifford, core, primitive_idempotent, tensor_algebra
from cliffordkit.core import QC_I
from conftest import (complex_multivectors, multivector_pairs,
                      multivector_triples, small_signatures)


def ref_sign(p, a, b):
    """Sign of e_a e_b in Cl(p, q): one swap per pair (i in a, j in b, i > j),
    one -1 per shared generator past the first p."""
    ia = [i for i in range(a.bit_length()) if a >> i & 1]
    ib = [j for j in range(b.bit_length()) if b >> j & 1]
    swaps = sum(1 for i in ia for j in ib if i > j)
    minus = sum(1 for i in ia if i in ib and i >= p)
    return -1 if (swaps + minus) & 1 else 1


def ref_key_sign(alg, a, b):
    """(a ^ b, sign of e_a e_b).  A tensor key is cut into one block of
    factors[j].n bits per factor, the first factor lowest, and the signs of
    the factors multiply."""
    if not hasattr(alg, "factors"):
        return a ^ b, ref_sign(alg.sig.p, a, b)
    sign, x, y = 1, a, b
    for f in alg.factors:
        low = (1 << f.n) - 1
        sign *= ref_sign(f.sig.p, x & low, y & low)
        x, y = x >> f.n, y >> f.n
    return a ^ b, sign


def ref_product(x, y):
    """x * y summed one term at a time in the coefficients' own arithmetic."""
    alg = x.alg
    out = {}
    for ka, va in x.c.items():
        for kb, vb in y.c.items():
            k, s = ref_key_sign(alg, ka, kb)
            out[k] = out.get(k, 0) + s * va * vb
    return {k: v for k, v in out.items() if v}


def check_product(x, y):
    got = x * y
    assert got.c == ref_product(x, y)
    want_type = QC if x.alg.field == "C" else Fraction
    assert all(type(v) is want_type for v in got.c.values())


def check_blade_pair(alg, a, b):
    assert alg.mul_key(a, b) == ref_key_sign(alg, a, b), (alg, a, b)
    commute = ref_key_sign(alg, a, b)[1] == ref_key_sign(alg, b, a)[1]
    assert alg.keys_commute(a, b) == commute, (alg, a, b)
    assert alg.square_sign(a) == ref_key_sign(alg, a, a)[1], (alg, a)


def test_blade_signs_every_pair_up_to_n6():
    for p, q in small_signatures(6):
        alg = clifford(p, q)
        for a in range(alg.dim):
            for b in range(alg.dim):
                check_blade_pair(alg, a, b)


def test_blade_signs_sampled_at_n12():
    rng = random.Random(12)
    for p, q in [(6, 6), (0, 12)]:
        alg = clifford(p, q)
        for _ in range(20000):
            check_blade_pair(alg, rng.randrange(alg.dim), rng.randrange(alg.dim))


@pytest.mark.parametrize("factors", [
    [(1, 1), (0, 2), (1, 0)],
    [clifford(1, 0, "C"), clifford(0, 2, "C")],
    [(0, 0), (2, 1)],
    [(2, 2), (0, 0), (0, 3)],
], ids=str)
def test_tensor_blade_signs_every_pair(factors):
    alg = tensor_algebra(factors)
    for a in alg.basis:
        for b in alg.basis:
            check_blade_pair(alg, a, b)


REAL_UP_TO_6 = [clifford(p, q) for p, q in small_signatures(6)]
COMPLEX_UP_TO_6 = [clifford(p, q, "C") for p, q in small_signatures(6)]
TENSORS = [tensor_algebra([(1, 1), (0, 2), (1, 0)]),
           tensor_algebra([clifford(1, 0, "C"), clifford(0, 2, "C")])]

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def operand_pairs(draw, algebras, dense):
    """Two operands of one algebra, with complex coefficients over C.  Dense
    operands have a coefficient, possibly zero, on every basis key."""
    alg = draw(st.sampled_from(algebras))

    def coeff():
        re = draw(fractions)
        return QC(re, draw(fractions)) if alg.field == "C" else re

    def keys():
        if dense:
            return alg.basis
        return draw(st.lists(st.sampled_from(alg.basis), max_size=8))

    return tuple(alg.mv({k: coeff() for k in keys()}) for _ in range(2))


@settings(max_examples=150, deadline=None)
@given(multivector_pairs(algebras=REAL_UP_TO_6, max_terms=8))
def test_sparse_real_products_match_reference(pair):
    check_product(*pair)


@settings(max_examples=100, deadline=None)
@given(operand_pairs(COMPLEX_UP_TO_6, dense=False))
def test_sparse_complex_products_match_reference(pair):
    check_product(*pair)


@settings(max_examples=12, deadline=None)
@given(operand_pairs(REAL_UP_TO_6 + COMPLEX_UP_TO_6, dense=True))
def test_dense_products_match_reference(pair):
    check_product(*pair)


@settings(max_examples=60, deadline=None)
@given(operand_pairs(TENSORS, dense=False))
def test_sparse_tensor_products_match_reference(pair):
    check_product(*pair)


@settings(max_examples=10, deadline=None)
@given(operand_pairs(TENSORS, dense=True))
def test_dense_tensor_products_match_reference(pair):
    check_product(*pair)


@settings(max_examples=100, deadline=None)
@given(multivector_triples(algebras=REAL_UP_TO_6, max_terms=6))
def test_real_associativity_up_to_n6(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(COMPLEX_UP_TO_6).flatmap(
    lambda alg: st.tuples(*[complex_multivectors(algebras=[alg], max_terms=5)] * 3)))
def test_complex_associativity_up_to_n6(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


def seeded_operand(alg, rng, terms):
    """`terms` random blades of alg with nonzero exact coefficients."""
    def coeff():
        re = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
        if alg.field == "R":
            return re
        return QC(re, Fraction(rng.randint(-9, 9), rng.randint(1, 6)))

    return alg.mv({k: coeff() for k in rng.sample(alg.basis, terms)})


def check_spinor_product(x, y):
    got, want = core._spinor_product(x, y), core._pair_product(x, y)
    assert got.c == want.c, (x.alg, len(x.c), len(y.c))
    want_type = QC if x.alg.field == "C" else Fraction
    assert all(type(v) is want_type and v for v in got.c.values())
    return got


def test_spinor_product_equals_pair_product_up_to_n8():
    # both paths read back through `_from_numerators`, the spinor path from
    # one walk over its table, so up to n = 6 the term-by-term reference
    # checks the spinor path as well
    rng = random.Random(18)
    for p, q in small_signatures(8):
        for field in ("R", "C"):
            alg = clifford(p, q, field)
            for terms in (alg.dim, max(1, alg.dim // 2)):
                x, y = seeded_operand(alg, rng, terms), seeded_operand(alg, rng, terms)
                got = check_spinor_product(x, y)
                if p + q <= 6:
                    assert got.c == ref_product(x, y), (alg, terms)


def test_spinor_product_on_mostly_zero_rows():
    # each operand row packs m digits; empty, one-term and sparse operands
    # leave most of them 0 (and an empty one gives s = 1), to p+q = 8, and
    # half-filled ones at n = 9 (two summands) and n = 10 cover rows of 16
    # and 32 digits
    rng = random.Random(9)
    for p, q in small_signatures(8):
        for field in ("R", "C"):
            alg = clifford(p, q, field)
            sparse = min(3, alg.dim)
            for i, j in ((0, 0), (0, 1), (1, 0), (1, 1), (1, sparse), (sparse, sparse)):
                check_spinor_product(seeded_operand(alg, rng, i),
                                     seeded_operand(alg, rng, j))
    for sig in ((4, 5), (5, 5)):
        for field in ("R", "C"):
            alg = clifford(*sig, field)
            x, y = (seeded_operand(alg, rng, alg.dim // 2) for _ in range(2))
            check_spinor_product(x, y)


@pytest.mark.parametrize("sig", [(6, 6), (0, 12), (12, 0), (5, 6), (0, 11)], ids=str)
def test_spinor_product_equals_pair_product_at_150_terms(sig):
    rng = random.Random(f"150/{sig}")
    for field in ("R", "C"):
        alg = clifford(*sig, field)
        check_spinor_product(seeded_operand(alg, rng, 150), seeded_operand(alg, rng, 150))


def pauli_mul(s, t):
    """The (f, z, x) of the product of two `_pauli_table` entries, from
    Z^z X^x' = (-1)^popcount(z & x') X^x' Z^z.  For odd n bit k of z, the
    summand's sign, meets no bit of x."""
    (f, z, x), (g, z2, x2) = s, t
    return (f + g + 2 * (z & x2).bit_count()) & 3, z ^ z2, x ^ x2


def test_pauli_table_certified_without_products():
    # the table is built from each blade's highest generator; this checks the
    # relations, a second association order and the independence of the
    # 2^n Pauli words, on the triples alone, up to the cap
    for p, q in small_signatures(core.MAX_N):
        table = core._pauli_table(clifford(p, q))
        gens = [table[1 << t] for t in range(p + q)]
        for t, g in enumerate(gens):
            assert pauli_mul(g, g) == (0 if t < p else 2, 0, 0), (p, q, t)
            for h in gens[:t]:
                assert (pauli_mul(g, h)[0] - pauli_mul(h, g)[0]) & 3 == 2, (p, q, t)
        assert table[0] == (0, 0, 0)
        for key in range(1, 1 << p + q):
            low = key & -key
            assert table[key] == pauli_mul(table[low], table[key ^ low]), (p, q, key)
        assert len({(z, x) for _f, z, x in table}) == 1 << p + q, (p, q)


LCM_DIVISORS = (1, 7, 16, 45, 143, 720720)  # lcm 720720
BIG = 10**30 + 1  # prime to 720720


def grade_parity(key):
    return -1 if core.grade(key) & 1 else 1


def magnitude_operands(alg, rng, big):
    """Dense operand pairs of alg whose coefficients all have numerator
    +-big, big prime to 720720: over the one denominator 720720 with every
    sign +, with signs by grade parity, with y_A = x_A e_A^2, whose 2^n
    pairs all add up at key 0, and with random signs (every integer
    numerator is then +-big), and with random signs over denominators of
    lcm 720720.  Over C each real part equals its imaginary part."""
    def operand(sign, den):
        c = {k: Fraction(sign(k) * big, den(k)) for k in alg.basis}
        return alg.mv(c if alg.field == "R" else {k: QC(v, v) for k, v in c.items()})

    def rand(_k):
        return rng.choice((-1, 1))

    def lcm_den(_k):
        return rng.choice(LCM_DIVISORS)

    for sign in (lambda k: 1, grade_parity):
        x = operand(sign, lambda k: 720720)
        yield x, x
    yield x, operand(lambda k: grade_parity(k) * alg.square_sign(k), lambda k: 720720)
    yield operand(rand, lambda k: 720720), operand(rand, lambda k: 720720)
    yield operand(rand, lcm_den), operand(rand, lcm_den)


def test_spinor_product_at_the_digit_bound_up_to_n8():
    # over C, y_A = x_A e_A^2 meets the digit bound of `_spinor_product` at
    # every n ((1 + i)^2 = 2i at each of the 2^n pairs of key 0): a packing
    # one bit narrower gets that product wrong at every p+q <= 8
    rng = random.Random(22)
    for p, q in small_signatures(8):
        for field in ("R", "C"):
            alg = clifford(p, q, field)
            for x, y in magnitude_operands(alg, rng, BIG):
                check_spinor_product(x, y)


def test_spinor_product_at_the_digit_bound_at_n12():
    # one dense pair-path product at n = 12 takes seconds, and big ints more
    alg = clifford(6, 6)
    x = alg.mv({k: Fraction(grade_parity(k), 7) for k in alg.basis})
    check_spinor_product(x, x)


def unequal_operands(alg, rng, big, terms):
    """Operand pairs of alg, one dense and one on `terms` random keys, whose
    largest numerator sits in one part only: over C, x real and y imaginary,
    y_A = i x_A e_A^2 (every pair adds up at key 0), and the other way
    round; over R and C, one term +-big among terms +-1 on each side; and
    each of these with an empty operand."""
    def operand(keys, value):
        return alg.mv({k: value(k) for k in keys})

    def huge_among_small(keys):
        huge = rng.choice(keys)
        return operand(keys, lambda k: Fraction(big, 7) if k == huge else
                       Fraction(rng.choice((-1, 1)), rng.choice(LCM_DIVISORS)))

    ys = rng.sample(alg.basis, terms)
    pairs = [(huge_among_small(alg.basis), huge_among_small(ys))]
    if alg.field == "C":
        x = operand(alg.basis,
                    lambda k: QC(Fraction(rng.choice((-1, 1)) * big, 720720)))
        y = operand(ys, lambda k: QC_I * x.c[k] * alg.square_sign(k))
        pairs += [(x, y), (y * QC_I, x * QC_I)]
    empty = alg.zero()
    return pairs + [(x, empty) for x, _ in pairs] + [(empty, y) for _, y in pairs]


def test_spinor_product_bound_with_unequal_parts():
    # the bound takes both parts of every numerator of each operand: a
    # bound on the real parts only, on the imaginary parts only or on one
    # term gets these products wrong; C(x)Cl(5,6) has two summands and reads
    # m = 32 digits of each B row in place
    rng = random.Random(33)
    for p, q in small_signatures(8):
        for field in ("R", "C"):
            alg = clifford(p, q, field)
            for x, y in unequal_operands(alg, rng, BIG, alg.dim):
                check_spinor_product(x, y)
    alg = clifford(5, 6, "C")
    for x, y in unequal_operands(alg, rng, BIG, 48):
        check_spinor_product(x, y)


def test_numerators_read_and_read_back():
    # `_numerators` reads each coefficient as (key, re, im) over the lcm of
    # every denominator, keys in order, and `_from_numerators`, the read-back
    # of both product paths, returns the nonzero coefficients in that order
    dens = (1, 2, 3, 4, 9, 10)
    for field in ("R", "C"):
        alg = clifford(2, 1, field)
        maps = [{k: alg.scalar(v) for k, v in c.items()} for c in (
            {}, {5: Fraction(-7, 3)}, {6: Fraction(0)},
            {k: Fraction(k - 3, d) for k, d in zip((7, 0, 3, 1, 4), dens)})]
        if field == "C":
            maps += [{2: QC(0, Fraction(5, 4))}, {6: QC(Fraction(-1, 6), 0)},
                     {k: QC(Fraction(k, d), Fraction(3 - k, e))
                      for k, d, e in zip((7, 0, 3, 1, 4, 2), dens, dens[::-1])}]
        for c in maps:
            den, terms = core._numerators(alg, c)
            parts = [u for v in c.values()
                     for u in ((v,) if field == "R" else (v.re, v.im))]
            assert den == math.lcm(*[Fraction(u).denominator for u in parts])
            assert [k for k, _r, _i in terms] == list(c)
            for k, r, i in terms:
                assert (r + QC_I * i) / den == c[k], (c, k)
                assert field == "C" or i == 0
            back = core._from_numerators(alg, den, terms)
            nonzero = {k: v for k, v in c.items() if v}
            assert back.c == nonzero and list(back.c) == list(nonzero)
            want_type = QC if field == "C" else Fraction
            assert all(type(v) is want_type for v in back.c.values())


def test_real_spinor_product_rejects_a_complex_result(monkeypatch):
    # a table with rho(e2) = XZ in place of Y = iXZ still squares to -1,
    # but reads e1 e2 = Z back as -i e12: a real product with an imaginary
    # part left over raises
    alg = clifford(2, 0)
    monkeypatch.setattr(alg, "_pauli", [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 0)])
    with pytest.raises(ArithmeticError):
        core._spinor_product(alg.gen(1), alg.gen(2))
    # the shared read-back itself: an imaginary numerator over R raises
    with pytest.raises(ArithmeticError):
        core._from_numerators(alg, 2, [(0b11, 1, -1)])


def refuse(*_args):
    raise RuntimeError("this product path must not be taken")


def test_sparse_products_stay_on_pairs(monkeypatch, capsys):
    from test_cli import ATLAS_DIGESTS

    monkeypatch.setattr(core, "_spinor_product", refuse)
    assert cli.main(["atlas", "--max-n", "8", "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ATLAS_DIGESTS[8]
    for field in ("R", "C"):
        f = primitive_idempotent((6, 6), field).element
        assert f * f == f
    # dense products below the switch: every n <= 4
    rng = random.Random(4)
    for p, q in small_signatures(4):
        for field in ("R", "C"):
            alg = clifford(p, q, field)
            seeded_operand(alg, rng, alg.dim) * seeded_operand(alg, rng, alg.dim)


@pytest.mark.parametrize("field, n", [("R", 5), ("R", 6), ("R", 7), ("C", 5), ("C", 6)])
def test_dense_products_take_the_spinor_path(monkeypatch, field, n):
    rng = random.Random(f"{field}{n}")
    operands = []
    for p in range(n + 1):
        alg = clifford(p, n - p, field)
        x, y = seeded_operand(alg, rng, alg.dim), seeded_operand(alg, rng, alg.dim)
        operands.append((x, y, core._pair_product(x, y)))
    monkeypatch.setattr(core, "_pair_product", refuse)
    for x, y, want in operands:
        assert x * y == want
