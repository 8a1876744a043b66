"""The geometric-product kernel against naive references written here.

Blade signs are recounted pair by pair on index lists, and products are
summed term by term in Fraction / QC arithmetic, with no shared code path.
"""

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cliffordkit import QC, clifford, tensor_algebra
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
