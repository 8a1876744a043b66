import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import event, example, given, settings

from cliffordkit import (IsoError, PAPER_CHAINS, RingTag, StateRingTag,
                         classify, clifford, complex_doubling_iso, complexify,
                         division_ring_of, even_subalgebra_iso,
                         karoubi_factorize, ring_transition, split_semisimple,
                         tensor_algebra, verify_tensor_iso)
from cliffordkit.core import Multivector, Signature
from cliffordkit.factorize import (TensorAlgebra, _image_keys,
                                   _require_generators, _require_span,
                                   _tensor_keys, karoubi_factor_signatures)
from cliffordkit.rings import PRINTED_TRANSITIONS
from conftest import check_record, small_signatures


def chain_tuple(chain):
    return tuple((s.p, s.q) for s in chain.factors)


def test_greedy_chain_examples():
    assert chain_tuple(karoubi_factorize((1, 3))) == ((1, 1), (0, 2))
    assert chain_tuple(karoubi_factorize((4, 0))) == ((2, 0), (0, 2))
    assert chain_tuple(karoubi_factorize((10, 0))) == \
        ((2, 0), (0, 2), (2, 0), (0, 2), (2, 0))


def test_greedy_chain_matches_first_printed():
    for (p, q), entries in PAPER_CHAINS.items():
        assert chain_tuple(karoubi_factorize((p, q))) == entries[0][0], (p, q)


def test_all_printed_chains_verify_and_fold():
    for (p, q), entries in PAPER_CHAINS.items():
        for factors, ring in entries:
            verify_tensor_iso((p, q), factors)  # raises on failure
            folded = _fold(factors)
            assert str(folded) == ring, (p, q, factors)
            assert classify((p, q)).ring.base is RingTag(ring), (p, q)


def _fold(factors):
    from cliffordkit.factorize import FACTOR_RINGS
    from cliffordkit.core import Signature
    acc = StateRingTag("R")
    for f in factors:
        acc = ring_transition(acc, FACTOR_RINGS[Signature(*f)])
    return acc


def test_every_even_signature_factorizes():
    for p, q in small_signatures(8):
        if (p + q) % 2 == 0:
            chain = karoubi_factorize((p, q))
            assert all((s.p, s.q) in {(2, 0), (1, 1), (0, 2)}
                       for s in chain.factors)
            assert str(chain.folded_ring()) == str(classify((p, q)).ring.base)


def test_odd_signature_rejected():
    with pytest.raises(ValueError):
        karoubi_factor_signatures((3, 0))
    with pytest.raises(ValueError, match=r"^split_semisimple requires odd p\+q$"):
        split_semisimple((1, 1))


def test_verify_tensor_iso_failure():
    with pytest.raises(IsoError) as ei:
        verify_tensor_iso((2, 0), [(0, 2)])
    # both twists fail alike, and the reason is given once
    assert ei.value.reason == ("square multiset mismatch: got 0 plus / "
                               "2 minus, target Cl(2,0) needs 2/0")
    # odd factors on both sides: neither twist applies, and both say why
    with pytest.raises(IsoError) as ei:
        verify_tensor_iso((3, 0), [(1, 0), (1, 0), (1, 0)])
    assert ei.value.reason == (
        "odd-dimensional factor cannot carry a left twist; "
        "odd-dimensional factor cannot carry a right twist")


def test_verify_tensor_iso_dimension_mismatch():
    with pytest.raises(IsoError):
        verify_tensor_iso((2, 2), [(2, 0)])


def test_tensor_keys_are_the_keys_of_the_witness_images():
    # the atlas checks its chains with `_tensor_keys` alone: the same keys
    # as the images of `verify_tensor_iso`, and the same failures
    chains = [((p, q), karoubi_factor_signatures((p, q)))
              for p, q in small_signatures(12) if (p + q) % 2 == 0]
    chains += [(sig, factors) for sig, entries in PAPER_CHAINS.items()
               for factors, _ring in entries]
    for sig, factors in chains:
        w = verify_tensor_iso(sig, factors)
        ta, keys = _tensor_keys(sig, factors)
        assert ta is w.tensor, (sig, factors)
        assert [dict(img.c) for img in w.images] == [{k: 1} for k in keys], \
            (sig, factors)
    for sig, factors in [((2, 0), [(0, 2)]), ((3, 0), [(1, 0)] * 3),
                         ((2, 2), [(2, 0)])]:
        with pytest.raises(IsoError) as want:
            verify_tensor_iso(sig, factors)
        with pytest.raises(IsoError) as got:
            _tensor_keys(sig, factors)
        assert str(got.value) == str(want.value)


def _assert_generator_relations(target, images):
    """The reference check, by products: img*img = +-1 with the squares of
    `target` in order, and every pair anticommutes."""
    one = images[0].alg.one()
    for i, img in enumerate(images):
        assert img * img == (one if i < target.p else -one), (target, i)
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            assert images[i] * images[j] == -(images[j] * images[i]), \
                (target, i, j)


def test_witness_images_satisfy_relations():
    for p, q in small_signatures(12):
        if (p + q) % 2 == 0 and p + q:
            w = karoubi_factorize((p, q)).witness
            _assert_generator_relations(w.target, w.images)
    for (p, q), entries in PAPER_CHAINS.items():
        for factors, _ring in entries:
            w = verify_tensor_iso((p, q), factors)
            _assert_generator_relations(w.target, w.images)
    for p, q in small_signatures(8):
        if p + q >= 2:
            w = even_subalgebra_iso((p, q))
            _assert_generator_relations(w.target, w.images)


def test_doubling_omega_commutes_with_images():
    for p, q in small_signatures(8):
        alg = clifford(p, q)
        if (p + q) % 2 and alg.square_sign(alg.volume_key) == -1:
            w = complex_doubling_iso((p, q))
            assert all(img * w.i_image == w.i_image * img
                       for img in w.images), (p, q)


def test_require_generators_reasons():
    alg = clifford(2, 1)
    e1, e2, e3 = alg.generator_keys()
    target = Signature(2, 1)
    assert _require_generators(alg, [e1, e2, e3], target, "dependent") == \
        [e1, e2, e3]
    # the +1-squares come first, each kind in the order given
    assert _require_generators(alg, [e3, e2, e1], target, "dependent") == \
        [e2, e1, e3]
    cases = [([e1, e3, e1 | e2], "square multiset mismatch: got 1 plus / "
              "2 minus, target Cl(2,1) needs 2/1"),
             ([e1, e2 | e3, e3], "images 1 and 2 do not anticommute"),
             ([e1, e2, e1 | e2], "dependent"),
             ([e1, e2], "wrong number of generator images")]
    for keys, reason in cases:
        with pytest.raises(IsoError) as ei:
            _require_generators(alg, keys, target, "dependent")
        assert ei.value.reason == reason, keys


def test_witness_reads_each_square_once(monkeypatch):
    calls = []
    square_sign = TensorAlgebra.square_sign
    monkeypatch.setattr(TensorAlgebra, "square_sign",
                        lambda ta, a: calls.append(a) or square_sign(ta, a))
    w = karoubi_factorize((4, 4)).witness
    assert sorted(calls) == sorted(k for img in w.images for k in img.c)
    assert len(calls) == 8


def test_witnesses_form_no_products(monkeypatch):
    calls = []
    mul = Multivector.__mul__
    monkeypatch.setattr(Multivector, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    verify_tensor_iso((4, 4), [(1, 1), (2, 0), (2, 0), (1, 1)])
    karoubi_factorize((5, 3))
    even_subalgebra_iso((2, 4))
    complex_doubling_iso((4, 1))
    assert not split_semisimple((0, 3)).complexified  # omega^2 = +1
    assert split_semisimple((3, 0)).complexified  # omega^2 = -1
    assert calls == []


def test_witnesses_are_records():
    w = verify_tensor_iso((3, 3), [(2, 0), (2, 0), (1, 1)])
    check_record(w, target=w.target, factors=w.factors, tensor=w.tensor,
                 images=w.images)
    c = karoubi_factorize((1, 3))
    check_record(c, target=c.target, factors=c.factors, witness=c.witness)
    s = split_semisimple((3, 0))
    check_record(s, sig=s.sig, lambda_plus=s.lambda_plus,
                 lambda_minus=s.lambda_minus, factor=s.factor,
                 complexified=s.complexified)
    e = even_subalgebra_iso((2, 4))
    check_record(e, source=e.source, target=e.target, images=e.images)
    d = complex_doubling_iso((4, 1))
    check_record(d, target=d.target, factor=d.factor, images=d.images,
                 i_image=d.i_image)


def test_periodicity_iso():
    for p, q in small_signatures(2):
        verify_tensor_iso((p + 8, q), [(p, q), (8, 0)])


def test_split_semisimple_cl30():
    s = split_semisimple((3, 0))
    assert (s.factor.p, s.factor.q) == (0, 2)
    assert classify(s.factor).ring is RingTag.H
    assert s.complexified  # omega^2 = -1: split lives in the complexification
    assert s.lambda_plus * s.lambda_minus == s.lambda_plus.alg.zero()


def test_split_semisimple_cl10():
    s = split_semisimple((1, 0))
    assert (s.factor.p, s.factor.q) == (0, 0)
    assert not s.complexified
    lp, lm = s.lambda_plus, s.lambda_minus
    assert lp * lp == lp and lm * lm == lm
    assert not (lp * lm)
    assert lp + lm == lp.alg.one()


def test_split_semisimple_anti_commutator_zero_everywhere():
    for p, q in small_signatures(12):
        if (p + q) % 2 == 1:
            s = split_semisimple((p, q))
            alg = s.lambda_plus.alg
            # reference: (1 +- T)/2 by Fraction scaling, T = omega or i*omega
            omega = alg.blade(alg.volume_key)
            t = alg.i() * omega if s.complexified else omega
            half = alg.scalar(Fraction(1, 2))
            assert s.lambda_plus == (alg.one() + t) * half
            assert s.lambda_minus == (alg.one() - t) * half
            assert s.lambda_plus * s.lambda_plus == s.lambda_plus
            assert not (s.lambda_plus * s.lambda_minus)
            assert all(s.lambda_plus * g == g * s.lambda_plus
                       for g in alg.gens())  # central projectors
            # factor ring doubles back to the full classification when real
            if not s.complexified:
                full = classify((p, q)).ring
                half = classify(s.factor).ring
                assert full is RingTag.doubled_of(half.base) or half.doubled


def test_split_cl0q_footnote_cases():
    # Cl(0,q) ~ Cl(0,q-1) (+) Cl(0,q-1) for odd q: real split when
    # omega^2 = +1, complexified reading otherwise
    for q in (1, 3, 5, 7):
        s = split_semisimple((0, q))
        assert (s.factor.p, s.factor.q) == (0, q - 1)
        real_split = (0 - q) % 4 == 1  # p-q = 1 mod 4 <=> omega^2 = +1
        assert s.complexified == (not real_split)
        if real_split:
            assert classify((0, q)).ring is RingTag.doubled_of(
                classify(s.factor).ring.base)


def test_even_subalgebra_iso_examples():
    assert (even_subalgebra_iso((2, 4)).target.p,
            even_subalgebra_iso((2, 4)).target.q) == (4, 1)
    assert (even_subalgebra_iso((1, 3)).target.p,
            even_subalgebra_iso((1, 3)).target.q) == (3, 0)
    w = even_subalgebra_iso((1, 1))
    assert (w.target.p, w.target.q) == (1, 0)
    assert classify(w.target).ring is RingTag.RR


def test_even_subalgebra_iso_sweep():
    for p, q in small_signatures(6):
        if p + q >= 1:
            even_subalgebra_iso((p, q))  # raises on any failed check
    with pytest.raises(ValueError):
        even_subalgebra_iso((0, 0))


def test_complexify():
    c = complexify((0, 2))
    assert c.field == "C"
    x = c.gen(1) * c.i()
    assert x * x == c.one()
    from cliffordkit import classify_complex
    assert classify_complex(2).matrix_rank == 2  # C(2): the biquaternions


def test_complexification_forgets_signature():
    # inside C (x) Cl(0,2) the elements i*e1, i*e2 satisfy the Cl(2,0)
    # relations: all n = 2 complexifications are the one biquaternion algebra
    c = complexify((0, 2))
    g1 = c.gen(1) * c.i()
    g2 = c.gen(2) * c.i()
    assert g1 * g1 == c.one() and g2 * g2 == c.one()
    assert g1 * g2 == -(g2 * g1)
    from cliffordkit import classify_complex
    for p, q in [(2, 0), (1, 1), (0, 2)]:
        assert classify_complex(p + q).matrix_rank == 2


def test_complex_doubling_iso():
    w = complex_doubling_iso((3, 0))
    assert (w.factor.p, w.factor.q) == (0, 2)
    assert w.i_image * w.i_image == -clifford(3, 0).one()
    w = complex_doubling_iso((4, 1))
    assert (w.factor.p, w.factor.q) == (1, 3)
    with pytest.raises(IsoError):
        complex_doubling_iso((1, 0))  # omega^2 = +1: no complex center


def test_complex_doubling_iso_without_positive_generators():
    w = complex_doubling_iso((0, 1))  # C itself: i is e1, no generators
    assert (w.factor.p, w.factor.q, w.images) == (0, 0, ())
    assert w.i_image == clifford(0, 1).gen(1)
    w = complex_doubling_iso((0, 5))
    assert (w.factor.p, w.factor.q) == (0, 4)
    assert [img.c for img in w.images] == [{0b10001: 1}, {0b10010: 1},
                                          {0b10100: 1}, {0b11000: 1}]
    assert all(img * img == -clifford(0, 5).one() for img in w.images)
    for q in (3, 7):
        with pytest.raises(IsoError):
            complex_doubling_iso((0, q))  # omega^2 = +1


def test_ring_transition_printed_rows():
    for k1, k2, want in PRINTED_TRANSITIONS:
        assert ring_transition(k1, k2) == want
    # state tags only: a classification tag has no bar to compose
    for k1, k2 in ((RingTag.C, RingTag.R), (StateRingTag("C"), RingTag.R),
                   (RingTag.H, StateRingTag("H"))):
        with pytest.raises(TypeError):
            ring_transition(k1, k2)


def test_ring_transition_conjugate_symmetry():
    tags = [StateRingTag("R"), StateRingTag("C"), StateRingTag("C", True),
            StateRingTag("H"), StateRingTag("H", True)]
    for a in tags:
        for b in tags:
            assert ring_transition(a.conjugate(), b.conjugate()) == \
                ring_transition(a, b).conjugate()


def test_ring_transition_commutative():
    tags = [StateRingTag("R"), StateRingTag("C"), StateRingTag("C", True),
            StateRingTag("H"), StateRingTag("H", True)]
    for a in tags:
        for b in tags:
            assert ring_transition(a, b) == ring_transition(b, a)


def test_ring_transition_associativity_domain():
    # associativity holds except when an annihilating conjugate pair competes
    # with a like-type partner; the exceptional triples are frozen here
    hs = [StateRingTag("R"), StateRingTag("H"), StateRingTag("H", True)]
    cs = [StateRingTag("R"), StateRingTag("C"), StateRingTag("C", True)]
    exceptional = set()
    for tags in (hs, cs):
        for a in tags:
            for b in tags:
                for c in tags:
                    left = ring_transition(ring_transition(a, b), c)
                    right = ring_transition(a, ring_transition(b, c))
                    if left != right:
                        exceptional.add((str(a), str(b), str(c)))
    assert exceptional == {
        ("H", "H", "H~"), ("H~", "H", "H"), ("H", "H~", "H~"), ("H~", "H~", "H"),
        ("C", "C", "C~"), ("C~", "C", "C"), ("C", "C~", "C~"), ("C~", "C~", "C"),
    }


def test_ring_transition_cross_validated_against_algebra_oracle():
    # all nine pairs of the two-dimensional building blocks
    blocks = {(2, 0): StateRingTag("R"), (1, 1): StateRingTag("R"),
              (0, 2): StateRingTag("H")}
    for s1, k1 in blocks.items():
        for s2, k2 in blocks.items():
            want = ring_transition(k1, k2)
            got = division_ring_of(tensor_algebra([s1, s2]))
            assert str(got.base) == want.base, (s1, s2)


def test_tensor_algebra_arithmetic():
    ta = tensor_algebra([(1, 1), (0, 2)])
    assert ta.dim == 16
    a = ta.blade(0b0001)  # e1 (x) 1
    b = ta.blade(0b1000)  # 1 (x) e2
    assert str(a) == "e1(x)1" and str(b) == "1(x)e2"
    assert a * b == b * a  # plain tensor: cross factors commute
    assert a * a == ta.one()
    assert b * b == -ta.one()
    with pytest.raises(ValueError,
                       match=r"^tensor algebra dimension exceeds the 2\^12 cap$"):
        tensor_algebra([(6, 6), (1, 0)])


def _subset_product_key_count(one, images):
    """The former span check: distinct keys among the 2^m subset products."""
    prods = [one]
    for img in images:
        prods = prods + [x * img for x in prods]
    keys = set()
    for x in prods:
        (k, _v), = x.c.items()
        keys.add(k)
    return len(keys)


SPAN_ALGEBRAS = [clifford(0, 0), clifford(2, 1), clifford(3, 3),
                 clifford(1, 3, "C"), clifford(0, 5, "C"),
                 tensor_algebra([(1, 1), (0, 2)]),
                 tensor_algebra([clifford(2, 0, "C"), clifford(0, 3, "C")])]


@st.composite
def span_keys(draw):
    """Up to n + 1 keys; a drawn key is often the F2 sum of earlier ones
    (or the unit key), so dependent lists are common."""
    alg = draw(st.sampled_from(SPAN_ALGEBRAS))
    keys = []
    for _ in range(draw(st.integers(0, alg.n + 1))):
        if keys and draw(st.booleans()):
            key = alg.unit_key
            for k in keys:
                if draw(st.booleans()):
                    key = key ^ k
        else:
            key = draw(st.sampled_from(alg.basis))
        keys.append(key)
    return alg, keys


# keys of Cl(6,6) that share their leading bits, so that a dependency
# among them shows only after several eliminations
DEEP = (0b100000000001, 0b110000000010, 0b111000000100, 0b111100001000)


def _shuffled_keys(keys, seed):
    keys = list(keys)
    random.Random(seed).shuffle(keys)
    return clifford(6, 6), keys


@settings(max_examples=300, deadline=None)
@given(span_keys())
@example((clifford(0, 0), []))
@example(_shuffled_keys(DEEP[:3] + (DEEP[0] ^ DEEP[1] ^ DEEP[2],), 1))
@example(_shuffled_keys(DEEP[:3] + (DEEP[0] ^ DEEP[1] ^ DEEP[2],), 2))
@example(_shuffled_keys(DEEP + (DEEP[0] ^ DEEP[1] ^ DEEP[2] ^ DEEP[3],), 3))
@example(_shuffled_keys(DEEP + (DEEP[0] ^ DEEP[2] ^ DEEP[3],), 4))
@example(_shuffled_keys(DEEP + (DEEP[0] ^ DEEP[2] ^ DEEP[3] ^ 1 << 4,), 5))
def test_require_span_raises_iff_subset_products_miss_keys(drawn):
    alg, keys = drawn
    images = [alg.blade(k) for k in keys]
    if _subset_product_key_count(alg.one(), images) == 1 << len(keys):
        _require_span(keys, "dependent")
    else:
        with pytest.raises(IsoError, match="dependent"):
            _require_span(keys, "dependent")


GENERATOR_ALGEBRAS = ([clifford(p, q) for p, q in small_signatures(5)]
                      + [tensor_algebra([(1, 1), (0, 2)])])


@st.composite
def generator_key_lists(draw):
    """An algebra, candidate image keys and a target: mostly a shuffled run
    of pairwise anticommuting keys (the generators, or the left-twisted
    witness keys of the tensor algebra), some swapped for any key or the F2
    sum of earlier ones; the target's count and plus squares are often
    those of the keys."""
    alg = draw(st.sampled_from(GENERATOR_ALGEBRAS))
    base = draw(st.permutations(_image_keys(alg, True)
                                if isinstance(alg, TensorAlgebra)
                                else alg.generator_keys()))
    keys = []
    for key in base[:draw(st.integers(0, len(base)))]:
        how = draw(st.sampled_from(["keep", "keep", "any", "sum"]))
        if how == "any":
            key = draw(st.sampled_from(alg.basis))
        elif how == "sum":
            key = alg.unit_key
            for k in keys:
                if draw(st.booleans()):
                    key ^= k
        keys.append(key)
    if draw(st.booleans()):
        keys.append(draw(st.sampled_from(alg.basis)))
    n = max(0, len(keys) + draw(st.sampled_from([0, 0, 0, -1, 1])))
    plus = sum(alg.blade(k) * alg.blade(k) == alg.one() for k in keys)
    p = draw(st.sampled_from([min(plus, n), draw(st.integers(0, n))]))
    return alg, keys, Signature(p, n - p)


def _generators_by_products(alg, keys, target):
    """The reference check: the count, the squares and the pairwise
    anticommutation by products, the span by distinct subset-product keys."""
    if len(keys) != target.n:
        return False
    one, images = alg.one(), [alg.blade(k) for k in keys]
    if sum(img * img == one for img in images) != target.p:
        return False
    if any(a * b != -(b * a) for i, a in enumerate(images)
           for b in images[i + 1:]):
        return False
    return _subset_product_key_count(one, images) == 1 << len(keys)


@settings(max_examples=300, deadline=None)
@given(generator_key_lists())
def test_require_generators_accepts_iff_products_do(drawn):
    alg, keys, target = drawn
    if _generators_by_products(alg, keys, target):
        event("accepted")
        squares = [alg.blade(k) * alg.blade(k) == alg.one() for k in keys]
        want = ([k for k, sq in zip(keys, squares) if sq]
                + [k for k, sq in zip(keys, squares) if not sq])
        assert _require_generators(alg, keys, target, "dependent") == want
    else:
        with pytest.raises(IsoError):
            _require_generators(alg, keys, target, "dependent")
