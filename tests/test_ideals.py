import functools
import itertools
import random

import pytest

from cliffordkit import (clifford, ideals, is_primitive, left_ideal_basis,
                         paper_idempotents, primitive_idempotent,
                         radon_hurwitz, spinor_dimension)
from cliffordkit.classify import (_central_square_keys, _ring_of, classify,
                                  division_ring_of,
                                  division_ring_oracle,
                                  division_tag_of_idempotent)
from cliffordkit.cli import _atlas_entry
from cliffordkit import core, factorize
from cliffordkit.core import QC, QC_I, Multivector, f2_insert, linear_row
from cliffordkit.exactla import Echelon
from cliffordkit.factorize import (PAPER_CHAINS, karoubi_factor_signatures,
                                   tensor_algebra)
from cliffordkit.ideals import (RADON_HURWITZ_BASE, OracleFailure,
                                _canonical_chains, _commuting_rows,
                                _heads_and_tag,
                                find_square_set,
                                idempotent_factor_count,
                                idempotent_from_factors,
                                max_commuting_square_set, realify, ring_basis,
                                square_candidates)
from cliffordkit.rings import RingTag
from conftest import check_record, ring_and_heads, small_signatures


# ---------------------------------------------------------------------------
# The two former recursive searches, kept as independent references for the
# single canonical-chain search.

def _reference_candidates(alg, phases):
    out = []
    for k in alg.basis[1:]:
        s = alg.square_sign(k)
        if s == 1:
            out.append((k, False))
        elif phases and s == -1:
            out.append((k, True))
    return out


def _reference_adjacency(alg, keys):
    n = len(keys)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if alg.keys_commute(keys[i], keys[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _reference_find(alg, k, phases):
    """First commuting independent k-set in lexicographic order, or None."""
    if k == 0:
        return []
    cands = _reference_candidates(alg, phases)
    adj = _reference_adjacency(alg, [c[0] for c in cands])

    def rec(chosen, span, candmask, start):
        if len(chosen) == k:
            return list(chosen)
        m = candmask >> start << start
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            key = cands[i][0]
            if key in span:
                continue
            new_span = span | {key ^ s for s in span} | {key}
            chosen.append(cands[i])
            got = rec(chosen, new_span, candmask & adj[i], i + 1)
            if got is not None:
                return got
            chosen.pop()
        return None

    return rec([], set(), (1 << len(cands)) - 1, 0)


def _reference_max(alg):
    """(k, first maximal set) over canonical generator chains, real only."""
    cands = [c[0] for c in _reference_candidates(alg, phases=False)]
    idx = {k: i for i, k in enumerate(cands)}
    adj = _reference_adjacency(alg, cands)
    best_k, best = 0, []

    def rec(gens, span, candmask, start):
        nonlocal best_k, best
        if len(gens) > best_k:
            best_k, best = len(gens), list(gens)
        mm = candmask >> start << start
        while mm:
            i = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            key = cands[i]
            if key in span:
                continue
            coset = [key ^ s for s in span]
            if any(idx[c] < i for c in coset):
                continue
            gens.append(key)
            rec(gens, span | set(coset) | {key}, candmask & adj[i], i + 1)
            gens.pop()

    rec([], set(), (1 << len(cands)) - 1, 0)
    return best_k, [(k, False) for k in best]


def _reference_spans(alg, cands):
    """The F2 span of every increasing commuting independent candidate set."""
    keys = [c[0] for c in cands]
    adj = _reference_adjacency(alg, keys)
    out = []

    def rec(span, candmask, start):
        out.append(frozenset(span))
        m = candmask >> start << start
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            if keys[i] not in span:
                rec(span | {keys[i] ^ s for s in span},
                    candmask & adj[i], i + 1)

    rec({alg.unit_key}, (1 << len(keys)) - 1, 0)
    return out


def idempotent_of_candidates(alg, cands):
    """f of the (key, imag) candidates, as `idempotent_from_factors` builds
    and checks it."""
    return idempotent_from_factors(
        alg, [alg.blade(key, QC_I if imag else 1) for key, imag in cands])


REAL_TENSORS = [tensor_algebra([(1, 1), (0, 2)]),
                tensor_algebra([(2, 0), (0, 2), (1, 1)])]


def test_adjacency_matches_reference_rows():
    # every on-demand row against the pairwise keys_commute loop
    key_lists = []
    for field in "RC":
        for p, q in small_signatures(8):
            alg = clifford(p, q, field)
            key_lists.append((alg, [c[0] for c in square_candidates(alg)]))
            if p + q <= 6:
                key_lists.append((alg, list(alg.basis[1:])))
    for alg in REAL_TENSORS + [tensor_algebra([clifford(1, 0, "C"),
                                               clifford(0, 2, "C")])]:
        key_lists.append((alg, [c[0] for c in square_candidates(alg)]))
        key_lists.append((alg, list(alg.basis[1:])))
    for alg, keys in key_lists:
        row = _commuting_rows(alg, keys)
        # a key commutes with itself; the reference leaves that bit out
        assert all(row(i) >> i & 1 for i in range(len(keys))), alg
        assert [row(i) ^ 1 << i for i in range(len(keys))] == \
            _reference_adjacency(alg, keys), alg


def test_commuting_rows_sample_at_the_cap():
    # 64 seeded candidate rows of Cl(6,6) and C(x)Cl(6,6), where a full
    # table would hold 2^11 or 2^12 rows, against pairwise keys_commute
    rng = random.Random(6)
    for field in "RC":
        alg = clifford(6, 6, field)
        keys = [c[0] for c in square_candidates(alg)]
        row = _commuting_rows(alg, keys)
        for i in rng.sample(range(len(keys)), 64):
            assert row(i) == sum(1 << j for j, k in enumerate(keys)
                                 if alg.keys_commute(keys[i], k)), (alg, i)


def test_square_parities_match_square_sign():
    # the candidates read off one doubling pass against square_sign on
    # every key to p+q = 8 (over C every non-unit key is a candidate, its
    # phase the parity), and on 64 seeded keys of each algebra at p+q = 12
    algs = [clifford(p, q, field) for field in "RC"
            for p, q in small_signatures(8)] + REAL_TENSORS
    algs.append(tensor_algebra([clifford(1, 0, "C"), clifford(0, 2, "C")]))
    for alg in algs:
        assert square_candidates(alg) == \
            _reference_candidates(alg, alg.field == "C"), alg
    rng = random.Random(12)
    for field in "RC":
        for p in range(13):
            alg = clifford(p, 12 - p, field)
            cands = dict(square_candidates(alg))
            for k in rng.sample(alg.basis[1:], 64):
                s = alg.square_sign(k)
                if field == "C":
                    assert cands[k] == (s == -1), (alg, k)
                else:
                    assert (k in cands) == (s == 1), (alg, k)


# The canonical factors of C(x)Cl(p,q) for p+q in {11, 12}: the keys e1,
# e23, e45, e67, e89, e10,11 in every signature, each i-phased ("i") or
# not (".").
COMPLEX_TOP_PHASES = {
    (0, 11): "iiiiii", (1, 10): ".iiiii", (2, 9): "..iiii",
    (3, 8): ".iiiii", (4, 7): ".i.iii", (5, 6): ".iiiii",
    (6, 5): ".ii.ii", (7, 4): ".iiiii", (8, 3): ".iii.i",
    (9, 2): ".iiiii", (10, 1): ".iiii.", (11, 0): ".iiiii",
    (0, 12): "iiiiii", (1, 11): ".iiiii", (2, 10): "..iiii",
    (3, 9): ".iiiii", (4, 8): ".i.iii", (5, 7): ".iiiii",
    (6, 6): ".ii.ii", (7, 5): ".iiiii", (8, 4): ".iii.i",
    (9, 3): ".iiiii", (10, 2): ".iiii.", (11, 1): ".iiiii",
    (12, 0): ".iiiii",
}


def test_complex_factor_keys_at_the_top_of_the_range():
    keys = [0b1, 0b110, 0b11000, 0b1100000, 0b110000000, 0b11000000000]
    for (p, q), phases in COMPLEX_TOP_PHASES.items():
        alg = clifford(p, q, "C")
        assert find_square_set(alg) == [
            (k, ph == "i") for k, ph in zip(keys, phases)], (p, q)


def test_find_square_set_matches_reference_search():
    # the first maximal chain is the smallest set of the largest size
    algs = [clifford(p, q, field) for field in "RC"
            for p, q in small_signatures(8)] + REAL_TENSORS
    for alg in algs:
        k_max = max_commuting_square_set(alg)[0]
        want = _reference_find(alg, k_max, phases=alg.field == "C")
        assert find_square_set(alg) == want, alg


def _greedy_scan(alg):
    """The candidate-by-candidate search: each candidate, in canonical
    order, is taken when it commutes with every key taken (even overlap
    with their `linear_row`s) and lies outside their span (`f2_insert`)."""
    gens = alg.generator_rows()
    lead, rows, chain = {}, [], []
    for cand in square_candidates(alg):
        k = cand[0]
        if not any((k & r).bit_count() & 1 for r in rows) \
                and f2_insert(lead, k):
            rows.append(linear_row(gens, k))
            chain.append(cand)
    return chain


def test_find_square_set_matches_the_greedy_scan_to_the_cap():
    # the bit-set search takes the scan's chain everywhere to p+q = 12,
    # on the real tensors and on a complex one
    algs = [clifford(p, q, field) for field in "RC"
            for p, q in small_signatures(12)] + REAL_TENSORS
    algs.append(tensor_algebra([clifford(1, 0, "C"), clifford(0, 2, "C"),
                                clifford(1, 1, "C")]))
    assert len(algs) == 182 + 3
    for alg in algs:
        assert find_square_set(alg) == _greedy_scan(alg), alg


def test_max_commuting_square_set_matches_reference_search():
    for p, q in small_signatures(7):
        alg = clifford(p, q)
        assert max_commuting_square_set(alg) == _reference_max(alg), (p, q)
    for alg in REAL_TENSORS:
        assert max_commuting_square_set(alg) == _reference_max(alg), alg


def test_canonical_chains_reach_each_commuting_subspace_once():
    algs = [clifford(p, q, field) for field in "RC"
            for p, q in small_signatures(5)] + REAL_TENSORS[:1]
    for alg in algs:
        cands = square_candidates(alg)
        spans = []
        for chain in _canonical_chains(alg, cands):
            keys = [c[0] for c in chain]
            assert [alg.index[k] for k in keys] == sorted(
                alg.index[k] for k in keys), (alg, chain)
            span = {alg.unit_key}
            for key in keys:
                span |= {key ^ s for s in span}
            assert len(span) == 1 << len(keys), (alg, chain)
            spans.append(frozenset(span))
        assert len(spans) == len(set(spans)), alg
        assert set(spans) == set(_reference_spans(alg, cands)), alg


def test_radon_hurwitz_base_derivation():
    # re-derive the frozen base table with the brute-force maximum search
    for p, q in small_signatures(6):
        k, _ = max_commuting_square_set(clifford(p, q))
        assert k == q - radon_hurwitz(q - p), (p, q)
    # spot checks at n = 7, 8 where the search space is largest
    for p, q in [(0, 7), (7, 0), (4, 4), (0, 8), (8, 0), (3, 5), (2, 6)]:
        k, _ = max_commuting_square_set(clifford(p, q))
        assert k == q - radon_hurwitz(q - p), (p, q)


def test_radon_hurwitz_periodicity():
    for i in range(-12, 13):
        assert radon_hurwitz(i + 8) - radon_hurwitz(i) == 4
    assert tuple(radon_hurwitz(i) for i in range(8)) == RADON_HURWITZ_BASE


def test_factor_counts():
    assert idempotent_factor_count((0, 2)) == 0   # f = 1 already primitive
    assert idempotent_factor_count((2, 0)) == 1
    assert idempotent_factor_count((1, 1)) == 1
    assert idempotent_factor_count((2, 4)) == 2
    assert idempotent_factor_count((4, 1)) == 2


def test_canonical_idempotents_frozen():
    f = primitive_idempotent((2, 0))
    assert [str(t) for t in f.factors] == ["e1"]
    f = primitive_idempotent((1, 1))
    assert [str(t) for t in f.factors] == ["e1"]
    f = primitive_idempotent((2, 4))
    assert [str(t) for t in f.factors] == ["e1", "e23"]
    check_record(f, element=f.element, factors=f.factors)


def test_idempotents_are_idempotent_and_primitive():
    for p, q in small_signatures(5):
        f = primitive_idempotent((p, q))
        assert f.element * f.element == f.element
        assert is_primitive(f), (p, q)


def test_paper_printed_idempotents_certified():
    reg = paper_idempotents()
    # f20 = (1+e1)/2, f11 = (1+e12)/2, f02 = 1, f24 = (1+e15)(1+e26)/4
    for key, sig, k in [("f20", (2, 0), 1), ("f11", (1, 1), 1),
                        ("f02", (0, 2), 0), ("f24", (2, 4), 2)]:
        f = reg[key]
        assert len(f.factors) == k
        assert f.element * f.element == f.element
        assert is_primitive(f), key
        n = sum(sig)
        assert len(left_ideal_basis(f)) == 1 << (n - k)


def test_paper_f11_differs_from_canonical_choice():
    # the printed factor is e12; the lexicographic search picks e1 -- both
    # are certified primitive, and the ideal data agree
    printed = paper_idempotents()["f11"]
    canonical = primitive_idempotent((1, 1))
    assert str(printed.factors[0]) == "e12"
    assert printed.element != canonical.element
    assert len(left_ideal_basis(printed)) == len(left_ideal_basis(canonical))


def test_ideal_dimensions():
    assert len(left_ideal_basis(primitive_idempotent((0, 2)))) == 4
    assert len(left_ideal_basis(primitive_idempotent((1, 1)))) == 2
    f41 = paper_idempotents()["f41_real"]
    assert len(left_ideal_basis(f41)) == 8           # real dimension
    assert spinor_dimension(f41) == 4                # the twistor space C^4


def test_f41_complex_form_matches_real_reading():
    reg = paper_idempotents()
    fc = reg["f41_complex"]
    fr = reg["f41_real"]
    assert fc.element * fc.element == fc.element
    assert realify(fc.element) == fr.element
    assert is_primitive(fr)
    with pytest.raises(ValueError,
                       match="^realify expects a complexified algebra element$"):
        realify(clifford(3, 0).one())
    with pytest.raises(ValueError, match=r"^realify needs odd n with omega\^2 = -1$"):
        realify(clifford(1, 1, "C").one())


def test_unit_not_primitive_in_matrix_algebra():
    alg = clifford(2, 0)
    f = idempotent_from_factors(alg, [])
    assert f.element == alg.one()
    assert not is_primitive(f)


def test_lambda_projectors_primitive_in_cl30_complexification_only():
    # in Cl(0,3) (omega^2 = +1, factors H) lambda+ is primitive
    alg = clifford(0, 3)
    lp = idempotent_from_factors(alg, [alg.blade(0b111)])
    assert is_primitive(lp)
    # in Cl(5,0) lambda+ alone is central but not primitive (factor rank 2)
    alg = clifford(5, 0)
    lp = idempotent_from_factors(alg, [alg.blade(0b11111)])
    assert not is_primitive(lp)


def test_idempotent_ambiguity_invariants():
    # distinct factor choices give the same ideal dimension and ring size
    from cliffordkit.classify import division_tag_of_idempotent
    alg = clifford(1, 1)
    f1 = idempotent_from_factors(alg, [alg.gen(1)])
    f2 = idempotent_from_factors(alg, [alg.blade(0b11)])
    assert f1.element != f2.element
    assert len(left_ideal_basis(f1)) == len(left_ideal_basis(f2)) == 2
    assert division_tag_of_idempotent(f1.element) == \
        division_tag_of_idempotent(f2.element) == RingTag.R


def test_ideal_dimension_times_2k_is_algebra_dimension():
    for p, q in small_signatures(5):
        f = primitive_idempotent((p, q))
        k = idempotent_factor_count((p, q))
        assert len(left_ideal_basis(f)) << k == 1 << (p + q)


def test_left_ideal_members_absorb_f():
    f = primitive_idempotent((2, 2))
    fe = f.element
    for x in left_ideal_basis(f):
        assert x * fe == x


def test_search_failure_reported():
    # no +1-squares exist at all: the first maximal chain is empty, and
    # f = 1 is primitive, as Cl(0,2) is H
    alg = clifford(0, 2)
    assert find_square_set(alg) == []
    f = primitive_idempotent((0, 2))
    assert f.element == alg.one()
    assert is_primitive(f)


def test_complexified_primitive_idempotent():
    f = primitive_idempotent((4, 1), field="C")
    assert f.element * f.element == f.element
    assert len(f.factors) == 3
    assert is_primitive(f)


def test_field_of_an_algebra_argument_is_not_dropped():
    # both fields give (1 + e1)/2 on Cl(2,0): only the parent algebra tells
    # a dropped field apart, so an algebra over another field must raise
    want = primitive_idempotent(clifford(2, 0, "C"))
    assert want.element.alg is clifford(2, 0, "C")
    assert primitive_idempotent((2, 0), "C") == want
    assert primitive_idempotent(clifford(2, 0, "C"), "C") == want
    assert primitive_idempotent(clifford(2, 0)).element.alg is clifford(2, 0)
    for alg, field in ((clifford(2, 0), "C"), (clifford(2, 0, "C"), "R"),
                       (tensor_algebra([(1, 0), (0, 1)]), "C")):
        with pytest.raises(ValueError, match="not over"):
            primitive_idempotent(alg, field)


# ---------------------------------------------------------------------------
# The former product-and-echelon spans of Cl*f and f*Cl*f, kept as independent
# references for the stabilizer coset bases.  The reference ring basis spans
# all of f*Cl*f; the former one gave up after nine elements.

def _reference_left_ideal_basis(fe):
    alg = fe.alg
    ech = Echelon(alg.dim)
    return [x for x in (alg.blade(k) * fe for k in alg.basis)
            if ech.insert(x.columns()) is not None]


def _reference_ring_basis(fe):
    alg = fe.alg
    out = []
    ech = Echelon(alg.dim)
    for k in alg.basis:
        x = fe * alg.blade(k) * fe
        if x and ech.insert(x.columns()) is not None:
            out.append(x)
    return out


def _product_tag(fe):
    """The former ring tag, certified by product witnesses on the basis e_A f
    of f*Cl*f: past f every x*x is -f, and for H the second and third
    elements anticommute.  None where the key reading raises OracleFailure."""
    basis = ring_basis(fe)
    d = len(basis)
    if fe.alg.field == "C":
        return RingTag.C if d == 1 else None
    if d == 1:
        return RingTag.R
    if d not in (2, 4) or any(x * x != -fe for x in basis[1:]):
        return None
    if d == 2:
        return RingTag.C
    u, v = basis[1], basis[2]
    return None if u * v + v * u else RingTag.H


def _key_tag(fe):
    try:
        return division_tag_of_idempotent(fe)
    except OracleFailure:
        return None


def _read_factors(fe):
    """The T_i the former reading took off f: T = 2^k c_A e_A for each key A
    that opens a new coset of the span, in canonical order; None unless f's
    support is that span and holds the unit with coefficient 1/2^k."""
    alg, c = fe.alg, fe.c
    span, keys = {alg.unit_key}, []
    for key in sorted(c, key=alg.index.get):
        if key not in span:
            keys.append(key)
            span |= {key ^ s for s in span}
    scale = 1 << len(keys)
    if span != c.keys() or c.get(alg.unit_key, 0) * scale != 1:
        return None
    return [alg.blade(a, c[a] * scale) for a in keys]


def _product_idempotent(alg, factors):
    """The former body of `idempotent_from_factors`: prod (1+T)/2 as
    multivector products, with f^2 = f checked."""
    f = alg.one()
    half = alg.scalar(1) / 2
    for t in factors:
        f = f * ((alg.one() + t) * half)
    if (not f) or f * f != f:
        raise ValueError("factors do not yield a nonzero idempotent")
    return f


def _rebuilds(fe):
    """The former product check: the T_i read off f rebuild f."""
    ts = _read_factors(fe)
    if ts is None:
        return False
    try:
        return _product_idempotent(fe.alg, ts) == fe
    except ValueError:
        return False


def _same_build(alg, factors):
    """`idempotent_from_factors` and the product reference agree: both raise
    ValueError, or both give f with the same coefficients and types."""
    try:
        want = _product_idempotent(alg, factors)
    except ValueError:
        with pytest.raises(ValueError):
            idempotent_from_factors(alg, factors)
        return False
    got = idempotent_from_factors(alg, factors).element
    assert got == want, (alg, factors)
    assert [type(v) for v in got.c.values()] == \
        [type(want.c[k]) for k in got.c], (alg, factors)
    return True


def test_key_built_idempotent_adds_repeated_and_dependent_keys():
    # repeated, dependent, negated and scalar factors, with coefficients
    # 1, -1, 2 (and i): the keys add and cancel as in the product
    built = 0
    for field in "RC":
        for p, q in small_signatures(3):
            alg = clifford(p, q, field)
            units = [1, -1, 2] + ([QC_I] if field == "C" else [])
            blades = [alg.blade(k, u) for k in alg.basis for u in units]
            for x in blades:
                for y in blades[:8]:
                    built += _same_build(alg, [x, y, x])
    assert built > 50, built


def test_non_idempotent_factors_are_rejected():
    # f = prod (1 + T)/2 is multiplied out, but f^2 = f fails (anticommuting
    # or -1-square T) or f is 0 (T and -T), over R and over C
    for field in "RC":
        a20, a01 = clifford(2, 0, field), clifford(0, 1, field)
        e1 = a20.gen(1)
        for alg, factors in ((a20, [e1, a20.gen(2)]), (a20, [e1, -e1]),
                             (a20, [a20.blade(0b11)]), (a01, [a01.gen(1)])):
            with pytest.raises(ValueError, match="^factors do not yield a "
                               "nonzero idempotent$"):
                idempotent_from_factors(alg, factors)
    c10 = clifford(1, 0, "C")
    with pytest.raises(ValueError, match="nonzero idempotent"):
        idempotent_from_factors(c10, [c10.blade(0b1, QC_I)])


def test_multi_term_factor_is_rejected():
    alg = clifford(1, 1)
    with pytest.raises(ValueError, match="single blade"):
        idempotent_from_factors(alg, [alg.one() + alg.gen(1)])
    with pytest.raises(ValueError, match="single blade"):
        idempotent_from_factors(alg, [alg.zero()])
    with pytest.raises(ValueError, match="single blade"):
        idempotent_from_factors(alg, [clifford(2, 0).gen(1)])


def _keys_accept(fe):
    try:
        ideals._coset_heads(fe)
    except ValueError:
        return False
    return True


def _assert_matches_references(f):
    fe = f.element
    assert left_ideal_basis(f) == _reference_left_ideal_basis(fe), f
    assert ring_basis(f) == _reference_ring_basis(fe), f
    assert _rebuilds(fe), f
    assert _same_build(f.alg, f.factors), f
    assert _key_tag(fe) == _product_tag(fe), f


def test_coset_bases_match_reference_on_primitive_idempotents():
    for field in "RC":
        for p, q in small_signatures(8):
            f = primitive_idempotent((p, q), field)
            _assert_matches_references(f)
            # the witnesses agree with the mod-8 table, independent of both
            want = RingTag.C if field == "C" else classify((p, q)).ring.base
            assert division_tag_of_idempotent(f.element) is want, \
                (field, p, q)


def test_coset_bases_match_reference_on_other_idempotents():
    fs = list(paper_idempotents().values())
    for p, q in [(0, 3), (5, 0)]:
        alg = clifford(p, q)
        fs.append(idempotent_from_factors(alg, [alg.blade(alg.volume_key)]))
    fs.append(idempotent_from_factors(clifford(2, 0), []))
    # the f of the exhaustive set, on a real and a complex tensor
    for alg in (REAL_TENSORS[0],
                tensor_algebra([clifford(2, 0, "C"), clifford(0, 3, "C")])):
        fs.append(idempotent_of_candidates(alg,
                                           max_commuting_square_set(alg)[1]))
    for f in fs:
        _assert_matches_references(f)


def _two_factor_elements(alg):
    """c (1 + t e_A)(1 + u e_B), multiplied out with the product kernel, for
    every pair of keys and unit-like t, u: the expansions of commuting,
    anticommuting and -1-square generators, with right and wrong c, and
    each with its e_(A+B) term dropped."""
    units = [1, -1, 2] + ([QC_I] if alg.field == "C" else [])
    one, out = alg.one(), []
    for a in alg.basis[1:]:
        for t in units:
            x = one + alg.blade(a, t)
            out += [x / 2, x / 4]
            for b in alg.basis[alg.index[a] + 1:]:
                for u in units[:2]:
                    y = x * (one + alg.blade(b, u)) / 4
                    out += [y, alg.mv({k: v for k, v in y.c.items()
                                       if k != a ^ b})]
    return out


def test_key_reading_accepts_exactly_what_the_product_rebuild_accepts():
    seen = {True: 0, False: 0}
    for field in "RC":
        for p, q in small_signatures(3):
            for fe in _two_factor_elements(clifford(p, q, field)):
                accepted = _keys_accept(fe)
                assert accepted == _rebuilds(fe), (field, p, q, fe)
                seen[accepted] += 1
                if accepted:
                    assert _key_tag(fe) == _product_tag(fe), fe
    assert min(seen.values()) > 100, seen


def test_division_tag_reads_the_relations_of_cl0d():
    # keys of Cl(0,4): e1 e2 e4 give H; e12 and e34 square to -1 but commute
    alg = clifford(0, 4)
    assert ideals._division_tag(alg, [0, 0b1, 0b10, 0b100]) is RingTag.H
    assert ideals._division_tag(alg, [0, 0b11]) is RingTag.C
    with pytest.raises(OracleFailure, match="commute"):
        ideals._division_tag(alg, [0, 0b11, 0b1100, 0b101])
    with pytest.raises(OracleFailure, match="non-negative square"):
        ideals._division_tag(alg, [0, 0b1111])


def _tag(f):
    return division_tag_of_idempotent(f)


def test_idempotents_outside_the_stabilizer_form_are_rejected():
    a20 = clifford(2, 0)
    u = (3 * a20.gen(1) + 4 * a20.gen(2)) / 5
    rotated = (a20.one() + u) / 2    # support {1, e1, e2}: no F2 span
    a11 = clifford(1, 1)
    # support the span of e1 and e2, but unit coefficient 1/2, not 1/4
    spread = (a11.one() + a11.gen(1) + a11.gen(2) + a11.blade(0b11)) / 2
    for f in (rotated, spread):
        assert f * f == f
        for check in (left_ideal_basis, ring_basis, is_primitive, _tag):
            with pytest.raises(ValueError):
                check(f)


def test_generator_squaring_to_minus_one_is_rejected(monkeypatch):
    # T = e3 in Cl(2,1) and T = i e1 in C(x)Cl(1,0) square to -1: rejected
    # from the key's square sign, before f is multiplied out
    rebuilds = []
    monkeypatch.setattr(ideals, "_factor_product",
                        lambda alg, ts: rebuilds.append(ts))
    a21, c10 = clifford(2, 1), clifford(1, 0, "C")
    for f in ((a21.one() + a21.gen(3)) / 2,
              (c10.one() + c10.blade(0b1, QC_I)) / 2):
        with pytest.raises(ValueError, match="commuting blades"):
            ideals._coset_heads(f)
    assert rebuilds == []


def test_verifying_f_builds_no_coefficient(monkeypatch):
    # f is read into integer numerators and the rebuilt product compared by
    # cross-multiplication: no Fraction map or QC is built to check it
    fs = [primitive_idempotent((p, q), field)
          for field in "RC" for p, q in small_signatures(8)]

    def built(*args):
        raise AssertionError("a coefficient was built")

    monkeypatch.setattr(ideals, "_from_numerators", built)
    monkeypatch.setattr(core, "_from_numerators", built)
    monkeypatch.setattr(QC, "__init__", built)
    for f in fs:
        assert ideals._coset_heads(f)[0] is f.element


def test_anticommuting_generators_are_rejected():
    # (1 + e1)(1 + e2)/4 in Cl(2,0): support, unit and every coefficient
    # match the expansion of prod (1 + T_i), but e1 and e2 anticommute
    alg = clifford(2, 0)
    one = alg.one()
    f = (one + alg.gen(1) + alg.gen(2) + alg.blade(0b11)) / 4
    assert f == (one + alg.gen(1)) * (one + alg.gen(2)) / 4
    assert not _rebuilds(f)
    for check in (left_ideal_basis, ring_basis, _tag):
        with pytest.raises(ValueError, match="commuting blades"):
            check(f)
    assert not is_primitive(f)


def test_one_wrong_coefficient_is_rejected():
    # (1 + e1)(1 + e23)/4 in Cl(2,2) with the sign of e123 flipped: the
    # support, unit coefficient and generators pass, the expansion does not
    alg = clifford(2, 2)
    f = (alg.one() + alg.gen(1) + alg.blade(0b0110) - alg.blade(0b0111)) / 4
    for check in (left_ideal_basis, ring_basis, _tag):
        with pytest.raises(ValueError):
            check(f)
    # is_primitive tests idempotency first
    assert f * f != f
    assert not is_primitive(f)


def _set_heads(alg, keys):
    """The former head walk: the F2 span of `keys` as a set, and the keys in
    canonical order, each taken as a head unless an earlier coset covers
    it."""
    span = {alg.unit_key}
    for a in keys:
        span |= {a ^ s for s in span}
    heads, seen = [], set()
    for a in alg.basis:
        if a not in seen:
            seen.update(a ^ s for s in span)
            heads.append(a)
    return heads


READ_ALGEBRAS = [clifford(p, q, field) for field in "RC"
                 for p, q in small_signatures(12)] + REAL_TENSORS


def test_every_built_f_is_idempotent_and_reads_as_its_element():
    # f is built from keys checked on keys alone; the product f*f = f and
    # the full read-back of the bare element still agree with that reading
    assert len(READ_ALGEBRAS) == 182 + 2
    for alg in READ_ALGEBRAS:
        keys, _heads, central = ideals._primitive_reading(alg)
        f = primitive_idempotent(alg)
        assert [next(iter(t.c)) for t in f.factors] == keys, alg
        assert ideals._is_idempotent(alg, *core._numerators(alg, f.element.c))
        assert _ring_of(alg, central) is ring_and_heads(f.element)[0], alg


C_TENSOR = tensor_algebra([clifford(1, 0, "C"), clifford(0, 2, "C"),
                           clifford(1, 1, "C")])


def test_key_reading_heads_match_the_read_back_of_the_built_f():
    # the atlas and the ring oracle read the ideal dimension and one key of
    # each central coset off the checked keys, with no f built and no walk
    # over the keys; the read-back of the f that is built walks every coset
    for alg in READ_ALGEBRAS + [C_TENSOR]:
        keys, dimension, central = ideals._primitive_reading(alg)
        _fe, heads, read_back = ideals._coset_heads(primitive_idempotent(alg))
        assert dimension == len(heads), alg
        assert read_back == [a for a in heads if all(
            alg.keys_commute(a, k) for k in keys)], alg
        span = {alg.unit_key}
        for a in keys:
            span |= {a ^ s for s in span}
        # coset for coset: rep ^ head lies in the span, unit first
        head_of = {a ^ s: a for a in read_back for s in span}
        assert central[0] == alg.unit_key, alg
        assert sorted(head_of[a] for a in central) == sorted(read_back), alg


def test_key_reading_walks_no_cosets(monkeypatch):
    # after the search, the atlas and the ring oracle read everything off
    # the chain's keys: the coset walk over the 2^n keys never runs
    def walk(*args):
        raise AssertionError("the coset walk ran")

    monkeypatch.setattr(ideals, "_cosets", walk)
    sigs = small_signatures(12)
    assert len(sigs) == 91
    for p, q in sigs:
        _atlas_entry(p, q)
    for alg in READ_ALGEBRAS:
        assert division_ring_oracle(alg) is division_ring_of(alg), alg


BLOCKS = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def _ring_or_failure(read, alg):
    try:
        return read(alg)
    except (ValueError, OracleFailure) as e:
        return type(e), str(e)


def test_key_reading_ring_matches_the_built_f_on_tensor_algebras():
    # every ordered pair and triple of the blocks, over R and over C: the
    # key reading gives the tag, or the failure, of the built f's read-back
    algs = [tensor_algebra([clifford(*s, field) for s in fac])
            for field in "RC" for r in (2, 3)
            for fac in itertools.product(BLOCKS, repeat=r)]
    assert len(algs) == 300
    for alg in algs:
        assert _ring_or_failure(division_ring_of, alg) == _ring_or_failure(
            lambda a: ring_and_heads(primitive_idempotent(a))[0], alg), alg


def test_bit_set_head_walk_matches_the_set_walk():
    # on the search's keys, and on random independent keys that need not
    # commute: the walk reads only their span
    rng = random.Random(36)
    algs = READ_ALGEBRAS + [C_TENSOR]
    for alg in algs:
        chain = [a for a, _imag in find_square_set(alg)]
        lead, other = {}, []
        for a in rng.sample(range(1, alg.dim), min(alg.dim - 1, alg.n)):
            if f2_insert(lead, a):
                other.append(a)
        for keys in (chain, other):
            assert ideals._cosets(alg, keys) == _set_heads(alg, keys), \
                (alg, keys)


@pytest.mark.parametrize("field, p, q, chain", [
    ("R", 2, 0, [(0b1, False), (0b10, False)]),    # anticommuting
    ("R", 0, 1, [(0b1, False)]),                   # e1^2 = -1
    ("C", 1, 0, [(0b1, True)]),                    # (i e1)^2 = -1
    ("R", 2, 0, [(0b1, False), (0b1, False)]),     # repeated
    ("R", 2, 2, [(0b1, False), (0b110, False), (0b111, False)]),  # dependent
], ids=["anticommuting", "minus-square", "i-phased", "repeated", "dependent"])
def test_reading_rejects_a_chain_that_fails_a_key_check(monkeypatch, field,
                                                        p, q, chain):
    # the search never gives such a chain; were it to, no f is built
    alg = clifford(p, q, field)
    monkeypatch.setattr(ideals, "find_square_set", lambda alg: chain)
    for build in (primitive_idempotent, division_ring_of):
        with pytest.raises(ValueError, match="commuting blades"):
            build(alg)


def test_is_primitive_and_spinor_dimension_verify_f_once(monkeypatch):
    f41 = paper_idempotents()["f41_real"]
    honest = ideals._coset_heads
    calls = []

    def counted(f):
        calls.append(f)
        return honest(f)

    monkeypatch.setattr(ideals, "_coset_heads", counted)
    assert is_primitive(f41)
    assert len(calls) == 1
    assert spinor_dimension(f41) == 4
    assert len(calls) == 2


def test_ring_reading_makes_no_products(monkeypatch):
    # once f is built, its ring, tag and spinor dimension are read off keys
    fs = [primitive_idempotent((p, q), field)
          for field in "RC" for p, q in small_signatures(6)]
    fs += [f for f in paper_idempotents().values() if is_primitive(f)]
    honest = Multivector.__mul__
    calls = []

    def counted(a, b):
        calls.append(b)
        return honest(a, b)

    monkeypatch.setattr(Multivector, "__mul__", counted)
    for f in fs:
        ring_and_heads(f)
        division_tag_of_idempotent(f.element)
        spinor_dimension(f)
    assert calls == []


def _answer(reader, f):
    try:
        return reader(f)
    except (ValueError, OracleFailure) as e:
        return type(e)


def test_readers_take_an_idempotent_or_its_element_alike():
    fs = [primitive_idempotent((p, q), field)
          for field in "RC" for p, q in small_signatures(5)]
    fs += list(paper_idempotents().values())
    a20 = clifford(2, 0)
    rotated = (a20.one() + (3 * a20.gen(1) + 4 * a20.gen(2)) / 5) / 2
    fs.append(ideals.Idempotent(rotated, ()))
    readers = [left_ideal_basis, ring_basis, spinor_dimension,
               division_tag_of_idempotent, ring_and_heads]
    fs += [idempotent_of_candidates(alg, max_commuting_square_set(alg)[1])
           for alg in REAL_TENSORS]
    cases = [(f, reader) for f in fs for reader in readers + [is_primitive]]
    for f, reader in cases:
        assert _answer(reader, f) == _answer(reader, f.element), \
            (reader.__name__, f)


def test_is_primitive_serves_tensor_algebras():
    # no count 2^(n-k) is needed: C(x)Cl(1,0) (x) C(x)Cl(1,0) is C^4, whose
    # primitive idempotents have ideal dimension 1, where C(x)Cl(2,0) has 2
    c4 = tensor_algebra([clifford(1, 0, "C"), clifford(1, 0, "C")])
    for alg in REAL_TENSORS + [c4]:
        f = idempotent_of_candidates(alg, max_commuting_square_set(alg)[1])
        for x in (f, f.element):
            assert is_primitive(x), alg
    f = idempotent_of_candidates(c4, max_commuting_square_set(c4)[1])
    assert len(left_ideal_basis(f)) == 1


# Tensor products of Clifford algebras with their first maximal chain:
# (factors, k, base ring of f*Cl*f, number of coset heads of Cl*f)
TENSOR_IDEMPOTENTS = [
    ([(0, 2), (0, 2)], 2, RingTag.R, 4),
    ([(0, 2)] * 3, 2, RingTag.H, 16),
    ([(0, 2)] * 4, 4, RingTag.R, 16),
    ([(0, 1), (0, 1)], 1, RingTag.C, 2),
    ([(1, 0), (0, 2)], 1, RingTag.H, 4),
]


def test_primitive_idempotent_of_tensor_algebras():
    small = [(2, 0), (1, 1), (0, 2), (0, 1)]
    pairs = [[a, b] for a in small for b in small]
    for factors, k, tag, heads in TENSOR_IDEMPOTENTS:
        f = primitive_idempotent(tensor_algebra(factors))
        got_heads, got_tag = _heads_and_tag(f)
        assert (len(f.factors), got_tag, len(got_heads)) == (k, tag, heads), \
            factors
    for factors in [c[0] for c in TENSOR_IDEMPOTENTS] + pairs:
        ta = tensor_algebra(factors)
        f = primitive_idempotent(ta)
        assert is_primitive(f), factors
        # the first maximal chain is as long as the exhaustive maximum
        assert len(f.factors) == max_commuting_square_set(ta)[0], factors
        if len(_central_square_keys(ta)) <= 2:
            # against the f of the exhaustive set: division_ring_of reads
            # the greedy f itself
            exhaustive = idempotent_of_candidates(
                ta, max_commuting_square_set(ta)[1])
            assert ring_and_heads(f)[0] is ring_and_heads(exhaustive)[0], \
                factors
    # Cl(0,2) (x) Cl(0,2) is R(4): its unit is not primitive
    assert not is_primitive(idempotent_from_factors(
        tensor_algebra([(0, 2), (0, 2)]), []))


def test_no_library_path_enters_the_exhaustive_walk(monkeypatch):
    # the walk is exponential (about 207 s for Cl(6,6)); only the oracle
    # max_commuting_square_set may take it
    def walk(alg, cands):
        raise AssertionError(f"exhaustive walk entered for {alg!r}")

    monkeypatch.setattr(ideals, "_canonical_chains", walk)
    for p, q in small_signatures(12):
        for field in "RC":
            primitive_idempotent((p, q), field)
            division_ring_of(clifford(p, q, field))
        division_ring_oracle((p, q))
        _atlas_entry(p, q)
    for factors, *_ in TENSOR_IDEMPOTENTS:
        ta = tensor_algebra(factors)
        primitive_idempotent(ta)
        division_ring_of(ta)
    with pytest.raises(AssertionError, match="exhaustive walk entered"):
        max_commuting_square_set(clifford(1, 1))


def test_first_maximal_chain_has_the_radon_hurwitz_count():
    # the count is printed, not used to build f: every p+q <= 12 checks it
    for p, q in small_signatures(12):
        assert len(primitive_idempotent((p, q)).factors) == \
            idempotent_factor_count((p, q)), (p, q)
        assert len(primitive_idempotent((p, q), "C").factors) == \
            (p + q + 1) // 2, (p, q)


def test_key_paths_build_no_basis_table(monkeypatch):
    # the atlas, the oracle and the idempotent read keys alone: no algebra
    # they touch builds its 2^n `basis` or `index`.  Fresh caches stand in
    # for cleared ones, so that no algebra an earlier test read is seen, and
    # the cached algebras of the other tests come back afterwards.
    for module, name in ((core, "_clifford_cached"), (factorize, "_tensor_cached")):
        fresh = getattr(module, name).__wrapped__
        monkeypatch.setattr(module, name, functools.lru_cache(maxsize=None)(fresh))
    sigs = small_signatures(12)
    assert len(sigs) == 91
    for p, q in sigs:
        _atlas_entry(p, q)
        division_ring_oracle((p, q))
        for field in "RC":
            primitive_idempotent((p, q), field)
    touched = {clifford(p, q, field) for p, q in sigs for field in "RC"}
    for p, q in sigs:
        if (p + q) % 2 == 0:
            chains = [karoubi_factor_signatures((p, q))]
            chains += [fac for fac, _ring in PAPER_CHAINS.get((p, q), [])]
            touched |= {tensor_algebra(fac) for fac in chains}
    # the lookups are cache hits, and every algebra in the caches is here
    assert len(touched) == core._clifford_cached.cache_info().currsize + \
        factorize._tensor_cached.cache_info().currsize
    for alg in touched:
        assert not {"basis", "index"} & vars(alg).keys(), alg
