"""Primitive idempotents, minimal left ideals, and Radon-Hurwitz counting.

A primitive idempotent of Cl(p,q) is built as f = prod_i (1 + T_i)/2 from k
pairwise-commuting, independent basis elements T_i squaring to +1, where
k = q - r_{q-p} and r is the period-8 Radon-Hurwitz sequence.  The base values
of r are not taken on faith: `max_commuting_square_set` re-derives them by
exhaustive search (see tests and scripts/derive_radon_hurwitz.py), and the
frozen table below is regression-checked against that oracle.

The search machinery works for any blade-indexed algebra (Clifford or plain
tensor products of Clifford algebras): a candidate set is valid iff the masks
are F2-linearly independent and pairwise commuting, which already rules out
-1 from the generated group, hence f != 0.  Commutation is itself an F2
bilinear form on keys: with m = `sign_mask`, blade(a) and blade(b)
anticommute iff popcount(a & m(b)) + popcount(b & m(a)) is odd, in any such
algebra.  So every blade-sign question is a bit parity on the algebra's n
generator rows (`generator_rows`, in closed form): a key's row of
anticommuting generators is the XOR of the rows at its bits
(`core.linear_row`), all square signs come from one doubling pass, and the
search XORs the bit-sliced columns of the candidate keys at a row's bits,
building a key's row of candidates only when it descends into that key.
The chain search tests each candidate it passes down only against the
coset of the span that the newest generator added.  f is multiplied out on
keys in integer numerators, where f^2 = f is checked as N*N = D*N.

Such an f is a stabilizer projector (Gottesman, arXiv:quant-ph/9705052), so
its ideals follow from the F2 span V of the T-keys (Lounesto, ch. 17).  In
Cl*f, e_A f is a unit multiple of e_B f when A + B lies in V, and the two
have disjoint supports otherwise: the first key of each coset of V gives a
basis.  In f*Cl*f, f e_A f is e_A f when e_A commutes with every T_i and 0
otherwise, as (1 - T)(1 + T) = 0: the commuting heads give a basis, whose
squares (e_A f)^2 = square_sign(A) f name the ring.  Only such an f is taken:
its T_i are read off its keys, their squares and commutation checked there,
and f must equal `_factor_product` of them, the multiply-out (in the integer
numerators of `core`) that builds every f; any other f is a ValueError.

Each reader of f takes f alone, an `Idempotent` or its element, reads the
algebra off f and shares the one walk `_coset_heads`; ring tags are `RingTag`s.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .core import (QC_I, CliffordAlgebra, Multivector, _from_numerators,
                   _numerators, _pair_sums, as_algebra, as_signature,
                   clifford, linear_row)
from .rings import RingTag

# Frozen from the brute-force derivation over all signatures with p+q <= 8.
RADON_HURWITZ_BASE = (0, 1, 2, 2, 3, 3, 3, 3)


class SearchError(RuntimeError):
    """No commuting +1-square set of the requested size exists."""


class OracleFailure(RuntimeError):
    """The computed ring f*Cl*f has an impossible shape (idempotent bug)."""


def radon_hurwitz(i: int) -> int:
    """r_i extended by r_{i+8} = r_i + 4 in both directions."""
    return RADON_HURWITZ_BASE[i % 8] + 4 * ((i - (i % 8)) // 8)


def idempotent_factor_count(sig) -> int:
    """k = q - r_{q-p}, the number of commuting (1+T)/2 factors."""
    sig = as_signature(sig)
    return sig.q - radon_hurwitz(sig.q - sig.p)


def complex_factor_count(n: int) -> int:
    # complexified algebras: minimal ideal has complex dimension 2^(n - k)
    return (n + 1) // 2


def _factor_count(alg) -> int:
    if alg.field == "C":
        return complex_factor_count(alg.n)
    return idempotent_factor_count(alg.sig)


# ---------------------------------------------------------------------------
# candidate machinery
#
# A candidate is (key, imag): the basis element `key`, multiplied by i when
# imag is set, chosen so its square is +1.  Over C every non-unit key is a
# candidate, i-phased exactly when its square is -1.

def square_candidates(alg):
    """The candidates in canonical order, with square parities from one
    doubling pass: for k < 2^t, (e_k e_t)^2 is e_k^2 e_t^2, negated when k
    meets e_t's generator row an odd number of times."""
    odd = [0]
    for t, row in enumerate(alg.generator_rows()):
        s = alg.square_sign(1 << t) < 0
        odd += [x ^ s ^ (k & row).bit_count() & 1 for k, x in enumerate(odd)]
    if alg.field == "C":
        return [(k, odd[k] == 1) for k in alg.basis[1:]]
    return [(k, False) for k in alg.basis[1:] if not odd[k]]


# _BIT_CHARS[t][x] is bit t of the byte x as the character b"0" or b"1":
# over x = 0..255 it runs 2^t zeros, 2^t ones, and so on
_BIT_CHARS = [(b"0" * (1 << t) + b"1" * (1 << t)) * (128 >> t) for t in range(8)]


def _bit_columns(vals, n):
    """Bit-slice `vals`, each below 2^n: column t has bit j set iff bit t of
    vals[j] is.  Each byte plane, last value first, is translated to the bit
    string of each of its columns, so vals[j] lands on bit j."""
    planes = [bytes([v >> s & 255 for v in reversed(vals)])
              for s in range(0, n, 8)]
    return [int(planes[t >> 3].translate(_BIT_CHARS[t & 7]) or b"0", 2)
            for t in range(n)]


def _commuting_rows(alg, keys):
    """row(i): bit j set iff keys[i] and keys[j] commute, built the first
    time it is asked for and kept as long as `row` is.

    The keys that anticommute with blade a are those meeting the generators
    that anticommute with it (its `core.linear_row`) an odd number of
    times: the XOR of the key columns at the bits of that row."""
    cols = _bit_columns(keys, alg.n)
    gens = alg.generator_rows()
    full = (1 << len(keys)) - 1

    @cache
    def row(i):
        return full & ~linear_row(cols, linear_row(gens, keys[i]))

    return row


def _canonical_chains(alg, cands):
    """Every canonical chain of pairwise-commuting, independent candidates.

    A chain lists candidates in increasing order; each new generator must open
    its coset of the span so far (come first, in candidate order, among the
    keys of the coset), so every commuting subspace is reached exactly once.
    Depth first, in lexicographic order: the first chain of each length is
    the lexicographically smallest valid set of that size, since a smaller
    key c in a generator's coset would give a smaller valid set (commutation
    is bilinear over F2 and c squares to +1 too).

    A candidate passed down has already been tested against every coset an
    ancestor added, and those tests do not change, so each node tests its
    candidates against the one coset its own step added.
    """
    keys = [c[0] for c in cands]
    idx = {k: i for i, k in enumerate(keys)}
    # a candidate's own bit needs no masking: it has left `viable` before
    # its row is read
    commuting = _commuting_rows(alg, keys)

    def rec(chain, span, added, candmask):
        yield chain
        # Drop the candidates that do not open their coset.  One that fails
        # here fails below too, as the span only grows.  None lies in the
        # span: had it entered with keys[i], that earlier key would be in
        # its coset.
        viable = m = candmask
        while m:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            k = keys[i]
            for s in added:
                if idx[k ^ s] < i:
                    viable ^= low
                    break
        while viable:
            low = viable & -viable
            viable ^= low
            i = low.bit_length() - 1
            coset = {keys[i] ^ s for s in span}
            yield from rec(chain + [cands[i]], span | coset, coset,
                           viable & commuting(i))

    return rec([], {alg.unit_key}, (), (1 << len(keys)) - 1)


def find_square_set(alg, k: int):
    """Lexicographically smallest set of k commuting independent +1-squares.

    Candidates follow the canonical (grade, mask) basis order.  Returns a
    list of candidates; raises SearchError when no set of size k exists (a
    wrong k would).
    """
    alg = as_algebra(alg)
    for chain in _canonical_chains(alg, square_candidates(alg)):
        if len(chain) == k:
            return chain
    raise SearchError(f"no commuting +1-square set of size {k} in {alg!r}")


def max_commuting_square_set(alg):
    """Exhaustive maximum over independent pairwise-commuting +1-square sets.

    Visits each commuting subspace once, so the maximum is exact.  Returns
    (k, candidate list), the first chain of the largest size.
    """
    alg = as_algebra(alg)
    best = max(_canonical_chains(alg, square_candidates(alg)), key=len)
    return len(best), best


class Idempotent(NamedTuple):
    """f = prod (1 + T_i)/2 together with its commuting factor blades T_i."""

    element: Multivector
    factors: tuple

    @property
    def alg(self):
        return self.element.alg

    def __str__(self):
        if not self.factors:
            return "1"
        return "".join(f"(1/2)(1 + {t})" for t in self.factors)


def _factor_product(alg, factors):
    """(re, im, den): prod (1 + T)/2 = (re + i im)/den on keys, over the
    single-blade coefficient maps T = {key: t}, with zeros kept.

    Multiplied out on keys by the pair loop of the product kernel
    (`core._pair_sums`), one factor at a time, over integer numerators and
    one denominator: a repeated or dependent key adds its coefficient.
    Unlike k products `f * (1 + T)`, it builds no Fraction; on atlas-8 that
    is about 6 % more jobs per second."""
    unit = alg.unit_key
    re, im, den = {unit: 1}, {unit: 0}, 1
    for t in factors:
        d, ((a, vr, vi),) = _numerators(alg, t)
        re, im = _pair_sums(alg, [(k, r, im.get(k, 0)) for k, r in re.items()],
                            [(unit, d, 0), (a, vr, vi)])
        den *= d
    return re, im, den << len(factors)


def idempotent_from_factors(alg, factors) -> Idempotent:
    """Build f = prod (1+T)/2 from single-blade factors T (`_factor_product`),
    verifying f^2 = f on its numerators first: f = N/D is a nonzero
    idempotent iff N != 0 and N*N = D*N, with N*N taken by the pair loop."""
    alg = as_algebra(alg)
    for t in factors:
        if t.alg is not alg or len(t.c) != 1:
            raise ValueError(f"factor {t} is not a single blade of {alg!r}")
    re, im, den = _factor_product(alg, [t.c for t in factors])
    n = [(k, r, im.get(k, 0)) for k, r in re.items() if r or im.get(k, 0)]
    re2, im2 = _pair_sums(alg, n, n)
    nn = {k: (r, im2.get(k, 0)) for k, r in re2.items() if r or im2.get(k, 0)}
    if not n or nn != {k: (den * r, den * i) for k, r, i in n}:
        raise ValueError("factors do not yield a nonzero idempotent")
    return Idempotent(_from_numerators(alg, re, im, den), tuple(factors))


def idempotent_of_candidates(alg, cands) -> Idempotent:
    return idempotent_from_factors(
        alg, [alg.blade(key, QC_I if imag else 1) for key, imag in cands])


def primitive_idempotent(sig, field: str = "R") -> Idempotent:
    """Canonical primitive idempotent of Cl(p,q) (or its complexification).

    Deterministic: the factor set is the lexicographically smallest in the
    (grade, mask) blade order.  The printed choices of the source material,
    where they differ, live in `paper_idempotents`.
    """
    alg = as_algebra(sig, field)
    return idempotent_of_candidates(alg, find_square_set(alg, _factor_count(alg)))


def _coset_heads(f):
    """(element, heads, central): the element of f, an `Idempotent` or a bare
    multivector; the first key A, in canonical order, of each coset of V; and
    those of them whose blade commutes with every T_i.

    One walk over f's support takes each key A outside the span of the
    earlier ones as a generator, T = t e_A with t = 2^k c_A for k of them.
    Each e_A must commute with the earlier ones and t^2 square_sign(A) must
    be 1, on the keys; then f must be `_factor_product` of the T's, which
    fixes every coefficient."""
    f = f.element if isinstance(f, Idempotent) else f
    alg = f.alg
    c = f.c
    span, keys = {alg.unit_key}, []
    for a in c:
        if a not in span:
            keys.append(a)
            span |= {a ^ s for s in span}
    ts = [{a: c[a] * (1 << len(keys))} for a in keys]
    gens = alg.generator_rows()
    rows = [linear_row(gens, a) for a in keys]
    if not (all(not (b & row).bit_count() & 1 for i, row in enumerate(rows)
                for b in keys[:i])
            and all(t[a] * t[a] * alg.square_sign(a) == 1
                    for t, a in zip(ts, keys))
            and f == _from_numerators(alg, *_factor_product(alg, ts))):
        raise ValueError("f is not prod (1 + T_i)/2 of commuting blades T_i")
    heads, seen = [], set()
    for a in alg.basis:
        if a not in seen:
            seen.update(a ^ s for s in span)
            heads.append(a)
    return f, heads, [a for a in heads
                      if not any((a & row).bit_count() & 1 for row in rows)]


def left_ideal_basis(f) -> list:
    """Basis of Cl*f: e_A f for the first key A of each stabilizer coset."""
    fe, heads, _central = _coset_heads(f)
    return [fe.alg.blade(a) * fe for a in heads]


def ring_basis(f) -> list:
    """Basis of f*Cl*f (the division ring of f when f is primitive): the
    left-ideal basis elements e_A f whose key A commutes with every T_i."""
    fe, _heads, central = _coset_heads(f)
    return [fe.alg.blade(a) * fe for a in central]


def _division_tag(alg, central: list) -> RingTag:
    """Base tag R | C | H of f*Cl*f, read off its central coset heads,
    unit key first: as (e_A f)^2 = square_sign(A) f, past f every square is
    -f, and for H the next two heads anticommute, as in Cl(0, log2 d)."""
    d = len(central)
    if alg.field == "C":
        if d == 1:
            return RingTag.C
        raise OracleFailure(f"complexified ring dimension {d} not 1")
    if d == 1:
        return RingTag.R
    if d not in (2, 4):
        raise OracleFailure(f"ring dimension {d} not in {{1, 2, 4}}")
    if any(alg.square_sign(a) != -1 for a in central[1:]):
        raise OracleFailure(f"{d}-dim ring with a non-negative square")
    if d == 2:
        return RingTag.C
    if alg.keys_commute(central[1], central[2]):
        raise OracleFailure("4-dim ring: heads[1] and heads[2] commute")
    return RingTag.H


def _heads_and_tag(f):
    """(heads, tag): the coset heads of Cl*f and the certified base tag of
    f*Cl*f, from one verified reading of f."""
    fe, heads, central = _coset_heads(f)
    return heads, _division_tag(fe.alg, central)


def is_primitive(f) -> bool:
    """Certify minimality: ideal dimension 2^(n-k) and a division-ring f*Cl*f.

    The count 2^(n-k) is that of Cl(p,q) and its complexification; any other
    algebra is a TypeError."""
    if not isinstance(f.alg, CliffordAlgebra):
        raise TypeError(f"is_primitive needs a Clifford algebra, not {f.alg!r}")
    fe = f.element if isinstance(f, Idempotent) else f
    if not fe or fe * fe != fe:
        return False
    try:
        heads, _tag = _heads_and_tag(fe)
    except OracleFailure:
        return False
    return len(heads) == 1 << (fe.alg.n - _factor_count(fe.alg))


def spinor_dimension(f) -> int:
    """Ideal dimension over the division ring f*Cl*f (the spinspace dimension)."""
    heads, tag = _heads_and_tag(f)
    return len(heads) // (tag.dim_r if f.alg.field == "R" else 1)


def paper_idempotents() -> dict:
    """The idempotents printed in the source material, as certified objects.

    Keys: 'f20', 'f11', 'f02', 'f24' (real), plus both readings of the
    de Sitter idempotent: 'f41_complex' (written with an explicit i) and
    'f41_real' (the same element with i realized as the central volume
    element; see `realify`).
    """
    out = {}
    a20 = clifford(2, 0)
    out["f20"] = idempotent_from_factors(a20, [a20.gen(1)])
    a11 = clifford(1, 1)
    out["f11"] = idempotent_from_factors(a11, [a11.blade(0b11)])
    a02 = clifford(0, 2)
    out["f02"] = idempotent_from_factors(a02, [])
    a24 = clifford(2, 4)
    out["f24"] = idempotent_from_factors(
        a24, [a24.blade(0b010001), a24.blade(0b100010)])
    c41 = clifford(4, 1, "C")
    out["f41_complex"] = idempotent_from_factors(
        c41, [c41.gen(1), c41.blade(0b00110, QC_I)])
    a41 = clifford(4, 1)
    omega = a41.blade(a41.volume_key)
    out["f41_real"] = idempotent_from_factors(
        a41, [a41.gen(1), omega * a41.blade(0b00110)])
    return out


def realify(mv: Multivector) -> Multivector:
    """Send a+bi coefficients to a + b*omega in the real algebra (odd n, w^2=-1).

    This is the inverse leg of the center identification Z = {1, omega} = C
    that the complexified idempotent forms rely on.
    """
    alg = mv.alg
    if alg.field != "C":
        raise ValueError("realify expects a complexified algebra element")
    real = clifford(alg.sig.p, alg.sig.q)
    if real.n % 2 == 0 or real.square_sign(real.volume_key) != -1:
        raise ValueError("realify needs odd n with omega^2 = -1")
    omega = real.blade(real.volume_key)
    out = real.zero()
    for k, v in mv.c.items():
        b = real.blade(k)
        out = out + b * v.re + (omega * b) * v.im
    return out
