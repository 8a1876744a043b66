"""Primitive idempotents, minimal left ideals, and Radon-Hurwitz counting.

A primitive idempotent is built as f = prod_i (1 + T_i)/2 from a maximal set
of pairwise-commuting, independent basis elements T_i squaring to +1, taken
greedily in canonical order.  In Cl(p,q) there are k = q - r_{q-p} of them,
r the period-8 Radon-Hurwitz sequence.  The base values of r are not taken
on faith: `max_commuting_square_set` re-derives them by exhaustive search
(see tests and scripts/derive_radon_hurwitz.py), and the frozen table below
is regression-checked against that oracle.

The search machinery works for any blade-indexed algebra (Clifford or plain
tensor products of Clifford algebras): a candidate set is valid iff the masks
are F2-linearly independent and pairwise commuting, which already rules out
-1 from the generated group, hence f != 0.  Commutation is itself an F2
bilinear form on keys: with m = `sign_mask`, blade(a) and blade(b)
anticommute iff popcount(a & m(b)) + popcount(b & m(a)) is odd, in any such
algebra.  So every blade-sign question is a bit parity on the algebra's n
generator rows (`generator_rows`, in closed form): a key's row of
anticommuting generators is the XOR of the rows at its bits
(`core.linear_row`), and all square signs come from one doubling pass.
`find_square_set` keeps one bit-set of the keys still admissible: it takes
the first in canonical order and clears those that anticommute with it and
its new coset of the span.  A key that fails once fails for good, as both
only grow, so the chain is that of the candidate-by-candidate scan.  The
exhaustive walk `_canonical_chains` serves the oracle
`max_commuting_square_set` alone.  T_i that commute, square to +1 and are
F2-independent make f a nonzero idempotent with no product; the one key
check `_stabilizer_rows` tests that.  The search's keys are read on keys
alone (`_primitive_reading`, for the ring oracle and the atlas), and only
`primitive_idempotent` multiplies f out, once, in integer numerators
(`_factor_product`).  Factors a caller passes may repeat or depend on each
other, so `idempotent_from_factors` and `is_primitive` check f^2 = f as
N*N = D*N (`_is_idempotent`).

Such an f is a stabilizer projector (Gottesman, arXiv:quant-ph/9705052), so
its ideals follow from the F2 span V of the T-keys (Lounesto, ch. 17).  In
Cl*f, e_A f is a unit multiple of e_B f when A + B lies in V, and the two
have disjoint supports otherwise: the first key of each coset of V gives a
basis.  In f*Cl*f, f e_A f is e_A f when e_A commutes with every T_i and 0
otherwise, as (1 - T)(1 + T) = 0: the commuting heads give a basis, whose
squares (e_A f)^2 = square_sign(A) f name the ring.  The T_i being maximal,
every central head past the unit squares to -1, and three pairwise
anticommuting ones would give a +1 square, so f*Cl*f is R, C or H (over C,
where a head can be i-phased, C).  The atlas and the ring oracle walk no
coset: dim Cl*f is 2^(n-k) for k T-keys, and a key of each central coset
comes from the F2 commutant of the T-keys modulo their span (the stabilizer
normalizer, `_central_heads`).  Where every head is returned, one walk on
bit-sets gives them (`_cosets`).  An f that a caller passes, an `Idempotent`
or its element, is taken only in this form by the one read-back
`_coset_heads`: its T_i are read off its integer numerators and pass the key
check, and f must equal `_factor_product` of them, compared by
cross-multiplying numerators.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .core import (QC_I, Multivector, _from_numerators, _numerators,
                   _pair_sums, as_algebra, as_signature, clifford, f2_insert,
                   linear_row)
from .rings import RingTag

# Frozen from the brute-force derivation over all signatures with p+q <= 8.
RADON_HURWITZ_BASE = (0, 1, 2, 2, 3, 3, 3, 3)


class OracleFailure(RuntimeError):
    """The computed ring f*Cl*f has an impossible shape (idempotent bug)."""


def radon_hurwitz(i: int) -> int:
    """r_i extended by r_{i+8} = r_i + 4 in both directions."""
    return RADON_HURWITZ_BASE[i % 8] + 4 * ((i - (i % 8)) // 8)


def idempotent_factor_count(sig) -> int:
    """k = q - r_{q-p}, the number of commuting (1+T)/2 factors."""
    sig = as_signature(sig)
    return sig.q - radon_hurwitz(sig.q - sig.p)


# ---------------------------------------------------------------------------
# candidate machinery
#
# A candidate is (key, imag): the basis element `key`, multiplied by i when
# imag is set, chosen so its square is +1.  Over C every non-unit key is a
# candidate, i-phased exactly when its square is -1.

def _columns(alg):
    """The n bit-sets over the 2^n keys, column j holding the keys with bit
    j: w = 2^j clear bits, then w set ones, repeated."""
    full = (1 << alg.dim) - 1
    return [full // ((1 << 2 * w) - 1) * ((1 << w) - 1) << w
            for w in alg.generator_keys()]


def _square_parities(alg):
    """(odd, cols): k is in the bit-set odd iff e_k^2 = -1, and cols are the
    `_columns`.  One doubling pass: for k < 2^t, (e_k e_t)^2 is e_k^2 e_t^2,
    negated when k meets e_t's generator row an odd number of times, as the
    XOR of the columns at the row's bits reads."""
    odd, cols = 0, _columns(alg)
    for t, row in enumerate(alg.generator_rows()):
        w = 1 << t  # the key of e_t, and the number of keys so far
        low = (1 << w) - 1
        flip = linear_row(cols, row & w - 1) & low ^ (
            low if alg.square_sign(w) < 0 else 0)
        odd |= (odd ^ flip) << w
    return odd, cols


def square_candidates(alg):
    """The candidates in canonical order, read off `_square_parities`."""
    odd = _square_parities(alg)[0]
    if alg.field == "C":
        return [(k, odd >> k & 1 == 1) for k in alg.basis[1:]]
    return [(k, False) for k in alg.basis[1:] if not odd >> k & 1]


def _commuting_rows(alg, keys):
    """row(i): bit j set iff keys[i] and keys[j] commute, built the first
    time it is asked for and kept as long as `row` is: keys[j] anticommutes
    with keys[i] iff it meets the `core.linear_row` of keys[i] an odd number
    of times."""
    gens = alg.generator_rows()

    @cache
    def row(i):
        r = linear_row(gens, keys[i])
        return sum(1 << j for j, k in enumerate(keys)
                   if not (k & r).bit_count() & 1)

    return row


def _canonical_chains(alg, cands):
    """Every canonical chain of pairwise-commuting, independent candidates,
    for the exhaustive oracle `max_commuting_square_set` alone.

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


def find_square_set(alg):
    """A maximal set of commuting independent +1-squares, as a list of
    candidates.  One bit-set holds the keys still admissible; each step
    takes the first in canonical order (`basis_runs`) and clears the keys
    that anticommute with it (the XOR of the `_square_parities` columns at
    its `core.linear_row`) and its new coset of the span.  A key that fails
    once fails for good, as the span and the commutation constraints only
    grow: so the key taken is the one the scan of `square_candidates` would
    take next, the set is maximal and its f primitive in any blade algebra
    (Lounesto, ch. 17).  It is the first maximal chain of
    `_canonical_chains`: a smaller key of a taken key's coset would have
    been taken at its own turn."""
    alg = as_algebra(alg)
    odd, cols = _square_parities(alg)
    left = (1 << alg.dim) - 2  # every key but the unit
    if alg.field == "R":
        left &= ~odd
    gens, span, chain = alg.generator_rows(), [alg.unit_key], []
    runs, run = iter(alg.basis_runs()), 0
    while left:
        while not left & run:
            run = next(runs)
        k = (left & run & -(left & run)).bit_length() - 1
        chain.append((k, odd >> k & 1 == 1))
        coset = [k ^ s for s in span]
        span += coset
        left &= ~(linear_row(cols, linear_row(gens, k))
                  | sum(1 << s for s in coset))
    return chain


def max_commuting_square_set(alg):
    """Exhaustive maximum over independent pairwise-commuting +1-square sets.

    Visits each commuting subspace once, so the maximum is exact, in time
    exponential in n.  No library path calls it: it checks k and the
    Radon-Hurwitz table in the tests and scripts/derive_radon_hurwitz.py.
    Returns (k, candidate list), the first chain of the largest size.
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
    """(den, terms): prod (1 + T)/2 = (re + i im)/den over the (key, re, im)
    `terms`, zeros kept, for single-blade factors T given as `_numerators`
    reads them, (d, [(key, re, im)]).

    Multiplied out on keys by the pair loop of the product kernel
    (`core._pair_sums`), one factor at a time, over integer numerators and
    one denominator: a repeated or dependent key adds its coefficient.
    Unlike k products `f * (1 + T)`, it builds no Fraction."""
    unit = alg.unit_key
    terms, den = [(unit, 1, 0)], 1
    for d, ((a, vr, vi),) in factors:
        terms = list(_pair_sums(alg, terms, [(unit, d, 0), (a, vr, vi)]))
        den *= d
    return den << len(factors), terms


def _is_idempotent(alg, den, terms) -> bool:
    """The one f^2 = f check: f = N/den, N the (key, re, im) `terms` of
    `core._numerators`, is a nonzero idempotent iff N != 0 and N*N = den*N,
    with N*N taken by the pair loop of the product kernel."""
    n = [(k, r, i) for k, r, i in terms if r or i]
    nn = {k: (r, i) for k, r, i in _pair_sums(alg, n, n) if r or i}
    return bool(n) and nn == {k: (den * r, den * i) for k, r, i in n}


def idempotent_from_factors(alg, factors) -> Idempotent:
    """Build f = prod (1+T)/2 from single-blade factors T (`_factor_product`),
    verifying f^2 = f on its numerators first (`_is_idempotent`)."""
    alg = as_algebra(alg)
    for t in factors:
        if t.alg is not alg or len(t.c) != 1:
            raise ValueError(f"factor {t} is not a single blade of {alg!r}")
    den, terms = _factor_product(alg, [_numerators(alg, t.c) for t in factors])
    if not _is_idempotent(alg, den, terms):
        raise ValueError("factors do not yield a nonzero idempotent")
    return Idempotent(_from_numerators(alg, den, terms), tuple(factors))


def _stabilizer_rows(alg, den, ts):
    """The `core.linear_row`s of the keys of T = (re + i im)/den e_A, for the
    (A, re, im) `ts`, once each T commutes with the earlier ones (an even
    overlap with their rows), squares to +1 (re im = 0 and (re^2 - im^2)
    square_sign(A) = den^2) and lies outside their F2 span; else a
    ValueError.  Such T make prod (1 + T)/2 an idempotent (module docstring)."""
    gens, lead, rows = alg.generator_rows(), {}, []
    for a, r, i in ts:
        commutes = not any((a & row).bit_count() & 1 for row in rows)
        squares = not r * i and (r * r - i * i) * alg.square_sign(a) == den * den
        if not (commutes and squares and f2_insert(lead, a)):
            raise ValueError("f is not prod (1 + T_i)/2 of commuting blades T_i")
        rows.append(linear_row(gens, a))
    return rows


def _cosets(alg, keys):
    """The first key, in canonical order, of each coset of the F2 span V of
    `keys`.  A bit-set holds the keys not yet covered; each step takes the
    first in `basis_runs` order and clears its coset, V XOR-translated by
    one mask-and-shift swap per bit of the head, the mask a column of
    `_columns`."""
    cols = _columns(alg)

    def moved(s, a):  # the bit-set {k ^ a for k in s}
        while a:
            w = a & -a
            col = cols[w.bit_length() - 1]
            s = s << w & col | (s & col) >> w
            a ^= w
        return s

    span = 1 << alg.unit_key
    for a in keys:
        span |= moved(span, a)
    heads, left, runs, run = [], (1 << alg.dim) - 1, iter(alg.basis_runs()), 0
    while left:
        while not left & run:
            run = next(runs)
        a = (left & run & -(left & run)).bit_length() - 1
        heads.append(a)
        left ^= moved(span, a)
    return heads


def _central_heads(alg, keys, rows):
    """The unit key, then the nonzero sums of a basis of the commutant C =
    {x : x & row even for every row in `rows`} of `keys` modulo their span
    V: one key of each central coset, with no walk over the 2^n keys.  In
    one `core.f2_insert` echelon after the keys, generator t is tagged
    above bit n with the rows that hold it; where the tags cancel, the rest
    is in C, and new modulo V and the earlier ones iff it is nonzero."""
    n, lead, central = alg.n, {}, [alg.unit_key]
    for a in keys:
        f2_insert(lead, a)
    tagged = [1 << t for t in range(n)]
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            tagged[low.bit_length() - 1] |= 1 << n + i
            row ^= low
    for v in tagged:
        v = f2_insert(lead, v)
        if v and not v >> n:
            central += [c ^ v for c in central]
    return central


def _checked_chain(alg):
    """(terms, rows) of the T_i of `find_square_set` (read off the module),
    as (key, re, im) terms, once they pass `_stabilizer_rows`."""
    ts = [(a, 0, 1) if imag else (a, 1, 0) for a, imag in find_square_set(alg)]
    return ts, _stabilizer_rows(alg, 1, ts)


def _primitive_reading(alg):
    """(keys, dimension, central) of the canonical primitive idempotent f of
    `alg`, f not built: its checked T-keys, 2^(n-k) for the k keys, and its
    `_central_heads`.  Keys of one coset commute alike and, over R, square
    alike, so `_division_tag` reads them as it reads the central `_cosets`."""
    ts, rows = _checked_chain(alg)
    keys = [t[0] for t in ts]
    return keys, 1 << alg.n - len(keys), _central_heads(alg, keys, rows)


def primitive_idempotent(sig, field: str | None = None) -> Idempotent:
    """Canonical primitive idempotent of Cl(p,q), its complexification, or
    any other blade algebra `sig` (a tensor product of Clifford algebras).
    `field` ('R' when None) applies to a signature; an algebra over another
    field is a ValueError (`core.as_algebra`).

    Deterministic: the factors are the first maximal chain of the search in
    the (grade, mask) blade order (`find_square_set`).  The printed choices
    of the source material, where they differ, live in `paper_idempotents`.
    """
    alg = as_algebra(sig, field)
    ts, _rows = _checked_chain(alg)
    den, terms = _factor_product(alg, [(1, [t]) for t in ts])
    return Idempotent(_from_numerators(alg, den, terms),
                      tuple(alg.blade(a, QC_I if i else 1) for a, _r, i in ts))


def _coset_heads(f):
    """(element, heads, central) of f, an `Idempotent` or a bare multivector:
    the `_cosets` of the T-keys of f and those of them in the commutant of
    every T (an even overlap with its row, as `_stabilizer_rows` tests it);
    else a ValueError.

    f = N/den is read once into integer numerators; each key A of it outside
    the span of the earlier ones gives a T = t e_A, t = 2^k N_A/den for k of
    them.  The T's must pass `_stabilizer_rows`, and f must be their
    `_factor_product` M/D: N D = M den, key by key, so no coefficient is
    built.  No `factors` of a record are trusted."""
    f = f.element if isinstance(f, Idempotent) else f
    alg = f.alg
    den, terms = _numerators(alg, f.c)
    lead = {}
    ts = [(a, r, i) for a, r, i in terms if f2_insert(lead, a)]
    k = len(ts)
    ts = [(a, r << k, i << k) for a, r, i in ts]
    rows = _stabilizer_rows(alg, den, ts)
    d, prod = _factor_product(alg, [(den, [t]) for t in ts])
    if {a: (r * den, i * den) for a, r, i in prod if r or i} != \
            {a: (r * d, i * d) for a, r, i in terms}:
        raise ValueError("f is not prod (1 + T_i)/2 of commuting blades T_i")
    heads = _cosets(alg, [t[0] for t in ts])
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
    """Base tag R | C | H of f*Cl*f, read off one key of each central coset,
    unit key first: as (e_A f)^2 = square_sign(A) f, past f every square is
    -f, and for H the next two keys anticommute, as in Cl(0, log2 d)."""
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
    """Certify minimality: f*f = f and f*Cl*f is a division ring R, C or H,
    in any blade algebra."""
    fe = f.element if isinstance(f, Idempotent) else f
    if not _is_idempotent(fe.alg, *_numerators(fe.alg, fe.c)):
        return False
    try:
        _heads_and_tag(fe)
    except OracleFailure:
        return False
    return True


def spinor_dimension(f) -> int:
    """Ideal dimension over the division ring f*Cl*f (the spinspace dimension)."""
    heads, tag = _heads_and_tag(f)
    return len(heads) // (tag.dim_r if f.alg.field == "R" else 1)


# The idempotents printed in the source material: name -> (p, q, field, the
# factor blades as (key, coefficient)).  f41_real writes i of f41_complex as
# the central volume element (`realify`): its omega e23 is -e145.
_PRINTED = {
    "f20": (2, 0, "R", [(0b1, 1)]), "f11": (1, 1, "R", [(0b11, 1)]),
    "f02": (0, 2, "R", []), "f24": (2, 4, "R", [(0b010001, 1), (0b100010, 1)]),
    "f41_complex": (4, 1, "C", [(0b1, 1), (0b00110, QC_I)]),
    "f41_real": (4, 1, "R", [(0b1, 1), (0b11001, -1)])}


def _printed_idempotent(name):
    """The idempotent printed as `name` (`_PRINTED`), or None."""
    if name not in _PRINTED:
        return None
    p, q, field, factors = _PRINTED[name]
    alg = clifford(p, q, field)
    return idempotent_from_factors(alg, [alg.blade(*t) for t in factors])


def paper_idempotents() -> dict:
    """The idempotents printed in the source material, as certified objects.

    Keys: 'f20', 'f11', 'f02', 'f24' (real), plus both readings of the
    de Sitter idempotent: 'f41_complex' (written with an explicit i) and
    'f41_real' (the same element with i realized as the central volume
    element; see `realify`).
    """
    return {name: _printed_idempotent(name) for name in _PRINTED}


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
