"""Mod-8 classification of Cl(p,q) and its independent linear-algebra oracle.

`classify` is the closed-form type table: the division ring depends only on
(p-q) mod 8 and the matrix rank follows from the dimension identity
2^(p+q) = rank^2 * dim_R(ring) (doubled rings contribute twice the half-ring).

`division_ring_oracle` recomputes the ring with no reference to that table:
it builds a primitive idempotent f and reads f*Cl*f off the keys of its
central stabilizer-coset heads e_A (see `ideals`), where (e_A f)^2 =
square_sign(A) f: dimension, squares -f past f for C, and an anticommuting
pair of heads for H, which also rules out the 4-dimensional impostor
Mat_2(R).  No product is formed once f is built.  The readers of f take f
alone, an `Idempotent` or its element, and read the ring in f's algebra;
`division_ring_of(alg)` builds its own f in `alg`.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import as_signature, center_keys, clifford
from .ideals import (OracleFailure, _heads_and_tag, idempotent_of_candidates,
                     max_commuting_square_set, primitive_idempotent)
from .rings import RingTag

_RING_BY_MOD8 = {
    0: RingTag.R, 1: RingTag.RR, 2: RingTag.R, 3: RingTag.C,
    4: RingTag.H, 5: RingTag.HH, 6: RingTag.H, 7: RingTag.C,
}

# Display aliases for the three two-dimensional building blocks
# (Rosenfeld's terminology); ring-theoretic data is what the code exposes.
DISPLAY_ALIASES = {
    (0, 2): "quaternion algebra",
    (2, 0): "anti-quaternion algebra",
    (1, 1): "pseudo-quaternion algebra",
}


class AlgebraType(NamedTuple):
    mod8_class: int
    ring: RingTag
    matrix_rank: int
    simple: bool

    def __str__(self):
        if self.ring.doubled:
            half = str(self.ring.base)
            if self.matrix_rank > 1:
                half = f"{half}({self.matrix_rank})"
            return f"{half}(+){half}"
        r = str(self.ring)
        return f"{r}({self.matrix_rank})" if self.matrix_rank > 1 else r


def classify(sig) -> AlgebraType:
    """Type of Cl(p,q) over R from the mod-8 table."""
    sig = as_signature(sig)
    m8 = (sig.p - sig.q) % 8
    ring = _RING_BY_MOD8[m8]
    # 2^n = rank^2 * dim_R(ring); doubled tags already carry both blocks
    exp = sig.n - ring.dim_r.bit_length() + 1
    if exp % 2:
        raise OracleFailure("dimension identity violated")
    return AlgebraType(m8, ring, 1 << (exp // 2), m8 not in (1, 5))


class ComplexAlgebraType(NamedTuple):
    """Type of the complexified algebra C (x) Cl(p,q): depends only on n mod 2."""

    n: int
    matrix_rank: int
    simple: bool

    def __str__(self):
        if self.simple:
            return f"C({self.matrix_rank})"
        return f"C({self.matrix_rank})(+)C({self.matrix_rank})"


def classify_complex(n: int) -> ComplexAlgebraType:
    if n % 2 == 0:
        return ComplexAlgebraType(n, 1 << (n // 2), True)
    return ComplexAlgebraType(n, 1 << ((n - 1) // 2), False)


def omega_square_sign(sig) -> int:
    """Sign of omega^2 for even p+q: +1 iff p-q = 0,4 (mod 8).

    The rule is cross-checked against `square_sign`'s closed form for the
    volume blade on every call; a mismatch would be an internal error.
    """
    sig = as_signature(sig)
    if sig.n % 2:
        raise ValueError("omega_square_sign requires even p+q")
    alg = clifford(sig.p, sig.q)
    computed = alg.square_sign(alg.volume_key)
    rule = 1 if (sig.p - sig.q) % 8 in (0, 4) else -1
    if computed != rule:
        raise OracleFailure("omega^2 rule disagrees with square_sign")
    return computed


def _central_square_keys(alg):
    """Keys, in canonical order and from the scalar on, of the central blades
    that square to +1 (i-phased over C, so every central blade there): as
    many as the algebra has simple summands."""
    return [k for k in center_keys(alg)
            if alg.field == "C" or alg.square_sign(k) == 1]


def division_tag_of_idempotent(f) -> RingTag:
    """Base tag R | C | H of f*Cl*f, read off the keys of f's central coset
    heads with no product (see `ideals._division_tag`)."""
    return _heads_and_tag(f)[1]


def division_ring_oracle(sig) -> RingTag:
    """Recompute the division ring of Cl(p,q) from coset heads, table-free.

    The primitive idempotent comes from the Radon-Hurwitz count and the
    lexicographic factor search; f*Cl*f is then read and its signs
    certified.  `division_ring_of` re-derives the factor count by the
    brute-force maximum search instead.
    """
    return _ring_and_heads(primitive_idempotent(sig))[0]


def division_ring_of(alg) -> RingTag:
    """Division ring tag of a blade-indexed algebra (Clifford or tensor).

    The idempotent is built from the maximum commuting square set.
    An algebra of two simple summands (a central non-scalar +1-square
    present) reports the doubled tag of one summand, matching the lambda+-
    split; more summands, as in R^4 = Cl(1,0) (x) Cl(1,0), are a ValueError.
    """
    return _ring_and_heads(
        idempotent_of_candidates(alg, max_commuting_square_set(alg)[1]))[0]


def _ring_and_heads(f):
    """(RingTag, coset heads of Cl*f): the oracle ring of `division_ring_of`
    and the left-ideal keys, from one verified reading of f, an `Idempotent`
    or its element, in the algebra f lives in."""
    heads, tag = _heads_and_tag(f)
    summands = len(_central_square_keys(f.alg))
    if summands > 2:
        raise ValueError(f"{f.alg!r} has {summands} simple summands; "
                         "a ring tag names one or two")
    return (RingTag.doubled_of(tag) if summands == 2 else tag), heads
