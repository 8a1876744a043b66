"""Tensor factorization of Cl(p,q) into two-dimensional factors, and friends.

The tensor product here is the plain (ungraded) one: a basis key of
A_1 (x) ... (x) A_m is a blade mask in which factor j owns a block of
A_j.n bits, and its sign mask is each factor's own sign mask of its block,
cut to that block, so blocks multiply with no cross signs and products run
through the Clifford kernel of `core`.  The volume-element twists of the
factorization theorem live entirely in the witness generators

    X[i,j] = w_1 (x) ... (x) w_{i-1} (x) g_j (x) 1 (x) ... (x) 1,

which anticommute pairwise because each preceding volume element w_l of an
even factor anticommutes with that factor's generators.  A factor chain is
accepted only after its witness is verified exactly on the keys of its
unit images e_A, with no product formed: each key's square sign is read
once, two images anticommute when one key meets the other's row of
anticommuting generators (`core.linear_row`) an odd number of times, and
they span when the n keys are F2-independent, so that the 2^n subset
products hit 2^n distinct basis keys, which elimination on the leading bit
decides.  The even subalgebra and doubling witnesses go through the same
check.  The split lambda+- = (1 +- T)/2 of an odd signature, T = omega or
i*omega, is checked on T's key by the stabilizer check of `ideals`.  The
atlas runs these key checks alone (`_tensor_keys`, `_split_key`).

`karoubi_factorize` peels factors greedily - (2,0) while p >= 2, else (1,1),
else (0,2) - flipping the remaining signature after each negative factor
(omega^2 = -1).  This reproduces every first-printed chain of the source
tables for m = 2..5; the printed alternatives are kept in PAPER_CHAINS and
verified as well.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import NamedTuple

from .core import (MAX_N, BladeAlgebra, CliffordAlgebra, Multivector,
                   Signature, _from_numerators, as_algebra, as_signature,
                   blade_name, clifford, f2_insert, grade, linear_row)
from .ideals import _factor_product, _stabilizer_rows
from .rings import StateRingTag, ring_transition

FACTOR_RINGS = {Signature(2, 0): StateRingTag("R"),
                Signature(1, 1): StateRingTag("R"),
                Signature(0, 2): StateRingTag("H")}


class IsoError(RuntimeError):
    """A claimed isomorphism failed verification; .reason names the violation."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class TensorAlgebra(BladeAlgebra):
    """Plain tensor product of Clifford algebras over a common base field.

    Factor j owns factors[j].n key bits, just above those of the factors
    before it; `order_key` is the factors' order keys on their blocks, so
    the canonical order runs through theirs with the first factor slowest.
    """

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.field = "C" if any(f.field == "C" for f in self.factors) else "R"
        self._blocks, off = [], 0  # (factor, offset, block mask)
        for f in self.factors:
            self._blocks.append((f, off, (1 << f.n) - 1))
            off += f.n
        if off > MAX_N:
            raise ValueError(f"tensor algebra dimension exceeds the 2^{MAX_N} cap")
        self.n, self.dim = off, 1 << off

    def __repr__(self):
        return " (x) ".join(repr(f) for f in self.factors)

    def order_key(self, a):
        return tuple(f.order_key(a >> off & low) for f, off, low in self._blocks)

    def sign_mask(self, b):
        # each factor's own mask, cut to its block: its prefix parity would
        # spill into the blocks above, which the factor does not see
        m = 0
        for f, off, low in self._blocks:
            m |= (f.sign_mask(b >> off & low) & low) << off
        return m

    def mul_key(self, a, b):
        return a ^ b, -1 if (a & self.sign_mask(b)).bit_count() & 1 else 1

    def keys_commute(self, a, b):
        # the factors commute, so the blades do iff evenly many blocks do not
        anti = 0
        for f, off, low in self._blocks:
            anti ^= not f.keys_commute(a >> off & low, b >> off & low)
        return not anti

    def square_sign(self, a):
        sign = 1
        for f, off, low in self._blocks:
            sign *= f.square_sign(a >> off & low)
        return sign

    def generator_rows(self):
        # the factors commute: row t is the rest of t's own block
        return [low << off ^ 1 << t for f, off, low in self._blocks
                for t in range(off, off + f.n)]

    def basis_runs(self):
        return [1 << k for k in self.basis]  # one run per key

    def key_name(self, a):
        return "(x)".join(blade_name(a >> off & low)
                          for _f, off, low in self._blocks)


@lru_cache(maxsize=None)
def _tensor_cached(algebras):
    return TensorAlgebra(algebras)


def tensor_algebra(factors) -> TensorAlgebra:
    return _tensor_cached(tuple(as_algebra(f) for f in factors))


class TensorWitness(NamedTuple):
    """Verified generator images of `target` inside the tensor algebra.

    images[i] realizes target generator e_{i+1}; all Clifford relations and
    the full-span condition have been checked exactly.
    """

    target: Signature
    factors: tuple
    tensor: TensorAlgebra
    images: tuple


def _image_keys(ta, twist_left: bool):
    """Mutually anticommuting image keys, one per factor generator.

    Each generator's bit in its factor's block is dressed with the volume
    elements (full blocks) of the preceding factors (twist_left) or of the
    following ones; either way the dressed images anticommute provided the
    dressing factors are even-dimensional.
    """
    dressing = ta.factors[:-1] if twist_left else ta.factors[1:]
    if any(f.n % 2 for f in dressing):
        raise IsoError("odd-dimensional factor cannot carry a "
                       f"{'left' if twist_left else 'right'} twist")
    blocks = [low << off for _f, off, low in ta._blocks]
    keys = []
    for at, (f, off, _low) in enumerate(ta._blocks):
        dress = sum(blocks[:at] if twist_left else blocks[at + 1:])
        keys += [dress | 1 << (off + j) for j in range(f.n)]
    return keys


def _tensor_keys(target, factors):
    """(tensor algebra, image keys) of Cl(target) ~ factor_1 (x) ... (x)
    factor_m, once the keys pass `_require_generators`.

    Tries the volume twist on the left first, then on the right (the tensor
    product is symmetric but the twisted witness is not).  Raises IsoError
    naming the violated condition.
    """
    target, sigs = as_signature(target), [as_signature(f) for f in factors]
    if sum(s.n for s in sigs) != target.n:
        raise IsoError(f"dimension mismatch: {target} vs {sigs}")
    ta = tensor_algebra(sigs)
    errors = []
    for twist_left in (True, False):
        try:
            return ta, _require_generators(
                ta, _image_keys(ta, twist_left), target,
                "images do not generate the full tensor algebra")
        except IsoError as e:
            errors.append(e.reason)
    raise IsoError("; ".join(dict.fromkeys(errors)))


def verify_tensor_iso(target, factors) -> TensorWitness:
    """Construct and verify Cl(target) ~ factor_1 (x) ... (x) factor_m: the
    images are the unit blades of the checked `_tensor_keys`."""
    target = as_signature(target)
    sigs = tuple(as_signature(f) for f in factors)
    ta, keys = _tensor_keys(target, sigs)
    return TensorWitness(target, sigs, ta, tuple(ta.blade(k) for k in keys))


class FactorChain(NamedTuple):
    """Karoubi chain of two-dimensional factors with its verified witness."""

    target: Signature
    factors: tuple
    witness: TensorWitness

    @property
    def ring_trace(self):
        """Factor rings in order, as folded by the K (x) K transitions."""
        return tuple(FACTOR_RINGS[s] for s in self.factors)

    def folded_ring(self) -> StateRingTag:
        return _fold(self.factors)


def _fold(factors) -> StateRingTag:
    """The factor rings of a chain folded by the K (x) K transitions."""
    return reduce(ring_transition, (FACTOR_RINGS[s] for s in factors),
                  StateRingTag("R"))


def karoubi_factor_signatures(sig):
    """The greedy factor chain for even-dimensional Cl(p,q), no verification."""
    sig = as_signature(sig)
    if sig.n % 2:
        raise ValueError("factorization peels pairs: p+q must be even "
                         "(odd algebras go through split_semisimple or the "
                         "even-subalgebra isomorphism)")
    p, q = sig.p, sig.q
    chain = []
    while p + q:
        if p >= 2:
            chain.append(Signature(2, 0))
            p, q = q, p - 2      # negative factor: flip remaining Q
        elif p >= 1 and q >= 1:
            chain.append(Signature(1, 1))
            p, q = p - 1, q - 1  # positive factor: keep Q
        else:
            chain.append(Signature(0, 2))
            p, q = q - 2, p      # negative factor: flip remaining Q
    return tuple(chain)


def karoubi_factorize(sig) -> FactorChain:
    """Factor Cl(p,q) (even p+q) into {(2,0),(1,1),(0,2)} with verified witness."""
    sig = as_signature(sig)
    chain = karoubi_factor_signatures(sig)
    witness = verify_tensor_iso(sig, chain)  # must never fail: internal error
    return FactorChain(sig, chain, witness)


# Every explicitly printed chain of the m = 2..5 factorization tables,
# including the alternatives, with the printed arrow target ring.
PAPER_CHAINS = {
    (4, 0): [(((2, 0), (0, 2)), "H")],
    (3, 1): [(((2, 0), (1, 1)), "R")],
    (2, 2): [(((2, 0), (2, 0)), "R")],
    (1, 3): [(((1, 1), (0, 2)), "H")],
    (0, 4): [(((0, 2), (2, 0)), "H")],
    (6, 0): [(((2, 0), (0, 2), (2, 0)), "H")],
    (5, 1): [(((2, 0), (1, 1), (0, 2)), "H")],
    (4, 2): [(((2, 0), (2, 0), (2, 0)), "R"),
             (((1, 1), (2, 0), (1, 1)), "R"),
             (((0, 2), (0, 2), (2, 0)), "R")],
    (3, 3): [(((2, 0), (2, 0), (1, 1)), "R"),
             (((0, 2), (1, 1), (0, 2)), "R")],
    (2, 4): [(((2, 0), (2, 0), (0, 2)), "H"),
             (((1, 1), (1, 1), (0, 2)), "H")],
    (1, 5): [(((1, 1), (0, 2), (2, 0)), "H")],
    (0, 6): [(((0, 2), (2, 0), (0, 2)), "R")],
    (8, 0): [(((2, 0), (0, 2), (2, 0), (0, 2)), "R")],
    (7, 1): [(((2, 0), (1, 1), (0, 2), (2, 0)), "H")],
    (6, 2): [(((2, 0), (2, 0), (2, 0), (0, 2)), "H"),
             (((1, 1), (2, 0), (1, 1), (0, 2)), "H"),
             (((0, 2), (0, 2), (2, 0), (0, 2)), "H")],
    (5, 3): [(((2, 0), (2, 0), (2, 0), (1, 1)), "R")],
    (4, 4): [(((2, 0), (2, 0), (2, 0), (2, 0)), "R"),
             (((1, 1), (2, 0), (2, 0), (1, 1)), "R"),
             (((0, 2), (2, 0), (2, 0), (0, 2)), "R")],
    (3, 5): [(((2, 0), (2, 0), (1, 1), (0, 2)), "H")],
    (2, 6): [(((2, 0), (2, 0), (0, 2), (2, 0)), "H"),
             (((1, 1), (1, 1), (0, 2), (2, 0)), "H")],
    (1, 7): [(((1, 1), (0, 2), (2, 0), (0, 2)), "R")],
    (0, 8): [(((0, 2), (2, 0), (0, 2), (2, 0)), "R")],
    (10, 0): [(((2, 0), (0, 2), (2, 0), (0, 2), (2, 0)), "R")],
}


class SemisimpleSplit(NamedTuple):
    """Central projectors lambda+- and the factor signature Cl(q,p-1).

    For omega^2 = +1 (p-q = 1,5 mod 8) the projectors are real; for
    omega^2 = -1 (p-q = 3,7 mod 8) the algebra is simple over R and the split
    lives in the complexification, with lambda+- = (1 +- i*omega)/2.
    """

    sig: Signature
    lambda_plus: Multivector
    lambda_minus: Multivector
    factor: Signature
    complexified: bool


def _split_key(sig):
    """(algebra, T) of odd Cl(p,q), T = omega as a (key, re, im) term, i*omega
    in the complexification when omega^2 = -1, once T^2 = +1 passes
    `ideals._stabilizer_rows`: so lambda+- = (1 +- T)/2 are complementary
    idempotents, lambda+ lambda- = (1 - T^2)/4 = 0."""
    sig = as_signature(sig)
    if sig.n % 2 == 0:
        raise ValueError("split_semisimple requires odd p+q")
    real = clifford(sig.p, sig.q)
    imag = real.square_sign(real.volume_key) == -1
    alg = clifford(sig.p, sig.q, "C") if imag else real
    t = (real.volume_key, 0, 1) if imag else (real.volume_key, 1, 0)
    _stabilizer_rows(alg, 1, [t])
    return alg, t


def split_semisimple(sig) -> SemisimpleSplit:
    sig = as_signature(sig)
    alg, (key, re, im) = _split_key(sig)
    lp, lm = (_from_numerators(alg, *_factor_product(alg, [(1, [t])]))
              for t in ((key, re, im), (key, -re, -im)))
    return SemisimpleSplit(sig, lp, lm, _even_part(sig), alg.field == "C")


def _even_part(sig):
    """Cl(q,p-1), or Cl(0,q-1) for p = 0: Cl+(p,q) and an odd split's half."""
    return Signature(sig.q, sig.p - 1) if sig.p else Signature(0, sig.q - 1)


class EvenIsoWitness(NamedTuple):
    """Verified images of Cl(q,p-1) generators inside the even part of Cl(p,q)."""

    source: Signature
    target: Signature
    images: tuple


def even_subalgebra_iso(sig) -> EvenIsoWitness:
    """The isomorphism Cl+(p,q) ~ Cl(q,p-1), by explicit degree-2 images.

    Generators of the target map to e_1 e_j products: j > p gives the q
    positive squares, 2 <= j <= p the p-1 negative ones.  For p = 0 it is
    Cl+(0,q) ~ Cl(0,q-1), with images e_j e_q (j < q), each squaring to -1.
    """
    sig = as_signature(sig)
    if sig.n < 1:
        raise ValueError("even_subalgebra_iso requires p+q >= 1")
    alg = clifford(sig.p, sig.q)
    images = tuple(alg.blade(k) for k in _even_keys(alg, sig))
    return EvenIsoWitness(sig, _even_part(sig), images)


def _even_keys(alg, sig):
    """The checked image keys of `even_subalgebra_iso`."""
    gens = alg.generator_keys()
    if sig.p:  # e_1 e_j is the blade e_1j itself, as 1 < j
        keys = [1 | g for g in gens[sig.p:] + gens[1:sig.p]]
    else:  # e_j e_q is the blade e_jq itself, as j < q
        keys = [g | gens[-1] for g in gens[:-1]]
    for i, k in enumerate(keys):
        if grade(k) % 2:
            raise IsoError(f"image {i + 1} is not even")
    return _require_generators(
        alg, keys, _even_part(sig),
        "generator images do not span the expected subalgebra")


class DoublingWitness(NamedTuple):
    """Verified iso C (x) Cl(q,p-1) ~ Cl(p,q) with i realized as omega."""

    target: Signature
    factor: Signature
    images: tuple
    i_image: Multivector


def complex_doubling_iso(sig) -> DoublingWitness:
    """Realize Cl(p,q) (odd n, omega^2 = -1) as the complexification of
    Cl(q,p-1): the center {1, omega} plays the field C.
    """
    sig = as_signature(sig)
    alg = clifford(sig.p, sig.q)
    if sig.n % 2 == 0 or alg.square_sign(alg.volume_key) != -1:
        raise IsoError(f"{sig}: need odd p+q with omega^2 = -1")
    keys = _even_keys(alg, sig)
    if not all(alg.keys_commute(k, alg.volume_key) for k in keys):
        raise IsoError("omega is not central")  # cannot happen
    # span over R: even-part products times {1, omega} must fill 2^n keys
    _require_span(keys + [alg.volume_key],
                  "doubling images do not span the algebra")
    return DoublingWitness(sig, _even_part(sig),
                           tuple(alg.blade(k) for k in keys),
                           alg.blade(alg.volume_key))


def _require_generators(alg, keys, target, reason):
    """`keys`, +1-squares first, each kind in its order, once their unit
    blades satisfy the relations of Cl(target), else IsoError: p square to
    +1, q to -1 (one `square_sign` per key), each pair anticommutes (a
    parity on one key's `linear_row`), and they are F2-independent (else
    `reason`)."""
    if len(keys) != target.n:
        raise IsoError("wrong number of generator images")
    plus, minus = [], []
    for k in keys:
        (plus if alg.square_sign(k) == 1 else minus).append(k)
    if len(plus) != target.p:
        raise IsoError(
            f"square multiset mismatch: got {len(plus)} plus / {len(minus)} "
            f"minus, target {target} needs {target.p}/{target.q}")
    keys = plus + minus
    gens = alg.generator_rows()
    for i, key in enumerate(keys):
        row = linear_row(gens, key)
        for j in range(i + 1, len(keys)):
            if not (keys[j] & row).bit_count() & 1:
                raise IsoError(f"images {i + 1} and {j + 1} do not anticommute")
    _require_span(keys, reason)
    return keys


def _require_span(keys, reason):
    """Raise IsoError(reason) unless `keys` are F2-independent, so that the
    subset products of their blades hit distinct basis keys: elimination on
    the leading bit (`f2_insert`)."""
    lead = {}
    for k in keys:
        if not f2_insert(lead, k):
            raise IsoError(reason)


def complexify(sig) -> CliffordAlgebra:
    """C (x) Cl(p,q): same blades, complex-rational coefficients."""
    sig = as_signature(sig)
    return clifford(sig.p, sig.q, "C")
