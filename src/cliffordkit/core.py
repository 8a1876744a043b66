"""Exact multivector arithmetic in real and complexified Clifford algebras Cl(p,q).

Basis blades are bit masks over the generator set {1..p+q}: bit i-1 set means
generator e_i is a factor.  The canonical basis is ordered by (grade, mask).
Coefficients are exact: `fractions.Fraction` for real algebras, `QC`
(complex rationals) for complexified ones.  No floating point anywhere.

Generator squares follow the (p,q) convention: e_i^2 = +1 for i <= p and
e_i^2 = -1 for i > p; distinct generators anticommute.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

MAX_N = 12  # dimension cap: 2^12 basis blades at most


class QC:
    """Complex rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QC is immutable")

    @staticmethod
    def _coerce(x):
        if isinstance(x, QC):
            return x
        if isinstance(x, (int, Fraction)):
            return QC(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QC(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QC(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero QC")
        return QC((self.re * o.re + self.im * o.im) / d,
                  (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self):
        return QC(self.re, -self.im)

    def __repr__(self):
        return f"QC({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


QC_I = QC(0, 1)
QC_ONE = QC(1, 0)


@dataclass(frozen=True, order=True)
class Signature:
    """Pseudo-Euclidean signature (p,q): p generators square to +1, q to -1."""

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise TypeError("signature components must be integers")
        if self.p < 0 or self.q < 0:
            raise ValueError("signature components must be non-negative")
        if self.p + self.q > MAX_N:
            raise ValueError(f"p+q = {self.p + self.q} exceeds the cap {MAX_N}")

    @property
    def n(self):
        return self.p + self.q

    def __str__(self):
        return f"Cl({self.p},{self.q})"


def as_signature(sig) -> Signature:
    if isinstance(sig, Signature):
        return sig
    p, q = sig
    return Signature(p, q)


def grade(mask: int) -> int:
    return mask.bit_count()


def _reorder_sign(a: int, b: int) -> int:
    # parity of #{(i,j): i in a, j in b, i > j}, the transposition count for
    # merging two ascending blades
    swaps = 0
    x = a >> 1
    while x:
        swaps += (x & b).bit_count()
        x >>= 1
    return -1 if swaps & 1 else 1


def mask_indices(mask: int):
    """Ascending 1-based generator indices of a blade mask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def blade_name(mask: int) -> str:
    if mask == 0:
        return "1"
    idx = mask_indices(mask)
    if idx[-1] <= 9:
        return "e" + "".join(str(i) for i in idx)
    return "e" + ",".join(str(i) for i in idx)


class BladeAlgebra:
    """An algebra over Q (field 'R') or Q(i) (field 'C') with a basis of blades.

    `Multivector`, the idempotent search and the witness checks see an algebra
    only through this protocol.  A subclass sets `field`, `n` (the number of
    generators), `dim` (2^n) and

    - `basis`: every basis key, in canonical order, `unit_key` first;
    - `index`: each basis key's position in `basis`;
    - `unit_key`: the key of the identity;

    and defines

    - `mul_key(a, b)`: (key, sign) with blade(a) * blade(b) = sign * blade(key);
    - `keys_commute(a, b)`: whether blades a and b commute (else they
      anticommute);
    - `key_xor(a, b)`: the key of a * b, which is the F2 sum of a and b;
    - `key_grade(a)`: the number of generator factors of blade a;
    - `key_name(a)`: the printed name of blade a;
    - `generator_keys()`: the keys of the n generators, in order.

    This base adds the coefficient handling: `scalar` admits only exact
    scalars (int, Fraction, QC), and `mv` passes every coefficient through it.
    """

    def scalar(self, x):
        """x as a base-field element: Fraction over R, QC over C."""
        if isinstance(x, QC):
            if self.field == "C":
                return x
            if x.im != 0:
                raise TypeError("complex coefficient in a real algebra")
            return x.re
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"inexact scalar {x!r}: use int, Fraction or QC")
        if self.field == "C":
            return QC(x)
        return x if type(x) is Fraction else Fraction(x)

    def mv(self, coeffs: dict) -> "Multivector":
        # coerce before dropping zeros, so that an inexact 0.0 is rejected too
        return Multivector(self, {k: s for k, v in coeffs.items()
                                  if (s := self.scalar(v))})

    def blade(self, key, coeff=1) -> "Multivector":
        if key not in self.index:
            raise ValueError(f"{key!r} is not a basis key of {self!r}")
        return self.mv({key: coeff})

    def zero(self) -> "Multivector":
        return Multivector(self, {})

    def one(self) -> "Multivector":
        return self.blade(self.unit_key)

    def square_sign(self, a) -> int:
        return self.mul_key(a, a)[1]


class CliffordAlgebra(BladeAlgebra):
    """Cl(p,q) over Q (field='R') or its complexification over Q(i) (field='C').

    Basis keys are blade masks.  Obtain instances through
    `clifford(p, q, field)`; they are cached, so identity comparison of
    parents is meaningful.
    """

    def __init__(self, sig: Signature, field: str):
        if field not in ("R", "C"):
            raise ValueError("field must be 'R' or 'C'")
        self.sig = sig
        self.field = field
        self.n = sig.n
        self.dim = 1 << sig.n
        self.minus_mask = ((1 << sig.q) - 1) << sig.p
        self.basis = tuple(sorted(range(self.dim), key=lambda m: (grade(m), m)))
        self.index = {k: i for i, k in enumerate(self.basis)}
        self.unit_key = 0
        self.volume_key = self.dim - 1

    def __repr__(self):
        pre = "C(x)" if self.field == "C" else ""
        return f"{pre}{self.sig}"

    def mul_key(self, a: int, b: int):
        s = _reorder_sign(a, b)
        if (a & b & self.minus_mask).bit_count() & 1:
            s = -s
        return a ^ b, s

    def keys_commute(self, a: int, b: int) -> bool:
        # blades commute or anticommute; compare the two reorder signs
        return self.mul_key(a, b)[1] == self.mul_key(b, a)[1]

    def key_xor(self, a: int, b: int) -> int:
        return a ^ b

    def key_grade(self, a: int) -> int:
        return grade(a)

    def key_name(self, a: int) -> str:
        return blade_name(a)

    def generator_keys(self):
        return [1 << i for i in range(self.n)]

    def i(self) -> "Multivector":
        if self.field != "C":
            raise ValueError("imaginary unit requires a complexified algebra")
        return self.blade(0, QC_I)

    def gen(self, i: int) -> "Multivector":
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} not in 1..{self.n}")
        return self.blade(1 << (i - 1))

    def gens(self):
        return [self.gen(i) for i in range(1, self.n + 1)]


@lru_cache(maxsize=None)
def _clifford_cached(p: int, q: int, field: str) -> CliffordAlgebra:
    return CliffordAlgebra(Signature(p, q), field)


def clifford(p, q=None, field="R") -> CliffordAlgebra:
    if q is None:
        sig = as_signature(p)
        p, q = sig.p, sig.q
    return _clifford_cached(int(p), int(q), field)


class Multivector:
    """Element of a blade-indexed algebra: finite map basis-key -> coefficient.

    Treat instances as immutable; arithmetic returns new objects.  The parent
    algebra may be a CliffordAlgebra or a TensorAlgebra (same protocol).
    """

    __slots__ = ("alg", "c")

    def __init__(self, alg, coeffs: dict):
        self.alg = alg
        self.c = coeffs

    def _check(self, other):
        if self.alg is not other.alg:
            raise ValueError(f"algebra mismatch: {self.alg!r} vs {other.alg!r}")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check(other)
        acc = dict(self.c)
        for k, v in other.c.items():
            acc[k] = acc.get(k, 0) + v
        return _pruned(self.alg, acc)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check(other)
        acc = dict(self.c)
        for k, v in other.c.items():
            acc[k] = acc.get(k, 0) - v
        return _pruned(self.alg, acc)

    def __neg__(self):
        return Multivector(self.alg, {k: -v for k, v in self.c.items()})

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check(other)
            mul = self.alg.mul_key
            acc = {}
            for ka, va in self.c.items():
                for kb, vb in other.c.items():
                    k, s = mul(ka, kb)
                    v = va * vb
                    acc[k] = acc.get(k, 0) + (-v if s < 0 else v)
            return _pruned(self.alg, acc)
        try:
            s = self.alg.scalar(other)
        except (TypeError, ValueError):
            return NotImplemented
        if not s:
            return self.alg.zero()
        return Multivector(self.alg, {k: v * s for k, v in self.c.items()})

    def __rmul__(self, other):
        return self.__mul__(other)  # scalars commute with everything

    def __truediv__(self, other):
        s = self.alg.scalar(other)
        return Multivector(self.alg, {k: v / s for k, v in self.c.items()})

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.alg is other.alg and self.c == other.c

    def __bool__(self):
        return bool(self.c)

    def key(self):
        """Canonical hashable form (sorted by basis position)."""
        idx = self.alg.index
        return tuple(sorted(((idx[k], v) for k, v in self.c.items())))

    def __hash__(self):
        return hash((id(self.alg), self.key()))

    def coeff(self, mask):
        return self.c.get(mask, self.alg.scalar(0))

    @property
    def grades(self):
        return sorted({self.alg.key_grade(k) for k in self.c})

    def grade_part(self, g: int):
        return Multivector(self.alg, {k: v for k, v in self.c.items()
                                      if self.alg.key_grade(k) == g})

    def to_row(self):
        """Dense coefficient list in canonical basis order."""
        zero = self.alg.scalar(0)
        row = [zero] * self.alg.dim
        idx = self.alg.index
        for k, v in self.c.items():
            row[idx[k]] = v
        return row

    def __str__(self):
        if not self.c:
            return "0"
        idx = self.alg.index
        parts = []
        for k in sorted(self.c, key=idx.get):
            v = self.c[k]
            name = self.alg.key_name(k)
            sv = str(v)
            if ("+" in sv[1:]) or ("-" in sv[1:]):
                sv = f"({sv})"
            if k == self.alg.unit_key:
                parts.append(sv)
            elif sv == "1":
                parts.append(name)
            elif sv == "-1":
                parts.append(f"-{name}")
            else:
                parts.append(f"{sv}*{name}")
        out = parts[0]
        for t in parts[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self):
        return f"<{self.alg!r}: {self}>"


def _pruned(alg, acc: dict) -> Multivector:
    # sums and products of exact coefficients are exact: drop zeros only
    return Multivector(alg, {k: v for k, v in acc.items() if v})


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    return a * b


def grade_involution(a: Multivector) -> Multivector:
    """Sign flip on odd grades (the main involution)."""
    alg = a.alg
    return Multivector(alg, {k: (-v if alg.key_grade(k) & 1 else v)
                             for k, v in a.c.items()})


def reversion(a: Multivector) -> Multivector:
    """Reverse the order of generator factors: grade g picks up (-1)^(g(g-1)/2)."""
    alg = a.alg
    out = {}
    for k, v in a.c.items():
        g = alg.key_grade(k)
        out[k] = -v if (g * (g - 1) // 2) & 1 else v
    return Multivector(alg, out)


def conjugation(a: Multivector) -> Multivector:
    """Clifford conjugation: grade involution composed with reversion."""
    return reversion(grade_involution(a))


def pseudo_automorphism(a: Multivector) -> Multivector:
    """Coefficient-wise complex conjugation; identity on real algebras."""
    if a.alg.field == "R":
        return a
    return Multivector(a.alg, {k: v.conjugate() for k, v in a.c.items()})


def volume_element(alg) -> Multivector:
    alg = as_algebra(alg)
    return alg.blade(alg.volume_key)


def center_basis(alg):
    """Basis keys commuting with every generator, found by brute force."""
    alg = as_algebra(alg)
    gen_keys = alg.generator_keys()
    out = []
    for k in alg.basis:
        if all(alg.keys_commute(k, g) for g in gen_keys):
            out.append(k)
    return [alg.blade(k) for k in out]


def even_subalgebra_basis(alg):
    """All even-grade blade masks of Cl(p,q), in canonical order."""
    alg = as_algebra(alg)
    return [k for k in alg.basis if grade(k) % 2 == 0]


def as_algebra(x, field="R") -> BladeAlgebra:
    """x itself if it is an algebra, else the Clifford algebra of signature x."""
    if isinstance(x, BladeAlgebra):
        return x
    sig = as_signature(x)
    return clifford(sig.p, sig.q, field)
