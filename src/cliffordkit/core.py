"""Exact multivector arithmetic in real and complexified Clifford algebras Cl(p,q).

Basis blades are bit masks over the generator set {1..p+q}: bit i-1 set means
generator e_i is a factor.  The canonical basis is ordered by (grade, mask).
Every `BladeAlgebra` keys its blades by such masks, so the plain tensor
products of `factorize` run through the same product kernel.
Coefficients are exact: `fractions.Fraction` for real algebras, `QC`
(complex rationals) for complexified ones.  No floating point anywhere.

The geometric product has two exact paths on integer numerators over one
denominator per operand: `_numerators` reads coefficients into (key, re, im)
terms in one pass, and `_from_numerators` turns terms back into fractions in
one pass, for both paths and for the idempotents of `ideals`, which multiply
f out through the pair path's loop, `_pair_sums`.  The pair path, the
reference and the only one for tensor algebras, reorders blades by the
bitmap method of Dorst, Fontijne and Mann (Geometric Algebra for Computer
Science, ch. 19): the sign of e_A e_B is the parity of
popcount(A & sign_mask(B)), one mask per right-hand blade, which the
algebra supplies.  The spinor path multiplies matrices on the complex
spinor module C^m, m = 2^(n//2), of Cl(p,q) in the Jordan-Wigner
representation (two summands for odd n), each Gaussian-integer entry and
each matrix row packed into one integer (Kronecker substitution; Harvey,
J. Symb. Comput. 44 (2009)), so that its Hadamard passes, digit
permutations and dot products act on whole rows (`_spinor_product`).
A product in Cl(p,q) takes it when |a|*|b| blade pairs exceed 20 * 2^n over
R or 16 * 2^n over C, at or above the measured cost of a spinor product in
pairs (scripts/kernel_crossover.py); a dense product at n = 12 takes about
0.02-0.03 s that way, and 3-7 s on pairs.

Generator squares follow the (p,q) convention: e_i^2 = +1 for i <= p and
e_i^2 = -1 for i > p; distinct generators anticommute.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from math import lcm
from operator import mul
from typing import NamedTuple

MAX_N = 12  # dimension cap: 2^12 basis blades at most


def _exact_part(x) -> Fraction:
    if isinstance(x, (int, Fraction)) and type(x) is not bool:
        return Fraction(x)
    raise TypeError(f"inexact scalar {x!r}: use int or Fraction")


def _checked_make(cls, fields):
    """A record's `_make` through its `__new__`, so that `_make` and
    `_replace` (which builds through `_make`) run the record's checks."""
    return cls(*fields)


class QC:
    """Complex rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # arithmetic builds almost every QC from Fraction parts, kept as they
        # are; the slot descriptors (bound below) bypass __setattr__ cheaply
        _set_re(self, re if type(re) is Fraction else _exact_part(re))
        _set_im(self, im if type(im) is Fraction else _exact_part(im))

    def __setattr__(self, name, value):
        raise AttributeError("QC is immutable")

    def __delattr__(self, name):
        raise AttributeError("QC is immutable")

    @staticmethod
    def _coerce(x):
        if isinstance(x, QC):
            return x
        if isinstance(x, (int, Fraction)) and type(x) is not bool:
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

    def __neg__(self):  # a zero part is kept: -Fraction(0) is a new 0
        return QC(-self.re if self.re else self.re, -self.im if self.im else self.im)

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

    def __repr__(self):
        return f"QC({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


_set_re, _set_im = QC.re.__set__, QC.im.__set__
QC_I = QC(0, 1)


class Signature(NamedTuple("Signature", [("p", int), ("q", int)])):
    """Pseudo-Euclidean signature (p,q): p generators square to +1, q to -1."""

    __slots__ = ()

    def __new__(cls, p, q):
        if type(p) is not int or type(q) is not int:
            raise TypeError("signature components must be integers")
        if p < 0 or q < 0:
            raise ValueError("signature components must be non-negative")
        if p + q > MAX_N:
            raise ValueError(f"p+q = {p + q} exceeds the cap {MAX_N}")
        return super().__new__(cls, p, q)

    _make = classmethod(_checked_make)

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


def _prefix_parity(b: int) -> int:
    """Bit i is set iff an odd number of b's bits lie below bit i.

    The shift-xors fold a 16-bit window, enough for the MAX_N cap; bits at
    and above 16 are never read, since blade masks stay below 2^MAX_N."""
    b <<= 1
    b ^= b << 1
    b ^= b << 2
    b ^= b << 4
    b ^= b << 8
    return b


def blade_name(mask: int) -> str:
    if mask == 0:
        return "1"
    idx = [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]
    if idx[-1] <= 9:
        return "e" + "".join(str(i) for i in idx)
    return "e" + ",".join(str(i) for i in idx)


class BladeAlgebra:
    """An algebra over Q (field 'R') or Q(i) (field 'C') with a basis of blades.

    Every basis key is a blade mask over the n generators: blade(a) * blade(b)
    is +-blade(a ^ b), and the grade of a is popcount(a).  `Multivector`, the
    idempotent search and the witness checks see an algebra only through this
    protocol.  Every key below `dim` (2^n) is a basis key.  A subclass sets
    `field`, `n` and `dim`; `basis` (the keys sorted by `order_key`) and `index`
    (each key's position there) are views built on first read.  It defines

    - `order_key(a)`: the sort key of the canonical order, the unit key 0 first;
    - `sign_mask(b)`: m with blade(a) * blade(b) = (-1)^popcount(a & m)
      blade(a ^ b), for every key a;
    - `key_name(a)`: the printed name of blade a.

    `keys_commute(a, b)`, `square_sign(a)`, the sign of blade(a)^2, and
    `generator_rows()`, row t the generators that anticommute with e_t,
    follow from `sign_mask`; each subclass states all three in closed form
    in its own body, and the tests certify the rows against `sign_mask`.
    `basis_runs()` cuts `basis` into runs of rising keys, each a bit-set of
    keys: here the grades, for a basis in (grade, mask) order, each built
    from the one before when it is asked for, so a walk that stops early
    builds no more; a subclass with another order states its own, and the
    tests certify both.
    `mul_key`, the (key, sign) of blade(a) * blade(b), has no caller in the
    package: each subclass keeps it for `perfbench/layers.py`, which counts
    its calls and those of `keys_commute` there, until the benchmark reads
    counters of its own.

    This base adds the unit and generator keys and the coefficient handling:
    `scalar` admits only exact scalars (int, Fraction, QC), and `mv` passes
    every coefficient through it.
    """

    unit_key = 0
    spinor_pairs = 1 << 2 * MAX_N  # no |a| * |b| exceeds it: pairs only

    def generator_keys(self):
        return [1 << i for i in range(self.n)]

    @cached_property
    def basis(self):
        return tuple(sorted(range(self.dim), key=self.order_key))

    @cached_property
    def index(self):
        return {k: i for i, k in enumerate(self.basis)}

    def basis_runs(self):
        # below[t]: the grade-g keys below 2^t.  Those of grade g + 1 below
        # 2^(t+1) are those below 2^t and, times e_t, those of grade g.
        below = [1] * (self.n + 1)
        for _g in range(self.n + 1):
            yield below[-1]
            run = [0]
            for t in range(self.n):
                run.append(run[t] | below[t] << (1 << t))
            below = run

    def scalar(self, x):
        """x as a base-field element: Fraction over R, QC over C."""
        if isinstance(x, QC):
            if self.field == "C":
                return x
            if x.im != 0:
                raise TypeError("complex coefficient in a real algebra")
            return x.re
        if not isinstance(x, (int, Fraction)) or type(x) is bool:
            raise TypeError(f"inexact scalar {x!r}: use int, Fraction or QC")
        if self.field == "C":
            return QC(x)
        return x if type(x) is Fraction else Fraction(x)

    def mv(self, coeffs: dict) -> "Multivector":
        # coerce before dropping zeros, so that an inexact 0.0 is rejected too
        return Multivector(self, {k: s for k, v in coeffs.items()
                                  if (s := self.scalar(v))})

    def blade(self, key, coeff=1) -> "Multivector":
        if type(key) is not int or not 0 <= key < self.dim:
            raise ValueError(f"{key!r} is not a basis key of {self!r}")
        return self.mv({key: coeff})

    def zero(self) -> "Multivector":
        return Multivector(self, {})

    def one(self) -> "Multivector":
        return self.blade(self.unit_key)


class CliffordAlgebra(BladeAlgebra):
    """Cl(p,q) over Q (field='R') or its complexification over Q(i) (field='C').

    Obtain instances through `clifford(p, q, field)`; they are cached, so
    identity comparison of parents is meaningful.
    """

    _pauli = None  # the table of `_pauli_table`, built by the first dense product

    def __init__(self, sig: Signature, field: str):
        if field not in ("R", "C"):
            raise ValueError("field must be 'R' or 'C'")
        self.sig = sig
        self.field = field
        self.n = sig.n
        self.dim = 1 << sig.n
        self.minus_mask = ((1 << sig.q) - 1) << sig.p
        self.volume_key = self.dim - 1
        # the spinor path's cost in blade pairs (see the module docstring)
        self.spinor_pairs = (20 if field == "R" else 16) << sig.n

    def __repr__(self):
        pre = "C(x)" if self.field == "C" else ""
        return f"{pre}{self.sig}"

    def order_key(self, a: int):
        return a.bit_count(), a

    def sign_mask(self, b: int) -> int:
        """m with e_a e_b = (-1)^popcount(a & m) e_(a^b), for every blade a.

        A factor of a passes each factor of b below it (prefix parity) and
        squares to -1 where it meets a factor of b in the minus block."""
        return _prefix_parity(b) ^ (b & self.minus_mask)

    def mul_key(self, a: int, b: int):
        return a ^ b, -1 if (a & self.sign_mask(b)).bit_count() & 1 else 1

    def keys_commute(self, a: int, b: int) -> bool:
        # e_A e_B = (-1)^(|A||B| - |A & B|) e_B e_A, whatever the signature
        return not (a.bit_count() * b.bit_count() - (a & b).bit_count()) & 1

    def square_sign(self, a: int) -> int:
        # putting e_A e_A in order takes g(g-1)/2 swaps for g = |A|, and
        # each factor in the minus block then squares to -1
        g = a.bit_count()
        return -1 if (g * (g - 1) // 2 + (a & self.minus_mask).bit_count()) & 1 else 1

    def generator_rows(self):
        # distinct generators anticommute: row t is every generator but e_t
        return [self.volume_key ^ 1 << t for t in range(self.n)]

    def key_name(self, a: int) -> str:
        return blade_name(a)

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
    # Signature rejects a non-integer p or q; the cache would take 1.0 for 1
    sig = as_signature(p if q is None else (p, q))
    return _clifford_cached(sig.p, sig.q, field)


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
        return self + -other

    def __neg__(self):
        return Multivector(self.alg, {k: -v for k, v in self.c.items()})

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check(other)
            if not (self.c and other.c):
                return Multivector(self.alg, {})
            if len(self.c) * len(other.c) > self.alg.spinor_pairs:
                return _spinor_product(self, other)
            return _pair_product(self, other)
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

    def __hash__(self):
        return hash((id(self.alg), frozenset(self.c.items())))

    def columns(self):
        """Sparse coefficients {basis position: value} (nonzeros only)."""
        idx = self.alg.index
        return {idx[k]: v for k, v in self.c.items()}

    def __str__(self):
        if not self.c:
            return "0"
        parts = []
        for k in sorted(self.c, key=self.alg.order_key):
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


def _numerators(alg, c: dict):
    """(den, [(key, re, im)]) with c[key] == (re + i im) / den, den the lcm
    of c's denominators; im is 0 over R."""
    if alg.field == "R":
        ratios = [v.as_integer_ratio() for v in c.values()]
        den = lcm(*{d for _n, d in ratios})
        return den, [(k, n * (den // d), 0) for k, (n, d) in zip(c, ratios)]
    ratios = [(v.re.as_integer_ratio(), v.im.as_integer_ratio()) for v in c.values()]
    den = lcm(*{d for parts in ratios for _n, d in parts})
    return den, [(k, a * (den // d), b * (den // e))
                 for k, ((a, d), (b, e)) in zip(c, ratios)]


def _from_numerators(alg, den: int, terms) -> Multivector:
    """The nonzero (re + i im) / den of the (key, re, im) `terms`, the
    format of `_numerators`: QCs over C, Fractions over R, where a nonzero
    im is an ArithmeticError (not an assert: the check must hold under
    python -O)."""
    if alg.field == "C":
        return Multivector(alg, {k: QC(Fraction(r, den), Fraction(i, den))
                                 for k, r, i in terms if r or i})
    c = {}
    for k, r, i in terms:
        if i:
            raise ArithmeticError(f"imaginary part in a product in {alg!r}")
        if r:
            c[k] = Fraction(r, den)
    return Multivector(alg, c)


def _pair_sums(alg, a: list, b: list):
    """The (key, re, im) numerator sums of a * b, blade pair by blade pair,
    for terms a and b in the format of `_numerators`: an iterator, im 0
    over R."""
    signs = alg.sign_mask
    re, im = {}, {}
    rget, iget = re.get, im.get
    if alg.field == "R":
        b = [(kb, signs(kb), vb) for kb, vb, _ in b]
        for ka, va, _ in a:
            for kb, m, vb in b:
                k = ka ^ kb
                if (ka & m).bit_count() & 1:
                    re[k] = rget(k, 0) - va * vb
                else:
                    re[k] = rget(k, 0) + va * vb
        return zip(re, re.values(), repeat(0))
    b = [(kb, signs(kb), br, bi) for kb, br, bi in b]
    for ka, ar, ai in a:
        for kb, m, br, bi in b:
            k = ka ^ kb
            if (ka & m).bit_count() & 1:
                re[k] = rget(k, 0) - ar * br + ai * bi
                im[k] = iget(k, 0) - ar * bi - ai * br
            else:
                re[k] = rget(k, 0) + ar * br - ai * bi
                im[k] = iget(k, 0) + ar * bi + ai * br
    return zip(re, re.values(), im.values())  # im is filled in re's key order


def _pair_product(x: Multivector, y: Multivector) -> Multivector:
    """x * y blade pair by blade pair, the reference path (module docstring)."""
    alg = x.alg
    da, a = _numerators(alg, x.c)
    db, b = _numerators(alg, y.c)
    return _from_numerators(alg, da * db, _pair_sums(alg, a, b))


def _pauli_table(alg) -> list:
    """(f, z, x) per blade key A: rho(e_A) = i^f X^x Z^z on k = n // 2 qubits,
    X^x Z^z taking |c> to (-1)^popcount(z & c) |c ^ x>.  Generator t < 2k is
    Z on the qubits below t // 2, then X (even t) or Y = iXZ (odd t); for odd
    n the last is Z on all k, negated in the second simple summand, which
    bit k of z marks.  A generator squaring to -1 takes a factor i.  Built
    by doubling, row A | 1 << t from row A for A < 2^t: e_A e_t has
    f + g + 2 popcount(z & y)."""
    if alg._pauli is None:
        k, rows = alg.n // 2, [(0, 0, 0)]
        for t in range(alg.n):
            j = t >> 1
            if t < 2 * k:
                y, w, g = 1 << j, (1 << j + (t & 1)) - 1, t & 1
            else:
                y, w, g = 0, (2 << k) - 1, 0
            g += t >= alg.sig.p
            rows += [((f + g + 2 * (z & y).bit_count()) & 3, z ^ w, x ^ y)
                     for f, z, x in rows]
        alg._pauli = rows
    return alg._pauli


def _hadamard(rows: list) -> list:
    """In place, rows[z] = the sum over u of (-1)^popcount(z & u) rows[u]:
    two integer operations per butterfly, each on a whole packed row."""
    h = 1
    while h < len(rows):
        for u in range(len(rows)):
            if not u & h:
                s, t = rows[u], rows[u | h]
                rows[u], rows[u | h] = s + t, s - t
        h <<= 1
    return rows


def _xor_shuffle(rows: list, m: int, w: int) -> list:
    """Each row v of m w-bit digits, every digit in [0, 2^w), with its digits
    permuted by v mod m: digit x of the result is digit x ^ v of the row.
    One mask-and-shift swap per bit of v."""
    full, h = (1 << m * w) - 1, 1
    while h < m:
        t = h * w
        mask = ((1 << t) - 1) * (full // ((1 << 2 * t) - 1))  # digits x, x & h = 0
        rows = [(r & mask) << t | (r >> t) & mask if v & h else r
                for v, r in enumerate(rows)]
        h <<= 1
    return rows


def _spinor_product(x: Multivector, y: Multivector) -> Multivector:
    """x * y as matrices on the spinor module of Cl(p,q) (`_pauli_table`).

    Each numerator a + ib, times i^f, is packed into (a << s) + b, and each
    operand's z-row into one integer, digit x at bit x w, w = 3s.  A
    Walsh-Hadamard pass over z turns row u into the XOR-diagonal
    A_u[x] = rho[c ^ x][c] of each summand (c = u mod m, the summand u // m).
    With perm_d the digit permutation x -> x ^ d, the product's diagonals are
    P_c = sum over d < m of B_c[d] perm_d(A_(c^d)) = perm_c of sum over v of
    B_c[c ^ v] perm_v(A_v), v in c's summand: the A rows and the output rows
    are permuted once each (`_xor_shuffle`), the digits of B_c are read in
    place, and each output row is one dot product.  After the inverse pass,
    P's digits A 4^s + C 2^s + B are A - B + iC, and one walk over the table
    reads each coefficient, over the one denominator, as tr(rho(e_A)^-1 P)
    summed over the summands and divided by m per summand.
    All of it is bilinear in the packed entries, whose parts are bounded by
    na and nb, the largest |re| | |im| of each operand: each part of an
    output digit is rows times a sum of 2^n = m rows products of parts (two
    for C), and of a diagonal digit a sum of m products of sums of rows
    parts, so none reaches 2 m rows^2 na nb < 2^(s-1) (over C,
    y_A = x_A e_A^2 meets it) and no digit 2^(w-1).  Biased by 2^(w-1), every digit lies in [0, 2^w)
    for the masks and shifts, and by 2^(s-1) per part, the parts split
    exactly.  (An empty operand gives s = 1 and digits that do not fit, but
    then every product is 0.)"""
    alg = x.alg
    table = _pauli_table(alg)
    m, rows = 1 << alg.n // 2, 1 << (alg.n + 1) // 2
    (da, a), (db, b) = _numerators(alg, x.c), _numerators(alg, y.c)
    na, nb = (max([abs(r) | abs(i) for _k, r, i in t], default=0) for t in (a, b))
    s = (2 * m * rows**2 * na * nb).bit_length() + 1
    w = 3 * s
    digit, top = (1 << w) - 1, 1 << w - 1
    ones = ((1 << m * w) - 1) // digit  # 1 in each of the m digits
    bias = ones * top
    hats = []
    for t in (a, b):
        row = [bias] + [0] * (rows - 1)  # H adds row 0 to every row: all biased
        for k, r, i in t:
            f, z, xm = table[k]
            e = (-i << s) + r if f & 1 else (r << s) + i
            row[z] += (-e if f & 2 else e) << xm * w
        hats.append(_hadamard(row))
    xs = [r - bias for r in _xor_shuffle(hats[0], m, w)]  # perm_v(A_v)
    q = []
    for c, yc in enumerate(hats[1]):
        d = c & m - 1
        bd = [(yc >> (t ^ d) * w & digit) - top for t in range(m)]
        q.append(sum(map(mul, bd, xs[c - d:c - d + m]), bias))
    half, low = 1 << s - 1, (1 << s) - 1
    p = _xor_shuffle(q, m, w)
    p[0] += ones * half * ((1 << 2 * s) + (1 << s) + 1)  # 2^(s-1) per part
    p = _hadamard(p)
    p[0] -= rows * bias  # what H makes of the bias on every row of q
    terms = []
    for k, (f, z, xm) in enumerate(table):
        v = p[z] >> xm * w & digit  # i^f times the coefficient, biased
        if f & 1:
            a, b = (v >> s & low) - half, (v & low) - (v >> 2 * s)
        else:
            a, b = (v >> 2 * s) - (v & low), (v >> s & low) - half
        terms.append((k, -a, -b) if f & 2 else (k, a, b))
    return _from_numerators(alg, da * db * rows, terms)


def grade_flips(star: bool, tilde: bool) -> tuple:
    """flips[g & 3] says whether (star, tilde) negates grade g: star negates
    odd g, tilde g with g(g-1)/2 odd, which is g & 3 in {2, 3}."""
    return tuple(bool(star and g & 1) != bool(tilde and g & 2) for g in range(4))


def grade_map(a: Multivector, flips: tuple, bar: bool = False) -> Multivector:
    """One pass over a: negate the blades of each grade g with flips[g & 3],
    and conjugate the coefficients when bar is set on a complexified algebra."""
    alg = a.alg
    if bar and alg.field == "C":
        return Multivector(alg, {  # a zero part is kept as in QC.__neg__
            k: QC(-v.re if v.re else v.re, v.im) if flips[k.bit_count() & 3]
            else QC(v.re, -v.im if v.im else v.im) for k, v in a.c.items()})
    if not any(flips):
        return a  # the identity map; multivectors are immutable
    return Multivector(alg, {k: -v if flips[k.bit_count() & 3] else v
                             for k, v in a.c.items()})


_STAR, _TILDE, _STAR_TILDE, _NO_FLIPS = (
    grade_flips(star, tilde) for star, tilde in ((1, 0), (0, 1), (1, 1), (0, 0)))


def grade_involution(a: Multivector) -> Multivector:
    """Sign flip on odd grades (the main involution)."""
    return grade_map(a, _STAR)


def reversion(a: Multivector) -> Multivector:
    """Reverse the order of generator factors: grade g picks up (-1)^(g(g-1)/2)."""
    return grade_map(a, _TILDE)


def conjugation(a: Multivector) -> Multivector:
    """Clifford conjugation: grade involution composed with reversion."""
    return grade_map(a, _STAR_TILDE)


def pseudo_automorphism(a: Multivector) -> Multivector:
    """Coefficient-wise complex conjugation; identity on real algebras."""
    return grade_map(a, _NO_FLIPS, bar=True)


def volume_element(alg) -> Multivector:
    alg = as_algebra(alg)
    return alg.blade(alg.volume_key)


def linear_row(gens, a: int) -> int:
    """The XOR of gens[t] over the bits t of a.  With gens =
    `generator_rows()`, the generators that anticommute with blade a: the
    form is F2-bilinear, as `sign_mask` is F2-linear in its key."""
    row = 0
    while a:
        low = a & -a
        row ^= gens[low.bit_length() - 1]
        a ^= low
    return row


def f2_insert(lead: dict, v: int) -> int:
    """v reduced by the rows of `lead`, keyed by their leading bit, and kept
    there unless zero: 0 iff v lies in their F2 span."""
    while v.bit_length() in lead:
        v ^= lead[v.bit_length()]
    if v:
        lead[v.bit_length()] = v
    return v


def center_keys(alg):
    """Keys of the central blades, in canonical order: the F2 kernel of the
    generator rows.  Each row t, shifted above a tag bit t, is reduced by
    the earlier ones; where the row part cancels, the tag bits left give a
    basis vector of the kernel."""
    n, lead, kernel = alg.n, {}, [0]
    for t, row in enumerate(alg.generator_rows()):
        v = f2_insert(lead, row << n | 1 << t)
        if not v >> n:
            kernel += [k ^ v for k in kernel]
    return sorted(kernel, key=alg.order_key)


def center_basis(alg):
    """Basis blades commuting with every generator (`center_keys`)."""
    alg = as_algebra(alg)
    return [alg.blade(k) for k in center_keys(alg)]


def even_subalgebra_basis(alg):
    """All even-grade blade masks of Cl(p,q), in canonical order."""
    alg = as_algebra(alg)
    return [k for k in alg.basis if grade(k) % 2 == 0]


def as_algebra(x, field=None) -> BladeAlgebra:
    """x itself if it is an algebra, else the Clifford algebra of signature x
    over `field` ('R' when None).  An algebra over a field other than a
    given `field` is a ValueError: the field is not silently dropped."""
    if isinstance(x, BladeAlgebra):
        if field is not None and field != x.field:
            raise ValueError(f"{x!r} is over {x.field}, not over {field}")
        return x
    sig = as_signature(x)
    return clifford(sig.p, sig.q, "R" if field is None else field)
