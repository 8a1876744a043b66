"""Independent reference arithmetic for the kernel-dense checks.

A reference multivector is (den, {mask: (re, im)}): integer numerators over
one shared positive denominator, so every product is plain integer work.
Blade signs come from counting generator pairs one by one on index lists,
not from the program's shifted-mask loop, and the unary maps use the grade
formulas directly.  Nothing here imports cliffordkit.
"""

from fractions import Fraction
from math import lcm

# (star, tilde, bar) component bits of the eight symmetry labels.
LABEL_BITS = {
    "Id": (0, 0, 0), "P": (1, 0, 0), "T": (0, 1, 0), "PT": (1, 1, 0),
    "C": (0, 0, 1), "CP": (1, 0, 1), "CT": (0, 1, 1), "CPT": (1, 1, 1),
}


class RefAlgebra:
    """Sign table of Cl(p,q) in the bit-mask blade basis (bit i = e_{i+1})."""

    def __init__(self, p: int, q: int):
        n = p + q
        gens = [[i for i in range(n) if m >> i & 1] for m in range(1 << n)]
        self.sign = []
        for ga in gens:
            row = []
            for b, gb in enumerate(gens):
                swaps = sum(1 for x in ga for y in gb if x > y)
                negative_squares = sum(1 for x in ga if x >= p and b >> x & 1)
                row.append(-1 if (swaps + negative_squares) & 1 else 1)
            self.sign.append(row)

    def mul(self, a, b):
        (da, ca), (db, cb) = a, b
        out = {}
        for ka, (ar, ai) in ca.items():
            row = self.sign[ka]
            for kb, (br, bi) in cb.items():
                s = row[kb]
                k = ka ^ kb
                r, i = out.get(k, (0, 0))
                out[k] = (r + s * (ar * br - ai * bi), i + s * (ar * bi + ai * br))
        return da * db, out


def from_program(mv):
    """Reference form of a program multivector (Fraction or QC coefficients)."""
    parts = {}
    for k, v in mv.c.items():
        re, im = (v.re, v.im) if hasattr(v, "im") else (v, 0)
        parts[k] = (Fraction(re), Fraction(im))
    den = lcm(1, *(x.denominator for pair in parts.values() for x in pair))
    return den, {k: (int(re * den), int(im * den)) for k, (re, im) in parts.items()}


def normal(ref):
    """Canonical {mask: (re, im)} with Fraction values and no zero terms."""
    den, coeffs = ref
    return {k: (Fraction(r, den), Fraction(i, den))
            for k, (r, i) in coeffs.items() if r or i}


def apply_label(label, ref):
    """The symmetry `label` applied coefficient-wise by the grade formulas."""
    star, tilde, bar = LABEL_BITS[label]
    den, coeffs = ref
    out = {}
    for k, (r, i) in coeffs.items():
        g = k.bit_count()
        flip = (star and g & 1) ^ (tilde and (g * (g - 1) // 2) & 1)
        if flip:
            r, i = -r, -i
        out[k] = (r, -i if bar else i)
    return den, out
