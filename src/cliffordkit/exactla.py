"""Exact linear algebra over Q and Q(i): incremental row echelon spans.

A vector is either a dense list of field scalars (Fraction or QC) or a
column dict {column: value}; a dict holds the nonzero entries (explicit
zeros are dropped).  Pivoted rows are stored sparse, as dicts of their
nonzeros, normalized to pivot entry 1, so membership reduction is a plain
back-substitution that touches only nonzero entries.  Everything is exact;
ranks are never approximate.
"""

from __future__ import annotations

from bisect import bisect_left


class Echelon:
    """Incremental reduced span of exact vectors."""

    def __init__(self, width: int):
        self.width = width
        self._rows = []       # {column: value} per row, ascending pivot column
        self.pivots = []      # pivot column per row

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list:
        """Dense normalized rows, built on demand (ascending pivot column)."""
        out = []
        for row, piv in zip(self._rows, self.pivots):
            zero = row[piv] - row[piv]
            dense = [zero] * self.width
            for j, x in row.items():
                dense[j] = x
            out.append(dense)
        return out

    def _reduce(self, vec) -> dict:
        """The nonzero residue {column: value} of `vec` after back-substitution."""
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        vec = {j: x for j, x in items if x}
        for row, piv in zip(self._rows, self.pivots):
            c = vec.pop(piv, None)  # the pivot entry cancels exactly
            if c is None:
                continue
            for j, r in row.items():
                if j == piv:
                    continue
                x = vec.get(j)
                if x is None:
                    vec[j] = -c * r
                else:
                    x -= c * r
                    if x:
                        vec[j] = x
                    else:
                        del vec[j]
        return vec

    def insert(self, vec):
        """Add `vec` to the span; returns the pivot column, or None if dependent."""
        vec = self._reduce(vec)
        if not vec:
            return None
        j = min(vec)
        inv = vec[j]
        at = bisect_left(self.pivots, j)
        self._rows.insert(at, {k: x / inv for k, x in vec.items()})
        self.pivots.insert(at, j)
        return j


def express(target, basis):
    """Coefficients c with target = sum c_i * basis_i, or None if not in span.

    `target` and `basis` are multivectors sharing one parent algebra.
    """
    if not basis:
        return None if target else []
    alg = basis[0].alg
    width = alg.dim
    ech = Echelon(width + len(basis))
    zero = alg.scalar(0)
    one = alg.scalar(1)
    for i, mv in enumerate(basis):
        row = mv.columns()
        row[width + i] = one
        piv = ech.insert(row)
        if piv is None or piv >= width:
            raise ValueError("basis vectors are linearly dependent")
    red = ech._reduce(target.columns())
    if any(j < width for j in red):
        return None
    return [-red.get(width + i, zero) for i in range(len(basis))]
