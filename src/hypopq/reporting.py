"""Residual bookkeeping shared by the verification modules."""

from __future__ import annotations

from dataclasses import dataclass, field

from .numerics import _from_real, _normalized


def normalized_residual(mp, lhs_terms, rhs_terms):
    """|sum(lhs) - sum(rhs)| scaled by the largest additive term.

    Normalizing by the dominant term keeps "everything is tiny" from being
    mistaken for "the identity holds".  The terms are read as BigReals of
    ``mp`` (``mp.mpf``).  The difference and the largest term are exact on
    them (while their exponents lie within ``numerics._window`` of mp's
    bits), so the order of the terms does not matter, and their quotient is
    rounded once to mp's bits: :func:`numerics._normalized`, which
    ``dpainleve.dp_residuals`` shares.  When every term is exactly zero the
    absolute residual (zero) is returned.
    """

    def pairs(terms):
        return [_from_real(mp.mpf(t)) for t in terms]

    return _normalized(mp, pairs(lhs_terms), pairs(rhs_terms))


@dataclass
class ResidualEntry:
    name: str
    n: int
    value: object  # BigReal


@dataclass
class ResidualReport:
    """Named residuals, one entry per (identity, n)."""

    ctx: object
    entries: list = field(default_factory=list)

    def add(self, name, n, value):
        self.entries.append(ResidualEntry(name, n, value))

    def names(self):
        seen = []
        for e in self.entries:
            if e.name not in seen:
                seen.append(e.name)
        return seen

    def by_name(self, name):
        return [(e.n, e.value) for e in self.entries if e.name == name]

    def max_residual(self):
        return max((e.value for e in self.entries), default=self.ctx.mp.mpf(0))
