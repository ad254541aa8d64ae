"""Residual bookkeeping shared by the verification modules."""

from __future__ import annotations

from dataclasses import dataclass, field


def normalized_residual(mp, lhs_terms, rhs_terms):
    """|sum(lhs) - sum(rhs)| scaled by the largest additive term.

    Normalizing by the dominant term keeps "everything is tiny" from being
    mistaken for "the identity holds".  When every term is exactly zero the
    absolute residual (zero) is returned.
    """
    lhs_terms = list(lhs_terms)
    rhs_terms = list(rhs_terms)
    diff = abs(sum(lhs_terms, mp.mpf(0)) - sum(rhs_terms, mp.mpf(0)))
    scale = mp.mpf(0)
    for t in lhs_terms:
        scale = max(scale, abs(t))
    for t in rhs_terms:
        scale = max(scale, abs(t))
    if scale == 0:
        return diff
    return diff / scale


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
