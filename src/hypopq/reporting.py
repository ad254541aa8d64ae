"""Residual bookkeeping shared by the verification modules."""

from __future__ import annotations

from dataclasses import dataclass, field


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
        return list(dict.fromkeys(e.name for e in self.entries))

    def by_name(self, name):
        return [(e.n, e.value) for e in self.entries if e.name == name]

    def max_residual(self):
        return max((e.value for e in self.entries), default=self.ctx.mp.mpf(0))
