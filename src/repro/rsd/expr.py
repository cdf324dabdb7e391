"""Symbolic affine expressions for array index analysis.

Bounded regular section descriptors [HK91] describe array sections with
"simple, invariant expressions of program variables or constants".  In
this implementation those expressions are *affine forms*::

    c0 + c1*v1 + c2*v2 + ...

over integer symbols.  The distinguished symbol :data:`PDV` stands for
the accessing process's process-differentiating variable value; loop
induction variables appear under their own names until they are
projected away into ranges (see :mod:`repro.rsd.ops`).

The analysis is run for a specific process count, so ``nprocs()`` is a
known constant by the time affine forms are built (the paper, section 2:
"Our analysis assumes the number of processes equals the number of
processors").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

#: Symbol naming the process-differentiating variable in affine forms.
PDV = "$pdv"

#: Prefix for *opaque* symbols: shared scalars whose value is not
#: invariant (e.g. a revolving partition offset).  They contribute no
#: stride information, but keeping them symbolic (instead of collapsing
#: the whole index to "unknown") lets the analysis still report a known
#: stride for the loop-variable part of the index.
OPAQUE_PREFIX = "@"


def opaque(name: str) -> str:
    return OPAQUE_PREFIX + name


@dataclass(frozen=True)
class Affine:
    """An immutable affine form ``const + sum(coeff * symbol)``.

    Terms with zero coefficients are never stored.
    """

    const: int
    terms: tuple[tuple[str, int], ...] = ()

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(value: int) -> "Affine":
        return Affine(value)

    @staticmethod
    def var(name: str, coeff: int = 1) -> "Affine":
        if coeff == 0:
            return Affine(0)
        return Affine(0, ((name, coeff),))

    @staticmethod
    def pdv(coeff: int = 1) -> "Affine":
        return Affine.var(PDV, coeff)

    @staticmethod
    def _from_dict(const: int, d: dict[str, int]) -> "Affine":
        items = tuple(sorted((k, v) for k, v in d.items() if v != 0))
        return Affine(const, items)

    # -- queries ---------------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return not self.terms

    @property
    def symbols(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.terms)

    def coeff(self, name: str) -> int:
        for n, c in self.terms:
            if n == name:
                return c
        return 0

    @property
    def pdv_coeff(self) -> int:
        return self.coeff(PDV)

    @property
    def depends_on_pdv(self) -> bool:
        return self.pdv_coeff != 0

    def only_symbols(self, allowed: Iterable[str]) -> bool:
        allowed = set(allowed)
        return all(name in allowed for name, _ in self.terms)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "Affine | int") -> "Affine":
        if isinstance(other, int):
            return Affine(self.const + other, self.terms)
        d = dict(self.terms)
        for name, c in other.terms:
            d[name] = d.get(name, 0) + c
        return Affine._from_dict(self.const + other.const, d)

    def __sub__(self, other: "Affine | int") -> "Affine":
        if isinstance(other, int):
            return Affine(self.const - other, self.terms)
        return self + other.scale(-1)

    def scale(self, k: int) -> "Affine":
        if k == 0:
            return Affine(0)
        return Affine(self.const * k, tuple((n, c * k) for n, c in self.terms))

    def __neg__(self) -> "Affine":
        return self.scale(-1)

    def mul(self, other: "Affine") -> Optional["Affine"]:
        """Product, or None when the result would not be affine."""
        if self.is_constant:
            return other.scale(self.const)
        if other.is_constant:
            return self.scale(other.const)
        return None

    def div_exact(self, k: int) -> Optional["Affine"]:
        """Division by a constant, only when every coefficient divides."""
        if k == 0:
            return None
        if self.const % k or any(c % k for _, c in self.terms):
            return None
        return Affine(self.const // k, tuple((n, c // k) for n, c in self.terms))

    # -- evaluation ---------------------------------------------------------------

    def substitute(self, env: dict[str, int]) -> "Affine":
        """Replace symbols found in ``env`` by their integer values."""
        const = self.const
        rest: dict[str, int] = {}
        for name, c in self.terms:
            if name in env:
                const += c * env[name]
            else:
                rest[name] = rest.get(name, 0) + c
        return Affine._from_dict(const, rest)

    def value(self, env: dict[str, int] | None = None) -> int:
        """Evaluate to an integer; raises if symbols remain unbound."""
        result = self.substitute(env or {})
        if not result.is_constant:
            raise ValueError(f"unbound symbols in {self}: {sorted(result.symbols)}")
        return result.const

    def __str__(self) -> str:
        parts: list[str] = []
        for name, c in self.terms:
            display = "pdv" if name == PDV else name
            if c == 1:
                parts.append(display)
            elif c == -1:
                parts.append(f"-{display}")
            else:
                parts.append(f"{c}*{display}")
        if self.const or not parts:
            parts.append(str(self.const))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")
