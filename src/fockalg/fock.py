"""Sparse maps word -> complex coefficient: free series and Fock vectors.

A FreeSeries is a finitely supported noncommutative power series sum_w a_w
over words in letters 1..n.  A FockVector is the same map read as the vector
sum_w c_w xi_w of the truncated Fock space, the span of {xi_w : |w| <= N} with
the basis words orthonormal.  Both are stored sparsely since the constructions
of interest have very few nonzero coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Optional

import numpy as np

from .words import BasisIndexer, Word, _derived


def _nonzero(coeffs: dict[Word, complex]) -> dict[Word, complex]:
    return {w: complex(c) for w, c in coeffs.items() if c != 0}


def _check_words(n: int, coeffs: dict[Word, complex], N: Optional[int] = None) -> None:
    """Word keys, lengths <= N, letters <= n and no zero coefficient, each
    checked as one pass over the whole map (the letters are checked Words)."""
    if not set(map(type, coeffs)) <= {Word}:
        bad = next(w for w in coeffs if type(w) is not Word)
        raise TypeError(f"keys must be Words, got {bad!r} ({type(bad).__name__})")
    if N is not None and max(map(len, coeffs), default=0) > N:
        bad = next(w for w in coeffs if len(w) > N)
        raise ValueError(f"word {bad!r} longer than truncation {N}")
    if max(chain.from_iterable(coeffs), default=1) > n:
        bad = next(w for w in coeffs if max(w, default=1) > n)
        raise ValueError(f"word {bad!r} uses letters beyond alphabet {n}")
    if 0 in coeffs.values():
        raise ValueError("zero coefficients should be dropped before construction")


def _check_space(a: "FreeSeries", b: "FreeSeries") -> None:
    if a._space() != b._space():
        raise ValueError(f"space mismatch: {a._space()} vs {b._space()}")


def convolve(left: dict[Word, complex], right: dict[Word, complex],
             max_len: Optional[int] = None) -> dict[Word, complex]:
    """Free convolution: out_w = sum over factorizations w = uv of left_u right_v,
    dropping every w longer than max_len."""
    # products of Words are Words (words.concat); other keys get the check
    product = _derived if set(map(type, chain(left, right))) <= {Word} else Word
    out: dict[Word, complex] = {}
    for u, a in left.items():
        room = math.inf if max_len is None else max_len - len(u)
        for v, b in right.items():
            if len(v) <= room:
                w = product(u + v)
                out[w] = out.get(w, 0.0) + a * b
    return out


@dataclass(frozen=True)
class FreeSeries:
    """Sparse noncommutative power series sum_w a_w over words in letters 1..n.

    Treated as immutable; operations return new maps of the same kind.
    """

    n: int
    coeffs: dict[Word, complex] = field(default_factory=dict)

    def __post_init__(self):
        _check_words(self.n, self.coeffs)

    @staticmethod
    def make(n: int, coeffs: dict[Word, complex]) -> "FreeSeries":
        return FreeSeries(n, _nonzero(coeffs))

    @staticmethod
    def zero(n: int) -> "FreeSeries":
        return FreeSeries(n, {})

    @staticmethod
    def one(n: int) -> "FreeSeries":
        return FreeSeries(n, {Word(): 1.0 + 0.0j})

    @staticmethod
    def delta(n: int, w: Word, c: complex = 1.0) -> "FreeSeries":
        return FreeSeries.make(n, {w: c})

    def _space(self) -> tuple:
        """What two maps must share to be added or multiplied: the alphabet size."""
        return (self.n,)

    def _like(self, coeffs: dict[Word, complex]) -> "FreeSeries":
        """A map of the same kind and space with these coefficients, zeros dropped."""
        return replace(self, coeffs=_nonzero(coeffs))

    def coeff(self, w: Word) -> complex:
        return self.coeffs.get(w, 0.0 + 0.0j)

    def degree(self) -> int:
        """Largest word length in the support (0 for the zero series)."""
        return max((len(w) for w in self.coeffs), default=0)

    def support(self) -> list[Word]:
        return sorted(self.coeffs, key=lambda w: (len(w), w))

    def l2_norm(self) -> float:
        return float(np.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values())))

    def sup_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def truncate(self, max_degree: int) -> "FreeSeries":
        return self._like({w: c for w, c in self.coeffs.items() if len(w) <= max_degree})

    def scale(self, a: complex) -> "FreeSeries":
        return self._like({w: a * c for w, c in self.coeffs.items()})

    def add(self, other: "FreeSeries") -> "FreeSeries":
        _check_space(self, other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0.0) + c
        return self._like(out)

    def sub(self, other: "FreeSeries") -> "FreeSeries":
        return self.add(other.scale(-1.0))

    def mul(self, other: "FreeSeries", max_degree: Optional[int] = None) -> "FreeSeries":
        """Free convolution: (st)_w = sum over factorizations w = uv of s_u t_v."""
        _check_space(self, other)
        return FreeSeries.make(self.n, convolve(self.coeffs, other.coeffs, max_degree))

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def to_records(self) -> list[dict]:
        """Interchange form: one {word, re, im} record per nonzero coefficient."""
        return [{"word": str(w), "re": self.coeffs[w].real, "im": self.coeffs[w].imag}
                for w in self.support()]


@dataclass(frozen=True, init=False)
class FockVector(FreeSeries):
    """Finitely supported vector sum_w c_w xi_w with |w| <= N.

    Treated as immutable; operations return new vectors.
    """

    N: int

    def __init__(self, n: int, N: int, coeffs: Optional[dict[Word, complex]] = None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "coeffs", {} if coeffs is None else coeffs)
        self.__post_init__()

    def __post_init__(self):
        _check_words(self.n, self.coeffs, self.N)

    @staticmethod
    def make(n: int, N: int, coeffs: dict[Word, complex]) -> "FockVector":
        return FockVector(n, N, _nonzero(coeffs))

    @staticmethod
    def basis(n: int, N: int, w: Word) -> "FockVector":
        return FockVector(n, N, {w: 1.0 + 0.0j})

    def _space(self) -> tuple:
        return (self.n, self.N)

    norm = FreeSeries.l2_norm

    def to_dense(self, indexer: BasisIndexer) -> np.ndarray:
        vec = np.zeros(indexer.size, dtype=complex)
        for w, c in self.coeffs.items():
            vec[indexer.index_of(w)] = c
        return vec


def inner(xi: FockVector, eta: FockVector) -> complex:
    """sum_w xi_w * conj(eta_w); conjugate-linear in the second argument."""
    _check_space(xi, eta)
    total = 0.0 + 0.0j
    for w, c in xi.coeffs.items():
        d = eta.coeffs.get(w)
        if d is not None:
            total += c * d.conjugate()
    return total

