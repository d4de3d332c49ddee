"""Sparse maps word -> complex coefficient: free series and Fock vectors.

A FreeSeries is a finitely supported noncommutative power series sum_w a_w
over words in letters 1..n.  A FockVector is the same map read as the vector
sum_w c_w xi_w of the truncated Fock space, the span of {xi_w : |w| <= N} with
the basis words orthonormal; a series has N = None.  Both are stored sparsely
since the constructions of interest have very few nonzero coefficients.

A map is checked once, where it enters: the constructors, ``make``, ``delta``
and ``basis`` check its keys (Words, or another map's plain bytes keys),
lengths, letters and coefficients and store complex values.  Sums, scalings,
truncations and products of checked maps (and the images of vectors under
symbol-backed operators) pass that check by closure, so they are built by
``_like``, which only drops zero coefficients; their new keys are plain bytes
(``u + v``, slices), which ``support`` and ``to_records`` hand out as Words.

Two kernels make every such map past a sum, scaling or truncation: products
``_convolve`` (series products and the images S xi) and strips ``_strips``
(the images S* xi and both halves of ``operators.gram``).  Each takes a
made-once path where the words fix every split: ``_convolve`` when all words
on one side have one length, ``_strips`` for a symbol of one word (and one
slice per vector word for a symbol of one length).  Those paths write each
coefficient once, with the float and the key order of the general loops,
``_convolve_loop`` and ``_strips_loop``, which every other input takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .words import MAX_LETTER, BasisIndexer, Word, _derived


def _check_words(n: int, N: Optional[int], coeffs: dict[Word, complex]) -> None:
    """1 <= n <= MAX_LETTER and N >= 0 (or None), then Word or plain bytes keys,
    lengths <= N, letters in 1..n (a plain key may hold a zero byte) and no
    zero coefficient, each checked as one pass over the whole map."""
    if N is None and not 1 <= n <= MAX_LETTER:
        raise ValueError(f"need 1 <= n <= {MAX_LETTER}, got n={n}")
    if N is not None and (not 1 <= n <= MAX_LETTER or N < 0):
        raise ValueError(f"need 1 <= n <= {MAX_LETTER} and N >= 0, got n={n}, N={N}")
    if not set(map(type, coeffs)) <= {Word, bytes}:
        bad = next(w for w in coeffs if type(w) not in (Word, bytes))
        raise TypeError(f"keys must be Words or bytes, got {bad!r} ({type(bad).__name__})")
    if N is not None and max(map(len, coeffs), default=0) > N:
        bad = next(w for w in coeffs if len(w) > N)
        raise ValueError(f"word {_derived(bad)!r} longer than truncation {N}")
    alphabet = bytes(range(1, n + 1))
    if b"".join(coeffs).translate(None, alphabet):
        bad = next(w for w in coeffs if w.translate(None, alphabet))
        raise ValueError(f"word {_derived(bad)!r} uses letters outside the alphabet 1..{n}")
    if 0 in coeffs.values():
        raise ValueError("zero coefficients should be dropped before construction")


def _check_space(a: "FreeSeries", b: "FreeSeries") -> None:
    if (a.n, a.N) != (b.n, b.N):
        raise ValueError(f"space mismatch: (n={a.n}, N={a.N}) vs (n={b.n}, N={b.N})")


def _convolve(left: dict[bytes, complex], right: dict[bytes, complex],
              max_len: float) -> dict[bytes, complex]:
    """Free convolution of two checked maps: out_w = sum over factorizations
    w = uv of left_u right_v, dropping every w longer than max_len.

    When every word on one side has one length, w = uv splits only there, so
    each w is made once and its coefficient is the loop's first write,
    0.0 + a * b, in the loop's key order; other maps take ``_convolve_loop``."""
    lengths = set(map(len, right))
    if len(lengths) == 1:
        room = max_len - lengths.pop()
        return {u + v: 0.0 + a * b for u, a in left.items() if len(u) <= room
                for v, b in right.items()}
    lengths = set(map(len, left))
    if len(lengths) == 1:
        room = max_len - lengths.pop()
        fit = [(v, b) for v, b in right.items() if len(v) <= room]
        return {u + v: 0.0 + a * b for u, a in left.items() for v, b in fit}
    return _convolve_loop(left, right, max_len)


def _convolve_loop(left: dict[bytes, complex], right: dict[bytes, complex],
                   max_len: float) -> dict[bytes, complex]:
    """``_convolve`` for any two maps: each out_w sums in the order of left,
    then right."""
    out: dict[bytes, complex] = {}
    for u, a in left.items():
        room = max_len - len(u)
        for v, b in right.items():
            if len(v) <= room:
                w = u + v
                out[w] = out.get(w, 0.0) + a * b
    return out


def _strips(symbol: dict[bytes, complex], vec: dict[bytes, complex],
            left: bool) -> dict[bytes, complex]:
    """Strips of one checked map by another, the coefficients of S_symbol* vec:
    out_t = sum over v = wt (v = tw when not left) of conj(symbol_w) vec_v.

    A one-word symbol strips each v at most once, so each t is made once, from
    ``startswith`` (``endswith``).  A symbol of one length k costs one slice of
    v and one lookup per v; its matches can meet at one t, which sums in the
    order of vec.  Other symbols take ``_strips_loop``."""
    if len(symbol) == 1:
        ((w, a),) = symbol.items()
        a_conj, k = a.conjugate(), len(w)
        if left:
            return {v[k:]: 0.0 + a_conj * c for v, c in vec.items() if v.startswith(w)}
        return {v[:len(v) - k]: 0.0 + a_conj * c for v, c in vec.items() if v.endswith(w)}
    lengths = set(map(len, symbol))
    if len(lengths) != 1:
        return _strips_loop(symbol, vec, left)
    (k,) = lengths
    conj = {w: a.conjugate() for w, a in symbol.items()}
    out: dict[bytes, complex] = {}
    # a slice of a v shorter than k is shorter than every word: it matches none
    if left:
        for v, c in vec.items():
            a_conj = conj.get(v[:k])
            if a_conj is not None:
                t = v[k:]
                out[t] = out.get(t, 0.0) + a_conj * c
    else:
        for v, c in vec.items():
            m = len(v) - k
            a_conj = conj.get(v[m:])
            if a_conj is not None:
                t = v[:m]
                out[t] = out.get(t, 0.0) + a_conj * c
    return out


def _strips_loop(symbol: dict[bytes, complex], vec: dict[bytes, complex],
                 left: bool) -> dict[bytes, complex]:
    """``_strips`` for any symbol.  Each v costs one slice and lookup per symbol
    length, and its matches write distinct keys t, so every out_t sums in the
    order of vec."""
    conj = {w: a.conjugate() for w, a in symbol.items()}
    lengths = sorted(set(map(len, symbol)))
    out: dict[bytes, complex] = {}
    for v, c in vec.items():
        m = len(v)
        for k in lengths:
            if k > m:
                break
            a_conj = conj.get(v[:k] if left else v[m - k:])
            if a_conj is not None:
                t = v[k:] if left else v[:m - k]
                out[t] = out.get(t, 0.0) + a_conj * c
    return out


@dataclass(frozen=True)
class FreeSeries:
    """Sparse noncommutative power series sum_w a_w over words in letters 1..n.

    Treated as immutable; operations return new maps of the same kind.
    """

    n: int
    coeffs: dict[Word, complex] = field(default_factory=dict)
    N: Optional[int] = field(default=None, init=False)  # a Fock vector's truncation

    def __post_init__(self):
        _check_words(self.n, self.N, self.coeffs)
        object.__setattr__(self, "coeffs", {w: complex(c) for w, c in self.coeffs.items()})

    @classmethod
    def make(cls, *args) -> "FreeSeries":
        """``make(n, coeffs)`` for a series, ``make(n, N, coeffs)`` for a vector:
        the checked map with the zero coefficients dropped."""
        *space, coeffs = args
        return cls(*space, {w: c for w, c in coeffs.items() if c != 0})

    @staticmethod
    def zero(n: int) -> "FreeSeries":
        return FreeSeries(n, {})

    @staticmethod
    def one(n: int) -> "FreeSeries":
        return FreeSeries(n, {Word(): 1.0 + 0.0j})

    @staticmethod
    def delta(n: int, w: Word, c: complex = 1.0) -> "FreeSeries":
        return FreeSeries.make(n, {w: c})

    def _like(self, coeffs: dict[Word, complex]) -> "FreeSeries":
        """A map of the same kind and space built from checked maps: only its
        zeros are dropped, the entry check is skipped.  ``coeffs`` is stored,
        not copied, so callers pass a dict of their own making."""
        if 0 in coeffs.values():
            coeffs = {w: c for w, c in coeffs.items() if c != 0}
        out = object.__new__(type(self))
        vars(out).update(vars(self), coeffs=coeffs)
        return out

    def coeff(self, w: Word) -> complex:
        return self.coeffs.get(w, 0.0 + 0.0j)

    def degree(self) -> int:
        """Largest word length in the support (0 for the zero series)."""
        return max((len(w) for w in self.coeffs), default=0)

    def support(self) -> list[Word]:
        return [_derived(w) for w in sorted(self.coeffs, key=lambda w: (len(w), w))]

    def l2_norm(self) -> float:
        return float(np.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values())))

    def sup_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def truncate(self, max_degree: int) -> "FreeSeries":
        return self._like({w: c for w, c in self.coeffs.items() if len(w) <= max_degree})

    def scale(self, a: complex) -> "FreeSeries":
        a = complex(a)
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
        """Free convolution: (st)_w = sum over factorizations w = uv of s_u t_v,
        dropping words longer than max_degree or a vector's truncation N."""
        _check_space(self, other)
        max_len = min((d for d in (max_degree, self.N) if d is not None), default=math.inf)
        return self._like(_convolve(self.coeffs, other.coeffs, max_len))

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def to_records(self) -> list[dict]:
        """Interchange form: one {word, re, im} record per nonzero coefficient."""
        return [{"word": str(w), "re": self.coeffs[w].real, "im": self.coeffs[w].imag}
                for w in self.support()]


class FockVector(FreeSeries):
    """Finitely supported vector sum_w c_w xi_w with |w| <= N.

    Treated as immutable; operations return new vectors.
    """

    def __init__(self, n: int, N: int, coeffs: Optional[dict[Word, complex]] = None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "coeffs", {} if coeffs is None else coeffs)
        self.__post_init__()

    # The entry check is FreeSeries's; it is bound here as well because the
    # benchmark's tracer counts checked vector constructions by wrapping
    # FockVector.__post_init__.  Vectors built by _like skip it and are not counted.
    __post_init__ = FreeSeries.__post_init__

    @staticmethod
    def basis(n: int, N: int, w: Word) -> "FockVector":
        return FockVector(n, N, {w: 1.0 + 0.0j})

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
