import numpy as np
import pytest

from fockalg.fock import FockVector
from fockalg.operators import FreeSeries
from fockalg.words import BasisIndexer, Word, enumerate_words


def random_series(rng, n, degree, terms):
    """Random sparse series with the given alphabet and degree bound."""
    pool = [w for k in range(degree + 1) for w in enumerate_words(n, k)]
    picks = rng.choice(len(pool), size=min(terms, len(pool)), replace=False)
    coeffs = {}
    for i in picks:
        coeffs[pool[i]] = complex(rng.standard_normal(), rng.standard_normal())
    return FreeSeries.make(n, coeffs)


# supports whose compressions fall apart into isolated columns on their side
SPLIT_SUPPORTS = ("homogeneous", "prefix-free", "word")
SUPPORTS = SPLIT_SUPPORTS + ("mixed", "constant")


def random_support(rng, n, degree, kind, side, terms=5):
    """Up to ``terms`` distinct words of length <= degree, the first of length
    degree (at degree 0 the empty word alone), of the given kind: homogeneous
    (all of length degree), prefix-free on the left side and suffix-free on
    the right (no word begins, or ends, another), one word, mixed (lengths
    1..degree), or constant (mixed plus the empty word)."""
    top = enumerate_words(n, degree)
    first = top[rng.integers(len(top))]
    if kind == "word" or degree == 0:
        return [first]
    pool = top if kind == "homogeneous" else \
        [w for k in range(1, degree + 1) for w in enumerate_words(n, k)]
    clash = (lambda u, v: u.startswith(v) or v.startswith(u)) if side == "left" else \
        (lambda u, v: u.endswith(v) or v.endswith(u))
    words = [first]
    for i in rng.permutation(len(pool)):
        w = pool[i]
        if len(words) == terms:
            break
        if w not in words and not (kind == "prefix-free" and any(clash(w, u) for u in words)):
            words.append(w)
    return words + [Word()] if kind == "constant" else words


def refuse_write_out(*args, **kwargs):
    """Stands in for operators._compression where nothing may be written out."""
    raise AssertionError("the compression was written out")


def random_vector(n, N, seed):
    """Deterministic pseudo-random unit vector supported on the full basis."""
    idx = BasisIndexer(n, N)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
    raw /= np.linalg.norm(raw)
    return FockVector(n, N, {idx.word_at(i): complex(raw[i]) for i in range(idx.size)})


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
