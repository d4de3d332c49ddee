import numpy as np
import pytest

from fockalg.fock import FockVector
from fockalg.operators import FreeSeries
from fockalg.words import BasisIndexer, enumerate_words


def random_series(rng, n, degree, terms):
    """Random sparse series with the given alphabet and degree bound."""
    pool = [w for k in range(degree + 1) for w in enumerate_words(n, k)]
    picks = rng.choice(len(pool), size=min(terms, len(pool)), replace=False)
    coeffs = {}
    for i in picks:
        coeffs[pool[i]] = complex(rng.standard_normal(), rng.standard_normal())
    return FreeSeries.make(n, coeffs)


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
