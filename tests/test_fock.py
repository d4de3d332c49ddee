import pytest

from conftest import random_vector
from fockalg.fock import FockVector, FreeSeries, inner
from fockalg.words import Word, word


def basis(w, n=2, N=3):
    return FockVector.basis(n, N, w)


def test_inner_orthonormal_basis():
    assert inner(basis(word(1, 2)), basis(word(1, 2))) == 1
    assert inner(basis(word(1)), basis(word(2))) == 0


def test_inner_conjugate_linear_second_slot():
    xi = FockVector.make(2, 3, {word(1): 1, word(2): 1j})
    assert inner(xi, basis(word(2))) == 1j
    assert inner(basis(word(2)), xi) == -1j


def test_inner_space_mismatch():
    with pytest.raises(ValueError):
        inner(FockVector.basis(2, 3, word(1)), FockVector.basis(2, 4, word(1)))


def test_series_arithmetic_space_mismatch():
    a = FreeSeries.make(3, {word(3): 1.0})
    b = FreeSeries.make(2, {word(1): 1.0})
    for act in (lambda: a.add(b), lambda: a.mul(b), lambda: b.mul(a),
                lambda: a.mul(b, max_degree=4)):
        with pytest.raises(ValueError, match="space mismatch"):
            act()


def test_pythagoras_levels():
    for seed in range(5):
        xi = random_vector(2, 4, seed)
        levels = [FockVector.make(2, 4, {w: c for w, c in xi.coeffs.items() if len(w) == k})
                  for k in range(5)]
        total = sum(v.norm() ** 2 for v in levels)
        assert abs(total - xi.norm() ** 2) <= 1e-12


def test_random_vector_contract():
    v1 = random_vector(2, 3, 7)
    assert abs(v1.norm() - 1.0) <= 1e-12
    assert v1.coeffs == random_vector(2, 3, 7).coeffs
    assert v1.coeffs != random_vector(2, 3, 8).coeffs


def test_records_roundtrip():
    xi = FockVector.make(2, 3, {Word(): 0.25, word(1, 2): -1j})
    records = xi.to_records()
    back = FockVector.make(2, 3, {Word.parse(r["word"]): complex(r["re"], r["im"])
                                  for r in records})
    assert back.coeffs == xi.coeffs


def test_validation():
    with pytest.raises(ValueError):
        FockVector(2, 1, {word(1, 2): 1.0})  # too long
    with pytest.raises(ValueError):
        FockVector(2, 3, {word(3): 1.0})  # letter outside alphabet
    with pytest.raises(ValueError, match="zero"):
        FockVector(2, 3, {word(1): 1.0, word(2): 0.0})
    with pytest.raises(TypeError, match=r"\(1, 2\)"):
        FreeSeries(2, {(1, 2): 1.0})  # a plain tuple key, not a Word
    with pytest.raises(TypeError, match="'z1'"):
        FockVector(2, 3, {word(1): 1.0, "z1": 2.0})
    # each check names the first offending word, wherever it sits in the map
    with pytest.raises(ValueError, match=r"Word\(z2 z3\)"):
        FreeSeries(2, {Word(): 1.0, word(1): 1.0, word(2, 3): 1.0})
    with pytest.raises(ValueError, match=r"Word\(z1 z1\)"):
        FockVector(2, 1, {Word(): 1.0, word(1, 1): 1.0})
