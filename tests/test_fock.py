import numpy as np
import pytest

from fockalg.fock import FockVector, FreeSeries, inner, project_level, random_vector
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


def test_project_level_examples():
    xi = FockVector.make(2, 3, {Word(): 1, word(1): 1})
    assert project_level(xi, 0).coeffs == {Word(): 1}
    assert project_level(basis(word(1)), 2).coeffs == {}


def test_pythagoras_levels():
    for seed in range(5):
        xi = random_vector(2, 4, seed)
        total = sum(project_level(xi, k).norm() ** 2 for k in range(5))
        assert abs(total - xi.norm() ** 2) <= 1e-12


def test_projection_idempotent_and_self_adjoint():
    xi = random_vector(2, 3, 1)
    eta = random_vector(2, 3, 2)
    for k in range(4):
        pk = project_level(xi, k)
        assert project_level(pk, k).coeffs == pk.coeffs
        assert abs(inner(pk, eta) - inner(xi, project_level(eta, k))) <= 1e-12


def test_random_vector_contract():
    v1 = random_vector(2, 3, 7)
    assert abs(v1.norm() - 1.0) <= 1e-12
    assert v1.coeffs == random_vector(2, 3, 7).coeffs
    assert v1.coeffs != random_vector(2, 3, 8).coeffs


def test_records_roundtrip():
    xi = FockVector.make(2, 3, {Word(): 0.25, word(1, 2): -1j})
    back = FockVector.from_records(2, 3, xi.to_records())
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
