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
    # the space is checked before the words, so no word is blamed for it
    for act in (lambda: FockVector(2, -1, {}), lambda: FreeSeries(0, {}), lambda: FreeSeries.zero(0),
                lambda: FreeSeries(0, {word(1): 1.0}), lambda: FockVector.make(0, 2, {word(1): 1.0})):
        with pytest.raises(ValueError, match="need n >= 1 and N >= 0"):
            act()


# the public entry points of a map, at n = 2 (and N = 3 for vectors)
ENTRIES = {
    "FreeSeries": lambda coeffs: FreeSeries(2, coeffs),
    "FreeSeries.make": lambda coeffs: FreeSeries.make(2, coeffs),
    "FockVector": lambda coeffs: FockVector(2, 3, coeffs),
    "FockVector.make": lambda coeffs: FockVector.make(2, 3, coeffs),
}


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_entry_accepts_plain_bytes_keys(entry):
    """The derived keys of one map, plain bytes, enter another map."""
    s = FreeSeries.make(2, {word(1): 1.0}).mul(FreeSeries.make(2, {Word(): 1.0, word(2): 2.0}))
    assert {type(w) for w in s.coeffs} == {bytes}
    m = ENTRIES[entry](s.coeffs)
    assert m.coeffs == {word(1): 1.0, word(1, 2): 2.0}
    assert m.support() == [word(1), word(1, 2)]


@pytest.mark.parametrize("entry", list(ENTRIES))
@pytest.mark.parametrize("key, error, match", [
    pytest.param(b"\x01\x00", ValueError, r"outside the alphabet 1\.\.2", id="zero-byte"),
    pytest.param(b"\x00", ValueError, r"outside the alphabet 1\.\.2", id="zero-letter"),
    pytest.param(b"\x01\x03", ValueError,
                 r"Word\(z1 z3\) uses letters outside the alphabet 1\.\.2", id="letter-above-n"),
    pytest.param(b"\xff", ValueError, r"outside the alphabet 1\.\.2", id="letter-255"),
    pytest.param((1, 2), TypeError, r"keys must be Words or bytes, got \(1, 2\) \(tuple\)",
                 id="tuple"),
    pytest.param(1, TypeError, r"got 1 \(int\)", id="int"),
    pytest.param(type("Letters", (bytes,), {})(b"\x02"), TypeError, r"\(Letters\)",
                 id="bytes-subclass"),
])
def test_entry_checks_plain_bytes_keys(entry, key, error, match):
    """Plain bytes keys are checked as Words are; any other key type is a TypeError."""
    with pytest.raises(error, match=match):
        ENTRIES[entry]({word(1): 1.0, key: 1.0})


@pytest.mark.parametrize("entry", ["FockVector", "FockVector.make"])
def test_entry_checks_plain_bytes_length(entry):
    with pytest.raises(ValueError, match=r"Word\(z1 z2 z1 z2\) longer than truncation 3"):
        ENTRIES[entry]({b"\x01": 1.0, b"\x01\x02\x01\x02": 1.0})
    # a series has no truncation
    assert len(FreeSeries(2, {b"\x01": 1.0, b"\x01\x02\x01\x02": 1.0}).coeffs) == 2
