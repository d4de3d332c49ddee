import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_series
from fockalg.calculus import classify_word_factorization
from fockalg.fock import FockVector
from fockalg.operators import LEFT, RIGHT, decompose_at, series_to_op
from fockalg import words
from fockalg.words import (
    BasisCapExceeded,
    BasisIndexer,
    Word,
    concat,
    enumerate_words,
    reverse,
    word,
)

letters = st.lists(st.integers(min_value=1, max_value=3), max_size=6).map(tuple).map(Word)


def test_concat_unit():
    v = word(1, 2)
    assert concat(Word(), v) == v
    assert concat(v, Word()) == v


def test_concat_examples():
    assert str(concat(word(1), word(2))) == "z1 z2"
    assert str(concat(word(1, 2), word(1))) == "z1 z2 z1"


def test_reverse_examples():
    assert reverse(Word()) == Word()
    assert reverse(word(1, 2)) == word(2, 1)
    assert reverse(word(1, 1, 2)) == word(2, 1, 1)


@given(u=letters, v=letters)
def test_concat_length_additive(u, v):
    assert len(concat(u, v)) == len(u) + len(v)


@given(w=letters)
def test_reverse_involution(w):
    assert reverse(reverse(w)) == w


def test_enumerate_counts_and_order():
    assert enumerate_words(2, 0) == [Word()]
    ws = enumerate_words(2, 2)
    assert [str(w) for w in ws] == ["z1 z1", "z1 z2", "z2 z1", "z2 z2"]
    assert len(enumerate_words(3, 2)) == 9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [0, 1, 3, 5, 8])
def test_enumerate_count_law(n, k):
    assert len(enumerate_words(n, k)) == n**k


def test_enumerate_cap():
    with pytest.raises(BasisCapExceeded):
        enumerate_words(10, 7)


def test_indexer_roundtrip_and_order():
    for n, N in [(1, 5), (2, 5), (3, 4)]:
        idx = BasisIndexer(n, N)
        assert idx.size == sum(n**k for k in range(N + 1))
        words_in_order = list(idx.words())
        for i, w in enumerate(words_in_order):
            assert idx.index_of(w) == i
            assert idx.word_at(i) == w
        # length-then-lex ordering
        keys = [(len(w), w.letters) for w in words_in_order]
        assert keys == sorted(keys)


def test_indexer_words_have_int_letters():
    """word_at builds Words without the check, so its letters must be ints."""
    for w in [BasisIndexer(np.int64(2), 3).word_at(5), BasisIndexer(2, 3).word_at(np.int64(5))]:
        assert w == word(2, 1) and all(type(a) is int for a in w)
    with pytest.raises(TypeError):
        BasisIndexer(2.0, 3)
    with pytest.raises(TypeError):
        BasisIndexer(2, 3).word_at(5.0)


def test_indexer_size_formula():
    idx = BasisIndexer(2, 6)
    assert idx.size == (2**7 - 1) // (2 - 1)
    idx3 = BasisIndexer(3, 4)
    assert idx3.size == (3**5 - 1) // 2


def test_indexer_cap_and_env_override(monkeypatch):
    with pytest.raises(BasisCapExceeded):
        BasisIndexer(2, 30)
    monkeypatch.setenv("FOCKALG_BASIS_CAP", "40")
    BasisIndexer(2, 4)  # 31 entries, fits
    with pytest.raises(BasisCapExceeded):
        BasisIndexer(2, 5)  # 63 entries


def test_word_string_roundtrip():
    for w in [Word(), word(1), word(2, 1, 2), word(12, 3)]:
        assert Word.parse(str(w)) == w
    assert Word.parse("") == Word()
    with pytest.raises(ValueError):
        Word.parse("x1")


def test_word_is_the_bytes_of_its_letters():
    """A Word equals and hashes as the plain bytes of its letters, one letter a
    byte, and still reads as a sequence of int letters."""
    w = word(3, 1, 2)
    assert w == b"\x03\x01\x02" and hash(w) == hash(b"\x03\x01\x02")
    assert w != (3, 1, 2)
    assert w.letters == (3, 1, 2) and list(w) == [3, 1, 2] and len(w) == 3
    assert w[0] == 3 and w[1:] == word(1, 2) and type(w[1:]) is bytes
    assert type(w + word(1)) is bytes and w + word(1) == word(3, 1, 2, 1)
    assert Word(b"\x01\x02") == word(1, 2) and Word(w) is not w
    assert str(word(255, 1)) == "z255 z1"
    assert repr(Word()) == "Word(1)" and repr(word(2, 1)) == "Word(z2 z1)"
    # the basis order: (len, bytes) sorts as (len, letter tuple)
    ws = [word(2), word(1, 255), Word(), word(1, 2), word(255), word(2, 1), word(1, 1, 1)]
    assert sorted(ws, key=lambda w: (len(w), w)) == sorted(ws, key=lambda w: (len(w), w.letters))


@settings(max_examples=40, deadline=None)
@given(u=letters, v=letters, seed=st.integers(0, 2**32 - 1))
def test_word_algebra_returns_words(u, v, seed):
    """The word functions hand out Words; the maps key their products, images
    and corners by plain bytes that spell words the letter check passes, and
    hand them back out as Words through support()."""
    rng = np.random.default_rng(seed)
    n, N = 3, 6
    uv = concat(u, v)
    produced = [uv, reverse(uv)]
    produced += enumerate_words(n, len(u) % 4)
    produced += [BasisIndexer(n, N).word_at(i) for i in range(0, 1093, 37)]
    s, t = random_series(rng, n, 3, 5), random_series(rng, n, 3, 5)
    prod = s.mul(t)
    xi = FockVector.make(n, N, random_series(rng, n, N, 8).coeffs)
    maps = [prod]
    for side in (LEFT, RIGHT):
        X = series_to_op(s, n, N, side)
        maps += [X.apply(xi), X.apply_adjoint(xi)]
    scalars, corners = decompose_at(prod, 2)
    maps += list(corners.values())
    produced += list(corners) + list(classify_word_factorization(s, t, uv)[1])
    keys = list(scalars) + [w for m in maps for w in m.coeffs]
    produced += [w for m in maps for w in m.support()]
    for w in produced:
        assert type(w) is Word, repr(w)
        assert Word.parse(str(w)) == w
        assert Word(tuple(w)) == w  # built without the check, yet it passes it
    for w in keys:
        assert type(w) is bytes, repr(w)
        assert Word(w) == w and max(w, default=1) <= n


def test_word_letter_validation():
    """Letters are the ints 1..255, one a byte; anything else is one ValueError
    that names the range, raised before the bytes conversion could fail."""
    # True == 1, but "zTrue z2" would not parse back
    for bad in [(0,), (-1, 2), (True, 2), (False,), (1, 2.0), (1, "2"), (256,), (1, 1000),
                (None,)]:
        with pytest.raises(ValueError, match=r"letters must be integers in 1\.\.255, got "):
            Word(bad)


def test_word_algebra_checks_plain_tuples():
    """Only Words skip the check: plain tuples and plain bytes with a bad letter
    still raise."""
    for act in [lambda: concat((1, 0), word(1)), lambda: concat(word(1), (True,)),
                lambda: reverse((2, -1)), lambda: concat(word(1), (256,)),
                lambda: concat(b"\x01\x00", word(1)), lambda: reverse(b"\x02\x00")]:
        with pytest.raises(ValueError):
            act()
    # good plain tuples and bytes come back as Words
    for w in [concat((1,), (2,)), reverse((1, 2)), concat(b"\x01", (2,)), reverse(b"\x01\x02")]:
        assert type(w) is Word


def test_word_letter_bound_at_255():
    assert Word((255, 1)).letters == (255, 1)
    assert Word.parse("z255") == word(255)
    with pytest.raises(ValueError, match=r"1\.\.255, got 256"):
        Word.parse("z1 z256")
    # an alphabet has at most 255 letters
    for act in (lambda: enumerate_words(256, 1), lambda: BasisIndexer(256, 1)):
        with pytest.raises(ValueError, match="255"):
            act()
    assert len(enumerate_words(255, 1)) == 255 and BasisIndexer(255, 1).word_at(255) == word(255)


def test_only_words_reads_the_basis_cap():
    """Every size refusal goes through words (check_size, BasisIndexer): no
    other module names basis_cap or CAP_ENV_VAR, or spells out the variable."""
    cap_names = {"basis_cap", "CAP_ENV_VAR"}
    sources = sorted(Path(words.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    readers = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Name) and node.id in cap_names
                    or isinstance(node, ast.Attribute) and node.attr in cap_names
                    or isinstance(node, ast.alias) and node.name in cap_names
                    or isinstance(node, ast.Constant) and node.value == words.CAP_ENV_VAR):
                readers.add(path.name)
    assert readers == {"words.py"}
