import ast
import gc
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SPLIT_SUPPORTS,
    SUPPORTS,
    random_series,
    random_support,
    random_vector,
    refuse_write_out,
)
import fockalg
from fockalg import experiments, fock, operators
from fockalg.calculus import apply_series, check_isometric_on_frontier, h2_times_isometry
from fockalg.fock import FockVector
from fockalg.hardy import ScalarSeries, harmonic_series
from fockalg.operators import (
    FreeSeries,
    adjoint_power_orbit,
    cesaro_sum,
    commutant_residual,
    compose,
    contraction_status,
    creation_op,
    decompose_at,
    fourier_of,
    gram,
    numerical_rank,
    op_from_matrix,
    op_norm,
    range_complement_level_dims,
    series_to_op,
    symbol_norm_bound,
)
from fockalg.words import BasisCapExceeded, BasisIndexer, Word, concat, enumerate_words, word


def delta(n, w, c=1.0):
    return FreeSeries.delta(n, w, c)


# -- creation and symbols -------------------------------------------------------


def test_creation_left_action():
    L = creation_op("left", word(1), 2, 3)
    out = L.apply(FockVector.basis(2, 3, word(2)))
    assert out.coeffs == {word(1, 2): 1.0}


def test_creation_right_action():
    R = creation_op("right", word(1), 2, 3)
    out = R.apply(FockVector.basis(2, 3, word(2)))
    assert out.coeffs == {word(2, 1): 1.0}


def test_creation_overflow_drops():
    L = creation_op("left", word(1), 2, 1)
    assert L.apply(FockVector.basis(2, 1, word(1))).coeffs == {}


def test_creation_word_too_long():
    with pytest.raises(ValueError):
        creation_op("left", word(1, 1), 2, 1)


def test_series_to_op_identity_and_delta():
    I = series_to_op(FreeSeries.one(2), 2, 3)
    assert np.allclose(I.dense(), np.eye(15))
    D = series_to_op(delta(2, word(1)), 2, 3)
    assert np.allclose(D.dense(), creation_op("left", word(1), 2, 3).dense())


def test_series_to_op_mixed_column():
    s = FreeSeries.make(2, {Word(): 0.3, word(1, 2): 0.5})
    X = series_to_op(s, 2, 3)
    col = X.apply(FockVector.basis(2, 3, Word()))
    assert col.coeffs == {Word(): 0.3, word(1, 2): 0.5}


def test_series_degree_overflow():
    with pytest.raises(ValueError):
        series_to_op(delta(2, word(1, 1, 1)), 2, 2)


def test_fourier_roundtrip(rng):
    for _ in range(10):
        s = random_series(rng, 2, 3, 5)
        X = series_to_op(s, 2, 5)
        assert (fourier_of(X, 5) - s).sup_abs() == 0


def test_fourier_of_matrix_backed():
    # Fourier data comes from the symbol; a matrix-backed operator has none
    s = FreeSeries.make(2, {Word(): 0.5, word(2, 1): -1j})
    X = series_to_op(s, 2, 4)
    M = op_from_matrix(X.dense(), 2, 4)
    assert (fourier_of(X, 1) - s.truncate(1)).sup_abs() == 0
    for depth in (1, 4):
        with pytest.raises(ValueError, match="symbol-backed"):
            fourier_of(M, depth)
    with pytest.raises(ValueError, match="exceeds truncation"):
        fourier_of(M, 5)


def test_truncop_refuses_a_symbol_past_its_truncation():
    # the one check of a symbol's degree, where every symbol enters an operator
    s = FreeSeries.make(2, {Word(): 1.0, word(1, 2, 1): 0.5})
    builds = [lambda: operators.TruncOp(2, 2, symbol=s, side="left"),
              lambda: operators.TruncOp(2, 2, symbol=s, side="right", frontier=0)]
    builds += [lambda side=side: series_to_op(s, 2, 2, side) for side in ("left", "right")]
    builds += [lambda side=side: creation_op(side, word(1, 2, 1), 2, 2) for side in ("left", "right")]
    for build in builds:
        with pytest.raises(ValueError, match="^symbol degree 3 exceeds truncation 2$"):
            build()
    assert operators.TruncOp(2, 3, symbol=s, side="left").frontier == 0


def _scopes(node, scope=""):
    """(node, dotted name of its innermost enclosing class or function)."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield child, inner
        yield from _scopes(child, inner)


def test_only_truncop_checks_the_symbol_degree():
    """The refusal of a symbol past N is written once, in TruncOp.__init__:
    no constructor or norm holds a copy of it."""
    sources = sorted(Path(operators.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    holders = [(path.name, scope) for path in sources
               for node, scope in _scopes(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and node.value.startswith("symbol degree ")]
    assert holders == [("operators.py", "TruncOp.__init__")]


@pytest.mark.parametrize("side", ["left", "right"])
def test_op_norm_reads_the_symbol_as_stored(side, monkeypatch):
    # the symbols of a constructor, a product truncated at N and a sum: op_norm
    # measures each as stored, never truncating it again
    a = FreeSeries.make(2, {Word(): 0.5, word(1): 0.5, word(1, 2): -0.25j})
    b = FreeSeries.make(2, {word(2): 0.5, word(2, 1, 1): 0.75})
    A, B = series_to_op(a, 2, 4, side), series_to_op(b, 2, 4, side)
    ops = [A, compose(A, B), A + B.scale(0.5)]
    want = [np.linalg.norm(X.dense(), 2) for X in ops]

    def refuse(*args, **kwargs):
        raise AssertionError("op_norm truncated a symbol")

    monkeypatch.setattr(FreeSeries, "truncate", refuse)
    for X, sigma in zip(ops, want):
        assert abs(op_norm(X) - sigma) <= 1e-12 * sigma


# -- graded decomposition -------------------------------------------------------


def brute_reconstruct(n, k, scalars, corners):
    """Independent reassembly: scalars plus prefix-concatenated corners."""
    coeffs = {}
    for w, c in scalars.items():
        coeffs[w] = coeffs.get(w, 0) + c
    for w, Xw in corners.items():
        for v, c in Xw.coeffs.items():
            t = concat(w, v)
            coeffs[t] = coeffs.get(t, 0) + c
    return FreeSeries.make(n, coeffs)


def test_decompose_examples():
    s = delta(2, Word())
    scalars, corners = decompose_at(s, 1)
    assert scalars == {Word(): 1}
    assert all(not c.coeffs for c in corners.values())

    s = FreeSeries.make(2, {Word(): 1, word(1): 2, word(1, 2): 3})
    scalars, corners = decompose_at(s, 1)
    assert scalars == {Word(): 1}
    assert corners[word(1)].coeffs == {Word(): 2, word(2): 3}
    assert corners[word(2)].coeffs == {}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_decompose_reconstruction_exact(rng, k):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        s = random_series(rng, n, 5, 8)
        scalars, corners = decompose_at(s, k)
        assert (brute_reconstruct(n, k, scalars, corners) - s).sup_abs() == 0


# -- adjoints and products ------------------------------------------------------


def test_adjoint_strips_prefix():
    L = creation_op("left", word(1), 2, 3)
    assert L.apply_adjoint(FockVector.basis(2, 3, word(1, 2))).coeffs == {word(2): 1.0}
    assert L.apply_adjoint(FockVector.basis(2, 3, word(2))).coeffs == {}


def test_symbolic_shapes_never_reach_the_general_kernel_loops(monkeypatch):
    """A guard that times nothing: with the general loops of both kernels made
    to raise, the shapes the symbolic workload times still run.  Those are
    compose and apply of one-length symbols on both sides, products of
    homogeneous series, the adjoint of a creation operator and adjoint orbits
    of a one-length symbol, and the eigenvector's powers and residuals."""
    def refuse(*args):
        raise AssertionError("a general kernel loop ran")

    monkeypatch.setattr(fock, "_convolve_loop", refuse)
    monkeypatch.setattr(fock, "_strips_loop", refuse)
    rng = np.random.default_rng(11)
    n, N = 3, 12
    x, y = (FreeSeries.make(n, {w: complex(*rng.standard_normal(2)) for w in
                                enumerate_words(n, k)[:6]}) for k in (2, 3))
    xi = FockVector.make(n, N, random_vector(n, 6, 5).coeffs)  # every length 0..6
    x.mul(y)
    for side in ("left", "right"):
        X, Y = series_to_op(x, n, N, side), series_to_op(y, n, N, side)
        compose(X, Y).apply(xi)
        X.apply(Y.apply(xi))
        X.apply_adjoint(xi)
        creation_op(side, word(2, 1), n, N).apply_adjoint(xi)
        adjoint_power_orbit(X.scale(0.9 / x.l2_norm()), xi, 3)  # a contraction
    assert experiments.exp_eigenvector(n=2, N=8).verdict


# Tuple-keyed reference loops: words as tuples of letters, the representation
# before a word was its bytes.  Each sums in the order the package's loops sum
# in, so the coefficients must agree bitwise and in insertion order.


def _ref_convolve(left, right, max_len):
    """out_w = sum over w = uv of left_u right_v, |w| <= max_len, in the order
    of a loop over left, then right."""
    out = {}
    for u, a in left.items():
        for v, b in right.items():
            if len(u) + len(v) <= max_len:
                w = tuple(u) + tuple(v)
                out[w] = out.get(w, 0.0) + a * b
    return out


def _ref_strip(v, w, side):
    """t with v = wt (v = tw on the right) as a letter tuple, or None."""
    v, w = tuple(v), tuple(w)
    m = len(v) - len(w)
    if m < 0 or (v[:len(w)] if side == "left" else v[m:]) != w:
        return None
    return v[len(w):] if side == "left" else v[:m]


def _ref_adjoint(symbol, xi, side):
    """S_s* xi as one strip per (vector word, symbol word) pair, the symbol's
    words visited in stable length order."""
    out = {}
    for v, c in xi.items():
        for w, a in sorted(symbol.items(), key=lambda item: len(item[0])):
            t = _ref_strip(v, w, side)
            if t is not None:
                out[t] = out.get(t, 0.0) + a.conjugate() * c
    return out


def _ref_gram(a, b, side):
    """gram(a, b, side) from tuple strips."""
    out = {}
    for w, x in a.items():
        for v, y in b.items():
            t = _ref_strip(v, w, side)
            key = (t, False) if t is not None else (_ref_strip(w, v, side), True)
            if key[0] is not None:
                out[key] = out.get(key, 0.0) + x.conjugate() * y
    return out


def _items(m):
    """A map's items with its words as letter tuples, in insertion order."""
    return [(tuple(w), c) for w, c in m.coeffs.items()]


def _nonzero(ref):
    return [(t, c) for t, c in ref.items() if c != 0]


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3]),
       side=st.sampled_from(["left", "right"]), degree=st.integers(0, 4))
def test_apply_adjoint_matches_per_term_strips(seed, n, side, degree):
    """apply_adjoint, apply and mul equal the tuple-keyed reference loops bitwise,
    coefficient by coefficient in insertion order (the summation order is what
    keeps reports byte-identical), and support() is the (len, letters) order."""
    rng = np.random.default_rng(seed)
    N = 6
    # random_series lists its words in random order, so lengths come mixed;
    # the same symbol listed by length must give the same map
    s, t = random_series(rng, n, degree, 8), random_series(rng, n, 3, 8)
    by_length = FreeSeries.make(n, dict(sorted(s.coeffs.items(), key=lambda item: len(item[0]))))
    X = series_to_op(s, n, N, side)
    xi = FockVector.make(n, N, random_series(rng, n, N, 40).coeffs)
    image = _ref_convolve(s.coeffs, xi.coeffs, N) if side == "left" \
        else _ref_convolve(xi.coeffs, s.coeffs, N)
    cases = [(X.apply_adjoint(xi), _ref_adjoint(s.coeffs, xi.coeffs, side)),
             (series_to_op(by_length, n, N, side).apply_adjoint(xi),
              _ref_adjoint(by_length.coeffs, xi.coeffs, side)),
             (X.apply(xi), image),
             (s.mul(t), _ref_convolve(s.coeffs, t.coeffs, math.inf)),
             (s.mul(t, max_degree=degree + 1), _ref_convolve(s.coeffs, t.coeffs, degree + 1)),
             (xi.mul(xi), _ref_convolve(xi.coeffs, xi.coeffs, N))]
    for got, want in cases:
        assert _items(got) == _nonzero(want)
        order = sorted(want, key=lambda t: (len(t), t))
        assert [w.letters for w in got.support()] == [t for t in order if want[t] != 0]


def _assert_checked(m):
    """m holds complex values and passes the entry check of its public constructor."""
    assert all(type(c) is complex for c in m.coeffs.values())
    again = FreeSeries(m.n, m.coeffs) if m.N is None else FockVector(m.n, m.N, m.coeffs)
    assert again == m


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3]),
       side=st.sampled_from(["left", "right"]), degree=st.integers(0, 4))
def test_derived_maps_pass_the_entry_check(seed, n, side, degree):
    """Entry points store complex values; maps built from checked maps skip the
    entry check, and it would have passed."""
    rng = np.random.default_rng(seed)
    N = 6
    s, t = random_series(rng, n, degree, 8), random_series(rng, n, N, 8)
    xi, eta = (FockVector.make(n, N, random_series(rng, n, N, 20).coeffs) for _ in range(2))
    X = series_to_op(s, n, N, side)
    a = complex(*rng.standard_normal(2))
    derived = [s.add(t), s.sub(t), s.sub(s), s.scale(a), s.scale(np.float64(a.real)),
               s.scale(np.complex128(a)), s.scale(0), t.truncate(degree), s.mul(t),
               s.mul(t, max_degree=degree), xi.add(eta), xi.sub(xi), xi.scale(a), xi.truncate(degree),
               xi.mul(eta), X.apply(xi), X.apply_adjoint(xi), compose(X, X).apply(eta)]
    entered = [FreeSeries(n, {Word(): 1}), FockVector(n, N, {Word(): 2}), delta(n, Word(), 3),
               FockVector.make(n, N, {Word(): np.float64(0.5), Word((n,)): 0})]
    for m in entered + derived:
        _assert_checked(m)


def _assert_plain_keys(keys, want):
    """keys are exact bytes, untracked by the cyclic GC, and spell the words of want."""
    keys = list(keys)
    assert all(type(w) is bytes and not gc.is_tracked(w) for w in keys), keys
    assert len(keys) == len(set(keys)) and set(keys) == {Word(t) for t in want}


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3]),
       side=st.sampled_from(["left", "right"]), degree=st.integers(0, 3))
def test_derived_keys_are_plain_bytes(seed, n, side, degree):
    """Products, strips, sums, scalings, truncations, corners and gram terms key
    their maps by exact bytes, one small object per word that caches its hash
    and that the cyclic GC never tracks, equal to the Words the tuple-keyed
    references spell; gram's values are the pairwise reference's."""
    rng = np.random.default_rng(seed)
    N = 6
    s, t = random_series(rng, n, degree, 8), random_series(rng, n, 3, 8)
    xi = FockVector.make(n, N, random_series(rng, n, N, 20).coeffs)
    X = series_to_op(s, n, N, side)
    prod, image, adjoint = s.mul(t), X.apply(xi), X.apply_adjoint(xi)
    want_prod = _ref_convolve(s.coeffs, t.coeffs, math.inf)
    want_image = _ref_convolve(s.coeffs, xi.coeffs, N) if side == "left" \
        else _ref_convolve(xi.coeffs, s.coeffs, N)
    want_adjoint = _ref_adjoint(s.coeffs, xi.coeffs, side)
    want_sum = dict(want_image)
    for w, c in want_adjoint.items():
        want_sum[w] = want_sum.get(w, 0.0) + c
    a = complex(*rng.standard_normal(2))
    k = degree + 1
    cases = [(prod, want_prod), (image, want_image), (adjoint, want_adjoint),
             (image.add(adjoint), want_sum), (prod.scale(a), want_prod),
             (prod.truncate(k), {w: c for w, c in want_prod.items() if len(w) <= k})]
    for got, want in cases:
        _assert_plain_keys(got.coeffs, [w for w, c in want.items() if c != 0])
    scalars, corners = decompose_at(prod, k)
    _assert_plain_keys(scalars, [w for w, c in want_prod.items() if c != 0 and len(w) < k])
    for w, corner in corners.items():
        _assert_plain_keys(corner.coeffs, [v[k:] for v, c in want_prod.items()
                                           if c != 0 and v[:k] == w.letters])
    for a, b in [(s, prod), (prod, s), (s, t)]:
        g, want = gram(a, b, side), _ref_gram(a.coeffs, b.coeffs, side)
        assert all(type(w) is bytes and not gc.is_tracked(w) for w, _ in g)
        assert set(g) == {(Word(w), starred) for w, starred in want}
        for (w, starred), c in want.items():  # equal up to the summation order
            assert abs(g[Word(w), starred] - c) <= 1e-12 * max(1.0, abs(c))


def test_operator_and_vector_spaces_must_match():
    with pytest.raises(ValueError, match="alphabet"):
        operators.TruncOp(2, 4, symbol=FreeSeries.delta(3, Word((3,))), side="left")
    for s in (FreeSeries.delta(3, word(1)), FockVector.basis(2, 4, word(1))):
        with pytest.raises(ValueError, match="alphabet"):
            series_to_op(s, 2, 4)
    X = creation_op("right", word(1), 2, 4)
    for xi in (FockVector.basis(2, 3, word(1)), FockVector.basis(3, 4, word(1)), delta(2, word(1))):
        for act in (X.apply, X.apply_adjoint):
            with pytest.raises(ValueError, match="different truncated space"):
                act(xi)


def test_compose_words():
    n, N = 2, 4
    prod = compose(creation_op("left", word(1), n, N), creation_op("left", word(2), n, N))
    direct = creation_op("left", word(1, 2), n, N)
    assert (prod.symbol - direct.symbol).sup_abs() == 0
    assert np.allclose(prod.dense(), direct.dense())


def test_compose_identity(rng):
    s = random_series(rng, 2, 2, 4)
    X = series_to_op(s, 2, 4)
    identity = series_to_op(FreeSeries.one(2), 2, 4)
    assert np.allclose(compose(X, identity).dense(), X.dense())


def test_row_isometry_on_frontier():
    n, N = 2, 4
    s = FreeSeries.make(n, {word(1): 1 / math.sqrt(2), word(2): 1 / math.sqrt(2)})
    L = series_to_op(s, n, N)
    prod = L.dense().conj().T @ L.dense()
    idx = BasisIndexer(n, N)
    cols = idx.level_offset(L.frontier + 1)
    assert np.allclose(prod[:, :cols], np.eye(idx.size)[:, :cols], atol=1e-12)


def test_right_compose_order():
    n, N = 2, 4
    prod = compose(creation_op("right", word(1), n, N), creation_op("right", word(2), n, N))
    # R_a R_b xi_v = xi_{v b a}
    out = prod.apply(FockVector.basis(n, N, Word()))
    assert out.coeffs == {word(2, 1): 1.0}


def test_gram_rule_on_words():
    assert gram(delta(2, word(1)), delta(2, word(1, 2)), "left") == {(word(2), False): 1.0}
    assert gram(delta(2, word(1, 2)), delta(2, word(1)), "left") == {(word(2), True): 1.0}
    assert gram(delta(2, word(1)), delta(2, word(2, 1)), "right") == {(word(2), False): 1.0}
    assert gram(delta(2, word(1)), delta(2, word(2, 1)), "left") == {}
    assert gram(delta(2, word(1), 2j), delta(2, word(1), 3.0), "left") == {(Word(), False): -6j}
    with pytest.raises(ValueError, match="side"):
        gram(delta(2, word(1)), delta(2, word(1)), "up")


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]),
       side=st.sampled_from(["left", "right"]))
def test_gram_matches_dense_adjoint_product(seed, n, side):
    rng = np.random.default_rng(seed)
    a, b = random_series(rng, n, 2, 5), random_series(rng, n, 2, 5)
    N = 4
    A, B = (series_to_op(s, n, N, side).dense() for s in (a, b))
    want = np.zeros_like(A)
    for (t, starred), c in gram(a, b, side).items():
        S = creation_op(side, t, n, N).dense()
        want += c * (S.conj().T if starred else S)
    # B is exact on the columns of levels <= N - deg b, where A* B raises by <= deg b
    cols = BasisIndexer(n, N).level_offset(N - b.degree() + 1)
    assert np.abs((A.conj().T @ B - want)[:, :cols]).max() <= 1e-12


def test_matrix_backed_operator_is_only_measured():
    X = series_to_op(FreeSeries.make(2, {Word(): 0.5, word(1): 0.5}), 2, 3)
    M = op_from_matrix(X.dense(), 2, 3)
    xi = FockVector.basis(2, 3, Word())
    h = ScalarSeries.make([0.5, 0.5])
    L1 = creation_op("left", word(1), 2, 3)
    for act in (lambda: M.apply(xi), lambda: M.apply_adjoint(xi), lambda: M + M,
                lambda: X + M, lambda: M.scale(2.0), lambda: contraction_status(M),
                lambda: compose(M, X), lambda: compose(X, M), lambda: apply_series(h, M),
                lambda: fourier_of(M, 1), lambda: check_isometric_on_frontier(M),
                lambda: h2_times_isometry(h, M, L1), lambda: h2_times_isometry(h, L1, M)):
        with pytest.raises(ValueError, match="symbol-backed"):
            act()
    R = creation_op("right", word(1), 2, 3)
    for act in (lambda: X + R, lambda: compose(X, R), lambda: compose(R, X)):
        with pytest.raises(ValueError, match="same side"):
            act()


def test_constructors_reject_an_unknown_side():
    for act in (lambda: creation_op("up", word(1), 2, 3),
                lambda: series_to_op(FreeSeries.one(2), 2, 3, side="up")):
        with pytest.raises(ValueError, match="side 'left' or 'right'"):
            act()


def test_apply_matches_matrix(rng):
    s = random_series(rng, 2, 2, 5)
    X = series_to_op(s, 2, 4)
    xi = random_vector(2, 4, 3)
    idx = BasisIndexer(2, 4)
    direct = X.apply(xi).to_dense(idx)
    via_matrix = X.dense() @ xi.to_dense(idx)
    assert np.max(np.abs(direct - via_matrix)) <= 1e-12


# -- norms ------------------------------------------------------------------


def brute_row_sum_matrix(n, N):
    """Independent dense build of L_1 + L_2 from the definition."""
    idx = BasisIndexer(n, N)
    m = np.zeros((idx.size, idx.size), dtype=complex)
    for j in range(idx.size):
        v = idx.word_at(j)
        for i in (1, 2):
            t = Word((i,) + v.letters)
            if len(t) <= N:
                m[idx.index_of(t), j] += 1
    return m


def test_op_norm_examples():
    assert abs(op_norm(creation_op("left", word(1), 2, 3)) - 1.0) <= 1e-12
    zero = series_to_op(FreeSeries.zero(2), 2, 3)
    assert op_norm(zero) == 0.0
    s = FreeSeries.make(2, {word(1): 1.0, word(2): 1.0})
    X = series_to_op(s, 2, 3)
    oracle = np.linalg.svd(brute_row_sum_matrix(2, 3), compute_uv=False)[0]
    assert abs(op_norm(X) - math.sqrt(2)) <= 1e-12
    assert abs(op_norm(X) - oracle) <= 1e-12


def test_op_norm_monotone_in_level(rng):
    s = random_series(rng, 2, 2, 5)
    norms = [op_norm(series_to_op(s, 2, N)) for N in (2, 3, 4, 5)]
    for a, b in zip(norms, norms[1:]):
        assert b >= a - 1e-12


def test_sparse_materialization_path():
    # past DENSE_CAP nothing is written out, dense or sparse; the norm comes
    # from the symbol
    X = creation_op("left", word(1), 2, 12)  # basis 8191 > dense cap
    for act in (lambda: X.matrix, X.dense):
        with pytest.raises(BasisCapExceeded, match="limited to basis <= 4096, have 8191"):
            act()
    assert X._matrix is None
    assert abs(op_norm(X) - 1.0) <= 1e-9


def _materialize_by_columns(symbol, side, n, N, idx):
    # reference: the per-column loop of word_at -> concat -> index_of
    m = np.zeros((idx.size, idx.size), dtype=complex)
    for w, a in symbol.coeffs.items():
        for j in range(idx.level_offset(N - len(w) + 1)):
            v = idx.word_at(j)
            m[idx.index_of(concat(w, v) if side == "left" else concat(v, w)), j] += a
    return m


def _assert_same_matrix(got, want):
    assert isinstance(got, np.ndarray) and got.dtype == want.dtype
    assert np.array_equal(got, want)


def _symbol_from_draw(n, N, seed, words, constant, full):
    rng = np.random.default_rng(seed)
    support = {Word(tuple(t)) for t in words}
    if constant:
        support.add(Word())
    if full:
        support.add(Word(tuple(int(a) for a in rng.integers(1, n + 1, size=N))))
    return FreeSeries.make(n, {w: complex(rng.standard_normal(), rng.standard_normal())
                               for w in sorted(support, key=lambda w: (len(w), w.letters))})


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=st.sampled_from([1, 2, 3]), side=st.sampled_from(["left", "right"]),
       seed=st.integers(0, 2**32 - 1), constant=st.booleans(), full=st.booleans())
def test_materialize_matches_column_loop(data, n, side, seed, constant, full):
    N = data.draw(st.integers(0, {1: 20, 2: 8, 3: 5}[n]), label="N")  # dense arm
    words = data.draw(st.lists(st.lists(st.integers(1, n), max_size=N), max_size=4), label="words")
    s = _symbol_from_draw(n, N, seed, words, constant, full)
    idx = BasisIndexer(n, N)
    _assert_same_matrix(series_to_op(s, n, N, side).matrix,
                        _materialize_by_columns(s, side, n, N, idx))


@pytest.mark.parametrize("side", ["left", "right"])
def test_materialize_over_dense_cap_is_refused(side):
    n, N = 2, 12  # basis 8191 > dense cap
    for seed, words in enumerate([[], [(1,), (2, 1, 2)], [(2,) * 5, (1, 2), (2, 1)]]):
        s = _symbol_from_draw(n, N, seed, words, constant=seed > 0, full=seed > 1)
        X = series_to_op(s, n, N, side)
        with pytest.raises(BasisCapExceeded, match="limited to basis <= 4096, have 8191"):
            X.matrix
        assert X._matrix is None


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40), cols=st.integers(1, 40))
def test_spectral_norm_of_trimmed_block(seed, rows, cols):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    m[rng.random(rows) < 0.4, :] = 0
    m[:, rng.random(cols) < 0.4] = 0
    want = np.linalg.norm(m, 2)
    assert abs(operators._spectral_norm(m) - want) <= 1e-13 * max(1.0, want)
    assert operators._spectral_norm(np.zeros((rows, cols), dtype=complex)) == 0.0
    # over DENSE_CAP, on the block and on its first column alone
    _assert_sparse_norm(rng, m)
    _assert_sparse_norm(rng, m[:, :1])


def _assert_sparse_norm(rng, block):
    """block scattered over an 8191-square CSR (> DENSE_CAP) at distinct
    random rows and columns keeps only its own singular values."""
    size = 8191
    r = rng.choice(size, block.shape[0], replace=False)
    c = rng.choice(size, block.shape[1], replace=False)
    i, j = np.nonzero(block)
    m = sp.csr_matrix((block[i, j], (r[i], c[j])), shape=(size, size))
    want = np.linalg.norm(block, 2)
    assert abs(operators._spectral_norm(m) - want) <= 1e-12 * want
    # the whole block stored, as explicit zeros
    zeros = sp.csr_matrix((np.zeros(block.size), (np.repeat(r, c.size), np.tile(c, r.size))),
                          shape=(size, size))
    assert zeros.nnz == block.size and operators._spectral_norm(zeros) == 0.0


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), columns=st.integers(0, 5), rows=st.integers(0, 5),
       singles=st.integers(0, 5), coupled=st.sampled_from([None, (2, 2), (3, 7), (30, 24)]))
def test_spectral_norm_of_scattered_blocks(seed, columns, rows, singles, coupled):
    """Column vectors, row vectors, 1x1 entries and one block with about a
    third of its entries zeroed (so that an entry of it may or may not be alone
    in its row and column), scattered by random permutations; the norm is the
    largest of the blocks' own, whether an entry splits off or goes to the rest."""
    rng = np.random.default_rng(seed)
    blocks = [_complex(rng, (int(rng.integers(2, 6)), 1)) for _ in range(columns)]
    blocks += [_complex(rng, (1, int(rng.integers(2, 6)))) for _ in range(rows)]
    blocks += [_complex(rng, (1, 1)) for _ in range(singles)]
    if coupled:
        blocks.append(_complex(rng, coupled) * (rng.random(coupled) > 0.35))
    want = max((np.linalg.norm(b, 2) for b in blocks), default=0.0)
    whole = sp.block_diag(blocks, format="coo") if blocks else sp.coo_matrix((0, 0))
    for size in (8191, sum(whole.shape) + 3):  # CSR over DENSE_CAP, dense below
        r = rng.choice(size, whole.shape[0], replace=False)
        c = rng.choice(size, whole.shape[1], replace=False)
        m = sp.csr_matrix((whole.data, (r[whole.row], c[whole.col])), shape=(size, size))
        got = operators._spectral_norm(m if size > operators.DENSE_CAP else m.toarray())
        assert abs(got - want) <= 1e-12 * want


def test_spectral_norm_of_dense_over_cap_is_its_csr_twins():
    # the storage changes nothing: a dense matrix over DENSE_CAP, complex or
    # real, and its CSR, CSC, COO and csr_array twins hand the same 12 x 12
    # rest to the full SVD
    twins = (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.csr_array)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        m = np.zeros((operators.DENSE_CAP + 1, 12), dtype=complex)
        m[rng.choice(m.shape[0], 12, replace=False)] = _complex(rng, (12, 12))
        for dense in (m, m.real.copy()):
            got = operators._spectral_norm(dense)
            for twin in twins:
                assert got == operators._spectral_norm(twin(dense)), (seed, twin)
            assert abs(got - np.linalg.norm(dense, 2)) <= 1e-12 * got
        # one entry stored twice is summed, as the matrix it stands for holds
        coo = sp.coo_matrix(m)
        k = int(rng.integers(coo.nnz))
        rows, cols = np.append(coo.row, coo.row[k]), np.append(coo.col, coo.col[k])
        twice = sp.coo_matrix((np.append(coo.data, 0.5 - 2j), (rows, cols)), shape=m.shape)
        assert twice.nnz == coo.nnz + 1
        want = np.linalg.norm(twice.toarray(), 2)
        assert abs(operators._spectral_norm(twice) - want) <= 1e-14 * want
    # a diagonal entry stored twice couples with itself: never a lone entry
    diag = sp.coo_matrix(([1.0, 0.5, 0.7], ([0, 1, 1], [0, 1, 1])), shape=(8191, 8191))
    assert operators._spectral_norm(diag) == 1.2


def _column_and_row_norms(s, side, n, N):
    """The 2-norms of the columns and of the rows of the compression of s on
    F^2_N, read from its positions, with nothing written out at any size."""
    size, owner, rows, cols = operators._positions(list(s.coeffs), side, n, N)
    sq = np.abs(np.array(list(s.coeffs.values()))[owner]) ** 2
    return np.sqrt(np.bincount(cols, sq, size)), np.sqrt(np.bincount(rows, sq, size))


@pytest.mark.parametrize("side", ["left", "right"])
def test_homogeneous_norm_over_cap_needs_no_svds(monkeypatch, rng, side):
    # every row of a homogeneous compression holds one entry, so each column
    # is a block of its own with the coefficients' l2 norm
    monkeypatch.setattr(operators, "_compression", refuse_write_out)
    s = FreeSeries.make(2, {w: complex(*rng.standard_normal(2))
                            for w in enumerate_words(2, 3)[::3]})
    X = series_to_op(s, 2, 13, side)  # basis 16383
    col_norms, row_norms = _column_and_row_norms(s, side, 2, 13)
    assert row_norms.max() <= col_norms.max() == col_norms[0]
    assert abs(col_norms[0] - s.l2_norm()) <= 1e-12 * s.l2_norm()
    assert abs(op_norm(X) - s.l2_norm()) <= 1e-12 * s.l2_norm()


# -- commutant ----------------------------------------------------------------


def test_commutant_symbols_commute(rng):
    assert commutant_residual(creation_op("left", word(1, 2), 2, 4)) <= 1e-12
    for _ in range(5):
        s = random_series(rng, 2, 2, 5)
        assert commutant_residual(series_to_op(s, 2, 5)) <= 1e-12


def test_commutant_rejects_non_symbols(rng):
    idx = BasisIndexer(2, 4)
    d = rng.standard_normal(idx.size)
    X = op_from_matrix(np.diag(d).astype(complex), 2, 4)
    assert commutant_residual(X) > 1e-3


def _ref_commutant(X):
    """max_i of the norm of (M R_i - R_i M)[:, :cols], products of the matrices as built."""
    cols = BasisIndexer(X.n, X.N).level_offset(X.frontier)
    M, worst = X.matrix, 0.0
    for i in range(1, X.n + 1):
        R = creation_op("right", word(i), X.n, X.N).matrix
        worst = max(worst, operators._spectral_norm((M @ R - R @ M)[:, :cols]))
    return worst


def test_commutant_matches_dense_products(rng):
    n, N = 2, 6
    size = BasisIndexer(n, N).size
    M = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    X = op_from_matrix(M, n, N)
    assert isinstance(creation_op("right", word(1), n, N).matrix, np.ndarray)
    assert commutant_residual(X) == _ref_commutant(X) > 1.0
    s = random_series(rng, n, 2, 6)
    Y = series_to_op(s, n, N)
    assert commutant_residual(Y) == _ref_commutant(Y)


def test_commutant_sparse_above_dense_cap(rng):
    # the commutant reads the matrix dense, so past DENSE_CAP it is refused,
    # for a caller's sparse matrix and for a symbol alike
    n, N = 2, 12
    size = BasisIndexer(n, N).size
    assert size > operators.DENSE_CAP
    M = sp.random(size, size, density=2e-4, format="csr", dtype=complex, rng=rng,
                  data_rvs=lambda k: rng.standard_normal(k) + 1j * rng.standard_normal(k))
    for X in (op_from_matrix(M, n, N), series_to_op(random_series(rng, n, 2, 5), n, N)):
        with pytest.raises(BasisCapExceeded, match="limited to basis <= 4096, have 8191"):
            commutant_residual(X)


def test_commutant_right_generator():
    assert commutant_residual(creation_op("right", word(1), 2, 4)) > 1e-3
    assert commutant_residual(creation_op("right", word(1), 1, 5)) <= 1e-12


# -- adjoint orbits ---------------------------------------------------------


def make_scalar_shift(lam, N=4):
    mu = math.sqrt(1 - abs(lam) ** 2)
    return series_to_op(FreeSeries.make(2, {Word(): lam, word(1): mu}), 2, N)


def test_orbit_scalar_part_exact():
    orbit = adjoint_power_orbit(make_scalar_shift(0.5), FockVector.basis(2, 4, Word()), 12)
    for k, val in enumerate(orbit):
        assert abs(val - 0.5**k) <= 1e-12
    assert abs(orbit[10] - 9.765625e-4) <= 1e-12


def test_orbit_shift_terminates():
    L = creation_op("left", word(1), 2, 4)
    orbit = adjoint_power_orbit(L, FockVector.basis(2, 4, word(1, 1, 1)), 6)
    assert orbit[:4] == [1.0, 1.0, 1.0, 1.0]
    assert orbit[4:] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("lam", [0.3, 0.6 + 0.2j])
def test_orbit_binomial_bound(lam):
    # bound sum_j C(k,j) |lam|^{k-j} ||(A*)^j xi_w|| with ||A|| < 2, per the
    # falling-factorial expansion of (conj(lam) I + A*)^k
    N = 4
    L = make_scalar_shift(lam, N)
    mu = math.sqrt(1 - abs(lam) ** 2)
    A = series_to_op(FreeSeries.make(2, {word(1): mu}), 2, N)
    for w in [Word(), word(1), word(1, 1), word(2, 1)]:
        xi = FockVector.basis(2, N, w)
        orbit = adjoint_power_orbit(L, xi, 60)
        anorms = [1.0]
        vec = xi
        for _ in range(len(w)):
            vec = A.apply_adjoint(vec)
            anorms.append(vec.norm())
        for k, val in enumerate(orbit):
            bound = sum(
                math.comb(k, j) * abs(lam) ** (k - j) * anorms[j]
                for j in range(min(k, len(w)) + 1)
            )
            loose = sum(
                math.comb(k, j) * abs(lam) ** (k - j) * 2**j
                for j in range(min(k, len(w)) + 1)
            )
            assert val <= bound + 1e-12
            assert bound <= loose + 1e-12


def test_orbit_warns_nothing_for_an_unchecked_or_expansive_operator(monkeypatch):
    # the orbit is computed whatever ||L|| is, without reading contraction_status:
    # nothing warns and nothing is materialized
    monkeypatch.setenv("FOCKALG_BASIS_CAP", "100")
    xi = FockVector.basis(2, 12, Word())
    unchecked = series_to_op(FreeSeries.make(2, {Word(): 0.6, word(1): 0.6}), 2, 12)  # bound 1.2
    expansive = series_to_op(FreeSeries.make(2, {word(1, 2): 0.9, word(2, 1): 0.9}), 2, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orbit = adjoint_power_orbit(unchecked, xi, 3)
        assert adjoint_power_orbit(expansive, xi, 3) == [1.0, 0.0, 0.0, 0.0]
    assert orbit[1] == pytest.approx(0.6)
    assert unchecked._matrix is None and expansive._matrix is None


# -- contraction certificate ---------------------------------------------------


def test_contraction_status_true_from_symbol_bound_alone(monkeypatch):
    X = series_to_op(FreeSeries.make(2, {word(1): 0.6, word(2): 0.8}), 2, 4)
    ok, reason = contraction_status(X)
    assert ok is True and "symbol bound" in reason
    assert X._matrix is None
    # a bound <= 1 settles the check even past the basis cap
    monkeypatch.setenv("FOCKALG_BASIS_CAP", "100")
    X = series_to_op(FreeSeries.make(2, {word(1): 0.6, word(2): 0.8}), 2, 12)
    assert contraction_status(X) == (True, "symbol bound 1.000000 <= 1 + 1e-09")
    assert X._matrix is None


def test_contraction_status_false_from_compression_norm():
    X = series_to_op(FreeSeries.make(2, {Word(): 0.6, word(1): 0.6}), 2, 4)
    ok, reason = contraction_status(X)
    assert ok is False and "compression norm" in reason


def test_contraction_status_unchecked_over_basis_cap(monkeypatch):
    # the vacuum column norm 0.85 decides nothing; the reason quotes the refusal
    monkeypatch.setenv("FOCKALG_BASIS_CAP", "100")
    X = series_to_op(FreeSeries.make(2, {Word(): 0.6, word(1): 0.6}), 2, 12)
    assert contraction_status(X) == (
        None, "symbol bound 1.200000 > 1 + 1e-09 and the vacuum column norm 0.848528 is only a "
              "lower bound (op_norm refused: basis for (n=2, N=12) has 127+ entries, cap 100)")


def test_contraction_status_false_from_vacuum_column_over_basis_cap(monkeypatch):
    # ||X xi_1|| = ||a||_2 <= ||X|| needs no compression: 1.082 > 1 refutes
    monkeypatch.setenv("FOCKALG_BASIS_CAP", "100")
    X = series_to_op(FreeSeries.make(2, {Word(): 0.6, word(1): 0.9}), 2, 12)
    with pytest.raises(BasisCapExceeded):
        op_norm(X)
    assert contraction_status(X) == (False, "vacuum column norm 1.081665 > 1 + 1e-09")
    # a compression that would split whole is refused too: its plan reads the
    # positions from a BasisIndexer; its vacuum column, 1.27, refutes it
    X = series_to_op(FreeSeries.make(2, {word(1, 2): 0.9, word(2, 1): 0.9}), 2, 12)  # bound 1.27
    with pytest.raises(BasisCapExceeded):
        op_norm(X)
    assert contraction_status(X) == (False, "vacuum column norm 1.272792 > 1 + 1e-09")


def test_contraction_status_unchecked_from_lower_bound():
    # norm and symbol bound 1.02; the compression norm at N=4 is 0.979
    X = series_to_op(FreeSeries.make(2, {Word(): 0.52, word(1): 0.5}), 2, 4)
    ok, reason = contraction_status(X)
    assert ok is None and "only a lower bound" in reason
    assert op_norm(X) == pytest.approx(0.979, abs=1e-3)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), degree=st.integers(0, 3))
def test_symbol_norm_bound(seed, degree):
    rng = np.random.default_rng(seed)
    s = random_series(rng, 2, degree, 6)
    assert op_norm(series_to_op(s, 2, 5)) <= symbol_norm_bound(s) * (1 + 1e-12)
    # homogeneous symbols are scaled isometries: the bound is the norm
    h = FreeSeries.make(2, {w: complex(*rng.standard_normal(2)) for w in enumerate_words(2, degree)})
    assert abs(op_norm(series_to_op(h, 2, 5)) - symbol_norm_bound(h)) <= 1e-12 * symbol_norm_bound(h)


# -- cesaro ------------------------------------------------------------------


def test_cesaro_weights():
    out = cesaro_sum(delta(2, word(1)), 2)
    assert out.coeffs == {word(1): 0.5}
    assert cesaro_sum(delta(2, Word()), 5).coeffs == {Word(): 1.0}


def test_cesaro_vacuum_convergence(rng):
    s = random_series(rng, 2, 3, 6)
    errs = [(cesaro_sum(s, k) - s).l2_norm() for k in range(1, 40)]
    # oracle: error^2 = sum_{|v|<k} (|v|/k)^2 |a_v|^2 + tail mass
    for k in (5, 20):
        exact = math.sqrt(
            sum((len(v) / k) ** 2 * abs(c) ** 2 for v, c in s.coeffs.items() if len(v) < k)
            + sum(abs(c) ** 2 for v, c in s.coeffs.items() if len(v) >= k)
        )
        assert abs(errs[k - 1] - exact) <= 1e-12
    assert errs[-1] < errs[3]


# -- defect ranks and codimension ---------------------------------------------


def _defect_ranks(L):
    """(rank(I - L L*), rank(I - L* L)) of the compression by numerical_rank."""
    m = L.dense()
    eye = np.eye(m.shape[0], dtype=complex)
    return numerical_rank(eye - m @ m.conj().T), numerical_rank(eye - m.conj().T @ m)


def test_defect_ranks_shift():
    L = creation_op("left", word(1), 2, 2)
    assert _defect_ranks(L) == (4, 4)


def test_defect_ranks_overflow_count():
    n, N = 2, 3
    w = word(1, 2)
    L = creation_op("left", w, n, N)
    killed = sum(n**k for k in range(N + 1) if len(w) + k > N)
    assert _defect_ranks(L)[1] == killed


def test_defect_ranks_scalar_unitary():
    # I - U U* is roundoff only, which the rank floor must not count
    U = series_to_op(FreeSeries.make(2, {Word(): np.exp(0.3j)}), 2, 2)
    assert _defect_ranks(U) == (0, 0)


def test_range_complement_examples():
    L1 = creation_op("left", word(1), 2, 4)
    assert range_complement_level_dims(L1, 2) == 2
    s = FreeSeries.make(2, {word(1): 1 / math.sqrt(2), word(2): 1 / math.sqrt(2)})
    assert range_complement_level_dims(series_to_op(s, 2, 4), 1) == 1


def test_range_complement_bound(rng):
    n, N = 2, 4
    s = FreeSeries.make(n, {word(1): 0.6, word(2): 0.8})
    L = series_to_op(s, n, N)
    for k in range(1, L.frontier + 1):
        comp = range_complement_level_dims(L, k)
        assert comp >= n**k - (n**k - 1) // (n - 1) > 0


def test_range_complement_hypothesis_flagged():
    with pytest.raises(ValueError):
        range_complement_level_dims(series_to_op(FreeSeries.one(2), 2, 3), 1)


# -- structural invariants ------------------------------------------------------


def test_compression_consistency(rng):
    n, N = 2, 5
    s = random_series(rng, n, 2, 5)
    X = series_to_op(s, n, N)
    for v in [Word(), word(2), word(1, 2), word(2, 2, 1)]:
        if len(v) > N - s.degree():
            continue
        got = X.apply(FockVector.basis(n, N, v))
        want = {concat(w, v): c for w, c in s.coeffs.items()}
        assert set(got.coeffs) == set(want)
        assert max(abs(got.coeffs[w] - want[w]) for w in want) <= 1e-15


def test_word_isometry_on_frontier():
    n, N = 2, 4
    w = word(1, 2)
    L = creation_op("left", w, n, N)
    for k in range(N - len(w) + 1):
        for v in enumerate_words(n, k):
            xi = FockVector.basis(n, N, v)
            assert abs(L.apply(xi).norm() - 1.0) <= 1e-15


def test_unitary_rigidity_bessel(rng):
    # normalized symbol: coefficient mass off the unit splits as 1 - |a_0|^2
    for _ in range(10):
        s = random_series(rng, 2, 3, 6)
        s = s.scale(1.0 / s.l2_norm())
        a0 = abs(s.coeff(Word())) ** 2
        rest = sum(abs(c) ** 2 for w, c in s.coeffs.items() if len(w) > 0)
        assert abs(rest - (1.0 - a0)) <= 1e-12


def test_series_records_roundtrip():
    s = FreeSeries.make(2, {Word(): 0.5, word(2, 1): -1j, word(1): 2.0})
    back = FreeSeries.make(2, {Word.parse(r["word"]): complex(r["re"], r["im"])
                               for r in s.to_records()})
    assert (back - s).sup_abs() == 0


def test_frontier_rules():
    n, N = 2, 6
    X = series_to_op(delta(n, word(1, 2)), n, N)
    assert X.frontier == N - 2
    prod = compose(X, X)
    assert prod.frontier == N - 4
    assert op_from_matrix(X.dense(), n, N).frontier == N


def test_frontier_of_sums_and_products():
    n, N = 2, 5
    I = series_to_op(FreeSeries.one(n), n, N)
    H = apply_series(harmonic_series(4), creation_op("left", word(1, 1), n, N))
    assert H.frontier == -1
    assert (H + I).frontier == -1
    L3 = creation_op("left", word(1, 1, 1), n, N)
    assert (compose(L3, L3) + I).frontier == -1


def _random_symbol(rng, n, degree, terms):
    s = random_series(rng, n, degree, terms)
    return s.scale(1.0 / sum(abs(c) for c in s.coeffs.values()))


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    N=st.integers(2, 5),
    side=st.sampled_from(["left", "right"]),
    steps=st.lists(st.sampled_from(["add", "compose-first", "compose-last", "series"]),
                   max_size=3),
)
def test_frontier_never_exceeds_oracle(seed, N, side, steps):
    # Build an expression at truncation N and its untruncated symbol side by side,
    # then compare the claimed exact region with an oracle at N + total degree.
    n = 2
    rng = np.random.default_rng(seed)

    def leaf():
        s = _random_symbol(rng, n, int(rng.integers(0, 3)), 2)
        return series_to_op(s, n, N, side), s

    def product(a, b):  # symbol of compose(A, B), where B acts first
        return a.mul(b) if side == "left" else b.mul(a)

    X, sym = leaf()
    for step in steps:
        Y, ysym = leaf()
        if step == "add":
            X, sym = X + Y, sym + ysym
        elif step == "compose-first":
            X, sym = compose(X, Y), product(sym, ysym)
        elif step == "compose-last":
            X, sym = compose(Y, X), product(ysym, sym)
        else:
            scale = 1.0 / max(1.0, sum(abs(c) for c in X.symbol.coeffs.values()))
            X, sym = X.scale(scale), sym.scale(scale)
            h = ScalarSeries.make(list(rng.uniform(-1, 1, size=int(rng.integers(2, 4)))))
            power, true = FreeSeries.one(n), FreeSeries.zero(n)
            for k in range(h.order + 1):
                true = true + power.scale(h.coeff(k))
                power = product(sym, power)
            X, sym = apply_series(h, X), true
    M = N + sym.degree()
    oracle = series_to_op(sym, n, M, side)
    for k in range(X.frontier + 1):
        for v in enumerate_words(n, k):
            got = X.apply(FockVector.basis(n, N, v))
            want = oracle.apply(FockVector.basis(n, M, v))
            for w in set(got.coeffs) | set(want.coeffs):
                assert abs(got.coeff(w) - want.coeff(w)) <= 1e-12, (X.frontier, v, w)


def _hadamard_pairs(rng, size=8191, pairs=1023):
    """Unitary 2x2 blocks [[1, 1], [1, -1]] / sqrt(2) at distinct random rows
    and columns of a size-square CSR: each nonempty row and column holds two
    entries, so no entry splits off alone, and the norm is 1."""
    r = rng.choice(size, 2 * pairs, replace=False).reshape(pairs, 2)
    c = rng.choice(size, 2 * pairs, replace=False).reshape(pairs, 2)
    vals = np.tile([1.0, 1.0, 1.0, -1.0], pairs) / math.sqrt(2)
    return sp.csr_matrix((vals, (np.repeat(r, 2, axis=1).ravel(), np.tile(c, 2).ravel())),
                         shape=(size, size), dtype=complex)


def test_spectral_norm_rest_takes_the_full_svd_up_to_dense_cap(monkeypatch, rng):
    shapes = []
    svd_norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm",
                        lambda m, *args, **kwargs: shapes.append(np.shape(m)) or
                        svd_norm(m, *args, **kwargs))
    # L_{12} sends distinct words to distinct words: each of its entries is
    # alone in its row and column, and no SVD runs
    assert op_norm(creation_op("left", word(1, 2), 2, 12)) == 1.0 and shapes == []
    assert abs(op_norm(op_from_matrix(_hadamard_pairs(rng), 2, 12)) - 1.0) <= 1e-9
    # the full SVD sees the rest without its empty rows and columns
    assert shapes == [(2046, 2046)]
    # the coupling of each diagonal entry to the next keeps every row and
    # column in one 8191-square rest, over DENSE_CAP: refused, never written
    size = 8191
    crowded = sp.diags(np.linspace(0.5, 1.0, size)) + sp.diags(np.full(size - 1, 1e-3), 1)
    with pytest.raises(BasisCapExceeded, match="rest block 8191 x 8191 over DENSE_CAP 4096"):
        op_norm(op_from_matrix(crowded.tocsr().astype(complex), 2, 12))
    assert shapes == [(2046, 2046)]


def test_spectral_norm_of_lone_entries_runs_no_svd(monkeypatch, rng):
    # an 8191-square CSR (> DENSE_CAP) whose every entry is alone in its row
    # and column, as a diagonal is: sigma is the largest modulus, with no SVD
    monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: pytest.fail("SVD ran"))
    size = 8191
    vals = _complex(rng, size)
    perm = sp.csr_matrix((vals, (rng.permutation(size), np.arange(size))), shape=(size, size))
    assert operators._spectral_norm(perm) == np.abs(vals).max()
    assert operators._spectral_norm(sp.identity(size, dtype=complex, format="csr")) == 1.0


def test_spectral_norm_refuses_column_vectors_over_dense_cap():
    # 2100 column vectors of two entries each: no entry is alone in its
    # column, so all go to one 4200 x 2100 rest, over DENSE_CAP and refused;
    # a column vector is no longer split off and measured by its 2-norm
    size, cols = 8191, 2100
    m = sp.csr_matrix((np.full(2 * cols, 0.6), (np.arange(2 * cols), np.repeat(np.arange(cols), 2))),
                      shape=(size, size))
    with pytest.raises(BasisCapExceeded, match="rest block 4200 x 2100 over DENSE_CAP 4096"):
        operators._spectral_norm(m)


def _assert_op_norm_is_full_svd(s, n, N, side):
    X = series_to_op(s, n, N, side)
    got = op_norm(X)
    assert X._matrix is None  # taken from the symbol; nothing was written out
    want = np.linalg.norm(series_to_op(s, n, N, side).dense(), 2)
    assert abs(got - want) <= 1e-12 * want
    if side == "right":  # the flip xi_v -> xi_{v reversed} takes R_w to L_{w reversed}
        flipped = FreeSeries.make(n, {w[::-1]: a for w, a in s.coeffs.items()})
        assert got == op_norm(series_to_op(flipped, n, N, "left"))


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=st.sampled_from([1, 2, 3]), side=st.sampled_from(["left", "right"]),
       seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(SUPPORTS), extra=st.integers(0, 2))
def test_op_norm_is_the_full_svd(data, n, side, seed, kind, extra):
    degree = data.draw(st.integers(0, {1: 10, 2: 8, 3: 5}[n] - extra), label="degree")  # dense
    rng = np.random.default_rng(seed)
    words = random_support(rng, n, degree, kind, side)
    s = FreeSeries.make(n, {w: complex(*rng.standard_normal(2)) for w in words})
    _assert_op_norm_is_full_svd(s, n, degree + extra, side)


@settings(deadline=None, max_examples=10)
@given(N=st.integers(12, 16), side=st.sampled_from(["left", "right"]),
       seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(SPLIT_SUPPORTS),
       degree=st.integers(1, 4))
def test_op_norm_over_cap_splits_without_writing_out(N, side, seed, kind, degree):
    # every entry lies in an isolated column, so sigma_max is the largest
    # column or row 2-norm: no matrix is written and no SVD runs
    rng = np.random.default_rng(seed)
    words = random_support(rng, 2, degree, kind, side)
    s = FreeSeries.make(2, {w: complex(*rng.standard_normal(2)) for w in words})
    # basis 8191 to 131071
    want = max(norms.max() for norms in _column_and_row_norms(s, side, 2, N))
    X = series_to_op(s, 2, N, side)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators, "_compression", refuse_write_out)
        got = op_norm(X)
    assert X._matrix is None
    assert abs(got - want) <= 1e-12 * want


def _refuse_positions(*args, **kwargs):
    raise AssertionError("the compression's positions were built")


def _prefix_free(words, side):
    """No word begins another (ends another for R), from the definition."""
    begins = (lambda v, u: v.startswith(u)) if side == "left" else (lambda v, u: v.endswith(u))
    return not any(u != v and begins(v, u) for u in words for v in words)


def _splits_whole(words, side, n, N):
    """Every entry of the compression lies in an isolated column (its rows hold
    no other entry) or an isolated row (its columns hold none), counted from
    the positions."""
    size, _, rows, cols = operators._positions(words, side, n, N)
    shared_row = np.bincount(rows, minlength=size)[rows] > 1
    shared_col = np.bincount(cols, minlength=size)[cols] > 1
    isolated_col = np.bincount(cols, shared_row, size) == 0
    isolated_row = np.bincount(rows, shared_col, size) == 0
    return bool(np.all(isolated_col[cols] | isolated_row[rows]))


def _plans_from_words(words, side, n, N):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators, "_positions", _refuse_positions)
        try:
            operators.level_split_sigma(words, side, n, N)
        except AssertionError:
            return False
    return True


def test_splits_whole_exactly_when_prefix_free():
    # if w = u t, the entry (w, xi_0) shares its row with column t's entry and
    # its column with row u's; with no such pair every row holds one entry.
    # level_split_sigma decides from the words alone exactly the supports that
    # split whole
    seen = set()
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n, kind, side = 1 + seed % 3, SUPPORTS[seed % 5], ("left", "right")[seed // 5 % 2]
        degree = int(rng.integers(0, {1: 8, 2: 6, 3: 4}[n] + 1))
        words = random_support(rng, n, degree, kind, side)
        N = degree + int(rng.integers(0, 3))
        whole = _splits_whole(words, side, n, N)
        assert whole == _prefix_free(words, side) == _plans_from_words(words, side, n, N), \
            (seed, words)
        seen.add(whole)
    assert seen == {True, False}


@settings(deadline=None, max_examples=60)
@given(n=st.sampled_from([1, 2, 3]), side=st.sampled_from(["left", "right"]),
       seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(SUPPORTS), extra=st.integers(0, 2),
       density=st.sampled_from([0.0, 0.4, 1.0]))
def test_level_split_sigma_of_a_prefix_free_support_is_the_plans(n, side, seed, kind, extra,
                                                                  density):
    # the words decide the whole split, and the float is the largest column
    # or row 2-norm summed from the positions, zero values included; a
    # support that does not split whole takes the level split, which agrees
    # with the full SVD to rounding
    rng = np.random.default_rng(seed)
    degree = int(rng.integers(0, {1: 8, 2: 6, 3: 4}[n] + 1))
    words = random_support(rng, n, degree, kind, side)
    m, N = len(words), degree + extra
    vals = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * (rng.random(m) < density)
    got = operators.level_split_sigma(words, side, n, N)(vals)
    if _prefix_free(words, side):
        size, owner, rows, cols = operators._positions(words, side, n, N)
        sq = np.abs(vals[owner]) ** 2
        want = math.sqrt(max(np.bincount(cols, sq, size).max(), np.bincount(rows, sq, size).max()))
        assert got == want
    else:
        want = np.linalg.norm(operators._compression(words, side, n, N)(vals), 2)
        assert abs(got - want) <= 1e-12 * want + 1e-300


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("N", [16, 18])
def test_op_norm_over_cap_prefix_free_reads_only_the_words(N, side):
    # sigma is the coefficients' l2 norm, with no positions built over the
    # basis and nothing written out
    rng = np.random.default_rng(N)
    words = random_support(rng, 2, 4, "prefix-free", side)
    assert len(words) > 1
    s = FreeSeries.make(2, {w: complex(*rng.standard_normal(2)) for w in words})
    X = series_to_op(s, 2, N, side)  # basis 131071 and 524287
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators, "_positions", _refuse_positions)
        patch.setattr(operators, "_compression", refuse_write_out)
        got = op_norm(X)
    assert X._matrix is None
    assert abs(got - s.l2_norm()) <= 1e-15 * s.l2_norm()


# sigma of 1 + L1 + L2 + L1 L2 (and of its R twin) on F^2_12 and F^2_13, as
# svds measured it from the compression over DENSE_CAP
ONE_L1_L2_L12 = {("left", 12): float.fromhex("0x1.854779b46caffp+1"),  # 3.0412437563876433
                 ("left", 13): float.fromhex("0x1.85ef4e8f05f16p+1"),  # 3.046365566096834
                 ("right", 12): float.fromhex("0x1.854779b46caffp+1"),
                 ("right", 13): float.fromhex("0x1.85ef4e8f05f17p+1")}


@pytest.mark.parametrize("side", ["left", "right"])
def test_op_norm_over_cap_without_split_writes_out_only_the_rest(side):
    # the constant term leaves no column isolated; the transfer recursion
    # writes out only the compression on F^2_{d-1} = F^2_1, never one over
    # the basis
    s = FreeSeries.make(2, {Word(): 1.0, word(1): 1.0, word(2): 1.0, word(1, 2): 1.0})
    sizes = []
    compression = operators._compression
    for N in (12, 13):  # basis 8191 and 16383
        X = series_to_op(s, 2, N, side)
        with pytest.MonkeyPatch.context() as patch:
            # the arguments are (words, side, n, N)
            patch.setattr(operators, "_compression", lambda *args: sizes.append(
                BasisIndexer(*args[2:]).size) or compression(*args))
            got = op_norm(X)
        assert X._matrix is None
        want = ONE_L1_L2_L12[side, N]
        assert abs(got - want) <= 1e-14 * want
    assert sizes == [BasisIndexer(2, 1).size] * 2


@pytest.mark.parametrize("side", ["left", "right"])
def test_op_norm_of_zero_symbol_and_level_zero(side):
    for N in (0, 3):
        _assert_op_norm_is_full_svd(FreeSeries.zero(2), 2, N, side)
    _assert_op_norm_is_full_svd(delta(2, Word(), 0.3 - 0.4j), 2, 0, side)


def test_sparse_norm_is_reproducible():
    # fresh copies of one operator over DENSE_CAP (op_norm keeps the norm per
    # copy) give the same float
    s = FreeSeries.make(2, {word(1, 2): 0.3 + 0.1j, word(2, 2): 0.5, word(2, 1): -0.2j})
    for side in ("left", "right"):
        norms = {op_norm(series_to_op(s, 2, 12, side)) for _ in range(6)}  # basis 8191
        assert len(norms) == 1
        assert abs(norms.pop() - s.l2_norm()) <= 1e-12


# -- the transfer recursion -------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=st.sampled_from([1, 2, 3]), side=st.sampled_from(["left", "right"]),
       seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["mixed", "constant"]),
       extra=st.integers(0, 2))
def test_transfer_sigma_is_the_full_svd(data, n, side, seed, kind, extra):
    # below the cap, where the full SVD of the written-out compression is the
    # oracle; the size rule alone picks the recursion, so a cap one under the
    # basis sends the plan there (base d - 1), and at extra = 0 (d = N, base
    # N - 1) to the arrowhead
    degree = data.draw(st.integers(1, {1: 9, 2: 6, 3: 4}[n] - extra), label="degree")
    rng = np.random.default_rng(seed)
    words = random_support(rng, n, degree, kind, side)
    vals = rng.standard_normal(len(words)) + 1j * rng.standard_normal(len(words))
    N = degree + extra
    want = np.linalg.norm(operators._compression(words, side, n, N)(vals), 2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators, "DENSE_CAP", BasisIndexer(n, N).size - 1)
        got = operators.level_split_sigma(words, side, n, N)(vals)
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("side", ["left", "right"])
def test_transfer_sigma_does_not_decrease_in_N(side):
    s = FreeSeries.make(2, {Word(): 1.0, word(1): 1.0, word(2): 1.0, word(1, 2): 1.0})
    norms = [op_norm(series_to_op(s, 2, N, side)) for N in range(12, 17)]  # basis 8191 to 131071
    assert norms == sorted(norms) and norms[0] < norms[-1] < symbol_norm_bound(s)


def test_transfer_sigma_of_an_isometry_that_is_not_prefix_free():
    # 1/2 L1 + 1/2 L1^2 + 1/2 L2 - 1/2 L2 L1 = L1 f(L1) + L2 g(L1) with
    # f = (1 + z)/2, g = (1 - z)/2 and |f|^2 + |g|^2 = 1 on the circle: an
    # isometry, and so is its flip on the right
    left = FreeSeries.make(2, {word(1): 0.5, word(1, 1): 0.5, word(2): 0.5, word(2, 1): -0.5})
    right = FreeSeries.make(2, {word(1): 0.5, word(1, 1): 0.5, word(2): 0.5, word(1, 2): -0.5})
    for s, side in ((left, "left"), (right, "right")):
        for N in range(12, 17):
            X = series_to_op(s, 2, N, side)
            assert abs(op_norm(X) - 1.0) <= 1e-15, (side, N)
            assert X._matrix is None


def test_over_dense_cap_refusals():
    s = FreeSeries.make(2, {Word(): 1.0, word(1): 1.0, word(2): 1.0, word(1, 2): 1.0})
    X = series_to_op(s, 2, 12, "left")
    with pytest.raises(BasisCapExceeded, match="limited to basis <= 4096, have 8191"):
        X.matrix  # a symbol's matrix over the cap
    with pytest.raises(BasisCapExceeded, match="limited to basis <= 4096, have 8191"):
        commutant_residual(X)
    # a rest block over DENSE_CAP: 4097 x 2 entries, each row coupled to both columns
    m = sp.csr_matrix((np.ones(2 * 4097), (np.repeat(np.arange(4097), 2), np.tile([0, 1], 4097))),
                      shape=(8191, 8191))
    with pytest.raises(BasisCapExceeded, match="rest block 4097 x 2 over DENSE_CAP 4096"):
        op_norm(op_from_matrix(m, 2, 12))
    # not prefix-free, with F^2_{d-1} = F^2_12 over the cap
    deep = FreeSeries.make(2, {Word(): 1.0, Word((1,) * 13): 1.0})
    Y = series_to_op(deep, 2, 13, "right")
    with pytest.raises(BasisCapExceeded, match="limited to basis <= 4096, have 8191"):
        op_norm(Y)
    # its vacuum column norm sqrt(2) refutes it; at 0.85 it decides nothing, and
    # the reason names DENSE_CAP's refusal, not the basis cap's
    assert contraction_status(Y) == (False, "vacuum column norm 1.414214 > 1 + 1e-09")
    Y = series_to_op(deep.scale(0.6), 2, 13, "right")
    assert contraction_status(Y) == (
        None, "symbol bound 1.200000 > 1 + 1e-09 and the vacuum column norm 0.848528 is only a "
              "lower bound (op_norm refused: dense matrices limited to basis <= 4096, have 8191)")


def test_op_from_matrix_checks_the_shape():
    # at (n=2, N=6) the basis has 127 words
    for shape in ((5, 5), (200, 200), (127, 5)):
        with pytest.raises(ValueError, match=re.escape(
                f"matrix shape {shape} is not the basis shape (127, 127)")):
            op_from_matrix(np.eye(*shape, dtype=complex), 2, 6)
    with pytest.raises(BasisCapExceeded):
        op_from_matrix(np.eye(5), 2, 20)  # the basis cap speaks before the shape
    assert commutant_residual(op_from_matrix(np.eye(127, dtype=complex), 2, 6)) == 0.0


def test_fockalg_runs_without_importing_scipy(tmp_path):
    # the package needs only numpy: its norms over DENSE_CAP, the commutant of
    # a symbol and of a caller's matrix, and run-all import no scipy module
    code = ("import sys\n"
            "import numpy as np\n"
            "import fockalg, fockalg.cli\n"
            "from fockalg.operators import (FreeSeries, commutant_residual, op_from_matrix,\n"
            "                               op_norm, series_to_op)\n"
            "from fockalg.words import Word, word\n"
            "s = FreeSeries.make(2, {Word(): 1.0, word(1): 1.0, word(2): 1.0, word(1, 2): 1.0})\n"
            "assert abs(op_norm(series_to_op(s, 2, 12)) - 3.0412437563876433) <= 1e-14 * 3.05\n"
            "assert commutant_residual(series_to_op(s, 2, 6)) <= 1e-12\n"
            "assert commutant_residual(op_from_matrix(np.eye(127), 2, 6)) == 0.0\n"
            "assert fockalg.cli.main(['run-all']) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    src = str(Path(fockalg.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         cwd=tmp_path, check=True)
    assert out.stdout.splitlines()[-1] == "[]", out.stderr
