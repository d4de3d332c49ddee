import gc
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_series, random_vector
from fockalg import operators
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
from fockalg.words import BasisIndexer, Word, concat, enumerate_words, word


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
    """S_s* xi as one strip per (vector word, symbol word) pair."""
    out = {}
    for v, c in xi.items():
        for w, a in symbol.items():
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
    # random_series lists its words in random order, so lengths come mixed
    s, t = random_series(rng, n, degree, 8), random_series(rng, n, 3, 8)
    X = series_to_op(s, n, N, side)
    xi = FockVector.make(n, N, random_series(rng, n, N, 40).coeffs)
    image = _ref_convolve(s.coeffs, xi.coeffs, N) if side == "left" \
        else _ref_convolve(xi.coeffs, s.coeffs, N)
    cases = [(X.apply_adjoint(xi), _ref_adjoint(s.coeffs, xi.coeffs, side)),
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
    references spell."""
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
    g = gram(s, prod, side)
    assert all(type(w) is bytes and not gc.is_tracked(w) for w, _ in g)
    assert set(g) == {(Word(w), starred) for w, starred in _ref_gram(s.coeffs, prod.coeffs, side)}


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
    X = creation_op("left", word(1), 2, 12)  # basis 8191 > dense cap
    import scipy.sparse as sp

    assert sp.issparse(X.matrix)
    assert abs(op_norm(X) - 1.0) <= 1e-9
    with pytest.raises(Exception):
        X.dense()


def _materialize_by_columns(symbol, side, n, N, idx):
    # reference: the per-column loop of word_at -> concat -> index_of
    size = idx.size
    dense = size <= operators.DENSE_CAP
    if dense:
        m = np.zeros((size, size), dtype=complex)
    else:
        rows, cols, vals = [], [], []
    for w, a in symbol.coeffs.items():
        for j in range(idx.level_offset(N - len(w) + 1)):
            v = idx.word_at(j)
            i = idx.index_of(concat(w, v) if side == "left" else concat(v, w))
            if dense:
                m[i, j] += a
            else:
                rows.append(i)
                cols.append(j)
                vals.append(a)
    if dense:
        return m
    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size), dtype=complex)


def _assert_same_matrix(got, want):
    assert sp.issparse(got) == sp.issparse(want) and got.dtype == want.dtype
    if sp.issparse(want):
        for field in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
    else:
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
def test_materialize_matches_column_loop_sparse(side):
    n, N = 2, 12  # basis 8191 > dense cap
    idx = BasisIndexer(n, N)
    for seed, words in enumerate([[], [(1,), (2, 1, 2)], [(2,) * 5, (1, 2), (2, 1)]]):
        s = _symbol_from_draw(n, N, seed, words, constant=seed > 0, full=seed > 1)
        _assert_same_matrix(series_to_op(s, n, N, side).matrix,
                            _materialize_by_columns(s, side, n, N, idx))


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
    # the sparse arm, on the block and on its first column alone
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


def test_commutant_right_generator():
    assert commutant_residual(creation_op("right", word(1), 2, 4)) > 1e-3
    assert commutant_residual(creation_op("right", word(1), 1, 5)) <= 1e-12


# -- adjoint orbits ---------------------------------------------------------


def make_scalar_shift(lam, N=4):
    mu = math.sqrt(1 - abs(lam) ** 2)
    return series_to_op(FreeSeries.make(2, {Word(): lam, word(1): mu}), 2, N)


def test_orbit_scalar_part_exact():
    with pytest.warns(UserWarning):
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
        with pytest.warns(UserWarning):
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


def test_orbit_warns_when_compression_norm_unchecked(monkeypatch):
    monkeypatch.setenv("FOCKALG_BASIS_CAP", "100")
    xi = FockVector.basis(2, 12, Word())
    L = series_to_op(FreeSeries.make(2, {Word(): 0.6, word(1): 0.6}), 2, 12)  # bound 1.2
    with pytest.warns(RuntimeWarning, match="compression norm unchecked"):
        orbit = adjoint_power_orbit(L, xi, 3)
    assert orbit[1] == pytest.approx(0.6)
    # below the cap, a compression norm <= 1 (0.979) under a bound of 1.02 decides nothing
    L = series_to_op(FreeSeries.make(2, {Word(): 0.52, word(1): 0.5}), 2, 4)
    with pytest.warns(RuntimeWarning, match="compression norm unchecked.*lower bound"):
        adjoint_power_orbit(L, FockVector.basis(2, 4, Word()), 3)
    # a bound <= 1 settles the check without materializing, so nothing warns
    L = series_to_op(FreeSeries.make(2, {word(1): 0.6, word(2): 0.8}), 2, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        adjoint_power_orbit(L, xi, 3)
    assert L._matrix is None


# -- contraction certificate ---------------------------------------------------


def test_contraction_status_true_from_symbol_bound_alone():
    X = series_to_op(FreeSeries.make(2, {word(1): 0.6, word(2): 0.8}), 2, 4)
    ok, reason = contraction_status(X)
    assert ok is True and "symbol bound" in reason
    assert X._matrix is None


def test_contraction_status_false_from_compression_norm():
    X = series_to_op(FreeSeries.make(2, {Word(): 0.6, word(1): 0.6}), 2, 4)
    ok, reason = contraction_status(X)
    assert ok is False and "compression norm" in reason


def test_contraction_status_unchecked_over_basis_cap(monkeypatch):
    monkeypatch.setenv("FOCKALG_BASIS_CAP", "100")
    X = series_to_op(FreeSeries.make(2, {Word(): 0.6, word(1): 0.6}), 2, 12)
    ok, reason = contraction_status(X)
    assert ok is None and "basis cap" in reason


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


def _no_convergence(*args, **kwargs):
    raise spla.ArpackNoConvergence("ARPACK did not converge", np.empty(0), np.empty((0, 0)))


def _broken_call(*args, **kwargs):
    raise TypeError("bad svds call")


def test_spectral_norm_fallback_on_arpack_failure(monkeypatch):
    shapes = []
    monkeypatch.setattr(operators.spla, "svds",
                        lambda m, **kwargs: shapes.append(m.shape) or _no_convergence())
    L = creation_op("left", word(1, 2), 2, 12)  # basis 8191: sparse arm
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # converges at once: no warning
        assert abs(op_norm(L) - 1.0) <= 1e-9
    # ARPACK and the fallback see the nonzero block: L_{12} sends the 2047
    # basis words of levels 0 to 10 to distinct words, and those of levels
    # 11 and 12 past N = 12
    assert shapes == [(2047, 2047)]
    # singular values crowding up to 1 keep the estimate creeping past the cap
    crowded = op_from_matrix(sp.diags(np.linspace(0.5, 1.0, 8191)).tocsr().astype(complex), 2, 12)
    with pytest.warns(RuntimeWarning, match="did not converge"):
        est = op_norm(crowded)
    assert 0.99 <= est <= 1.0
    monkeypatch.setattr(operators.spla, "svds", _broken_call)
    with pytest.raises(TypeError):
        op_norm(creation_op("left", word(1, 2), 2, 12))


def _assert_op_norm_is_full_svd(s, n, N, side):
    X = series_to_op(s, n, N, side)
    got = op_norm(X)
    assert X._matrix is None  # taken from the symbol; nothing was written out
    want = np.linalg.norm(series_to_op(s, n, N, side).dense(), 2)
    assert abs(got - want) <= 1e-12 * want


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=st.sampled_from([1, 2, 3]), side=st.sampled_from(["left", "right"]),
       seed=st.integers(0, 2**32 - 1), constant=st.booleans(), extra=st.integers(0, 2))
def test_op_norm_is_the_full_svd(data, n, side, seed, constant, extra):
    degree = data.draw(st.integers(0, {1: 10, 2: 8, 3: 5}[n] - extra), label="degree")  # dense
    rng = np.random.default_rng(seed)
    coeffs = dict(random_series(rng, n, degree, int(rng.integers(1, 6))).coeffs)
    coeffs.pop(Word(), None)
    if constant:
        coeffs[Word()] = complex(rng.standard_normal(), rng.standard_normal())
    s = FreeSeries.make(n, coeffs)
    _assert_op_norm_is_full_svd(s, n, s.degree() + extra, side)


@pytest.mark.parametrize("side", ["left", "right"])
def test_op_norm_of_zero_symbol_and_level_zero(side):
    for N in (0, 3):
        _assert_op_norm_is_full_svd(FreeSeries.zero(2), 2, N, side)
    _assert_op_norm_is_full_svd(delta(2, Word(), 0.3 - 0.4j), 2, 0, side)


def test_sparse_norm_is_reproducible():
    # ARPACK starts from a seeded vector, so fresh copies of one operator
    # (op_norm keeps the norm per copy) give the same float
    s = FreeSeries.make(2, {word(1, 2): 0.3 + 0.1j, word(2, 2): 0.5, word(2, 1): -0.2j})
    for side in ("left", "right"):
        norms = {op_norm(series_to_op(s, 2, 12, side)) for _ in range(6)}  # basis 8191
        assert len(norms) == 1
        assert abs(norms.pop() - s.l2_norm()) <= 1e-12
