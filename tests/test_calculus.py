import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_series, random_vector
from fockalg.calculus import (
    ISOMETRY_TOL,
    _BallProblem,
    apply_series,
    check_isometric_on_frontier,
    classify_word_factorization,
    factorization_residual,
    h2_times_isometry,
    search_ball_factorizations,
    verify_factorization,
)
from fockalg.fock import FockVector, inner
from fockalg.hardy import ScalarSeries, harmonic_series, reciprocal
from fockalg.operators import (
    FreeSeries,
    _compression,
    creation_op,
    op_from_matrix,
    op_norm,
    series_to_op,
)
from fockalg.words import BasisIndexer, Word, enumerate_words, word


def L_op(letter, n=2, N=10):
    return creation_op("left", word(letter), n, N)


# -- series calculus -------------------------------------------------------


def test_apply_series_constant_and_shift():
    X = L_op(1, N=6)
    I = apply_series(ScalarSeries.make([1.0]), X)
    assert I.symbol.coeffs == {Word(): 1.0}
    Z = apply_series(ScalarSeries.make([0.0, 1.0]), X)
    assert Z.symbol.coeffs == {word(1): 1.0}


def test_apply_series_harmonic_column():
    N = 8
    X = L_op(1, N=N)
    H = apply_series(harmonic_series(N), X)
    col = H.apply(FockVector.basis(2, N, Word()))
    for k in range(N + 1):
        assert abs(col.coeff(Word((1,) * k)) - 1.0 / (k + 1)) <= 1e-15


def test_apply_series_requires_contraction():
    big = series_to_op(FreeSeries.delta(2, word(1), 2.0), 2, 4)
    with pytest.raises(ValueError):
        apply_series(harmonic_series(3), big)
    # symbol bound 1.2 > 1, so the compression norm decides; it is above 1 too
    X = series_to_op(FreeSeries.make(2, {word(): 0.6, word(1): 0.6}), 2, 4)
    with pytest.raises(ValueError, match="compression norm"):
        apply_series(harmonic_series(3), X)


def test_apply_series_accepts_symbol_bound_without_materializing(monkeypatch):
    X = L_op(1, N=4)
    apply_series(harmonic_series(3), X)
    assert X._matrix is None
    monkeypatch.setenv("FOCKALG_BASIS_CAP", "100")
    X = L_op(1, N=12)  # basis 8191 over the cap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        apply_series(harmonic_series(3), X)
    assert X._matrix is None


def test_apply_series_warns_when_contraction_unchecked(monkeypatch):
    monkeypatch.setenv("FOCKALG_BASIS_CAP", "100")
    X = series_to_op(FreeSeries.make(2, {word(): 0.6, word(1): 0.6}), 2, 12)
    with pytest.warns(RuntimeWarning, match="contraction unchecked"):
        apply_series(harmonic_series(3), X)


def test_apply_series_contraction_needs_an_upper_bound():
    # sup|0.52 + 0.5 z| = 1.02 is the norm; the symbol bound is 1.02 too, while
    # the compression norms at N=4 (0.979) and N=8 (1.006) bound it from below
    s = FreeSeries.make(2, {word(): 0.52, word(1): 0.5})
    with pytest.warns(RuntimeWarning, match="contraction unchecked"):
        apply_series(harmonic_series(3), series_to_op(s, 2, 4))
    with pytest.raises(ValueError, match="compression norm"):
        apply_series(harmonic_series(3), series_to_op(s, 2, 8))


# -- series times isometry ----------------------------------------------------


def test_h2_operator_symbol_and_norm():
    N = 12
    X, L = L_op(1, N=N), L_op(2, N=N)
    K = N - 1
    h = harmonic_series(K)
    A = h2_times_isometry(h, X, L)
    for k in range(K + 1):
        assert abs(A.symbol.coeff(Word((1,) * k + (2,))) - 1.0 / (k + 1)) <= 1e-15
    got = A.apply(FockVector.basis(2, N, Word())).norm()
    assert abs(got - np.linalg.norm(h.coeffs)) <= 1e-12


def test_h2_trivial_series_returns_isometry():
    X, L = L_op(1, N=6), L_op(2, N=6)
    A = h2_times_isometry(ScalarSeries.make([1.0]), X, L)
    assert (A.symbol - L.symbol).sup_abs() == 0


def test_h2_isometric_map_random(rng):
    N = 12
    X, L = L_op(1, N=N), L_op(2, N=N)
    for _ in range(5):
        deg = int(rng.integers(0, N - 1))
        h = ScalarSeries.make(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
        A = h2_times_isometry(h, X, L)
        got = A.apply(FockVector.basis(2, N, Word())).norm()
        assert abs(got - np.linalg.norm(h.coeffs)) <= 1e-10


@pytest.mark.parametrize("x_symbol, l_word, degree", [
    ({word(1): 0.6, word(2, 1): 0.8}, (2, 2), 3),
    ({word(1): 1.0}, (2,), 5),
    ({word(1): 1.0}, (2,), 0),
])
def test_h2_frontier_against_oracle(rng, x_symbol, l_word, degree):
    # the frontier is N - deg h deg X - deg L, and on every basis vector up to
    # it h(X) L agrees with the product symbol realized at N + its degree
    n, N = 2, 8
    X = series_to_op(FreeSeries.make(n, x_symbol), n, N)
    L = creation_op("left", Word(l_word), n, N)
    h = ScalarSeries.make(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    A = h2_times_isometry(h, X, L)
    assert A.frontier == max(N - h.degree() * X.symbol.degree() - L.symbol.degree(), -1)
    exact, power = FreeSeries.zero(n), FreeSeries.one(n)
    for k in range(h.order + 1):
        exact = exact.add(power.mul(L.symbol).scale(h.coeff(k)))
        power = X.symbol.mul(power)
    big_N = N + exact.degree()
    big = series_to_op(exact, n, big_N)
    for v in BasisIndexer(n, A.frontier).words():
        got = A.apply(FockVector.basis(n, N, v)).coeffs
        want = big.apply(FockVector.basis(n, big_N, v)).coeffs
        assert max(abs(got.get(t, 0.0) - want.get(t, 0.0)) for t in set(got) | set(want)) <= 1e-12


def test_h2_projection_bessel(rng):
    # sum_k |(X^k L x, y)|^2 <= ||y||^2 via the range projections
    N = 8
    X, L = L_op(1, N=N), L_op(2, N=N)
    x = random_vector(2, N, 5)
    y = random_vector(2, N, 6)
    total = 0.0
    vec = L.apply(x)
    for _ in range(N):
        total += abs(inner(vec, y)) ** 2
        vec = X.apply(vec)
    assert total <= 1.0 + 1e-12


def test_h2_rejects_overlapping_ranges():
    X = L_op(1, N=8)
    with pytest.raises(ValueError):
        h2_times_isometry(harmonic_series(4), X, X)


def test_h2_rejects_mismatched_truncations():
    # mismatched truncations leave no exact region: raise, never a zero operator
    X = L_op(1, N=4)
    L = creation_op("left", Word((2,) * 6), 2, 8)
    with pytest.raises(ValueError, match="truncations do not match"):
        h2_times_isometry(harmonic_series(2), X, L)


def test_h2_rejects_non_isometries():
    half = L_op(1, N=8).scale(0.5)
    for X, L in ((half, L_op(2, N=8)), (L_op(2, N=8), half)):
        with pytest.raises(ValueError, match="not an isometry"):
            h2_times_isometry(harmonic_series(4), X, L)


def test_h2_rejects_ranges_that_overlap_only_at_a_high_power():
    # X = L1 and L = (L2 + L1^3 L2) / sqrt(2): L* X^d L vanishes for d = 1, 2
    # and is L* L1^3 L = I / 2 at d = 3
    L = series_to_op(FreeSeries.make(2, {word(2): 1 / math.sqrt(2),
                                         word(1, 1, 1, 2): 1 / math.sqrt(2)}), 2, 10)
    h2_times_isometry(harmonic_series(2), L_op(1, N=10), L)
    with pytest.raises(ValueError, match="X\\^3 L overlap"):
        h2_times_isometry(harmonic_series(3), L_op(1, N=10), L)


# -- factorization verification --------------------------------------------------


def build_pair(K, N):
    X, L = L_op(1, N=N), L_op(2, N=N)
    f = harmonic_series(K)
    g = reciprocal(f, K)
    A = h2_times_isometry(harmonic_series(K - 1), X, L)
    return g, X, A, L


@pytest.mark.parametrize("K", [16, 64, 256])
def test_verify_factorization_exact(K):
    N = K + 2
    g, X, A, L = build_pair(K, N)
    rep = verify_factorization(g, X, A, L, depth=K)
    assert rep.verdict
    assert rep.measurements["max_coeff_error"] <= 1e-9


def test_verify_factorization_trivial():
    N = 6
    X, L = L_op(1, N=N), L_op(2, N=N)
    rep = verify_factorization(ScalarSeries.make([1.0]), X, L, L, depth=3)
    assert rep.verdict


def test_verify_factorization_detects_perturbation():
    K, N = 16, 18
    g, X, A, L = build_pair(K, N)
    coeffs = list(g.coeffs)
    coeffs[1] += 1e-3
    rep = verify_factorization(ScalarSeries.make(coeffs), X, A, L, depth=K)
    assert not rep.verdict
    assert abs(rep.measurements["max_coeff_error"] - 1e-3) <= 1e-6
    assert rep.measurements["worst_word"] == "z1 z2"


def test_verify_factorization_depth_guard():
    g, X, A, L = build_pair(8, 10)
    with pytest.raises(ValueError):
        verify_factorization(g, X, A, L, depth=11)


# -- isometry checks -----------------------------------------------------------


def test_isometry_check_sees_gram_coefficients_past_level_2():
    # ||X v|| = 1.2247 for v = (xi_1 + xi_{z1 z1 z1}) / sqrt(2): X* X = I + (L_t + L_t*) / 2
    # with |t| = 3, out of reach of vectors on levels <= 2
    s = FreeSeries.make(2, {Word(): 1 / math.sqrt(2), word(1, 1, 1): 1 / math.sqrt(2)})
    X = series_to_op(s, 2, 8)
    v = FockVector.make(2, 8, {Word(): 1 / math.sqrt(2), word(1, 1, 1): 1 / math.sqrt(2)})
    assert abs(X.apply(v).norm() - math.sqrt(1.5)) <= 1e-12
    with pytest.raises(ValueError, match="not an isometry"):
        check_isometric_on_frontier(X)


def _symbol(rng, n, kind):
    """A random symbol of degree <= 2: sparse, an isometry (unit coefficient
    mass on one level), or that isometry off by 1e-3 at one word."""
    if kind == "sparse":
        return random_series(rng, n, 2, int(rng.integers(1, 6)))
    words = enumerate_words(n, int(rng.integers(0, 3)))
    picks = rng.choice(len(words), size=int(rng.integers(1, len(words) + 1)), replace=False)
    s = FreeSeries.make(n, {words[i]: complex(*rng.standard_normal(2)) for i in picks})
    s = s.scale(1.0 / s.l2_norm())
    if kind == "isometry":
        return s
    pool = [w for k in range(3) for w in enumerate_words(n, k)]
    return s.add(FreeSeries.delta(n, pool[rng.integers(len(pool))], 1e-3))


symbol_kinds = st.sampled_from(["sparse", "isometry", "perturbed"])


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]),
       side=st.sampled_from(["left", "right"]), kind=symbol_kinds, extra=st.integers(0, 1))
def test_isometry_check_matches_dense_gram(seed, n, side, kind, extra):
    rng = np.random.default_rng(seed)
    s = _symbol(rng, n, kind)
    d = s.degree()
    N = d + extra
    # at truncation N + 2d the columns on levels <= N + d are exact and meet
    # every coefficient of X* X - I, all of which sit on words of length <= d
    M = series_to_op(s, n, N + 2 * d, side).dense()
    cols = BasisIndexer(n, N + 2 * d).level_offset(N + d + 1)
    G = M[:, :cols].conj().T @ M[:, :cols]
    isometric = np.abs(G - np.eye(cols)).max() <= ISOMETRY_TOL
    try:
        check_isometric_on_frontier(series_to_op(s, n, N, side))
    except ValueError:
        assert not isometric
    else:
        assert isometric


# -- ball search -------------------------------------------------------------------


def test_classifier_exact_and_perturbed():
    w = word(1, 2)
    lam = np.exp(0.4j)
    b = FreeSeries.make(2, {word(1): lam})
    c = FreeSeries.make(2, {word(2): np.conj(lam)})
    dist, split, phase = classify_word_factorization(b, c, w)
    assert dist <= 1e-12
    assert split == (word(1), word(2))
    assert abs(phase - lam) <= 1e-12
    bp = FreeSeries.make(2, {word(1): lam, word(2, 2): 1e-4})
    dist2, _, _ = classify_word_factorization(bp, c, w)
    assert 0.5e-4 <= dist2 <= 2e-4


def test_unconstrained_witness_residual():
    n, N, K = 2, 8, 24
    g = reciprocal(harmonic_series(K), K)
    b = FreeSeries.make(n, {Word((1,) * k): g.coeff(k) for k in range(N + 1) if g.coeff(k) != 0})
    c = FreeSeries.make(n, {Word((1,) * k + (2,)): 1.0 / (k + 1) for k in range(N)})
    res = factorization_residual(b, c, word(2), n, N)
    assert res <= 1e-9
    assert b.degree() >= 1 and len(c.coeffs) >= 2


def test_search_small_word():
    cands = search_ball_factorizations(word(1, 2), 2, 2, 5, restarts=6, seed=11)
    near = [c for c in cands if c.residual <= 1e-6]
    assert near, "expected at least one converged factorization"
    for c in near:
        assert c.manifold_distance <= 1e-3
        u, v = c.split
        assert Word(u.letters + v.letters) == word(1, 2)
    for c in cands:
        assert op_norm(series_to_op(c.b, 2, 5)) <= 1 + 1e-12
        assert op_norm(series_to_op(c.c, 2, 5)) <= 1 + 1e-12


def test_search_single_letter_irreducible():
    # the only unit-ball factorizations of a generator are scalar splits
    cands = search_ball_factorizations(word(2), 1, 2, 3, restarts=8, seed=3)
    near = [c for c in cands if c.residual <= 1e-6]
    assert near
    for c in near:
        assert c.manifold_distance <= 1e-3
        assert Word(c.split[0].letters + c.split[1].letters) == word(2)


def test_search_unit_word_only_scalar_unitaries():
    cands = search_ball_factorizations(Word(), 2, 2, 5, restarts=4, seed=5, max_iter=150)
    for c in cands:
        if c.residual <= 1e-6:
            assert abs(abs(c.b.coeff(Word())) - 1.0) <= 1e-6
            assert abs(abs(c.c.coeff(Word())) - 1.0) <= 1e-6
        assert op_norm(series_to_op(c.b, 2, 5)) <= 1 + 1e-12


def _dense_design_als(w, degree, n, N, restarts, seed, max_iter=300):
    """Reference ball search on dense designs (one row per compression entry).

    Returns the coefficient words and, in restart order, (iterations, b, c)
    after the final projection.
    """
    basis = [u for k in range(degree + 1) for u in enumerate_words(n, k)]
    mats = [creation_op("left", u, n, N).dense() for u in basis]
    target = creation_op("left", w, n, N).dense()
    m = len(basis)

    def assemble(vec):
        out = np.zeros_like(mats[0])
        for coef, mu in zip(vec, mats):
            if coef != 0:
                out = out + coef * mu
        return out

    def sigma(vec):
        return float(np.linalg.norm(assemble(vec), 2))

    def project(vec):
        s = sigma(vec)
        return vec / s if s > 1.0 else vec

    runs = []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        bvec = project((rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2 * m))
        cvec = project((rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2 * m))
        history = []
        for it in range(max_iter):
            C = assemble(cvec)
            design = np.stack([(mu @ C).ravel() for mu in mats], axis=1)
            bvec = np.linalg.lstsq(design, target.ravel(), rcond=None)[0]
            sb = sigma(bvec)
            if sb > 1.0:
                bvec, cvec = bvec / sb, cvec * sb
            B = assemble(bvec)
            design = np.stack([(B @ mv).ravel() for mv in mats], axis=1)
            cvec = np.linalg.lstsq(design, target.ravel(), rcond=None)[0]
            sc = sigma(cvec)
            if sc > 1.0:
                cvec, bvec = cvec / sc, bvec * sc
            history.append(float(np.linalg.norm(assemble(bvec) @ assemble(cvec) - target)))
            if history[-1] < 1e-13 or (it >= 20 and history[-1] > 0.5 * history[-10]):
                break
        sb, sc = sigma(bvec), sigma(cvec)
        if sb > 0 and sc > 0:
            t = math.sqrt(sb / sc)
            bvec, cvec = bvec / t, cvec * t
        runs.append((len(history), project(bvec), project(cvec)))
    return basis, runs


def test_search_matches_dense_design_reference():
    # at seed 7, restarts 0 and 1 end far from L_w and 2 and 3 reach it
    w, degree, n, N, restarts, max_iter = word(1, 2), 2, 2, 5, 4, 100
    basis, runs = _dense_design_als(w, degree, n, N, restarts, seed=7, max_iter=max_iter)
    cands = search_ball_factorizations(w, degree, n, N, restarts=restarts, seed=7,
                                       max_iter=max_iter)
    assert sorted(c.restart for c in cands) == list(range(restarts))
    for c in cands:
        iters, bvec, cvec = runs[c.restart]
        assert c.iterations == iters
        b = FreeSeries.make(n, dict(zip(basis, bvec)))
        cs = FreeSeries.make(n, dict(zip(basis, cvec)))
        assert c.split == classify_word_factorization(b, cs, w)[1]
        assert (c.b - b).sup_abs() <= 1e-10
        assert (c.c - cs).sup_abs() <= 1e-10


@pytest.mark.parametrize("n, restarts, seed", [
    pytest.param(2, 32, 7, id="seed7"),  # the run-all case: 22 near restarts, 10 far
    pytest.param(2, 32, 4, id="seed4"),  # its slowest near restart takes 8 sweeps
    pytest.param(3, 4, 0, id="n3"),  # every restart ends near
])
def test_stagnation_cut_leaves_near_runs_alone(n, restarts, seed):
    # with max_iter=20 the cut cannot fire, so near runs must come out the same
    w, degree, N = word(1, 2), 2, 5
    cut = search_ball_factorizations(w, degree, n, N, restarts=restarts, seed=seed)
    uncut = search_ball_factorizations(w, degree, n, N, restarts=restarts, seed=seed, max_iter=20)
    near = {c.restart: c for c in cut if c.residual <= 1e-6}
    near_uncut = {c.restart: c for c in uncut if c.residual <= 1e-6}
    assert near and sorted(near) == sorted(near_uncut)
    for r, c in near.items():
        ref = near_uncut[r]
        assert (c.iterations, c.split) == (ref.iterations, ref.split)
        assert c.b.coeffs == ref.b.coeffs and c.c.coeffs == ref.c.coeffs
    far = [c for c in cut if c.restart not in near]
    assert all(20 < c.iterations <= 25 for c in far)


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3]),
    degree=st.sampled_from([1, 2]),
    extra=st.integers(0, 2),
)
def test_weighted_coefficient_residual_is_frobenius_residual(seed, n, degree, extra):
    N = 2 * degree + extra
    rng = np.random.default_rng(seed)
    products = [t for k in range(2 * degree + 1) for t in enumerate_words(n, k)]
    w = products[rng.integers(len(products))]
    problem = _BallProblem(w, degree, n, N)
    m = len(problem.basis)
    b, c = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    B = C = 0
    for x, y, u in zip(b, c, problem.basis):
        mu = creation_op("left", u, n, N).dense()
        B, C = B + x * mu, C + y * mu
    assert np.array_equal(_compression(problem.basis, "left", n, N)(b), B)  # the scatter is exact
    want = np.linalg.norm(B @ C - creation_op("left", w, n, N).dense())
    assert abs(problem.residual(b, c) - want) <= 1e-12 * want


def _assert_sigma_is_svd(problem, vec, n, N):
    want = np.linalg.norm(_compression(problem.basis, "left", n, N)(vec), 2)
    assert abs(problem.sigma(vec) - want) <= 1e-12 * want + 1e-300


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 3]),
    degree=st.sampled_from([0, 1, 2]),
    extra=st.integers(0, 2),
    density=st.sampled_from([0.3, 1.0]),
)
def test_level_split_sigma_is_the_compression_norm(seed, n, degree, extra, density):
    N = 2 * degree + extra
    problem = _BallProblem(Word(), degree, n, N)
    rng = np.random.default_rng(seed)
    m = len(problem.basis)
    vec = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * (rng.random(m) < density)
    _assert_sigma_is_svd(problem, vec, n, N)


@pytest.mark.parametrize("n, degree, N", [(2, 0, 0), (1, 1, 2), (2, 2, 5), (3, 1, 3)])
def test_level_split_sigma_edge_vectors(n, degree, N):
    problem = _BallProblem(Word(), degree, n, N)
    m = len(problem.basis)
    top = len(problem.basis[-1])
    cases = [np.zeros(m, dtype=complex),
             np.eye(1, m, dtype=complex)[0] * (0.3 - 0.4j),  # on xi_0 only
             np.array([1.0 + 2j if len(u) == top else 0.0 for u in problem.basis])]
    for vec in cases:
        _assert_sigma_is_svd(problem, vec, n, N)


def test_search_at_level_zero():
    cands = search_ball_factorizations(Word(), 0, 2, 0, restarts=3, seed=1)
    assert len(cands) == 3
    for c in cands:
        assert c.residual <= 1e-12
        assert abs(c.b.coeff(Word()) * c.c.coeff(Word()) - 1) <= 1e-12


def test_search_validates_sizes():
    with pytest.raises(ValueError):
        search_ball_factorizations(word(1, 2, 1), 1, 2, 5)
    for restarts, max_iter in [(0, 300), (-1, 300), (4, 0)]:
        with pytest.raises(ValueError, match="restarts >= 1 and max_iter >= 1"):
            search_ball_factorizations(word(1, 2), 2, 2, 5, restarts=restarts, max_iter=max_iter)


def test_apply_series_rejects_matrix_backed_operator():
    X = op_from_matrix(L_op(1, N=4).dense(), 2, 4)
    with pytest.raises(ValueError, match="symbol-backed"):
        apply_series(harmonic_series(3), X)
