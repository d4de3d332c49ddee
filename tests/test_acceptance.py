"""Acceptance suite: one test per criterion, each at its stated tolerance and
runtime budget, printing a PASS line when it holds."""

import math
import time

import numpy as np
import pytest

from conftest import random_series
from fockalg import experiments as E
from fockalg.calculus import classify_word_factorization, factorization_residual, search_ball_factorizations
from fockalg.fock import FockVector
from fockalg.hardy import boundary_modulus, circle_grid, harmonic_series, partial_sum_sup, reciprocal
from fockalg.operators import (
    FreeSeries,
    commutant_residual,
    creation_op,
    decompose_at,
    op_from_matrix,
    op_norm,
    series_to_op,
)
from fockalg.words import BasisIndexer, Word, concat, word


def announce(idx, desc, t0, budget):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {idx} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {idx} {desc}: PASS ({elapsed:.2f}s)")


def test_criterion_1_graded_decomposition():
    t0 = time.time()
    rng = np.random.default_rng(101)
    for trial in range(200):
        n = int(rng.integers(1, 4))
        s = random_series(rng, n, 5, 8)
        k = int(rng.integers(1, 5))
        scalars, corners = decompose_at(s, k)
        coeffs = dict(scalars)
        for w, Xw in corners.items():
            for v, c in Xw.coeffs.items():
                t = concat(w, v)
                coeffs[t] = coeffs.get(t, 0) + c
        rebuilt = FreeSeries.make(n, coeffs)
        assert (rebuilt - s).sup_abs() <= 1e-12
    announce(1, "graded decomposition reconstruction", t0, 5.0)


def test_criterion_2_commutant():
    t0 = time.time()
    rng = np.random.default_rng(202)
    n, N = 2, 6
    for _ in range(100):
        s = random_series(rng, n, 3, 6)
        assert commutant_residual(series_to_op(s, n, N)) <= 1e-12
    idx = BasisIndexer(n, N)
    for _ in range(100):
        m = rng.standard_normal((idx.size, idx.size)) + 1j * rng.standard_normal((idx.size, idx.size))
        m /= np.linalg.norm(m, 2)
        assert commutant_residual(op_from_matrix(m, n, N)) > 1e-3
    announce(2, "commutant residual separates symbols", t0, 30.0)


def test_criterion_3_harmonic_function_numerics():
    t0 = time.time()
    K = 1024
    f = harmonic_series(K)
    g = reciprocal(f, K)
    prod = np.convolve(np.asarray(f.coeffs), np.asarray(g.coeffs))[: K + 1]
    target = np.zeros(K + 1)
    target[0] = 1.0
    assert np.max(np.abs(prod - target)) <= 1e-12

    r = 1.0 - 1e-6
    worst = 0.0
    for theta in circle_grid(1024, guard=0.05):
        z = r * np.exp(1j * theta)
        direct = abs(-np.log(1.0 - z) / z)
        worst = max(worst, abs(direct - boundary_modulus(theta)))
    assert worst <= 1e-3

    min_sq = min(boundary_modulus(theta) ** 2 for theta in circle_grid(1024, guard=0.05))
    assert min_sq >= (math.log(2)) ** 2 / 4.0
    announce(3, "reciprocal/boundary-modulus numerics", t0, 10.0)


def test_criterion_4_factorization():
    t0 = time.time()
    rep = E.exp_factor_generator(K=64, N=66)
    assert rep.verdict
    assert rep.measurements["max_coeff_error"] <= 1e-9
    announce(4, "reciprocal-series factorization of a letter", t0, 10.0)


def test_criterion_5_adjoint_decay():
    t0 = time.time()
    for lam in (0.3, 0.5, 0.9):
        rep = E.exp_adjoint_decay(lam=lam, kmax=200)
        assert rep.measurements["max_bound_violation"] <= 1e-12
        assert rep.measurements["final_orbit_max"] < 1e-3
        assert rep.measurements["vacuum_orbit_vs_lam_pow"] <= 1e-12
        assert rep.verdict
    announce(5, "adjoint-power orbit decay and bound", t0, 5.0)


def brute_level_block_rank(symbol, n, N, k):
    """Independent rank oracle: build P_k L P_{<k} by direct word mapping."""
    idx = BasisIndexer(n, N)
    rows = [w for w in idx.words() if len(w) == k]
    cols = [w for w in idx.words() if len(w) < k]
    rindex = {w: i for i, w in enumerate(rows)}
    m = np.zeros((len(rows), len(cols)), dtype=complex)
    for j, v in enumerate(cols):
        for u, a in symbol.coeffs.items():
            t = Word(tuple(u) + tuple(v))  # u may be a plain bytes key
            if len(t) == k:
                m[rindex[t], j] += a
    return int(np.linalg.matrix_rank(m, tol=1e-9))


def test_criterion_6_codimension_counts():
    t0 = time.time()
    n, N = 2, 5
    rep = E.exp_codim_counts(N=N)
    dims = [row["complement"] for row in rep.measurements["levels"]]
    assert dims == [1, 1, 2, 4, 8]
    symbol = FreeSeries.delta(n, word(1))
    for row in rep.measurements["levels"][1:]:
        k = row["k"]
        oracle = n**k - brute_level_block_rank(symbol, n, N, k)
        assert row["complement"] == oracle
        assert row["complement"] >= n**k - (n**k - 1) // (n - 1)
    announce(6, "level codimension counts", t0, 5.0)


def test_criterion_7_thin_isometry():
    t0 = time.time()
    rep = E.exp_thin_isometry(kmax=2, N=7)
    assert rep.verdict
    assert rep.measurements["recovery_max_error"] <= 1e-12
    assert rep.measurements["gram_rank"] == 7
    announce(7, "thin-vector recovery and span", t0, 5.0)


def test_criterion_8_ideal_counterexample():
    t0 = time.time()
    rep = E.exp_ideal_counterexample()
    assert rep.verdict
    assert rep.measurements["identity_max_error"] <= 1e-12
    assert rep.measurements["growth_ratio"] > 2.0
    announce(8, "left-ideal compression identity and growth", t0, 20.0)


def test_criterion_9_ball_search():
    t0 = time.time()
    cands = search_ball_factorizations(word(1, 2), 2, 2, 5, restarts=32, seed=7)
    near = [c for c in cands if c.residual <= 1e-6]
    assert near
    for c in near:
        assert c.manifold_distance <= 1e-3
        u, v = c.split
        assert Word(u.letters + v.letters) == word(1, 2)
    # the run-all trajectories: which restarts end near, after how many sweeps, at which splits
    assert {c.restart: c.iterations for c in near} == {
        2: 5, 3: 4, 4: 3, 5: 6, 6: 3, 11: 4, 13: 5, 16: 4, 18: 5, 19: 3, 20: 4,
        21: 3, 22: 4, 23: 4, 24: 3, 25: 6, 26: 3, 27: 3, 28: 3, 29: 4, 30: 4, 31: 3}
    assert {f"{c.split[0]}|{c.split[1]}" for c in near} == {"z1 z2|", "|z1 z2"}

    n, N, K = 2, 8, 64
    g = reciprocal(harmonic_series(K), K)
    b = FreeSeries.make(n, {Word((1,) * k): g.coeff(k) for k in range(N + 1) if g.coeff(k) != 0})
    c = FreeSeries.make(n, {Word((1,) * k + (2,)): 1.0 / (k + 1) for k in range(N)})
    assert factorization_residual(b, c, word(2), n, N) <= 1e-9
    announce(9, "unit-ball factor search and norm-free witness", t0, 120.0)


def test_criterion_10_eigenvectors():
    t0 = time.time()
    rng = np.random.default_rng(310)
    n, N = 2, 12
    for _ in range(20):
        raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lam = tuple(raw / np.linalg.norm(raw) * 0.9 * rng.uniform(0.2, 1.0))
        rep = E.exp_eigenvector(lam_tuple=lam, n=n, N=N)
        assert rep.measurements["eigen_residual"] <= 1e-12
    announce(10, "right-adjoint eigenvector residuals", t0, 5.0)


def test_criterion_11_run_all_determinism(tmp_path):
    t0 = time.time()
    d1, d2 = tmp_path / "a", tmp_path / "b"
    E.run_all(seed=7, out_dir=d1)
    E.run_all(seed=7, out_dir=d2)
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    announce(11, "run-all determinism", t0, 300.0)
