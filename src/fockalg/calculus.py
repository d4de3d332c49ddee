"""Functional calculus on truncated operators and explicit factorizations.

Central construction: for an isometry X whose powers applied to another
isometry L have pairwise orthogonal ranges, a square-summable series h feeds
the operator

    h(X) L = sum_k h_k X^k L,

and the map h -> h(X) L is isometric.  Both hypotheses are checked exactly,
on the coefficients of the Gram symbols X* X, L* L and L* X^d L
(operators.gram), not on sample vectors.  One power-series path builds
sum_k h_k X^k: apply_series returns it, and h2_times_isometry composes it
with L.  With f the harmonic-coefficient series
and g its reciprocal, g(X) (f(X) L) = L coefficientwise, which exhibits
nontrivial factorizations of single-letter isometries.  The unit-ball picture
is the opposite: a word isometry L_w only factors as the word splits, which
the alternating least-squares search here corroborates numerically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hardy import ScalarSeries
from .operators import (
    LEFT,
    FreeSeries,
    TruncOp,
    compose,
    contraction_status,
    fourier_of,
    gram,
    level_split_sigma,
    op_norm,
    series_to_op,
)
from .report import Report
from .words import BasisIndexer, Word, _derived, check_size

ORTHOGONALITY_TOL = 1e-10
ISOMETRY_TOL = 1e-9


def _require_contraction(X: TruncOp) -> None:
    """Raise when contraction_status refutes ||X|| <= 1, warn when it leaves it unchecked."""
    ok, reason = contraction_status(X)
    if ok is False:
        raise ValueError(f"operator has {reason}")
    if ok is None:
        warnings.warn(f"contraction unchecked: {reason}", RuntimeWarning, stacklevel=3)


def _power_series(h: ScalarSeries, X: TruncOp) -> TruncOp:
    """sum_{k<=K} h_k X^k; the frontier is the least frontier of the powers
    X^k that enter the sum."""
    acc = FreeSeries.zero(X.n)
    frontier = X.N
    power = series_to_op(FreeSeries.one(X.n), X.n, X.N, side=X.side)
    for k in range(h.degree() + 1):
        if k:
            power = compose(X, power)
        c = h.coeff(k)
        if c != 0:
            acc = acc.add(power.symbol.scale(c))
            frontier = min(frontier, power.frontier)
    return TruncOp(X.n, X.N, symbol=acc, side=X.side, frontier=frontier)


def apply_series(h: ScalarSeries, X: TruncOp) -> TruncOp:
    """sum_{k<=K} h_k X^k for a contraction X."""
    _require_contraction(X)
    return _power_series(h, X)


def _largest(g: dict[tuple[bytes, bool], complex]) -> float:
    """Largest |coefficient| of a gram map."""
    return max(map(abs, g.values()), default=0.0)


def check_isometric_on_frontier(X: TruncOp) -> None:
    """Raise ValueError unless X* X = I, coefficient by coefficient of
    gram(X, X) within ISOMETRY_TOL; then X is isometric on its exact region
    at every truncation."""
    if X.frontier < 0:
        raise ValueError("operator has empty exact region")
    g = gram(X.symbol, X.symbol, X.side)
    one = (Word(), False)
    g[one] = g.get(one, 0.0) - 1.0
    worst = _largest(g)
    if worst > ISOMETRY_TOL:
        raise ValueError(f"operator is not an isometry (|X* X - I| has a coefficient {worst:.3e})")


def h2_times_isometry(h: ScalarSeries, X: TruncOp, L: TruncOp) -> TruncOp:
    """sum_k h_k X^k L; isometric in h when the ranges of X^k L are orthogonal.

    Both hypotheses are exact Gram checks on the symbols.  X and L must be
    isometries (check_isometric_on_frontier); then (X^j L)* X^k L = L* X^(k-j) L,
    so the ranges of the X^k L whose symbols fit in the truncation are pairwise
    orthogonal once gram(L, X^d L) vanishes for each of those d >= 1.  The
    product is compose(h(X), L), whose frontier is N - deg h deg X - deg L.
    """
    X._same_space(L)
    if not X.side == L.side == LEFT:
        raise ValueError("series times isometry needs left symbol-backed operators")
    check_isometric_on_frontier(X)
    check_isometric_on_frontier(L)
    kchk = min(h.order, max(0, (X.N - L.symbol.degree()) // max(1, X.symbol.degree())))
    term = L.symbol
    for k in range(1, kchk + 1):
        term = X.symbol.mul(term, max_degree=X.N)
        ov = _largest(gram(L.symbol, term, LEFT))
        if ov > ORTHOGONALITY_TOL:
            raise ValueError(f"ranges of L and X^{k} L overlap "
                             f"(L* X^{k} L has a coefficient {ov:.3e})")
    return compose(_power_series(h, X), L)


def verify_factorization(g: ScalarSeries, X: TruncOp, A: TruncOp, target: TruncOp,
                         depth: int, tol: float = 1e-9) -> Report:
    """Check g(X) A = target coefficientwise down to the given depth."""
    if depth > X.N:
        raise ValueError(f"depth {depth} exceeds truncation {X.N}")
    product = compose(apply_series(g, X), A)
    diff = fourier_of(product, depth) - fourier_of(target, depth)
    max_err = diff.sup_abs()
    worst = _derived(max(diff.coeffs, key=lambda w: abs(diff.coeffs[w]), default=b""))
    verdict = max_err <= tol
    return Report(
        name="verify-factorization",
        params={"n": X.n, "N": X.N, "depth": depth, "series_order": g.order},
        measurements={"max_coeff_error": max_err, "worst_word": str(worst)},
        verdict=verdict,
        tolerances={"max_coeff_error": tol},
        anchors=["coefficientwise identity g(X) A = target on words up to depth"],
    )


# -- unit-ball factor search ---------------------------------------------------


@dataclass
class FactorCandidate:
    """One local minimizer of || B C - L_w || with both factors in the ball;
    compression_norm is the larger factor's, measured on the reported factors
    with the search's own sigma plan (the last two of a restart's four sigma)."""

    b: FreeSeries
    c: FreeSeries
    residual: float
    compression_norm: float
    manifold_distance: float
    split: tuple[Word, Word]
    iterations: int
    restart: int


def factorization_residual(b: FreeSeries, c: FreeSeries, w: Word, n: int, N: int) -> float:
    """Compression norm of B C - L_w on F^2_N: one operator, of the symbol b*c - delta_w."""
    return op_norm(series_to_op(b.mul(c, max_degree=N) - FreeSeries.delta(n, w), n, N))


def classify_word_factorization(b: FreeSeries, c: FreeSeries, w: Word) -> tuple[float, tuple[Word, Word], complex]:
    """Distance from (b, c) to the family {(lambda L_u, conj(lambda) L_v) : uv = w}.

    Coefficient l2 metric; the unimodular phase is optimized in closed form
    per split: lambda = (b_u + conj(c_v)) normalized.
    """
    bsq = b.l2_norm() ** 2
    csq = c.l2_norm() ** 2
    best = None
    for cut in range(len(w) + 1):
        u = _derived(w[:cut])
        v = _derived(w[cut:])
        bu = b.coeff(u)
        cv = c.coeff(v)
        s = bu + cv.conjugate()
        lam = s / abs(s) if abs(s) > 0 else 1.0 + 0.0j
        d2 = (bsq - abs(bu) ** 2) + abs(bu - lam) ** 2
        d2 += (csq - abs(cv) ** 2) + abs(cv - lam.conjugate()) ** 2
        if best is None or d2 < best[0]:
            best = (d2, (u, v), lam)
    d2, split, lam = best
    return math.sqrt(max(d2, 0.0)), split, lam


class _BallProblem:
    """B C = L_w over coefficient vectors indexed by the words |u| <= degree.

    kernel[t, u, v] = sqrt(m_|t|) when uv = t, stored complex as the vectors it
    multiplies: kernel @ c and b @ kernel are the weighted designs of b -> b*c
    and c -> b*c.  Its P m^2 entries (P product words, m factor words) answer
    to the basis cap before anything is planned or allocated.  ``sigma`` is the
    exact sigma_max of a vector's compression on F^2_N (operators.level_split_sigma).
    """

    def __init__(self, w: Word, degree: int, n: int, N: int):
        root_m = [math.sqrt(sum(n**j for j in range(N - d + 1))) for d in range(2 * degree + 1)]
        products, factors = BasisIndexer(n, 2 * degree), BasisIndexer(n, degree)
        entries = products.size * factors.size**2
        check_size(f"the search kernel at degree {degree}, n={n} ({entries} entries)", entries)
        self.basis = list(factors.words())
        self.sigma = level_split_sigma(self.basis, LEFT, n, N)
        self.kernel = np.zeros((products.size, len(self.basis), len(self.basis)), dtype=complex)
        for i, u in enumerate(self.basis):
            for j, v in enumerate(self.basis):
                self.kernel[products.index_of(u + v), i, j] = root_m[len(u) + len(v)]
        self.wtarget = np.zeros(products.size, dtype=complex)
        self.wtarget[products.index_of(w)] = root_m[len(w)]

    def sweep(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One ALS sweep from c: b solved against c, then c against that b."""
        b = np.linalg.lstsq(self.kernel @ c, self.wtarget, rcond=None)[0]
        return b, np.linalg.lstsq(b @ self.kernel, self.wtarget, rcond=None)[0]

    def residual(self, b: np.ndarray, c: np.ndarray) -> float:
        """||P_N (B C - L_w) P_N||_F, from the coefficients alone."""
        return float(np.linalg.norm(self.kernel @ c @ b - self.wtarget))


def search_ball_factorizations(w: Word, degree: int, n: int, N: int,
                               restarts: int = 32, seed: int = 0,
                               max_iter: int = 300) -> list[FactorCandidate]:
    """Alternating least squares over coefficient polynomials of bounded degree,
    with the factors balanced and projected into the unit ball at the end, for
    |w| <= 2*degree <= N and w nonempty at degree >= 1 (L_w = I factors only
    into unimodular scalars, which the sweeps reach at degree 0 alone).

    Left creation operators never lower the level, so P_N B (I - P_N) = 0 and
    compressions compose exactly; the P_N L_t P_N of distinct words t are
    Frobenius-orthogonal with squared norm m_|t|, m_d = sum_{j=0}^{N-d} n^j.
    So ||P_N (B C - L_w) P_N||_F^2 = sum_t m_|t| |(b*c)_t - delta_{t,w}|^2, and
    each half-step is a linear least-squares problem in one factor's
    coefficients with one row per product word, weighted by sqrt(m_|t|).  The
    convergence test reads that residual.  The sweeps read only the product
    b*c, and least squares is homogeneous: a sweep from t*c gives b/t and t
    times the c a sweep from c gives, so the same product, for every t > 0.
    Projecting a factor into the ball between half-steps, with its scale
    carried into the other, would only move the pair along the gauge
    (tB, C/t), so the sweeps take no sigma.  After 20 sweeps a run stops as
    soon as the last 10 sweeps fail to halve the residual: a converging run
    halves it well within 10 sweeps, while runs that end far from L_w sit in
    a swamp where it decays like 1/k, and (k - W)/k >= 1/2 for a window of W
    sweeps once k >= 2W, so W = 10 cuts them at the first check, at sweep 21.
    Each restart then takes
    four sigma, exact from the level split (operators.level_split_sigma): two
    fix the gauge balance and projection into the ball by homogeneity, and
    two measure the reported factors for compression_norm.  The final residual
    (factorization_residual) is exact by the same split.  Restarts use
    independently derived seeds, making the output deterministic for a given
    (seed, restarts) regardless of scheduling.  Candidates come back in restart
    order, not by residual: a near candidate's residual is rounding noise, so a
    one-ulp change in any sigma could reorder them.
    """
    if not w and degree >= 1:
        raise ValueError("need a nonempty word w, got '': L_w = I factors only into unimodular "
                         "scalars, which the search does not reach")
    if not len(w) <= 2 * degree <= N:
        raise ValueError(f"need |w| <= 2*degree <= N, got |w|={len(w)}, degree={degree}, N={N}")
    if restarts < 1:
        raise ValueError(f"need restarts >= 1, got {restarts}")
    check_size(f"restarts={restarts}", restarts)  # one candidate is kept per restart
    if max_iter < 1:
        raise ValueError(f"need max_iter >= 1, got {max_iter}")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    problem = _BallProblem(w, degree, n, N)
    basis = problem.basis
    m = len(basis)
    out: list[FactorCandidate] = []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        rng.standard_normal(2 * m)  # b's start: the first sweep solves for b, so it is only drawn
        cvec = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2 * m)
        history: list[float] = []  # one residual per sweep
        for it in range(max_iter):
            bvec, cvec = problem.sweep(cvec)
            res = problem.residual(bvec, cvec)
            history.append(res)
            if res < 1e-13:
                break
            # a converging run halves its residual well within 10 sweeps; a
            # swamp decaying like 1/k does not, as (k - 10)/k >= 1/2 for k >= 20
            if it >= 20 and res > 0.5 * history[-10]:
                break
        # The (tB, C/t) gauge gives both factors s = sqrt(sigma_b sigma_c), so
        # dividing by max(1, s) projects them as losslessly as the product
        # allows.  With a zero factor, both are already in the ball.
        sb, sc = problem.sigma(bvec), problem.sigma(cvec)
        if sb > 0 and sc > 0:
            t, s = math.sqrt(sb / sc), max(1.0, math.sqrt(sb * sc))
            bvec, cvec = bvec / (t * s), cvec * (t / s)
        norm = max(problem.sigma(bvec), problem.sigma(cvec))
        bser = FreeSeries.make(n, dict(zip(basis, bvec)))
        cser = FreeSeries.make(n, dict(zip(basis, cvec)))
        residual = factorization_residual(bser, cser, w, n, N)
        dist, split, _ = classify_word_factorization(bser, cser, w)
        out.append(FactorCandidate(bser, cser, residual, norm, dist, split, len(history), r))
    return out
