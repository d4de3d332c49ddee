"""Functional calculus on truncated operators and explicit factorizations.

Central construction: for an isometry X whose powers applied to another
isometry L have pairwise orthogonal ranges, a square-summable series h feeds
the operator

    h(X) L = sum_k h_k X^k L,

and the map h -> h(X) L is isometric.  With f the harmonic-coefficient series
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

from .fock import FockVector, inner
from .hardy import ScalarSeries
from .operators import (
    LEFT,
    FreeSeries,
    TruncOp,
    compose,
    contraction_status,
    creation_op,
    fourier_of,
    op_norm,
    series_to_op,
)
from .report import Report
from .words import BasisIndexer, Word, concat, enumerate_words

ORTHOGONALITY_TOL = 1e-10
ISOMETRY_TOL = 1e-9
PROBE_SEED = 11
REMARK_GRID = 512
REMARK_MODULUS_TOL = 1e-6


class CalculusContext:
    """Cache of powers X^0..X^K of a symbol-backed operator, used by series evaluation."""

    def __init__(self, X: TruncOp, K: int):
        X._require_symbol("series functional calculus")
        self.X = X
        self.K = K
        self._powers = [series_to_op(FreeSeries.one(X.n), X.n, X.N, side=X.side)]

    def power(self, k: int) -> TruncOp:
        if k < 0:
            raise ValueError("need k >= 0")
        while len(self._powers) <= k:
            self._powers.append(compose(self.X, self._powers[-1]))
        return self._powers[k]


def _require_contraction(X: TruncOp) -> None:
    """Raise when contraction_status refutes ||X|| <= 1, warn when it leaves it unchecked."""
    ok, reason = contraction_status(X)
    if ok is False:
        raise ValueError(f"operator has {reason}")
    if ok is None:
        warnings.warn(f"contraction unchecked: {reason}", RuntimeWarning, stacklevel=3)


def apply_series(h: ScalarSeries, X: TruncOp) -> TruncOp:
    """sum_{k<=K} h_k X^k for a symbol-backed contraction X.

    The frontier is the least frontier of the powers X^k that enter the sum.
    """
    ctx = CalculusContext(X, h.order)
    _require_contraction(X)
    acc = FreeSeries.zero(X.n)
    frontier = X.N
    for k in range(h.order + 1):
        c = h.coeff(k)
        if c != 0:
            acc = acc.add(ctx.power(k).symbol.scale(c))
            frontier = min(frontier, ctx.power(k).frontier)
    return TruncOp(X.n, X.N, symbol=acc, side=X.side, frontier=frontier)


def _probe_vectors(n: int, N: int, max_level: int) -> list[FockVector]:
    """Vacuum plus two random vectors supported on levels <= max_level."""
    probes = [FockVector.basis(n, N, Word())]
    level = max(0, max_level)
    rng = np.random.default_rng(PROBE_SEED)
    for _ in range(2):
        coeffs = {}
        for k in range(level + 1):
            for w in enumerate_words(n, k):
                coeffs[w] = complex(rng.standard_normal(), rng.standard_normal())
        nrm = math.sqrt(sum(abs(c) ** 2 for c in coeffs.values()))
        probes.append(FockVector.make(n, N, {w: c / nrm for w, c in coeffs.items()}))
    return probes


def check_isometric_on_frontier(X: TruncOp) -> None:
    if X.frontier < 0:
        raise ValueError("operator has empty exact region")
    for xi in _probe_vectors(X.n, X.N, min(X.frontier, 2)):
        if abs(X.apply(xi).norm() - xi.norm()) > ISOMETRY_TOL:
            raise ValueError("operator is not isometric on its exact region")


def h2_times_isometry(h: ScalarSeries, X: TruncOp, L: TruncOp) -> TruncOp:
    """sum_k h_k X^k L; isometric in h when the ranges of X^k L are orthogonal.

    The orthogonality hypothesis is checked on sampled probe vectors (the
    vacuum plus two random low-level vectors), which catches nested or
    overlapping ranges without an exhaustive pairwise sweep.
    """
    if not (X.is_symbolic and L.is_symbolic and X.side == L.side == LEFT):
        raise ValueError("series times isometry needs left-symbol operators")
    check_isometric_on_frontier(X)
    check_isometric_on_frontier(L)
    degs = max(1, X.symbol.degree())
    kchk = min(h.order, max(0, (X.N - L.symbol.degree()) // degs))
    probe_level = max(0, min(X.frontier, L.frontier, 2))
    for xi in _probe_vectors(X.n, X.N, probe_level):
        images = []
        y = L.apply(xi)
        for _ in range(kchk + 1):
            images.append(y)
            y = X.apply(y)
        for j in range(len(images)):
            for k in range(j + 1, len(images)):
                ov = abs(inner(images[j], images[k]))
                if ov > ORTHOGONALITY_TOL:
                    raise ValueError(f"ranges of X^{j} L and X^{k} L overlap (|<.,.>| = {ov:.3e})")
    acc = FreeSeries.zero(X.n)
    ctx = CalculusContext(X, h.order)
    for k in range(h.order + 1):
        c = h.coeff(k)
        if c != 0:
            term = ctx.power(k).symbol.mul(L.symbol, max_degree=X.N)
            acc = acc.add(term.scale(c))
    keff = max((k for k in range(h.order + 1) if h.coeff(k) != 0), default=0)
    frontier = max(X.N - (keff * X.symbol.degree() + L.symbol.degree()), -1)
    return TruncOp(X.n, X.N, symbol=acc, side=LEFT, frontier=frontier)


def verify_factorization(g: ScalarSeries, X: TruncOp, A: TruncOp, target: TruncOp,
                         depth: int, tol: float = 1e-9) -> Report:
    """Check g(X) A = target coefficientwise down to the given depth."""
    if depth > X.N:
        raise ValueError(f"depth {depth} exceeds truncation {X.N}")
    product = compose(apply_series(g, X), A)
    lhs = fourier_of(product, depth)
    rhs = fourier_of(target, depth)
    diff = lhs - rhs
    max_err = diff.sup_abs()
    worst = max(diff.coeffs, key=lambda w: abs(diff.coeffs[w]), default=Word())
    verdict = max_err <= tol
    return Report(
        name="verify-factorization",
        params={"n": X.n, "N": X.N, "depth": depth, "series_order": g.order},
        measurements={"max_coeff_error": max_err, "worst_word": str(worst)},
        verdict=verdict,
        tolerances={"max_coeff_error": tol},
        anchors=["coefficientwise identity g(X) A = target on words up to depth"],
    )


def range_orthogonality(X: TruncOp, Y: TruncOp, max_level: int | None = None) -> float:
    """max over exact-region basis pairs of |(X xi_a, Y xi_b)|."""
    X._same_space(Y)
    level = min(X.frontier, Y.frontier)
    if max_level is not None:
        level = min(level, max_level)
    if level < 0:
        return 0.0
    basis = [w for k in range(level + 1) for w in enumerate_words(X.n, k)]
    ximg = [X.apply(FockVector.basis(X.n, X.N, w)) for w in basis]
    yimg = [Y.apply(FockVector.basis(X.n, X.N, w)) for w in basis]
    worst = 0.0
    for xa in ximg:
        for yb in yimg:
            worst = max(worst, abs(inner(xa, yb)))
    return worst


def remark_pair(f: ScalarSeries, g: ScalarSeries, n: int = 2,
                N: int = 8) -> tuple[TruncOp, TruncOp]:
    """Isometry L = L1 f(L1) + L2 g(L1) and its range-orthogonal companion
    X = (beta L1 L2 - lambda alpha L2^2) / (|alpha|^2 + |beta|^2).

    Requires |f|^2 + |g|^2 = 1 on the circle; lambda in the unit circle is
    fixed by lambda alpha conj(beta) = conj(alpha) beta (lambda = 1 when
    alpha beta = 0).  X is a scalar multiple of an isometry; its compression
    norm (|alpha|^2 + |beta|^2)^{-1/2} is measured, never assumed to be 1.
    """
    theta = np.arange(REMARK_GRID) * (2.0 * math.pi / REMARK_GRID)
    z = np.exp(1j * theta)
    fv = np.array([f.evaluate(t) for t in z])
    gv = np.array([g.evaluate(t) for t in z])
    worst = float(np.max(np.abs(np.abs(fv) ** 2 + np.abs(gv) ** 2 - 1.0)))
    if worst > REMARK_MODULUS_TOL:
        raise ValueError(f"|f|^2 + |g|^2 deviates from 1 by {worst:.3e} on the circle")
    alpha = f.coeff(0)
    beta = g.coeff(0)
    if abs(alpha) < 1e-14 and abs(beta) < 1e-14:
        raise ValueError("f(0) and g(0) must not both vanish")
    lam = (alpha.conjugate() * beta) / (alpha * beta.conjugate()) if abs(alpha * beta) > 0 else 1.0 + 0.0j
    lcoeffs: dict[Word, complex] = {}
    for k in range(f.order + 1):
        if f.coeff(k) != 0:
            lcoeffs[Word((1,) * (k + 1))] = f.coeff(k)
    for k in range(g.order + 1):
        if g.coeff(k) != 0:
            lcoeffs[Word((2,) + (1,) * k)] = g.coeff(k)
    L = series_to_op(FreeSeries.make(n, lcoeffs), n, N)
    scale = 1.0 / (abs(alpha) ** 2 + abs(beta) ** 2)
    xcoeffs = {
        Word((1, 2)): scale * beta,
        Word((2, 2)): -scale * lam * alpha,
    }
    X = series_to_op(FreeSeries.make(n, xcoeffs), n, N)
    return L, X


def irreducibility_hypothesis(s: FreeSeries, i: int, form: str = "strict") -> bool:
    """Whether the coefficient mass on words ending in letter i sits on a
    single word: exactly z_i ("strict"), or any one word w z_i ("relaxed")."""
    if form not in ("strict", "relaxed"):
        raise ValueError(f"form must be 'strict' or 'relaxed', got {form!r}")
    if abs(s.l2_norm() - 1.0) > 1e-9:
        raise ValueError("series must have unit coefficient l2-norm")
    if s.coeff(Word()) != 0:
        raise ValueError("series must have vanishing constant coefficient")
    ending = [w for w in s.coeffs if len(w) > 0 and w[-1] == i]
    if len(ending) != 1:
        return False
    return ending[0] == Word((i,)) if form == "strict" else True


# -- unit-ball factor search ---------------------------------------------------


@dataclass
class FactorCandidate:
    """One local minimizer of || B C - L_w || with both factors in the ball."""

    b: FreeSeries
    c: FreeSeries
    residual: float
    manifold_distance: float
    split: tuple[Word, Word]
    phase: complex
    iterations: int
    restart: int


def factorization_residual(b: FreeSeries, c: FreeSeries, w: Word, n: int, N: int) -> float:
    """Compression norm of series_to_op(b) series_to_op(c) - L_w."""
    prod = compose(series_to_op(b, n, N), series_to_op(c, n, N))
    return op_norm(prod - creation_op(LEFT, w, n, N))


def classify_word_factorization(b: FreeSeries, c: FreeSeries, w: Word) -> tuple[float, tuple[Word, Word], complex]:
    """Distance from (b, c) to the family {(lambda L_u, conj(lambda) L_v) : uv = w}.

    Coefficient l2 metric; the unimodular phase is optimized in closed form
    per split: lambda = (b_u + conj(c_v)) normalized.
    """
    bsq = b.l2_norm() ** 2
    csq = c.l2_norm() ** 2
    best = None
    for cut in range(len(w) + 1):
        u = Word(w[:cut])
        v = Word(w[cut:])
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

    kernel[t, u, v] = sqrt(m_|t|) when uv = t: kernel @ c and b @ kernel are
    the weighted designs of b -> b*c and c -> b*c.  A vector's compression is
    a scatter of its coefficients (the P_N L_u P_N have disjoint 0/1 supports).
    """

    def __init__(self, w: Word, degree: int, n: int, N: int):
        root_m = [math.sqrt(sum(n**j for j in range(N - d + 1))) for d in range(2 * degree + 1)]
        self.basis = [u for k in range(degree + 1) for u in enumerate_words(n, k)]
        self.target = creation_op(LEFT, w, n, N).dense()
        supports = [np.flatnonzero(creation_op(LEFT, u, n, N).dense()) for u in self.basis]
        self._flat = np.concatenate(supports)
        self._owner = np.repeat(np.arange(len(supports)), [s.size for s in supports])
        products = BasisIndexer(n, 2 * degree)
        self.kernel = np.zeros((products.size, len(self.basis), len(self.basis)))
        for i, u in enumerate(self.basis):
            for j, v in enumerate(self.basis):
                self.kernel[products.index_of(concat(u, v)), i, j] = root_m[len(u) + len(v)]
        self.wtarget = np.zeros(products.size, dtype=complex)
        self.wtarget[products.index_of(w)] = root_m[len(w)]

    def matrix(self, vec: np.ndarray) -> np.ndarray:
        out = np.zeros(self.target.size, dtype=complex)
        out[self._flat] = vec[self._owner]
        return out.reshape(self.target.shape)

    def sigma(self, vec: np.ndarray) -> float:
        return float(np.linalg.norm(self.matrix(vec), 2))

    def project(self, vec: np.ndarray) -> np.ndarray:
        """Spectral scaling onto the unit ball: divide by sigma_max when > 1."""
        sigma = self.sigma(vec)
        return vec / sigma if sigma > 1.0 else vec

    def residual(self, b: np.ndarray, c: np.ndarray) -> float:
        """||P_N (B C - L_w) P_N||_F, from the coefficients alone."""
        return float(np.linalg.norm(self.kernel @ c @ b - self.wtarget))


def search_ball_factorizations(w: Word, degree: int, n: int, N: int,
                               restarts: int = 32, seed: int = 0,
                               max_iter: int = 300) -> list[FactorCandidate]:
    """Alternating least squares over coefficient polynomials of bounded degree,
    with spectral-norm projection keeping both factors in the unit ball.

    Left creation operators never lower the level, so P_N B (I - P_N) = 0 and
    compressions compose exactly; the P_N L_t P_N of distinct words t are
    Frobenius-orthogonal with squared norm m_|t|, m_d = sum_{j=0}^{N-d} n^j.
    So ||P_N (B C - L_w) P_N||_F^2 = sum_t m_|t| |(b*c)_t - delta_{t,w}|^2, and
    each half-step is a linear least-squares problem in one factor's
    coefficients with one row per product word, weighted by sqrt(m_|t|).  The
    convergence test reads that residual; spectral norms are taken on the
    full compressions.  When the updated factor is projected (divided by its
    sigma_max), the discarded scale is carried into the other factor; the
    product is invariant under (tB, C/t), so the carry keeps the objective
    monotone where a bare projection stalls.  After 80 sweeps a run stops as
    soon as the last 40 sweeps fail to halve the residual: a converging run
    halves it well within 40 sweeps, while runs that end far from L_w sit in
    a swamp where it decays like 1/k, and (k - 40)/k >= 1/2 for every k >= 80
    cuts them at the first check.  Both factors are projected once
    more at the end, so every reported candidate is feasible.  Restarts use
    independently derived seeds, making the output deterministic for a given
    (seed, restarts) regardless of scheduling.
    """
    if not len(w) <= 2 * degree <= N:
        raise ValueError("need |w| <= 2*degree <= N")
    problem = _BallProblem(w, degree, n, N)
    basis = problem.basis
    m = len(basis)
    out: list[FactorCandidate] = []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        bvec = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2 * m)
        cvec = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2 * m)
        bvec = problem.project(bvec)
        cvec = problem.project(cvec)
        history: list[float] = []
        iters = 0
        for it in range(max_iter):
            iters = it + 1
            bvec = np.linalg.lstsq(problem.kernel @ cvec, problem.wtarget, rcond=None)[0]
            sb = problem.sigma(bvec)
            if sb > 1.0:
                bvec /= sb
                cvec *= sb
            cvec = np.linalg.lstsq(bvec @ problem.kernel, problem.wtarget, rcond=None)[0]
            sc = problem.sigma(cvec)
            if sc > 1.0:
                cvec /= sc
                bvec = bvec * sc
            res = problem.residual(bvec, cvec)
            history.append(res)
            if res < 1e-13:
                break
            # a converging run halves its residual well within 40 sweeps; a
            # swamp decaying like 1/k does not, as (k - 40)/k >= 1/2 for k >= 80
            if it >= 80 and res > 0.5 * history[-40]:
                break
        # rebalance the (tB, C/t) gauge before the final feasibility projection
        # so the projection is as close to lossless as the product allows
        sb = problem.sigma(bvec)
        sc = problem.sigma(cvec)
        if sb > 0 and sc > 0:
            t = math.sqrt(sb / sc)
            bvec = bvec / t
            cvec = cvec * t
        bvec = problem.project(bvec)
        cvec = problem.project(cvec)
        bser = FreeSeries.make(n, dict(zip(basis, bvec)))
        cser = FreeSeries.make(n, dict(zip(basis, cvec)))
        residual = float(np.linalg.norm(problem.matrix(bvec) @ problem.matrix(cvec) - problem.target, 2))
        dist, split, lam = classify_word_factorization(bser, cser, w)
        out.append(FactorCandidate(bser, cser, residual, dist, split, lam, iters, r))
    out.sort(key=lambda cand: cand.residual)
    return out
