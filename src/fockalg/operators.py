"""Truncated operators on the Fock basis.

An element of the left algebra is determined by its noncommutative symbol
sum_w a_w L_w (the Fourier coefficients a_w = (X xi_1, xi_w)).  Operators are
realized on the basis {xi_w : |w| <= N} in one of two ways:

* symbol-backed: the symbol is kept and columns are produced lazily by word
  concatenation; this works at any truncation level, including ones whose
  basis could never be materialized,
* matrix-backed: an explicit (dense or sparse) compression matrix, for
  operators that are not given by a symbol.  Such an operator is measured
  only by norms and the commutant; it is not applied to vectors, composed,
  added or scaled.

Every operator carries its exactness frontier: the largest level m such that
the action on vectors supported in levels <= m agrees with the untruncated
operator.  Identities are only asserted on that region, since overflow past
level N silently corrupts products and adjoints outside it.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fock import FockVector, FreeSeries, _convolve
from .words import (BasisCapExceeded, BasisIndexer, Word, _derived, enumerate_words, strip_prefix,
                    strip_suffix)

DENSE_CAP = 4096
RANK_FLOOR = 1e-12
CONTRACTION_TOL = 1e-9

LEFT = "left"
RIGHT = "right"


class TruncOp:
    """Operator on the truncated basis, symbol-backed or matrix-backed."""

    def __init__(self, n: int, N: int, *, symbol: Optional[FreeSeries] = None,
                 side: Optional[str] = None, matrix=None, frontier: Optional[int] = None):
        if (symbol is None) == (matrix is None):
            raise ValueError("exactly one of symbol or matrix must be given")
        if symbol is not None and side not in (LEFT, RIGHT):
            raise ValueError("symbol-backed operator needs side 'left' or 'right'")
        if symbol is not None and (symbol.n, symbol.N) != (n, None):
            raise ValueError(f"symbol must be a series on the operator's alphabet {n}")
        self.n = n
        self.N = N
        self.symbol = symbol
        self.side = side if symbol is not None else None
        self._matrix = matrix
        self._norm: Optional[float] = None
        if frontier is None:
            frontier = N - symbol.degree() if symbol is not None else N
        self.frontier = min(frontier, N)
        self._indexer: Optional[BasisIndexer] = None

    # -- representation ----------------------------------------------------

    @property
    def is_symbolic(self) -> bool:
        return self.symbol is not None

    def indexer(self) -> BasisIndexer:
        if self._indexer is None:
            self._indexer = BasisIndexer(self.n, self.N)
        return self._indexer

    @property
    def matrix(self):
        """Compression matrix; materialized on first use (may hit the basis cap)."""
        if self._matrix is None:
            self._matrix = _materialize(self.symbol, self.side, self.n, self.N, self.indexer())
        return self._matrix

    def dense(self) -> np.ndarray:
        m = self.matrix
        if sp.issparse(m):
            if m.shape[0] > DENSE_CAP:
                raise BasisCapExceeded(
                    f"dense diagnostics limited to basis <= {DENSE_CAP}, have {m.shape[0]}"
                )
            return m.toarray()
        return m

    def _require_symbol(self, what: str) -> None:
        if not self.is_symbolic:
            raise ValueError(f"{what} needs a symbol-backed operator; "
                             "matrix-backed operators are only measured")

    # -- vector action ------------------------------------------------------

    def _check_vector(self, xi: FockVector) -> None:
        if (xi.n, xi.N) != (self.n, self.N):
            raise ValueError("vector lives in a different truncated space")
        self._require_symbol("vector action")

    def apply(self, xi: FockVector) -> FockVector:
        self._check_vector(xi)
        s = self.symbol.coeffs
        out = _convolve(s, xi.coeffs, self.N) if self.side == LEFT else _convolve(xi.coeffs, s, self.N)
        return xi._like(out)

    def apply_adjoint(self, xi: FockVector) -> FockVector:
        self._check_vector(xi)
        # L_w* xi_v = xi_t when v = wt (R_w* xi_v = xi_t when v = tw).  For a
        # fixed v each length of w gives at most one match, so the symbol is
        # grouped by length and each v costs one slice and lookup per length.
        # The matches are summed in symbol order, the order of a loop over w.
        by_length: dict[int, dict[Word, tuple[int, complex]]] = {}
        for i, (w, a) in enumerate(self.symbol.coeffs.items()):
            by_length.setdefault(len(w), {})[w] = (i, a.conjugate())
        lengths = sorted(by_length.items())
        left = self.side == LEFT
        out: dict[Word, complex] = {}
        for v, c in xi.coeffs.items():
            m = len(v)
            hits = []
            for k, terms in lengths:
                if k > m:
                    break
                hit = terms.get(v[:k] if left else v[m - k:])
                if hit is not None:
                    hits.append((hit, k))
            hits.sort()
            for (_, a_conj), k in hits:
                t = _derived(v[k:] if left else v[:m - k])
                out[t] = out.get(t, 0.0) + a_conj * c
        return xi._like(out)

    # -- arithmetic ----------------------------------------------------------

    def _same_space(self, other: "TruncOp") -> None:
        if (self.n, self.N) != (other.n, other.N):
            raise ValueError("operator truncations do not match")

    def __add__(self, other: "TruncOp") -> "TruncOp":
        self._same_space(other)
        if not (self.is_symbolic and other.is_symbolic and self.side == other.side):
            raise ValueError("addition needs symbol-backed operators on the same side")
        return TruncOp(self.n, self.N, symbol=self.symbol.add(other.symbol), side=self.side,
                       frontier=min(self.frontier, other.frontier))

    def __sub__(self, other: "TruncOp") -> "TruncOp":
        return self + other.scale(-1.0)

    def scale(self, a: complex) -> "TruncOp":
        self._require_symbol("scaling")
        return TruncOp(self.n, self.N, symbol=self.symbol.scale(a), side=self.side,
                       frontier=self.frontier)


def _materialize(symbol: FreeSeries, side: str, n: int, N: int, idx: BasisIndexer):
    size = idx.size
    off = np.array([idx.level_offset(k) for k in range(N + 2)])
    level = np.repeat(np.arange(N + 1), np.diff(off))
    r = np.arange(size) - off[level]  # rank of each column inside its level
    rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0, complex)]
    for w, a in symbol.coeffs.items():
        d = len(w)
        if d > N:
            continue  # every column overflows
        rank = idx.index_of(w) - idx.level_offset(d)
        # columns at levels > N - d overflow and stay zero
        width = off[N - d + 1]
        k, rk = level[:width], r[:width]
        rows.append(off[k + d] + (rank * n**k + rk if side == LEFT else rk * n**d + rank))
        cols.append(np.arange(width))
        vals.append(np.full(width, a, dtype=complex))
    if size <= DENSE_CAP:
        m = np.zeros((size, size), dtype=complex)
        for i, j, v in zip(rows, cols, vals):
            m[i, j] += v
        return m
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(size, size), dtype=complex)


# -- constructors ------------------------------------------------------------


def creation_op(side: str, w: Word, n: int, N: int) -> TruncOp:
    """L_w (xi_v -> xi_{wv}) or R_w (xi_v -> xi_{vw}); overflow past level N drops."""
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if len(w) > N:
        raise ValueError(f"|w| = {len(w)} exceeds truncation {N}")
    return TruncOp(n, N, symbol=FreeSeries.delta(n, w), side=side)


def series_to_op(s: FreeSeries, n: int, N: int, side: str = LEFT) -> TruncOp:
    """Realize the symbol s on the truncated basis; frontier = N - deg(s)."""
    if s.degree() > N:
        raise ValueError(f"symbol degree {s.degree()} exceeds truncation {N}")
    return TruncOp(n, N, symbol=s, side=side)


def op_from_matrix(matrix, n: int, N: int) -> TruncOp:
    return TruncOp(n, N, matrix=matrix)


# -- Fourier data -------------------------------------------------------------


def fourier_of(X: TruncOp, depth: int) -> FreeSeries:
    """Coefficients a_w = (X xi_1, xi_w) for |w| <= depth."""
    if depth > X.N:
        raise ValueError(f"depth {depth} exceeds truncation {X.N}")
    X._require_symbol("Fourier data")
    return X.symbol.truncate(depth)


def decompose_at(s: FreeSeries, k: int) -> tuple[dict[Word, complex], dict[Word, FreeSeries]]:
    """Graded splitting at level k.

    Returns the scalars {a_w : |w| < k} and the corner series {X_w : |w| = k}
    with (X_w)_v = a_{wv}, so that sum_{|w|<k} a_w L_w + sum_{|w|=k} L_w X_w
    rebuilds s exactly (words partition by their length-k prefix).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    scalars: dict[Word, complex] = {}
    corner_coeffs: dict[Word, dict[Word, complex]] = {w: {} for w in enumerate_words(s.n, k)}
    for t, a in s.coeffs.items():
        if len(t) < k:
            scalars[t] = a
        else:
            w = Word(t[:k])
            v = Word(t[k:])
            corner_coeffs[w][v] = a
    corners = {w: FreeSeries(s.n, cs) for w, cs in corner_coeffs.items()}
    return scalars, corners


# -- algebraic operations ------------------------------------------------------


def compose(X: TruncOp, Y: TruncOp) -> TruncOp:
    """X then Y on the right (matrix product X @ Y, i.e. Y acts first)."""
    X._same_space(Y)
    if not (X.is_symbolic and Y.is_symbolic and X.side == Y.side):
        raise ValueError("composition needs symbol-backed operators on the same side")
    # L_u L_v = L_{uv} while R_u R_v = R_{vu}
    prod = X.symbol.mul(Y.symbol, max_degree=X.N) if X.side == LEFT \
        else Y.symbol.mul(X.symbol, max_degree=X.N)
    # Y is exact up to its frontier and raises levels by at most deg Y,
    # where X must still be exact
    frontier = max(min(Y.frontier, X.frontier - Y.symbol.degree()), -1)
    return TruncOp(X.n, X.N, symbol=prod, side=X.side, frontier=frontier)


def gram(a: FreeSeries, b: FreeSeries, side: str) -> dict[tuple[Word, bool], complex]:
    """S_a* S_b of the untruncated operators (S = L or R) as the finite map
    {(t, starred): coefficient} of S_t (starred False) and S_t* (True).

    L_w* L_v is L_t when v = wt, L_t* when w = vt with t nonempty, and 0
    otherwise; R_w* R_v is R_t when v = tw and R_t* when w = tv.
    """
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    strip = strip_prefix if side == LEFT else strip_suffix
    out: dict[tuple[Word, bool], complex] = {}
    for w, x in a.coeffs.items():
        for v, y in b.coeffs.items():
            t = strip(v, w)
            key = (t, False) if t is not None else (strip(w, v), True)
            if key[0] is not None:
                out[key] = out.get(key, 0.0) + x.conjugate() * y
    return out


# -- diagnostics ----------------------------------------------------------------


def _spectral_norm(m) -> float:
    if sp.issparse(m):
        if m.shape[0] <= DENSE_CAP:
            m = m.toarray()
        else:
            if m.nnz == 0:
                return 0.0
            try:
                s = spla.svds(m.astype(complex), k=1, return_singular_vectors=False)
                return float(s[0])
            except (spla.ArpackNoConvergence, spla.ArpackError):
                # power iteration on m^H m as a fallback
                rng = np.random.default_rng(0)
                x = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
                x /= np.linalg.norm(x)
                val = 0.0
                for _ in range(200):
                    y = m.conjugate().transpose() @ (m @ x)
                    nrm = np.linalg.norm(y)
                    if nrm == 0:
                        return 0.0
                    x = y / nrm
                    if abs(nrm - val) <= 1e-12 * nrm:
                        return float(np.sqrt(nrm))
                    val = nrm
                warnings.warn("power iteration did not converge in 200 steps; "
                              "the spectral norm estimate may be low", RuntimeWarning)
                return float(np.sqrt(val))
    # all-zero rows and columns carry no singular value
    m = m[np.ix_(m.any(axis=1), m.any(axis=0))]
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def symbol_norm_bound(s: FreeSeries) -> float:
    """sum_d (sum_{|w|=d} |a_w|^2)^{1/2}, a bound on the norm of sum_w a_w L_w
    (or R_w); exact for homogeneous symbols, as the L_w with |w| = d are
    isometries with orthogonal ranges."""
    levels: dict[int, float] = {}
    for w, a in s.coeffs.items():
        levels[len(w)] = levels.get(len(w), 0.0) + abs(a) ** 2
    return sum(math.sqrt(v) for v in levels.values())


def op_norm(X: TruncOp) -> float:
    """Largest singular value of the compression (a lower bound for the
    norm of the untruncated operator, labelled 'compression norm' in reports).
    Taken once per operator, like the matrix it is a function of."""
    if X._norm is None:
        X._norm = _spectral_norm(X.matrix)
    return X._norm


def contraction_status(X: TruncOp) -> tuple[Optional[bool], str]:
    """Whether ||X|| <= 1 + CONTRACTION_TOL for a symbol-backed X, with the reason.

    True only from symbol_norm_bound, an upper bound, without materializing;
    False only when the compression norm, a lower bound, exceeds 1 + tol;
    None (unchecked) when neither settles it: the compression is over the
    basis cap, or its norm is at most 1 + tol and so decides nothing.
    """
    X._require_symbol("a contraction certificate")
    bound = symbol_norm_bound(X.symbol)
    if bound <= 1 + CONTRACTION_TOL:
        return True, f"symbol bound {bound:.6f} <= 1 + {CONTRACTION_TOL}"
    try:
        nrm = op_norm(X)
    except BasisCapExceeded:
        reason = "the compression is over the basis cap"
    else:
        if nrm > 1 + CONTRACTION_TOL:
            return False, f"compression norm {nrm:.6f} > 1 + {CONTRACTION_TOL}"
        reason = f"the compression norm {nrm:.6f} is only a lower bound"
    return None, f"symbol bound {bound:.6f} > 1 + {CONTRACTION_TOL} and {reason}"


def numerical_rank(m: np.ndarray, tol: float = 1e-9) -> int:
    """Count singular values >= tol * sigma_max.

    The absolute floor RANK_FLOOR stops a numerically-zero matrix (sigma_max
    at roundoff scale) from ranking its own noise; in-scope matrices carry
    O(1) singular values with wide gaps.
    """
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] <= RANK_FLOOR:
        return 0
    return int(np.sum(s >= max(tol * s[0], RANK_FLOOR)))


def commutant_residual(X: TruncOp) -> float:
    """max_i of the spectral norm of (X R_i - R_i X) restricted to input
    levels <= frontier - 1; vanishes exactly when X is the compression of a
    left-symbol operator, within the exact region."""
    if X.frontier < 1:
        return 0.0
    idx = X.indexer()
    cols = idx.level_offset(X.frontier)
    worst = 0.0
    for i in range(1, X.n + 1):
        R = creation_op(RIGHT, Word((i,)), X.n, X.N).matrix
        D = X.matrix @ R - R @ X.matrix
        D = D[:, :cols]
        worst = max(worst, _spectral_norm(D))
    return worst


def adjoint_power_orbit(L: TruncOp, xi: FockVector, kmax: int) -> list[float]:
    """The sequence ||(L*)^k xi|| for k = 0..kmax.

    Adjoints of symbol operators never raise levels, so the orbit is exact at
    any truncation holding xi.  The orbit is computed whatever contraction_status
    says, since the decay mechanism only needs |a_0| < 1; a norm above 1 warns
    (UserWarning), and a norm the certificate leaves unchecked warns
    RuntimeWarning("compression norm unchecked: ...").
    """
    ok, reason = contraction_status(L)
    if ok is False:
        warnings.warn(f"operator has {reason}; orbit computed anyway", stacklevel=2)
    elif ok is None:
        warnings.warn(f"compression norm unchecked: {reason}; orbit computed anyway",
                      RuntimeWarning, stacklevel=2)
    vals = [xi.norm()]
    vec = xi
    for _ in range(kmax):
        vec = L.apply_adjoint(vec)
        vals.append(vec.norm())
    return vals


def cesaro_sum(s: FreeSeries, k: int) -> FreeSeries:
    """Fejer-weighted truncation sum_{|v|<k} (1 - |v|/k) a_v."""
    if k < 1:
        raise ValueError("need k >= 1")
    return FreeSeries.make(
        s.n, {v: (1.0 - len(v) / k) * a for v, a in s.coeffs.items() if len(v) < k}
    )


def range_complement_level_dims(L: TruncOp, k: int, tol: float = 1e-9) -> int:
    """Level-k dimension of the range complement: n^k - rank(P_k L P_{<k}).

    Requires (L xi_1, xi_1) = 0 so that the range graded by levels comes only
    from strictly lower levels.
    """
    if not 1 <= k <= L.frontier:
        raise ValueError(f"need 1 <= k <= frontier ({L.frontier}), got {k}")
    m = L.dense()
    if abs(m[0, 0]) > tol:
        raise ValueError(f"(L xi_1, xi_1) = {m[0, 0]:.3e} is not 0; hypothesis violated")
    idx = L.indexer()
    block = m[idx.level_slice(k), : idx.level_offset(k)]
    return L.n**k - numerical_rank(block, tol)
