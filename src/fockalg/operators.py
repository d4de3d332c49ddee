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
  added or scaled.  ``TruncOp.symbol`` is the one place that refuses it, and
  the checks that operands share a side refuse it too (its side is None).

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
from .words import BasisCapExceeded, BasisIndexer, Word, enumerate_words

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
        self._symbol = symbol
        self.side = side if symbol is not None else None
        self._matrix = matrix
        self._norm: Optional[float] = None
        if frontier is None:
            frontier = N - symbol.degree() if symbol is not None else N
        self.frontier = min(frontier, N)

    # -- representation ----------------------------------------------------

    @property
    def symbol(self) -> FreeSeries:
        """The noncommutative symbol; a matrix-backed operator has none."""
        if self._symbol is None:
            raise ValueError("needs a symbol-backed operator; "
                             "matrix-backed operators are only measured")
        return self._symbol

    @property
    def matrix(self):
        """Compression matrix; materialized on first use (may hit the basis cap)."""
        if self._matrix is None:
            s = self.symbol
            self._matrix = _compression(list(s.coeffs), self.side, self.n, self.N)(
                np.array(list(s.coeffs.values()), dtype=complex))
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

    # -- vector action ------------------------------------------------------

    def _check_vector(self, xi: FockVector) -> None:
        if (xi.n, xi.N) != (self.n, self.N):
            raise ValueError("vector lives in a different truncated space")

    def apply(self, xi: FockVector) -> FockVector:
        self._check_vector(xi)
        s = self.symbol.coeffs
        out = _convolve(s, xi.coeffs, self.N) if self.side == LEFT else _convolve(xi.coeffs, s, self.N)
        return xi._like(out)

    def apply_adjoint(self, xi: FockVector) -> FockVector:
        self._check_vector(xi)
        # L_w* xi_v = xi_t when v = wt (R_w* xi_v = xi_t when v = tw).  For a
        # fixed v each length of w gives at most one match, so each v costs
        # one slice and lookup per symbol length.  The matches are summed in
        # symbol order, the order of a loop over w.
        index = {w: (i, a.conjugate()) for i, (w, a) in enumerate(self.symbol.coeffs.items())}
        lengths = sorted({len(w) for w in index})
        left = self.side == LEFT
        out: dict[bytes, complex] = {}
        for v, c in xi.coeffs.items():
            m = len(v)
            hits = []
            for k in lengths:
                if k > m:
                    break
                hit = index.get(v[:k] if left else v[m - k:])
                if hit is not None:
                    hits.append((hit, k))
            hits.sort()
            for (_, a_conj), k in hits:
                t = v[k:] if left else v[:m - k]
                out[t] = out.get(t, 0.0) + a_conj * c
        return xi._like(out)

    # -- arithmetic ----------------------------------------------------------

    def _same_space(self, other: "TruncOp") -> None:
        if (self.n, self.N) != (other.n, other.N):
            raise ValueError("operator truncations do not match")

    def __add__(self, other: "TruncOp") -> "TruncOp":
        self._same_space(other)
        if self.side != other.side:
            raise ValueError("addition needs symbol-backed operators on the same side")
        return TruncOp(self.n, self.N, symbol=self.symbol.add(other.symbol), side=self.side,
                       frontier=min(self.frontier, other.frontier))

    def __sub__(self, other: "TruncOp") -> "TruncOp":
        return self + other.scale(-1.0)

    def scale(self, a: complex) -> "TruncOp":
        return TruncOp(self.n, self.N, symbol=self.symbol.scale(a), side=self.side,
                       frontier=self.frontier)


def _compression(words: list[Word], side: str, n: int, N: int):
    """vals -> compression of sum_i vals[i] S_{words[i]} (S = L or R) on F^2_N,
    dense up to DENSE_CAP and CSR beyond: the word -> position arithmetic runs
    once, and each call is one scatter (the P_N S_w P_N are disjoint 0/1 masks)."""
    idx = BasisIndexer(n, N)
    size = idx.size
    off = np.array([idx.level_offset(k) for k in range(N + 2)])
    level = np.repeat(np.arange(N + 1), np.diff(off))
    r = np.arange(size) - off[level]  # rank of each column inside its level
    d = np.array([len(w) for w in words], dtype=int)
    rank = np.array([idx.index_of(w) - idx.level_offset(len(w)) if len(w) <= N else 0
                     for w in words], dtype=int)
    # a word of length d keeps the columns at levels <= N - d; the rest overflow
    width = off[np.maximum(N - d + 1, 0)]
    owner = np.repeat(np.arange(len(words)), width)
    cols = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
    k, rk, d, rank = level[cols], r[cols], d[owner], rank[owner]
    rows = off[k + d] + (rank * n**k + rk if side == LEFT else rk * n**d + rank)

    def write_out(vals: np.ndarray):
        if size > DENSE_CAP:
            return sp.csr_matrix((vals[owner], (rows, cols)), shape=(size, size), dtype=complex)
        m = np.zeros((size, size), dtype=complex)
        m[rows, cols] = vals[owner]
        return m
    return write_out


def level_split_sigma(words: list[Word], side: str, n: int, N: int):
    """vals -> sigma_max of the compression of sum_i vals[i] S_{words[i]} on F^2_N
    (words of length <= N, basis <= DENSE_CAP), exactly from the one on F^2_{N-1}.
    Split by last letter for L (first for R), F^2_N = C xi_0 + sum_i F^2_{N-1} z_i
    and the compression is [[a_0, 0], [c, I_n (x) M]], M the one on F^2_{N-1},
    c_i[u] = a_{ui} (a_{iu} for R).  With M^H M = V diag(g) V^H, sigma_max^2 is the
    top eigenvalue of [[sum |a_w|^2, sqrt(w)^T], [sqrt(w), diag(g)]], w_j the sum
    over i of |(c_i^H M V)_j|^2; M's all-zero columns add only uncoupled zeros."""
    if N == 0:  # the compression is [a_0]
        return lambda vals: float(np.linalg.norm(vals))
    lower, rest = _compression(words, side, n, N - 1), BasisIndexer(n, N - 1)
    nonempty = np.array([i for i, w in enumerate(words) if w], dtype=int)
    # c laid out by (split letter, rest) in an (n, dim) array
    splits = [(w[-1], w[:-1]) if side == LEFT else (w[0], w[1:]) for w in words if w]
    tails = np.array([(i - 1) * rest.size + rest.index_of(u) for i, u in splits], dtype=int)

    def sigma(vals: np.ndarray) -> float:
        M = lower(vals)
        M = M[:, M.any(axis=0)]
        c = np.zeros(n * rest.size, dtype=complex)
        c[tails] = vals[nonempty]
        g, V = np.linalg.eigh(M.conj().T @ M)
        arrow = np.diag(np.concatenate(([np.vdot(vals, vals).real], g)))
        arrow[0, 1:] = arrow[1:, 0] = np.linalg.norm(c.reshape(n, -1).conj() @ M @ V, axis=0)
        return math.sqrt(np.linalg.eigvalsh(arrow)[-1])
    return sigma


# -- constructors ------------------------------------------------------------


def creation_op(side: str, w: Word, n: int, N: int) -> TruncOp:
    """L_w (xi_v -> xi_{wv}) or R_w (xi_v -> xi_{vw}); overflow past level N drops."""
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
    return X.symbol.truncate(depth)


def decompose_at(s: FreeSeries, k: int) -> tuple[dict[bytes, complex], dict[Word, FreeSeries]]:
    """Graded splitting at level k.

    Returns the scalars {a_w : |w| < k} and the corner series {X_w : |w| = k}
    with (X_w)_v = a_{wv}, so that sum_{|w|<k} a_w L_w + sum_{|w|=k} L_w X_w
    rebuilds s exactly (words partition by their length-k prefix).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    scalars: dict[bytes, complex] = {}
    corner_coeffs: dict[Word, dict[bytes, complex]] = {w: {} for w in enumerate_words(s.n, k)}
    for t, a in s.coeffs.items():
        if len(t) < k:
            scalars[t] = a
        else:
            corner_coeffs[t[:k]][t[k:]] = a
    corners = {w: FreeSeries(s.n, cs) for w, cs in corner_coeffs.items()}
    return scalars, corners


# -- algebraic operations ------------------------------------------------------


def compose(X: TruncOp, Y: TruncOp) -> TruncOp:
    """X then Y on the right (matrix product X @ Y, i.e. Y acts first)."""
    X._same_space(Y)
    if X.side != Y.side:
        raise ValueError("composition needs symbol-backed operators on the same side")
    # L_u L_v = L_{uv} while R_u R_v = R_{vu}
    prod = X.symbol.mul(Y.symbol, max_degree=X.N) if X.side == LEFT \
        else Y.symbol.mul(X.symbol, max_degree=X.N)
    # Y is exact up to its frontier and raises levels by at most deg Y,
    # where X must still be exact
    frontier = max(min(Y.frontier, X.frontier - Y.symbol.degree()), -1)
    return TruncOp(X.n, X.N, symbol=prod, side=X.side, frontier=frontier)


def gram(a: FreeSeries, b: FreeSeries, side: str) -> dict[tuple[bytes, bool], complex]:
    """S_a* S_b of the untruncated operators (S = L or R) as the finite map
    {(t, starred): coefficient} of S_t (starred False) and S_t* (True).

    L_w* L_v is L_t when v = wt, L_t* when w = vt with t nonempty, and 0
    otherwise; R_w* R_v is R_t when v = tw and R_t* when w = tv.
    """
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    # t with v = wt (v = tw for R) as a slice, or None
    strip = (lambda v, w: v[len(w):] if v.startswith(w) else None) if side == LEFT \
        else (lambda v, w: v[:len(v) - len(w)] if v.endswith(w) else None)
    out: dict[tuple[bytes, bool], complex] = {}
    for w, x in a.coeffs.items():
        for v, y in b.coeffs.items():
            t = strip(v, w)
            key = (t, False) if t is not None else (strip(w, v), True)
            if key[0] is not None:
                out[key] = out.get(key, 0.0) + x.conjugate() * y
    return out


# -- diagnostics ----------------------------------------------------------------


def _spectral_norm(m) -> float:
    # Norms with no symbol to split (matrix-backed operators, X R - R X) and of
    # symbol compressions over DENSE_CAP.  All-zero rows and columns carry no
    # singular value, so both arms measure the block left once they are dropped.
    # The arm follows the basis size: a full SVD up to DENSE_CAP, ARPACK beyond.
    if sp.issparse(m) and m.shape[0] > DENSE_CAP:
        m = m.tocsr()
        if not m.data.any():
            return 0.0
        # built on m's data: slicing rows, then columns, would copy it twice
        rows = np.flatnonzero(np.diff(m.indptr))
        cols, indices = np.unique(m.indices, return_inverse=True)
        m = sp.csr_matrix((m.data, indices, np.append(0, m.indptr[rows + 1])),
                          shape=(rows.size, cols.size))
        if min(m.shape) > 2:  # ARPACK needs k = 1 < min(shape) - 1
            return _arpack_norm(m)
    if sp.issparse(m):
        m = m.toarray()
    m = m[np.ix_(m.any(axis=1), m.any(axis=0))]
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def _arpack_norm(m: sp.csr_matrix) -> float:
    """svds from a fixed start, so that repeated calls agree bitwise; power
    iteration on m^H m if ARPACK fails."""
    try:
        s = spla.svds(m, k=1, return_singular_vectors=False, rng=np.random.default_rng(0))
        return float(s[0])
    except (spla.ArpackNoConvergence, spla.ArpackError):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
        x /= np.linalg.norm(x)
        mh = m.conjugate().transpose()
        val = 0.0
        for _ in range(200):
            y = mh @ (m @ x)
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


def symbol_norm_bound(s: FreeSeries) -> float:
    """sum_d (sum_{|w|=d} |a_w|^2)^{1/2}, a bound on the norm of sum_w a_w L_w
    (or R_w); exact for homogeneous symbols, as the L_w with |w| = d are
    isometries with orthogonal ranges."""
    levels: dict[int, float] = {}
    for w, a in s.coeffs.items():
        levels[len(w)] = levels.get(len(w), 0.0) + abs(a) ** 2
    return sum(math.sqrt(v) for v in levels.values())


def op_norm(X: TruncOp) -> float:
    """Largest singular value of the compression (a lower bound for the norm
    of the untruncated operator, labelled 'compression norm' in reports), taken
    once per operator: by level_split_sigma from the symbol up to DENSE_CAP,
    without writing out the matrix; else by _spectral_norm of the matrix."""
    if X._norm is None:
        if X._symbol is None or BasisIndexer(X.n, X.N).size > DENSE_CAP:
            X._norm = _spectral_norm(X.matrix)
        else:
            s = X.symbol.truncate(X.N)
            X._norm = level_split_sigma(list(s.coeffs), X.side, X.n, X.N)(
                np.array(list(s.coeffs.values()), dtype=complex))
    return X._norm


def contraction_status(X: TruncOp) -> tuple[Optional[bool], str]:
    """Whether ||X|| <= 1 + CONTRACTION_TOL for a symbol-backed X, with the reason.

    True only from symbol_norm_bound, an upper bound, without materializing;
    False only when the compression norm, a lower bound, exceeds 1 + tol;
    None (unchecked) when neither settles it: the compression is over the
    basis cap, or its norm is at most 1 + tol and so decides nothing.
    """
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
    cols = BasisIndexer(X.n, X.N).level_offset(X.frontier)
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
    idx = BasisIndexer(L.n, L.N)
    block = m[idx.level_slice(k), : idx.level_offset(k)]
    return L.n**k - numerical_rank(block, tol)
