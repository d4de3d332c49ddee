"""Truncated operators on the Fock basis.

An element of the left algebra is determined by its noncommutative symbol
sum_w a_w L_w (the Fourier coefficients a_w = (X xi_1, xi_w)).  Operators are
realized on the basis {xi_w : |w| <= N} in one of two ways:

* symbol-backed: the symbol, of degree <= N (TruncOp's one check), acts by
  word concatenation at any truncation level; its compression norm is read
  from the symbol at every size (level_split_sigma, which writes out at most
  the compression one level down), and _compression writes its matrix out,
  dense, only up to DENSE_CAP,
* matrix-backed: a caller's compression matrix for an operator with no symbol,
  a numpy array or a scipy.sparse matrix read through its own tocoo() and
  toarray(); it is only measured (norms, commutant): ``TruncOp.symbol`` and the
  checks that operands share a side (its side is None) refuse every other use.
  Its sigma is _spectral_norm's: lone entries, then one full SVD of the rest.

Every operator carries its exactness frontier: the largest level m such that
the action on vectors supported in levels <= m agrees with the untruncated
operator.  Identities are only asserted on that region, since overflow past
level N silently corrupts products and adjoints outside it.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .fock import FockVector, FreeSeries, _convolve, _strips
from .words import BasisCapExceeded, BasisIndexer, Word, enumerate_words

DENSE_CAP = 4096
RANK_FLOOR = 1e-12
CONTRACTION_TOL = 1e-9

LEFT = "left"
RIGHT = "right"


class TruncOp:
    """Operator on the truncated basis, symbol-backed or matrix-backed; the one
    check of a symbol's degree against N (compose truncates at N, sums keep it)."""

    def __init__(self, n: int, N: int, *, symbol: Optional[FreeSeries] = None,
                 side: Optional[str] = None, matrix=None, frontier: Optional[int] = None):
        if (symbol is None) == (matrix is None):
            raise ValueError("exactly one of symbol or matrix must be given")
        if symbol is not None and side not in (LEFT, RIGHT):
            raise ValueError("symbol-backed operator needs side 'left' or 'right'")
        if symbol is not None and (symbol.n, symbol.N) != (n, None):
            raise ValueError(f"symbol must be a series on the operator's alphabet {n}")
        degree = symbol.degree() if symbol is not None else 0
        if degree > N:
            raise ValueError(f"symbol degree {degree} exceeds truncation {N}")
        self.n = n
        self.N = N
        self._symbol = symbol
        self.side = side if symbol is not None else None
        self._matrix = matrix
        self._norm: Optional[float] = None
        self.frontier = min(N - degree if frontier is None else frontier, N)

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
        """Compression matrix; a symbol's is written out, dense, on first use."""
        if self._matrix is None:
            s = self.symbol
            self._matrix = _compression(list(s.coeffs), self.side, self.n, self.N)(
                np.array(list(s.coeffs.values()), dtype=complex))
        return self._matrix

    def dense(self) -> np.ndarray:
        """The matrix as a numpy array, up to DENSE_CAP rows."""
        m = self.matrix
        if m.shape[0] > DENSE_CAP:
            raise BasisCapExceeded(f"dense matrices limited to basis <= {DENSE_CAP}, have {m.shape[0]}")
        return m.toarray() if hasattr(m, "toarray") else m

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
        # L_w* xi_v = xi_t when v = wt (R_w* xi_v = xi_t when v = tw).  The
        # matches of one v have distinct lengths, so each writes its own key t:
        # the order they are met in changes no sum and needs no sort.
        self._check_vector(xi)
        return xi._like(_strips(self.symbol.coeffs, xi.coeffs, self.side == LEFT))

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


def _positions(words: list[Word], side: str, n: int, N: int):
    """(size, owner, rows, cols): the compression of sum_i vals[i] S_{words[i]}
    (S = L or R) on F^2_N, a size x size matrix, holds vals[owner] at (rows,
    cols).  Each word owns one entry per column 0, 1, ... of levels <= N - |w|,
    in turn, so the rows of a single word are its shift's index array."""
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
    return size, owner, rows, cols


def _compression(words: list[Word], side: str, n: int, N: int):
    """vals -> dense compression of sum_i vals[i] S_{words[i]} (S = L or R) on
    F^2_N, the one write-out of a symbol, so the one refusal over DENSE_CAP: the
    positions are found once, each call is one scatter (disjoint 0/1 masks)."""
    size, owner, rows, cols = _positions(words, side, n, N)
    if size > DENSE_CAP:
        raise BasisCapExceeded(f"dense matrices limited to basis <= {DENSE_CAP}, have {size}")

    def write_out(vals: np.ndarray):
        m = np.zeros((size, size), dtype=complex)
        m[rows, cols] = vals[owner]
        return m
    return write_out


def level_split_sigma(words: list[Word], side: str, n: int, N: int):
    """vals -> sigma_max of the compression of sum_i vals[i] S_{words[i]} on F^2_N
    (distinct words of length <= N), planned once, exact at every size.

    R's words are read reversed, as L's: the flip xi_v -> xi_{v reversed} is
    unitary and takes R_w to L_{w reversed}.  A prefix-free support splits
    whole: the L_w are isometries with orthogonal ranges, so every row holds
    at most one entry and sigma is the column xi_0's 2-norm, sum |vals|^2 in
    word order, with nothing written out (N = 0 included).  No other support
    does: if w = u t, the entry (w, xi_0) shares its row with column t's entry
    and its column with row u's.  Any other one (degree d >= 1) splits by last
    letter, F^2_k = C xi_0 + sum_j F^2_{k-1} z_j: with G_k the Gram matrix on
    F^2_k and s = sum |a_w|^2, lam - G_k = [[lam - s, -y^H], [-y, I_n (x) (lam
    - G_{k-1})]], y_j = M_{k-1}^H c_j, c_j[u] = a_{uj}, M_k the compression on
    F^2_k.  Only M = M_base is written out, base = N - 1 up to DENSE_CAP and
    d - 1 over it, and M^H M = V diag(g) V^H.

    At base = N - 1, sigma_max^2 is the top eigenvalue of [[s, sqrt(w)^T],
    [sqrt(w), diag(g)]], w_j = sum_i |(c_i^H M V)_j|^2; M's all-zero columns
    add only zeros.  Below it, each y_j lies in W = F^2_base, so for lam >
    g_max, lam - G_N > 0 exactly when each pivot lam - s - sum_j y_j^H Q y_j,
    k = base + 1..N, is > 0, where the block inverse carries Q = P_W (lam -
    G_{k-1})^{-1} P_W up a level: t t^H / pivot, t = (1, (Q y_j)[u]), plus Q's
    block on F^2_{base-1} at W's words u j for each j.  sigma^2 is bisected
    in [max(s, g_max), (sum |a_w|)^2] to adjacent floats."""
    size = BasisIndexer(n, N).size  # the basis cap refuses a compression that splits whole too
    words = words if side == LEFT else [w[::-1] for w in words]
    ordered = sorted(words)
    if not any(v.startswith(u) for u, v in zip(ordered, ordered[1:])):  # a prefix starts its successor
        # one bin adds in word order, as a bincount of column xi_0 does: one float
        return lambda vals: math.sqrt(np.bincount(np.zeros(len(vals), int), np.abs(vals) ** 2, 1)[0])
    base = N - 1 if size <= DENSE_CAP else max(map(len, words)) - 1
    lower, W = _compression(words, LEFT, n, base), BasisIndexer(n, base)
    nonempty = np.array([i for i, w in enumerate(words) if w], dtype=int)
    # c laid out by (last letter, rest) in an (n, dim W) array
    tails = np.array([(w[-1] - 1) * W.size + W.index_of(w[:-1]) for w in words if w], dtype=int)
    if base < N - 1:
        # W's index of u j for each u in F^2_{base-1}, in order: where R_j sends it
        ends = np.array([_positions([Word((j,))], RIGHT, n, base)[2] for j in range(1, n + 1)])
        inner = ends.shape[1]

    def sigma(vals: np.ndarray) -> float:
        M, c = lower(vals), np.zeros(n * W.size, dtype=complex)
        c[tails] = vals[nonempty]
        if base == N - 1:
            M = M[:, M.any(axis=0)]
        g, V = np.linalg.eigh(M.conj().T @ M)
        s = np.vdot(vals, vals).real
        if base == N - 1:
            arrow = np.diag(np.concatenate(([s], g)))
            arrow[0, 1:] = arrow[1:, 0] = np.linalg.norm(c.reshape(n, -1).conj() @ M @ V, axis=0)
            return math.sqrt(np.linalg.eigvalsh(arrow)[-1])
        Y = c.reshape(n, -1) @ M.conj()

        def definite(lam: float) -> bool:
            Q = (V / (lam - g)) @ V.conj().T  # lam > g[-1], the lower end
            for _ in range(base + 1, N + 1):
                Z = Y @ Q.T  # row j is Q y_j, as row j of Y is y_j
                pivot = lam - s - np.vdot(Y, Z).real
                if not pivot > 0:
                    return False
                t = np.zeros(W.size, dtype=complex)
                t[0], t[ends] = 1.0, Z[:, :inner]
                Q, old = np.outer(t, t.conj()) / pivot, Q
                Q[ends[:, :, None], ends[:, None, :]] += old[:inner, :inner]
            return True

        lo, hi = max(s, g[-1]), np.abs(vals).sum() ** 2
        mid = (lo + hi) / 2
        while lo < mid < hi:
            lo, hi = (lo, mid) if definite(mid) else (mid, hi)
            mid = (lo + hi) / 2
        return math.sqrt(hi)
    return sigma


# -- constructors ------------------------------------------------------------


def creation_op(side: str, w: Word, n: int, N: int) -> TruncOp:
    """L_w (xi_v -> xi_{wv}) or R_w (xi_v -> xi_{vw}) for |w| <= N; overflow drops."""
    return TruncOp(n, N, symbol=FreeSeries.delta(n, w), side=side)


def series_to_op(s: FreeSeries, n: int, N: int, side: str = LEFT) -> TruncOp:
    """Realize s, of degree <= N, on the truncated basis; frontier = N - deg(s)."""
    return TruncOp(n, N, symbol=s, side=side)


def op_from_matrix(matrix, n: int, N: int) -> TruncOp:
    """The operator whose compression on F^2_N is matrix: a numpy array, or a
    scipy.sparse matrix, read only through its own tocoo() and toarray()."""
    size = BasisIndexer(n, N).size
    if tuple(matrix.shape) != (size, size):
        raise ValueError(f"matrix shape {tuple(matrix.shape)} is not the basis shape {(size, size)}")
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
    left = side == LEFT
    out = {(t, False): c for t, c in _strips(a.coeffs, b.coeffs, left).items()}
    out.update(((t, True), c.conjugate()) for t, c in _strips(b.coeffs, a.coeffs, left).items() if t)
    return out


# -- diagnostics ----------------------------------------------------------------


def _spectral_norm(m) -> float:
    """sigma_max of a matrix with no symbol (a matrix-backed operator, the
    commutant's X R - R X) from its nonzeros, found by np.nonzero or by a
    scipy.sparse matrix's own tocoo() (scipy is never imported).  An entry alone
    in its row and in its column is a 1 x 1 block up to permutation, with sigma
    its modulus.  sigma is the largest such modulus or the full SVD's of the
    rest (duplicates summed, empty rows and columns dropped), at most DENSE_CAP
    square.  An entry stored twice is never lone."""
    if hasattr(m, "tocoo"):
        coo = m.tocoo()
        keep = coo.data != 0
        r, c, vals = coo.row[keep], coo.col[keep], coo.data[keep]
    else:
        r, c = np.nonzero(m)
        vals = m[r, c]
    rest = np.bincount(r, minlength=m.shape[0])[r] > 1
    rest |= np.bincount(c, minlength=m.shape[1])[c] > 1
    lone = float(np.abs(vals[~rest]).max(initial=0.0))
    if not rest.any():
        return lone
    rows, r = np.unique(r[rest], return_inverse=True)
    cols, c = np.unique(c[rest], return_inverse=True)
    if max(rows.size, cols.size) > DENSE_CAP:
        raise BasisCapExceeded(f"rest block {rows.size} x {cols.size} over DENSE_CAP {DENSE_CAP}")
    block = np.zeros((rows.size, cols.size), dtype=vals.dtype)
    np.add.at(block, (r, c), vals[rest])
    return max(lone, float(np.linalg.norm(block, 2)))


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
    once per operator.  A symbol's, read as stored (TruncOp keeps deg <= N), is
    exact at every size (level_split_sigma): the word test for a prefix-free
    support (suffix-free for R), else the split by last letter (first for R),
    ending in an arrowhead eigenvalue up to DENSE_CAP and in the recursion over
    it.  A matrix-backed X's is _spectral_norm of its matrix, one SVD at most."""
    if X._norm is None:
        if X._symbol is None:
            X._norm = _spectral_norm(X.matrix)
        else:
            s = X.symbol
            X._norm = level_split_sigma(list(s.coeffs), X.side, X.n, X.N)(
                np.array(list(s.coeffs.values()), dtype=complex))
    return X._norm


def contraction_status(X: TruncOp) -> tuple[Optional[bool], str]:
    """Whether ||X|| <= 1 + CONTRACTION_TOL for a symbol-backed X, with the reason.

    True only from symbol_norm_bound, an upper bound, without materializing;
    False only when a lower bound exceeds 1 + tol: the compression norm, or,
    when op_norm is refused, the vacuum column norm ||X xi_1|| = ||a||_2;
    None (unchecked) when neither settles it, with the refusal's own message
    when there is one.
    """
    bound = symbol_norm_bound(X.symbol)
    if bound <= 1 + CONTRACTION_TOL:
        return True, f"symbol bound {bound:.6f} <= 1 + {CONTRACTION_TOL}"
    refused = ""
    try:
        nrm, what = op_norm(X), "compression norm"
    except BasisCapExceeded as exc:
        nrm, what, refused = X.symbol.l2_norm(), "vacuum column norm", f" (op_norm refused: {exc})"
    if nrm > 1 + CONTRACTION_TOL:
        return False, f"{what} {nrm:.6f} > 1 + {CONTRACTION_TOL}"
    reason = f"the {what} {nrm:.6f} is only a lower bound{refused}"
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
    left-symbol operator, within the exact region.  R_i is a 0/1 shift that
    sends basis column j to row shift[j] (columns of level N overflow), so no
    R_i is written out: X R_i gathers the columns shift of X and R_i X scatters
    X's rows to shift, each entry the one the product with 1.0 would give."""
    if X.frontier < 1:
        return 0.0
    cols = BasisIndexer(X.n, X.N).level_offset(X.frontier)
    M, worst = X.dense(), 0.0
    for i in range(1, X.n + 1):
        shift = _positions([Word((i,))], RIGHT, X.n, X.N)[2]
        # only the first cols columns of D are measured
        D = M[:, shift[:cols]]
        D[shift] -= M[:shift.size, :cols]
        worst = max(worst, _spectral_norm(D))
    return worst


def adjoint_power_orbit(L: TruncOp, xi: FockVector, kmax: int) -> list[float]:
    """The sequence ||(L*)^k xi|| for k = 0..kmax.

    Adjoints of symbol operators never raise levels, so the orbit is exact at
    any truncation holding xi.  Only the orbit is computed, whatever ||L|| is,
    since the decay mechanism only needs |a_0| < 1; a caller that reports
    whether L is a contraction reads contraction_status.
    """
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
