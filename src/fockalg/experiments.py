"""Named, parameterized experiments: every concrete construction gets a
deterministic run that emits a structured Report with a pass/fail verdict.

All verdicts are computed from measurements on the exact (frontier-respecting)
region only.  Norms of truncated matrices are reported as compression norms,
which bound the untruncated norms from below.  Unbounded behaviour is always
reported as growth evidence (ratios and a log-fit slope), never as a claim of
infinity.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np

from .calculus import (
    apply_series,
    check_isometric_on_frontier,
    factorization_residual,
    h2_times_isometry,
    search_ball_factorizations,
    verify_factorization,
)
from .fock import FockVector
from .hardy import ScalarSeries, harmonic_series, partial_sum_sup, reciprocal
from .operators import (
    LEFT,
    RIGHT,
    FreeSeries,
    adjoint_power_orbit,
    cesaro_sum,
    creation_op,
    fourier_of,
    numerical_rank,
    op_norm,
    range_complement_level_dims,
    series_to_op,
    symbol_norm_bound,
)
from .report import Report
from .words import BasisIndexer, Word, enumerate_words, reverse

ZETA2 = math.pi**2 / 6.0  # sum_{k>=0} 1/(k+1)^2
IDEAL_SCALE = 1.0 / math.sqrt(ZETA2)
CERTIFICATE_TOL = 1e-6  # membership witness: a deviation above this certifies
NEAR_RESIDUAL = 1e-6  # ball search: a candidate this close is a near factorization
CLASSIFICATION_TOL = 1e-3  # ball search: distance to the word-split family
FEASIBILITY_TOL = 1e-12  # ball search: slack on the factors' symbol bounds
M_SMALL, M_LARGE = 10, 1000  # ideal counterexample: first and last partial-sum checkpoints
WITNESS_DEGREE = 8  # membership witness: degree of the default polynomial diagonal

Z1 = Word((1,))
Z2 = Word((2,))


# ---------------------------------------------------------------------------


def exp_adjoint_decay(lam: complex = 0.5, N: int = 4, kmax: int = 200,
                      tol: float = 1e-3) -> Report:
    """Orbit ||(L*)^k xi_w|| for L = lam I + sqrt(1-|lam|^2) L_1 at n = 2.

    The orbit on a length-l basis vector is bounded by
    sum_{j<=l} C(k,j) |lam|^{k-j} ||(A*)^j xi_w|| with A the scalar-free part;
    C(k,j) is the falling-factorial polynomial p_j evaluated at integer k.
    """
    lam = complex(lam)
    if abs(lam) >= 1:
        raise ValueError(f"need |lam| < 1, got {abs(lam)}")
    if kmax < 0:
        raise ValueError(f"need kmax >= 0, got {kmax}")
    mu = math.sqrt(1.0 - abs(lam) ** 2)
    n = 2
    L = series_to_op(FreeSeries.make(n, {Word(): lam, Z1: mu}), n, N)
    A = series_to_op(FreeSeries.make(n, {Z1: mu}), n, N)
    sample = [Word(), Z1, Z2, Word((1, 1)), Word((2, 1))]
    sample = [w for w in sample if len(w) <= N]

    notes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        comp_norm = op_norm(L)
        per_word = {}
        worst_violation = -math.inf
        worst_final = 0.0
        for w in sample:
            xi = FockVector.basis(n, N, w)
            orbit = adjoint_power_orbit(L, xi, kmax)
            l = len(w)
            avec = xi
            anorms = [avec.norm()]
            for _ in range(l):
                avec = A.apply_adjoint(avec)
                anorms.append(avec.norm())
            bounds = []
            for k in range(kmax + 1):
                b = sum(
                    math.comb(k, j) * abs(lam) ** (k - j) * anorms[j]
                    for j in range(min(k, l) + 1)
                )
                bounds.append(b)
            violation = max(o - b for o, b in zip(orbit, bounds))
            worst_violation = max(worst_violation, violation)
            worst_final = max(worst_final, orbit[-1])
            per_word[str(w) or "1"] = {
                "final_orbit": orbit[-1],
                "max_bound_violation": violation,
                "orbit_head": orbit[: min(6, len(orbit))],
            }
        vac_orbit = adjoint_power_orbit(L, FockVector.basis(n, N, Word()), kmax)
    if any(c.category is UserWarning for c in caught):
        notes.append("operator is expansive at this truncation; orbit still decays")
    notes += sorted({str(c.message) for c in caught if c.category is not UserWarning})
    vac_dev = max(abs(v - abs(lam) ** k) for k, v in enumerate(vac_orbit))
    verdict = worst_violation <= 1e-12 and worst_final < tol and vac_dev <= 1e-12
    return Report(
        name="adjoint-decay",
        params={"lam": lam, "N": N, "kmax": kmax, "n": n},
        measurements={
            "compression_norm": comp_norm,
            "per_word": per_word,
            "vacuum_orbit_vs_lam_pow": vac_dev,
            "final_orbit_max": worst_final,
            "max_bound_violation": worst_violation,
        },
        verdict=verdict,
        tolerances={"final_orbit": tol, "bound_slack": 1e-12, "vacuum_dev": 1e-12},
        anchors=[
            "adjoint-power orbit decay on sample basis vectors",
            "binomial orbit bound with falling-factorial weights",
        ],
        notes=notes,
    )


def exp_codim_counts(symbol: FreeSeries | None = None, n: int = 2, N: int = 5,
                     tol: float = 1e-9) -> Report:
    """Per-level dimension of the range complement of an isometry with no
    scalar part; each level-k complement has dimension >= n^k - (n^k-1)/(n-1)."""
    if n < 2:
        raise ValueError("codimension counts need n >= 2")
    if symbol is None:
        symbol = FreeSeries.delta(n, Z1)
    L = series_to_op(symbol, n, N)
    check_isometric_on_frontier(L)

    def level_data(op):
        rows = [{"k": 0, "dim": 1, "rank": 0, "complement": 1, "bound": 1}]
        for k in range(1, op.frontier + 1):
            comp = range_complement_level_dims(op, k, tol)
            nk = n**k
            bound = nk - (nk - 1) // (n - 1)
            rows.append({"k": k, "dim": nk, "rank": nk - comp, "complement": comp,
                         "bound": bound})
        return rows

    levels = level_data(L)
    smaller = level_data(series_to_op(symbol, n, N - 1))
    total = sum(r["complement"] for r in levels)
    total_smaller = sum(r["complement"] for r in smaller)
    verdict = all(r["complement"] >= r["bound"] for r in levels) and total > total_smaller
    return Report(
        name="codim-counts",
        params={"n": n, "N": N, "symbol": symbol.to_records()},
        measurements={
            "levels": levels,
            "total_complement": total,
            "total_complement_at_N_minus_1": total_smaller,
        },
        verdict=verdict,
        tolerances={"rank_tol": tol},
        anchors=["level-k range-complement dimension vs geometric lower bound"],
    )


def exp_factor_generator(K: int = 64, N: int | None = None, tol: float = 1e-9) -> Report:
    """g(L1) A = L2 with g the reciprocal of the harmonic-coefficient series
    and A = sum_{k<K} L1^k L2 / (k+1); exact coefficientwise down to depth K."""
    if K < 1:
        raise ValueError("need K >= 1")
    if N is None:
        N = K + 2
    if N < K + 1:
        raise ValueError("need N >= K + 1 so that depth K stays exact")
    n = 2
    f = harmonic_series(K)
    g = reciprocal(f, K)
    L1 = creation_op(LEFT, Z1, n, N)
    L2 = creation_op(LEFT, Z2, n, N)
    A = h2_times_isometry(harmonic_series(K - 1) if K > 1 else ScalarSeries.make([1.0]), L1, L2)
    inner_report = verify_factorization(g, L1, A, L2, depth=K, tol=tol)
    a_support = len(A.symbol.coeffs)
    g_degree = g.degree()
    trivial = K < 2
    notes = ["degenerate single-term A; factorization is trivial"] if trivial else []
    nontrivial_ok = trivial or (g_degree >= 1 and a_support >= 2)
    verdict = inner_report.verdict and nontrivial_ok
    return Report(
        name="factor-generator",
        params={"K": K, "N": N, "n": n, "depth": K},
        measurements={
            "max_coeff_error": inner_report.measurements["max_coeff_error"],
            "worst_word": inner_report.measurements["worst_word"],
            "a_support_size": a_support,
            "g_degree": g_degree,
        },
        verdict=verdict,
        tolerances={"max_coeff_error": tol},
        anchors=[
            "single-letter isometry factored through the reciprocal series",
            "nontriviality of both factors",
        ],
        notes=notes,
    )


def exp_thin_isometry(n: int = 2, kmax: int = 2, N: int | None = None,
                      tol: float = 1e-12) -> Report:
    """The thin vector x = sum_k 2^{-(k+1)/2} ||x_k||^{-1} x_k with
    x_k = sum_{|w|=k} xi_{w w z2 z1^k}; suffix-stripping by u z2 z1^k recovers
    xi_u exactly, and the recovered family spans every level <= kmax."""
    if n < 2:
        raise ValueError("construction uses two letters; need n >= 2")
    if N is None:
        N = 3 * kmax + 1
    if N < 3 * kmax + 1:
        raise ValueError(f"need N >= 3*kmax+1 = {3 * kmax + 1}")
    coeffs: dict[bytes, complex] = {}
    xk_norms = []
    for k in range(kmax + 1):
        tail = Word((2,) + (1,) * k)
        piece = [w + w + tail for w in enumerate_words(n, k)]
        xk_norms.append(math.sqrt(len(piece)))
        coeffs.update(dict.fromkeys(piece, 2.0 ** (-(k + 1) / 2.0) / xk_norms[k]))
    x = FockVector.make(n, N, coeffs)
    norm_sq = x.norm() ** 2
    norm_sq_expected = sum(2.0 ** (-(k + 1)) for k in range(kmax + 1))
    norm_deficit = 1.0 - norm_sq_expected

    recovery_err = 0.0
    for k in range(kmax + 1):
        strip_tail = creation_op(RIGHT, Word((2,) + (1,) * k), n, N)
        partial = strip_tail.apply_adjoint(x)
        scale = 2.0 ** ((k + 1) / 2.0) * xk_norms[k]
        for u in enumerate_words(n, k):
            got = creation_op(RIGHT, u, n, N).apply_adjoint(partial).scale(scale)
            diff = got.sub(FockVector.basis(n, N, u))
            recovery_err = max(recovery_err, max((abs(c) for c in diff.coeffs.values()), default=0.0))

    low_idx = BasisIndexer(n, kmax)
    rows = [creation_op(RIGHT, v, n, N).apply_adjoint(x).truncate(kmax).to_dense(low_idx)
            for v in BasisIndexer(n, 2 * kmax + 1).words()]
    gram_rank = numerical_rank(np.array(rows))
    expected_rank = low_idx.size

    xk_norm_dev = max(abs(xk_norms[k] - n ** (k / 2.0)) for k in range(kmax + 1))
    verdict = (
        recovery_err <= tol
        and gram_rank == expected_rank
        and abs(norm_sq - norm_sq_expected) <= tol
        and xk_norm_dev <= tol
    )
    return Report(
        name="thin-isometry",
        params={"n": n, "kmax": kmax, "N": N},
        measurements={
            "norm_sq": norm_sq,
            "norm_sq_expected": norm_sq_expected,
            "truncation_norm_deficit": norm_deficit,
            "xk_norms": xk_norms,
            "recovery_max_error": recovery_err,
            "gram_rank": gram_rank,
            "expected_rank": expected_rank,
        },
        verdict=verdict,
        tolerances={"recovery": tol, "norm_sq": tol},
        anchors=[
            "suffix-stripping recovery of every basis vector from the thin vector",
            "stripped family spans all levels <= kmax",
        ],
        notes=[
            "recovery scale is 2^{(k+1)/2} * ||x_k||, the reciprocal of the x-coefficient",
            f"finite kmax leaves norm^2 = 1 - 2^-(kmax+1) = {norm_sq_expected}; "
            "the deficit vanishes as kmax grows",
        ],
    )


def exp_ideal_counterexample(a: FreeSeries | None = None, n: int = 2, N: int = 12,
                             grid: int = 2048, tol: float = 1e-12) -> Report:
    """Compression identity Q L2* L_v* J Q = a_v sum_k lam_k L1^k Q for the
    candidate J ~ sum a_w lam_k L_w L2 L1^k, plus sup-norm growth of the
    diagonal partial sums (the unboundedness evidence)."""
    if a is None:
        a = FreeSeries.make(2, {Z1: 0.8, Word((2, 2)): 0.6})
    if not a.coeffs:
        raise ValueError("need a nonzero finitely supported coefficient vector")
    v = a.support()[0]
    if N < len(v) + 1:
        raise ValueError(f"need N >= |v| + 1 = {len(v) + 1} to check the identity on a vector")
    lam = [IDEAL_SCALE / (k + 1) for k in range(N + 1)]
    jcoeffs: dict[bytes, complex] = {}
    for w, aw in a.coeffs.items():
        for k in range(N - len(w)):
            t = w + Word((2,) + (1,) * k)
            jcoeffs[t] = jcoeffs.get(t, 0.0) + aw * lam[k]
    J = series_to_op(FreeSeries.make(n, jcoeffs), n, N)
    Lv = creation_op(LEFT, v, n, N)
    L2 = creation_op(LEFT, Z2, n, N)

    jmax = N - len(v) - 1
    identity_err = 0.0
    for j in range(jmax + 1):
        y = J.apply(FockVector.basis(n, N, Word((1,) * j)))
        y = L2.apply_adjoint(Lv.apply_adjoint(y))
        chain = {len(t): c for t, c in y.coeffs.items() if set(t) <= {1}}
        for m in range(j, jmax + 1):
            want = a.coeff(v) * lam[m - j]
            got = chain.get(m, 0.0)
            identity_err = max(identity_err, abs(got - want))

    diag = ScalarSeries.make([IDEAL_SCALE / (k + 1) for k in range(M_LARGE + 1)])
    sups = {m: partial_sum_sup(diag, m, grid) for m in (M_SMALL, 32, 100, 316, M_LARGE)}
    ratio = sups[M_LARGE] / sups[M_SMALL]
    logs = np.log([float(m) for m in sups])
    vals = np.array([sups[m] for m in sups])
    slope = float(np.polyfit(logs, vals, 1)[0])
    verdict = identity_err <= tol and ratio > 2.0
    return Report(
        name="ideal-counterexample",
        params={"n": n, "N": N, "a": a.to_records(), "m_small": M_SMALL,
                "m_large": M_LARGE, "grid": grid},
        measurements={
            "minimal_word": str(v),
            "identity_max_error": identity_err,
            "sup_norms": {str(m): s for m, s in sups.items()},
            "growth_ratio": ratio,
            "logfit_slope": slope,
        },
        verdict=verdict,
        tolerances={"identity": tol, "growth_ratio_min": 2.0},
        anchors=[
            "compression of the candidate ideal element onto the z1 chain",
            "divergence evidence for the diagonal symbol",
        ],
        notes=["compression norms of the diagonal equal scalar circle sup-norms"],
    )


def exp_membership_witness(b_list: list[FreeSeries] | None = None,
                           c_list: list[FreeSeries] | None = None,
                           K: int = 32, n: int = 2) -> Report:
    """Necessary identity sum_i b^i_{z1^k} c^i_0 = 1/(k+1) for k <= K; any
    candidate list violating it cannot represent sum_k L1^k L2/(k+1) as
    sum_i B_i L2 C_i.  Polynomial diagonals always fail beyond their degree."""
    if K < 0:
        raise ValueError(f"need K >= 0, got {K}")
    if (b_list is None) != (c_list is None):
        raise ValueError("provide both candidate lists or neither")
    if b_list is None:
        b_list = [FreeSeries.make(n, {Word((1,) * k): 1.0 / (k + 1)
                                      for k in range(WITNESS_DEGREE + 1)})]
        c_list = [FreeSeries.one(n)]
    if len(b_list) != len(c_list):
        raise ValueError("candidate lists must pair up")
    deviations = []
    for k in range(K + 1):
        zk = Word((1,) * k)
        total = sum(b.coeff(zk) * c.coeff(Word()) for b, c in zip(b_list, c_list))
        deviations.append(abs(total - 1.0 / (k + 1)))
    max_dev = max(deviations)
    first_bad = next((k for k, d in enumerate(deviations) if d > 1e-12), None)
    h_series = [[{"k": k, "re": c.real, "im": c.imag} for k in range(K + 1)
                 if (c := b.coeff(Word((1,) * k))) != 0] for b in b_list]
    verdict = max_dev > CERTIFICATE_TOL
    return Report(
        name="membership-witness",
        params={"K": K, "p": len(b_list), "n": n},
        measurements={
            "deviations": deviations,
            "max_deviation": max_dev,
            "first_deviating_k": -1 if first_bad is None else first_bad,
            "h_diagonals": h_series,
        },
        verdict=verdict,
        tolerances={"certificate": CERTIFICATE_TOL},
        anchors=["diagonal coefficient identity required of any ideal representation"],
        notes=["verdict 'pass' means the candidates are certified NOT to represent the target"],
    )


def exp_eigenvector(lam_tuple: tuple[complex, ...] | None = None, n: int = 2,
                    N: int = 12, seed: int | None = None, tol: float = 1e-12) -> Report:
    """Eigenvector of the right-algebra adjoints: coefficients are conjugated
    letter products of lam, and stripping the suffix z_i scales by conj(lam_i)."""
    if lam_tuple is None:
        if seed is not None:
            rng = np.random.default_rng(seed)
            raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lam_tuple = tuple(0.7 * raw / np.linalg.norm(raw))
        else:
            lam_tuple = tuple([0.5 + 0.0j, 0.2 + 0.1j][:n]) if n == 2 else tuple(
                0.5 / math.sqrt(n) for _ in range(n))
    lam_tuple = tuple(complex(t) for t in lam_tuple)
    if len(lam_tuple) != n:
        raise ValueError("lam tuple length must equal the alphabet size")
    lam_norm = math.sqrt(sum(abs(t) ** 2 for t in lam_tuple))
    if lam_norm >= 1:
        raise ValueError(f"need ||lam|| < 1, got {lam_norm}")
    BasisIndexer(n, N)  # raises BasisCapExceeded before any level is built
    # the powers of z = sum_i conj(lam_i) z_i, each level once
    z = FockVector.make(n, N, {Word((i,)): t.conjugate() for i, t in enumerate(lam_tuple, 1)})
    power = raw = FockVector.basis(n, N, Word())
    for _ in range(N):
        power = power.mul(z)
        raw = raw.add(power)
    vec = raw.scale(1.0 / raw.norm())
    residuals = []
    for i in range(1, n + 1):
        lhs = creation_op(RIGHT, Word((i,)), n, N).apply_adjoint(vec)
        # R_i* vec lives on the levels below N, where it equals conj(lam_i) vec
        residuals.append(lhs.sub(vec.truncate(N - 1).scale(lam_tuple[i - 1].conjugate())).sup_abs())
    eigen_residual = max(residuals)
    verdict = eigen_residual <= tol
    return Report(
        name="eigenvector",
        params={"n": n, "N": N, "lam": list(lam_tuple), "seed": seed},
        measurements={
            "eigen_residual": eigen_residual,
            "per_letter_residuals": residuals,
            "lam_norm": lam_norm,
        },
        verdict=verdict,
        tolerances={"eigen_residual": tol},
        anchors=["suffix-strip eigen-relation on levels below the truncation"],
    )


def exp_cesaro(s: FreeSeries | None = None, n: int = 2, kmax: int = 64) -> Report:
    """Vector convergence of the Fejer-weighted sums at the vacuum."""
    if s is None:
        coeffs = {Word((1,) * k): 1.0 / (k + 1) for k in range(9)}
        coeffs[Word((2, 1))] = 0.5
        s = FreeSeries.make(n, coeffs)
    d = s.degree()
    if kmax <= d:
        raise ValueError(f"need kmax > support degree {d}")
    errors = [(cesaro_sum(s, k) - s).l2_norm() for k in range(1, kmax + 1)]
    tail_ok = all(errors[k] <= errors[k - 1] + 1e-15 for k in range(d + 1, len(errors)))
    bound = (d / kmax) * s.l2_norm() + 1e-12
    verdict = tail_ok and errors[-1] <= bound
    return Report(
        name="cesaro",
        params={"n": n, "kmax": kmax, "support_degree": d, "symbol": s.to_records()},
        measurements={
            "errors": errors,
            "final_error": errors[-1],
            "final_bound": bound,
        },
        verdict=verdict,
        tolerances={"monotone_slack": 1e-15},
        anchors=["Fejer-weighted sums converge to the symbol at the vacuum"],
    )


def exp_flip_examples(n: int = 2, N: int = 12, terms: int = 4096,
                      grid: int = 2048) -> Report:
    """Word isometries flip (R xi_1 lands in the left algebra's vacuum orbit);
    the diagonal-series isometry does not, and forcing it yields the unbounded
    z1 diagonal.  Also checks the square-summable limit vector whose diagonal
    sup-norms diverge."""
    if terms < 0:
        raise ValueError(f"need terms >= 0, got {terms}")
    flips = {}
    worst_flip = 0.0
    for w in [Word(), Z1, Word((1, 2))]:
        r_op = creation_op(RIGHT, reverse(w), n, N)
        j_op = creation_op(LEFT, reverse(w), n, N)
        vac = FockVector.basis(n, N, Word())
        resid = r_op.apply(vac).sub(j_op.apply(vac)).norm()
        flips[str(w) or "1"] = resid
        worst_flip = max(worst_flip, resid)

    diag = ScalarSeries.make([IDEAL_SCALE / (k + 1) for k in range(1001)])
    ratio = partial_sum_sup(diag, 1000, grid) / partial_sum_sup(diag, 10, grid)

    M = terms
    norm_sq = sum(1.0 / (k + 1) ** 2 for k in range(M + 1))
    norm_dev = abs(norm_sq - ZETA2)
    harm = harmonic_series(1000)
    harm_ratio = partial_sum_sup(harm, 1000, grid) / partial_sum_sup(harm, 10, grid)

    m_chk = min(16, N)
    jm = apply_series(harmonic_series(m_chk), creation_op(LEFT, Z1, n, N))
    four = fourier_of(jm, m_chk)
    coeff_dev = max(
        abs(four.coeff(Word((1,) * k)) - 1.0 / (k + 1)) for k in range(m_chk + 1)
    )
    verdict = (
        worst_flip <= 1e-12
        and ratio > 2.0
        and harm_ratio > 2.0
        and norm_dev <= 1.0 / (M + 1) + 1e-12
        and coeff_dev <= 1e-12
    )
    return Report(
        name="flip-examples",
        params={"n": n, "N": N, "terms": terms, "grid": grid},
        measurements={
            "word_flip_residuals": flips,
            "nonflip_growth_ratio": ratio,
            "limit_vector_norm_sq": norm_sq,
            "limit_vector_norm_sq_dev": norm_dev,
            "diagonal_sup_ratio": harm_ratio,
            "partial_sum_coeff_dev": coeff_dev,
        },
        verdict=verdict,
        tolerances={"flip_residual": 1e-12, "growth_ratio_min": 2.0},
        anchors=[
            "word isometries satisfy the flip relation exactly",
            "square-summable limit vector with divergent diagonal sup-norms",
        ],
        notes=[
            "the running-index display of the partial sums is implemented as "
            "sum_k L1^k/(k+1); the printed exponent m is recorded as a discrepancy"
        ],
    )


def exp_ball_search(w: Word | None = None, degree: int = 2, n: int = 2,
                    N: int = 5, restarts: int = 32, seed: int = 7) -> Report:
    """Unit-ball factor search for L_w plus the norm-free witness pair.

    Feasibility of the near factors is certified by their symbol bounds,
    which bound their norms from above; the largest compression norm over
    all candidates is reported too, but as a lower bound it certifies nothing.
    """
    if w is None:
        w = Word((1, 2))
    cands = search_ball_factorizations(w, degree, n, N, restarts=restarts, seed=seed)
    near = [c for c in cands if c.residual <= NEAR_RESIDUAL]
    classified_ok = all(c.manifold_distance <= CLASSIFICATION_TOL for c in near)
    near_bound = max((symbol_norm_bound(f) for c in near for f in (c.b, c.c)), default=0.0)
    compression_norm = max((op_norm(series_to_op(f, n, N)) for c in cands for f in (c.b, c.c)),
                           default=0.0)
    splits = sorted({f"{cand.split[0]}|{cand.split[1]}" for cand in near})

    K = 24
    g = reciprocal(harmonic_series(K), K)
    bser = FreeSeries.make(n, {Word((1,) * k): g.coeff(k) for k in range(min(K, N) + 1)
                               if g.coeff(k) != 0})
    cser = FreeSeries.make(n, {Word((1,) * k + (2,)): 1.0 / (k + 1) for k in range(N)})
    witness_residual = factorization_residual(bser, cser, Z2, n, N)

    verdict = (bool(near) and classified_ok and near_bound <= 1 + FEASIBILITY_TOL
               and witness_residual <= 1e-9)
    candidate_rows = [
        {
            "restart": c.restart,
            "residual": c.residual,
            "manifold_distance": c.manifold_distance,
            "split": f"{c.split[0]}|{c.split[1]}",
            "iterations": c.iterations,
            "b": c.b.to_records(),
            "c": c.c.to_records(),
        }
        for c in near
    ]
    return Report(
        name="ball-search",
        params={"w": str(w), "degree": degree, "n": n, "N": N,
                "restarts": restarts, "seed": seed},
        measurements={
            "n_candidates": len(cands),
            "n_near": len(near),
            "near_candidates": candidate_rows,
            "splits_found": splits,
            "max_factor_compression_norm": compression_norm,
            "max_near_factor_symbol_bound": near_bound,
            "witness_residual": witness_residual,
        },
        verdict=verdict,
        tolerances={"residual": NEAR_RESIDUAL, "classification": CLASSIFICATION_TOL,
                    "witness_residual": 1e-9, "feasibility": FEASIBILITY_TOL},
        anchors=[
            "unit-ball factorizations of a word isometry collapse onto word splits",
            "norm-free reciprocal-series witness factors a single letter",
        ],
    )


# ---------------------------------------------------------------------------

# Command-line flags of each experiment, in run-all order:
# flag -> (keyword argument, type, help).
_N = ("n", int, "alphabet size")
_LEVEL = ("N", int, "truncation level N")
_K = ("K", int, "series order / term count K")
_KMAX = ("kmax", int, "iteration or level bound")
_TOL = ("tol", float, "verdict tolerance")
_SEED = ("seed", int, "random seed")
_GRID = ("grid", int, "circle grid size")

EXPERIMENTS = {
    "adjoint-decay": {"lam": ("lam", complex, "scalar part, |lam| < 1"),
                      "level": _LEVEL, "kmax": _KMAX, "tol": _TOL},
    "codim-counts": {"n": _N, "level": _LEVEL, "tol": _TOL},
    "factor-generator": {"terms": _K, "level": _LEVEL, "tol": _TOL},
    "thin-isometry": {"n": _N, "kmax": _KMAX, "level": _LEVEL, "tol": _TOL},
    "ideal-counterexample": {"n": _N, "level": _LEVEL, "grid": _GRID, "tol": _TOL},
    "membership-witness": {"terms": _K, "n": _N},
    "eigenvector": {"n": _N, "level": _LEVEL, "seed": _SEED, "tol": _TOL},
    "cesaro": {"n": _N, "kmax": _KMAX},
    "flip-examples": {"n": _N, "level": _LEVEL,
                      "terms": ("terms", int, "terms of the square-summable limit vector"),
                      "grid": _GRID},
    "ball-search": {"word": ("w", Word.parse, 'target word, e.g. "z1 z2"'),
                    "degree": ("degree", int, "factor degree bound"),
                    "n": _N, "level": _LEVEL,
                    "restarts": ("restarts", int, "search restarts"), "seed": _SEED},
}


def experiment(name: str):
    """The function of experiment ``name``, read from the module globals at
    call time so that a wrapper bound there takes effect."""
    return globals()["exp_" + name.replace("-", "_")]


def run_all(seed: int = 7, out_dir: str | Path | None = None) -> list[Report]:
    """Run every experiment with default parameters, passing the seed to
    those that take one."""
    reports = [experiment(name)(**({"seed": seed} if "seed" in flags else {}))
               for name, flags in EXPERIMENTS.items()]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for rep in reports:
            (out / f"{rep.name}.json").write_text(rep.to_json())
        summary = "".join(rep.summary_line() + "\n" for rep in reports)
        (out / "summary.txt").write_text(summary)
    return reports
