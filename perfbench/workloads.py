"""Seeded inputs and checked task lists for the benchmark's three workloads.

A workload is a list of tasks built once from the seed (that is set-up).
Running a task does the work and checks its output; a wrong output raises
CheckFailed naming what differed.  Tasks build their operators afresh on
every run, so the TruncOp matrix cache never hides a materialisation.

Why these workloads:

* run-all: the package's end-to-end definition.  Unit-ball ALS search is
  about 90% of it and every other layer runs at small sizes, so an ALS change
  shows here and a words/operators change should not.
* symbolic: symbol arithmetic at truncations no basis could hold, with no
  matrix materialised.  Its time is Word construction, FreeSeries.mul and
  symbolic apply/apply_adjoint, which run-all barely touches.
* materialize: seeded symbols written out as matrices on both sides of
  DENSE_CAP and read back through norms, so the dense arm, the sparse arm and
  the threshold between them are all exercised.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

# Calls into fockalg go through module attributes (operators.op_norm, not a
# name imported here), so that the tracer's rebinding sees them.
from fockalg import calculus, cli, experiments, fock, hardy, operators
from fockalg.fock import FockVector
from fockalg.operators import LEFT, RIGHT, FreeSeries
from fockalg.words import Word, enumerate_words

# ALS work in run-all depends strongly on the seed (3,086 to 4,864 sweeps,
# 10.5 to 18.9 s on a 2-vCPU x86-64 VM, over seeds 0..9), which is wider than
# any regression bound.  So run-all always runs at the package's reference
# seed and its wall time compares across benchmark seeds; the other workloads
# draw their inputs from the benchmark seed.
RUN_ALL_SEED = 7

HOMOGENEOUS_TOL = 1e-9
COMMUTANT_TOL = 1e-12
EIGEN_TOL = 1e-12
COMPOSE_TOL = 1e-12


class CheckFailed(AssertionError):
    """A task produced a wrong output."""


@dataclass
class Task:
    """One unit of checked work; ``run`` returns facts to record, or None."""

    name: str
    run: Callable[[], Optional[dict]]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def warm_up() -> None:
    """One sparse-arm spectral norm, so scipy loads ARPACK before timing."""
    n, N = 2, 12  # basis 8191 > DENSE_CAP, so op_norm takes the svds path
    size = (n ** (N + 1) - 1) // (n - 1)
    diag = sp.diags(np.linspace(0.5, 1.0, size)).tocsr().astype(complex)
    nrm = operators.op_norm(operators.op_from_matrix(diag, n, N))
    _require(abs(nrm - 1.0) <= 1e-9, f"warm-up norm {nrm!r} != 1")


# -- run-all -------------------------------------------------------------------


def report_digest(out: Path) -> str:
    """sha256 over the report files, in name order, of name and bytes."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_all_tasks(seed: int, scratch: Path) -> list[Task]:
    out = scratch / "reports"

    def run() -> dict:
        if out.exists():
            shutil.rmtree(out)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(["run-all", "--seed", str(RUN_ALL_SEED), "--out", str(out)])
        lines = captured.getvalue().splitlines()
        failing = [ln for ln in lines if not ln.startswith("[PASS]")]
        _require(code == 0 and not failing, f"exit {code}, verdicts {failing}")
        reports = sorted(out.glob("*.json"))
        _require(len(reports) == len(experiments.EXPERIMENTS),
                 f"{len(reports)} reports written")
        for path in reports:
            verdict = json.loads(path.read_text())["verdict"]
            _require(verdict == "pass", f"{path.name}: verdict {verdict}")
        return {"run_all_digest": report_digest(out)}

    return [Task(f"run-all --seed {RUN_ALL_SEED}", run)]


# -- symbolic ------------------------------------------------------------------

# Symbols are homogeneous (all words of one length), so products and images
# have no coinciding words and their support sizes, hence the work, are the
# same for every seed; the seed picks the words and coefficients.
SYM_N = 3               # alphabet size
SYM_LEVEL = 40          # truncation: the basis has about 1.8e19 vectors
COMPOSE_DEGREES = (4, 5)
COMPOSE_TERMS = 30
VECTOR_TERMS = 80
ORBIT_DEGREE = 2
ORBIT_TERMS = 4
ORBIT_LEVEL = 9         # the orbit starts from a vector on every word up to here
ORBIT_STEPS = 6
FACTOR_TERMS = 256
EIGEN_LEVEL = 14


def _random_coeffs(rng, words) -> dict[Word, complex]:
    return {w: complex(rng.standard_normal(), rng.standard_normal()) for w in words}


def random_homogeneous(rng, n: int, degree: int, terms: int) -> FreeSeries:
    """``terms`` distinct words of length ``degree`` with random coefficients."""
    pool = enumerate_words(n, degree)
    picks = rng.choice(len(pool), size=terms, replace=False)
    return FreeSeries.make(n, _random_coeffs(rng, [pool[i] for i in sorted(picks)]))


def sparse_vector(rng, n: int, N: int, lengths: list[int]) -> FockVector:
    """A unit vector on one distinct random word of each given length."""
    words: set[Word] = set()
    for k in lengths:
        while True:
            w = Word(tuple(int(a) for a in rng.integers(1, n + 1, size=k)))
            if w not in words:
                words.add(w)
                break
    vec = FockVector.make(n, N, _random_coeffs(rng, sorted(words, key=lambda w: (len(w), w.letters))))
    return vec.scale(1.0 / vec.norm())


def full_vector(rng, n: int, N: int, level: int) -> FockVector:
    """A unit vector with a random coefficient on every word of length <= level."""
    words = [w for k in range(level + 1) for w in enumerate_words(n, k)]
    vec = FockVector.make(n, N, _random_coeffs(rng, words))
    return vec.scale(1.0 / vec.norm())


def _max_abs_diff(a: FockVector, b: FockVector) -> float:
    return max((abs(a.coeff(w) - b.coeff(w)) for w in set(a.coeffs) | set(b.coeffs)), default=0.0)


def _compose_task(side: str, x: FreeSeries, y: FreeSeries, xi: FockVector) -> Task:
    def run() -> None:
        n, N = SYM_N, SYM_LEVEL
        X = operators.series_to_op(x, n, N, side)
        Y = operators.series_to_op(y, n, N, side)
        XY = operators.compose(X, Y)
        direct = XY.apply(xi)
        stepwise = X.apply(Y.apply(xi))
        err = _max_abs_diff(direct, stepwise)
        scale = max(abs(c) for c in stepwise.coeffs.values())
        _require(err <= COMPOSE_TOL * scale,
                 f"apply(compose(X,Y)) differs from apply(X, apply(Y, .)) by {err:.3e}")

    return Task(f"compose-apply {side}", run)


def _orbit_task(side: str, s: FreeSeries, xi: FockVector, eta: FockVector) -> Task:
    # a homogeneous symbol is its coefficient l2 norm times an isometry
    norm = s.l2_norm()

    def run() -> None:
        L = operators.series_to_op(s, SYM_N, SYM_LEVEL, side)
        lhs = fock.inner(L.apply_adjoint(xi), eta)
        rhs = fock.inner(xi, L.apply(eta))
        _require(abs(lhs - rhs) <= COMPOSE_TOL * max(1.0, abs(rhs)),
                 f"<L* xi, eta> - <xi, L eta> = {abs(lhs - rhs):.3e}")
        orbit = operators.adjoint_power_orbit(L, xi, ORBIT_STEPS)
        for k in range(ORBIT_STEPS):
            _require(orbit[k + 1] <= norm * orbit[k] * (1 + 1e-12),
                     f"orbit step {k} grew: {orbit[k]:.6e} -> {orbit[k + 1]:.6e}")

    return Task(f"adjoint-orbit {side}", run)


def _factor_generator_task() -> Task:
    def run() -> None:
        rep = experiments.exp_factor_generator(K=FACTOR_TERMS)
        _require(rep.verdict, f"max_coeff_error {rep.measurements['max_coeff_error']:.3e}")

    return Task(f"factor-generator K={FACTOR_TERMS}", run)


def _eigenvector_task(lam: tuple[complex, ...]) -> Task:
    def run() -> None:
        rep = experiments.exp_eigenvector(lam_tuple=lam, n=len(lam), N=EIGEN_LEVEL, tol=EIGEN_TOL)
        res = rep.measurements["eigen_residual"]
        _require(res <= EIGEN_TOL, f"eigen_residual {res:.3e}")

    return Task(f"eigenvector N={EIGEN_LEVEL}", run)


def symbolic_tasks(seed: int, scratch: Path) -> list[Task]:
    rng = np.random.default_rng([seed, 1])
    tasks = [_factor_generator_task()]
    for _ in range(2):
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        radius = rng.uniform(0.3, 0.8)
        tasks.append(_eigenvector_task(tuple(complex(c) for c in radius * raw / np.linalg.norm(raw))))
    top = SYM_LEVEL - sum(COMPOSE_DEGREES)  # deepest input level compose keeps exact
    lengths = [3 + i * (top - 3) // (VECTOR_TERMS - 1) for i in range(VECTOR_TERMS)]
    for side in (LEFT, RIGHT):
        x, y = (random_homogeneous(rng, SYM_N, d, COMPOSE_TERMS) for d in COMPOSE_DEGREES)
        tasks.append(_compose_task(side, x, y, sparse_vector(rng, SYM_N, SYM_LEVEL, lengths)))
    for side in (LEFT, RIGHT):
        s = random_homogeneous(rng, SYM_N, ORBIT_DEGREE, ORBIT_TERMS)
        s = s.scale(rng.uniform(0.5, 0.95) / s.l2_norm())
        xi = full_vector(rng, SYM_N, SYM_LEVEL, ORBIT_LEVEL)
        eta = full_vector(rng, SYM_N, SYM_LEVEL, ORBIT_LEVEL - ORBIT_DEGREE)
        tasks.append(_orbit_task(side, s, xi, eta))
    return tasks


# -- materialize ---------------------------------------------------------------

MAT_N = 2
# (side, level, support size) of each norm task: levels 9 and 10 (basis 1023
# and 2047) take the dense full-SVD arm, 14 and 16 (32767 and 131071) svds
NORM_SHAPES = ((LEFT, 9, 2), (RIGHT, 10, 2), (RIGHT, 14, 3), (LEFT, 16, 3), (RIGHT, 16, 3))
COMMUTANT_LEVEL = 8
FACTOR_LEVEL = 16             # contraction check materialises 131071 vectors
FACTOR_DEPTH = FACTOR_LEVEL - 2


def _norm_task(side: str, s: FreeSeries, N: int) -> Task:
    arm = "dense" if (MAT_N ** (N + 1) - 1) // (MAT_N - 1) <= operators.DENSE_CAP else "sparse"

    def run() -> None:
        nrm = operators.op_norm(operators.series_to_op(s, MAT_N, N, side))
        want = s.l2_norm()
        _require(abs(nrm - want) <= HOMOGENEOUS_TOL,
                 f"compression norm {nrm!r} != coefficient l2 norm {want!r}")

    return Task(f"op_norm {arm} {side} N={N}", run)


def _commutant_task(s: FreeSeries) -> Task:
    def run() -> None:
        res = operators.commutant_residual(operators.series_to_op(s, MAT_N, COMMUTANT_LEVEL))
        _require(res <= COMMUTANT_TOL, f"commutant residual {res:.3e}")

    return Task(f"commutant_residual N={COMMUTANT_LEVEL}", run)


def _factorization_task(i: int, j: int) -> Task:
    def run() -> None:
        n, N, K = MAT_N, FACTOR_LEVEL, FACTOR_DEPTH
        X = operators.creation_op(LEFT, Word((i,)), n, N)
        target = operators.creation_op(LEFT, Word((j,)), n, N)
        A = calculus.h2_times_isometry(hardy.harmonic_series(K - 1), X, target)
        g = hardy.reciprocal(hardy.harmonic_series(K), K)
        rep = calculus.verify_factorization(g, X, A, target, depth=K)
        _require(rep.verdict, f"max_coeff_error {rep.measurements['max_coeff_error']:.3e}")

    return Task(f"verify_factorization N={FACTOR_LEVEL}", run)


def materialize_tasks(seed: int, scratch: Path) -> list[Task]:
    """Fixed shapes (level, side, degree, support size); seeded words and coefficients.

    The side is fixed per task because it decides which pages of a dense
    matrix get written, and so the peak RSS.
    """
    rng = np.random.default_rng([seed, 2])

    def symbol(degree: int, terms: int) -> FreeSeries:
        s = random_homogeneous(rng, MAT_N, degree, terms)
        return s.scale(rng.uniform(0.5, 1.5) / s.l2_norm())

    tasks = [_norm_task(side, symbol(2, terms), N) for side, N, terms in NORM_SHAPES]
    tasks.append(_commutant_task(symbol(1, 1).add(symbol(3, 4))))
    i = int(rng.integers(1, MAT_N + 1))
    tasks.append(_factorization_task(i, MAT_N + 1 - i))
    return tasks


WORKLOADS = {
    "run-all": run_all_tasks,
    "symbolic": symbolic_tasks,
    "materialize": materialize_tasks,
}
