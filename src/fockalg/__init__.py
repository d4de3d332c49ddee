"""Numerical toolkit for the truncated Fock space over the free semigroup:
word combinatorics, sparse Fock vectors, symbol/matrix operator compressions,
a scalar series engine, functional calculus, and reproducible experiments."""

from .words import BasisCapExceeded, BasisIndexer, Word, concat, enumerate_words, reverse, word
from .fock import FockVector, FreeSeries, inner
from .operators import (
    TruncOp,
    adjoint_power_orbit,
    cesaro_sum,
    commutant_residual,
    compose,
    creation_op,
    decompose_at,
    fourier_of,
    gram,
    op_from_matrix,
    op_norm,
    range_complement_level_dims,
    series_to_op,
)
from .hardy import ScalarSeries, boundary_modulus, harmonic_series, partial_sum_sup, reciprocal
from .calculus import (
    apply_series,
    factorization_residual,
    h2_times_isometry,
    search_ball_factorizations,
    verify_factorization,
)
from .report import Report
from . import experiments

__version__ = "0.1.0"
