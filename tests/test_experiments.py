import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fockalg import calculus
from fockalg import experiments as E
from fockalg import operators
from fockalg.calculus import FactorCandidate
from fockalg.fock import FockVector
from fockalg.cli import build_parser, main
from fockalg.operators import FreeSeries
from fockalg.report import Report
from fockalg.words import BasisCapExceeded, Word, word

REPORT_KEYS = {"name", "params", "measurements", "verdict", "tolerances", "anchors", "notes"}


def test_report_schema():
    rep = E.exp_codim_counts()
    d = rep.to_dict()
    assert set(d) == REPORT_KEYS
    assert d["verdict"] in ("pass", "fail")
    json.loads(rep.to_json())


def test_adjoint_decay_defaults():
    rep = E.exp_adjoint_decay()
    assert rep.verdict
    assert rep.measurements["vacuum_orbit_vs_lam_pow"] <= 1e-12
    assert rep.measurements["max_bound_violation"] <= 1e-12
    assert rep.measurements["compression_norm"] > 1.0  # expansive compression, flagged
    assert rep.notes


def test_adjoint_decay_takes_the_compression_norm_once(monkeypatch):
    # the report and the one contraction_status read take the norm of one L
    calls = []
    sigma = operators.level_split_sigma
    monkeypatch.setattr(operators, "level_split_sigma",
                        lambda *args: calls.append(args) or sigma(*args))
    E.exp_adjoint_decay()
    assert len(calls) == 1


def test_adjoint_decay_notes_an_unchecked_norm():
    # at N=1 the compression norm of 1e-6 I + ~1 L_1 is 1 + 5e-13, under the
    # symbol bound 1 + 1e-6: not expansive, and not shown to be a contraction
    rep = E.exp_adjoint_decay(lam=1e-6, N=1)
    assert len(rep.notes) == 1 and rep.notes[0].startswith("compression norm unchecked")


def test_adjoint_decay_notes_nothing_for_a_contraction():
    # at lam = 0, L = L_1 is an isometry: its symbol bound 1 settles the check
    rep = E.exp_adjoint_decay(lam=0)
    assert rep.verdict and rep.notes == []


@pytest.mark.parametrize("lam", [0.3, 0.9])
def test_adjoint_decay_other_scalars(lam):
    rep = E.exp_adjoint_decay(lam=lam)
    assert rep.verdict


def test_adjoint_decay_rejects_large_scalar():
    for lam in (1.0, math.nan, complex(0.2, math.nan)):
        with pytest.raises(ValueError, match=r"^need \|lam\| < 1"):
            E.exp_adjoint_decay(lam=lam)


def test_codim_counts_level_dims():
    rep = E.exp_codim_counts(N=5)
    dims = [row["complement"] for row in rep.measurements["levels"]]
    assert dims == [1, 1, 2, 4, 8]
    assert rep.verdict


def test_codim_counts_row_isometry():
    s = FreeSeries.make(2, {word(1): 1 / math.sqrt(2), word(2): 1 / math.sqrt(2)})
    rep = E.exp_codim_counts(symbol=s, N=5)
    assert rep.measurements["levels"][1]["complement"] == 1
    assert rep.verdict


def test_codim_counts_rejects_a_non_isometry():
    # (L1 + L1^4) / sqrt(2) is isometric on levels <= 2, its exact region at
    # N=6, but X* X = I + (L_t + L_t*) / 2 with t = z1 z1 z1
    s = FreeSeries.make(2, {word(1): 1 / math.sqrt(2), word(1, 1, 1, 1): 1 / math.sqrt(2)})
    with pytest.raises(ValueError, match="not an isometry"):
        E.exp_codim_counts(symbol=s, N=6)


def test_factor_generator_defaults():
    rep = E.exp_factor_generator()
    assert rep.verdict
    assert rep.measurements["max_coeff_error"] <= 1e-9
    assert rep.measurements["g_degree"] >= 1
    assert rep.measurements["a_support_size"] >= 2


def test_factor_generator_trivial_flagged():
    rep = E.exp_factor_generator(K=1, N=4)
    assert rep.verdict
    assert any("trivial" in note for note in rep.notes)


def test_thin_isometry_measurements():
    rep = E.exp_thin_isometry(kmax=2, N=7)
    m = rep.measurements
    assert rep.verdict
    assert m["recovery_max_error"] <= 1e-12
    assert m["gram_rank"] == m["expected_rank"] == 7
    assert np.allclose(m["xk_norms"], [1.0, math.sqrt(2), 2.0])
    assert abs(m["norm_sq"] - (1 - 2.0**-3)) <= 1e-12


def test_ideal_counterexample_default_and_unit_support():
    rep = E.exp_ideal_counterexample()
    assert rep.verdict
    assert rep.measurements["identity_max_error"] <= 1e-12
    assert rep.measurements["growth_ratio"] > 2.0
    h11 = sum(1.0 / (k + 1) for k in range(11))
    assert abs(rep.measurements["sup_norms"]["10"] - E.IDEAL_SCALE * h11) <= 1e-10

    unit = E.exp_ideal_counterexample(a=FreeSeries.make(2, {Word(): 1.0}))
    assert unit.verdict
    assert unit.measurements["minimal_word"] == ""


def test_ideal_counterexample_adversarial_support():
    # includes a word extending the minimal one past the z2 marker, which must
    # die under the chain projection rather than pollute the identity
    a = FreeSeries.make(2, {word(1): 1.0, word(1, 2, 1): 0.5, word(2, 2): -0.25j})
    rep = E.exp_ideal_counterexample(a=a)
    assert rep.verdict
    assert rep.measurements["identity_max_error"] <= 1e-12
    assert rep.measurements["minimal_word"] == "z1"


def test_membership_witness_default():
    rep = E.exp_membership_witness(K=32)
    devs = rep.measurements["deviations"]
    assert rep.verdict
    assert max(devs[:9]) <= 1e-12
    assert abs(devs[9] - 1.0 / 10.0) <= 1e-12
    assert rep.measurements["first_deviating_k"] == 9


def test_membership_witness_empty_candidates():
    rep = E.exp_membership_witness(b_list=[], c_list=[], K=8)
    assert abs(rep.measurements["max_deviation"] - 1.0) <= 1e-15


def test_membership_witness_wrong_diagonal():
    from fockalg.hardy import harmonic_series, reciprocal

    g = reciprocal(harmonic_series(8), 8)
    b = FreeSeries.make(2, {Word((1,) * k): g.coeff(k) for k in range(9) if g.coeff(k) != 0})
    rep = E.exp_membership_witness(b_list=[b], c_list=[FreeSeries.one(2)], K=8)
    assert rep.verdict
    assert rep.measurements["max_deviation"] > 0.5  # g_1 = -1/2 vs 1/2


def test_membership_witness_reads_only_the_z1_diagonal():
    """Candidates holding words off the z1 diagonal, z1 powers past K and a
    constant term: the deviations and diagonals are the coefficient lookups
    of z1^k, k <= K, bit for bit."""
    K = 12
    b_list = [FreeSeries.make(2, {Word(): 0.9 - 0.1j, word(1): -0.5, word(2): 3.0, word(1, 2): 1.5j,
                                  word(2, 1): 2.0, word(1, 1, 1): 0.25 + 0.5j,
                                  Word((1,) * 20): 7.0}),
              FreeSeries.make(2, {word(1, 1): 1 / 3, word(2, 2): -1.0, Word((1,) * 12): 0.1}),
              FreeSeries.make(2, {word(2): 1.0})]
    c_list = [FreeSeries.make(2, {Word(): 0.7 + 0.2j, word(1): 5.0}), FreeSeries.one(2),
              FreeSeries.make(2, {word(2): 1.0})]
    rep = E.exp_membership_witness(b_list=b_list, c_list=c_list, K=K)
    want = [abs(sum(b.coeff(Word((1,) * k)) * c.coeff(Word()) for b, c in zip(b_list, c_list))
                - 1.0 / (k + 1)) for k in range(K + 1)]
    assert [d.hex() for d in rep.measurements["deviations"]] == [d.hex() for d in want]
    assert rep.measurements["h_diagonals"] == [
        [{"k": k, "re": c.real, "im": c.imag} for k in range(K + 1)
         if (c := b.coeff(Word((1,) * k))) != 0] for b in b_list]
    assert [len(h) for h in rep.measurements["h_diagonals"]] == [3, 2, 0]


def test_eigenvector_axis_case():
    rep = E.exp_eigenvector(lam_tuple=(0.5, 0.0), N=8)
    assert rep.verdict
    assert rep.measurements["eigen_residual"] <= 1e-12


def test_eigenvector_zero_case():
    rep = E.exp_eigenvector(lam_tuple=(0.0, 0.0), N=6)
    assert rep.verdict


def test_eigenvector_rejects_large():
    for lam in ((0.9, 0.9), (math.nan, 0.2)):
        with pytest.raises(ValueError, match=r"^need \|\|lam\|\| < 1"):
            E.exp_eigenvector(lam_tuple=lam)


def test_eigenvector_independent_oracle():
    # solve the coefficient recursion directly and compare suffix stripping
    lam = (0.4 + 0.1j, -0.3)
    rep = E.exp_eigenvector(lam_tuple=lam, N=6)
    assert rep.verdict
    from fockalg.words import enumerate_words

    coeffs = {}
    for k in range(7):
        for w in enumerate_words(2, k):
            prod = 1.0 + 0.0j
            for a in w.letters:
                prod *= complex(lam[a - 1]).conjugate()
            coeffs[w] = prod
    for w in enumerate_words(2, 5):
        for i in (1, 2):
            assert abs(coeffs[Word(w.letters + (i,))] - complex(lam[i - 1]).conjugate() * coeffs[w]) <= 1e-15


def _eigenvector_by_sums(lam, n, N):
    """exp_eigenvector's measurements built as they were before the one-pass
    form: each level added to the sum of the levels below it, and each
    letter's residual a truncation, two scalings, a sum and sup_abs."""
    lam = tuple(complex(t) for t in lam)
    z = FockVector.make(n, N, {Word((i,)): t.conjugate() for i, t in enumerate(lam, 1)})
    power = raw = FockVector.basis(n, N, Word())
    for _ in range(N):
        power = power.mul(z)
        raw = raw.add(power)
    vec = raw.scale(1.0 / raw.norm())
    residuals = [operators.creation_op("right", Word((i,)), n, N).apply_adjoint(vec)
                 .sub(vec.truncate(N - 1).scale(lam[i - 1].conjugate())).sup_abs()
                 for i in range(1, n + 1)]
    return residuals, math.sqrt(sum(abs(t) ** 2 for t in lam))


@pytest.mark.parametrize("lam, n, N", [
    (None, 2, 12),
    ((0.3 + 0.2j, -0.1 + 0.4j), 2, 14),
    ((0.5, 0.0), 2, 10),
    ((0.0, 0.3 + 0.2j, 0.1), 3, 7),
    (None, 3, 8),
    ((complex(-0.0, 0.4), complex(0.3, -0.0)), 2, 11),
    ((0.0,), 1, 5),
], ids=["default", "symbolic", "zero-letter", "n3-zero-letter", "n3-default", "signed-zeros",
        "n1-zero"])
def test_eigenvector_measurements_are_the_sums_bitwise(lam, n, N):
    """The merged levels and the one-pass residuals give the measurements of
    the level-by-level sums and the truncate/scale/add/sup_abs residuals, bit
    for bit."""
    rep = E.exp_eigenvector(lam_tuple=lam, n=n, N=N)
    residuals, lam_norm = _eigenvector_by_sums(rep.params["lam"], n, N)
    got = rep.measurements
    assert [r.hex() for r in got["per_letter_residuals"]] == [r.hex() for r in residuals]
    assert got["eigen_residual"].hex() == max(residuals).hex()
    assert got["lam_norm"].hex() == lam_norm.hex()


def test_cesaro_weight_example():
    rep = E.exp_cesaro(s=FreeSeries.delta(2, word(1)), kmax=16)
    errors = rep.measurements["errors"]
    assert abs(errors[1] - 0.5) <= 1e-15  # k = 2 weight is 1 - 1/2
    assert rep.verdict
    assert errors[-1] < errors[1]


def test_cesaro_default():
    rep = E.exp_cesaro()
    assert rep.verdict
    assert rep.measurements["final_error"] <= rep.measurements["final_bound"]


def test_flip_examples():
    rep = E.exp_flip_examples()
    m = rep.measurements
    assert rep.verdict
    assert max(m["word_flip_residuals"].values()) <= 1e-12
    assert m["nonflip_growth_ratio"] > 2.0
    assert m["diagonal_sup_ratio"] > 2.0
    assert m["limit_vector_norm_sq_dev"] <= 1.0 / 4097 + 1e-12
    assert rep.notes


def test_ball_search_quick():
    rep = E.exp_ball_search(restarts=6, seed=11)
    assert rep.verdict
    m = rep.measurements
    assert m["n_near"] >= 1
    assert m["max_near_factor_symbol_bound"] <= 1 + 1e-12
    assert m["max_factor_compression_norm"] <= 1 + 1e-12
    assert m["witness_residual"] <= 1e-9
    for row in m["near_candidates"]:
        assert row["manifold_distance"] <= 1e-3


def test_ball_search_feasibility_needs_an_upper_bound(monkeypatch):
    # b = 0.52 + 0.5 z1 has norm sup|0.52 + 0.5 z| = 1.02, its symbol bound,
    # while its compression norm at N=5 (0.990) stays below 1
    b = FreeSeries.make(2, {Word(): 0.52, word(1): 0.5})
    c = FreeSeries.delta(2, word(1, 2))
    norm = max(operators.op_norm(operators.series_to_op(f, 2, 5)) for f in (b, c))
    cand = FactorCandidate(b, c, 0.0, norm, 0.0, (Word(), word(1, 2)), 1, 0)
    monkeypatch.setattr(E, "search_ball_factorizations", lambda *args, **kwargs: [cand])
    rep = E.exp_ball_search()
    m = rep.measurements
    assert m["n_near"] == 1
    assert m["max_factor_compression_norm"] <= 1 + 1e-12  # 0.990 for b, 1 for c
    assert m["max_near_factor_symbol_bound"] == pytest.approx(1.02)
    assert not rep.verdict


def test_ball_search_measures_its_factors_with_the_search_plan(monkeypatch):
    # one sigma plan for the search, one per final residual and one for the
    # witness; the factors' compression norms need no plan of their own
    calls = []
    sigma = operators.level_split_sigma

    def counted(*args):
        calls.append(args)
        return sigma(*args)
    # the search's own sigma: four per restart, however many sweeps it runs;
    # two fix the final gauge and projection, two measure the reported factors
    search_sigma = []

    def counted_search_plan(*args):
        plan = counted(*args)

        def measured(vec):
            search_sigma.append(vec)
            return plan(vec)
        return measured
    cands = []
    search = E.search_ball_factorizations

    def recorded(*args, **kwargs):
        out = search(*args, **kwargs)
        cands.extend(out)
        return out
    monkeypatch.setattr(operators, "level_split_sigma", counted)
    monkeypatch.setattr(calculus, "level_split_sigma", counted_search_plan)
    monkeypatch.setattr(E, "search_ball_factorizations", recorded)
    E.exp_ball_search(restarts=4)
    assert len(calls) == 4 + 2
    assert len(cands) == 4
    assert len(search_sigma) == 4 * 4
    assert sum(c.iterations for c in cands) > 4  # some restart sweeps more than once
    # the balanced gauge leaves both factors with the same sigma
    for c in cands:
        sb, sc = (operators.op_norm(operators.series_to_op(f, 2, 5)) for f in (c.b, c.c))
        assert sb == pytest.approx(sc, rel=1e-12, abs=0)


def test_experiment_determinism():
    a = E.exp_eigenvector(seed=5).to_json()
    b = E.exp_eigenvector(seed=5).to_json()
    assert a == b
    c = E.exp_ideal_counterexample().to_json()
    d = E.exp_ideal_counterexample().to_json()
    assert c == d


# -- CLI ----------------------------------------------------------------------


def test_cli_single_experiment(tmp_path, capsys):
    out = tmp_path / "codim.json"
    code = main(["codim-counts", "--level", "4", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["name"] == "codim-counts"
    assert data["verdict"] == "pass"
    assert capsys.readouterr().out.startswith("[PASS]")


def test_cli_flag_mapping(tmp_path):
    code = main(["adjoint-decay", "--lam", "0.3", "--kmax", "100",
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["params"]["kmax"] == 100


def test_cli_eigenvector_seeded():
    assert main(["eigenvector", "--seed", "3", "--level", "8"]) == 0


def test_cli_eigenvector_checks_basis_cap_first(monkeypatch, capsys):
    # the whole basis up to the level is checked before any level is built
    monkeypatch.setenv("FOCKALG_BASIS_CAP", "100")
    with pytest.raises(BasisCapExceeded, match="N=12"):
        E.exp_eigenvector(N=12)
    assert main(["eigenvector", "--level", "12"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "N=12" in err


@pytest.mark.parametrize("name", ["ideal-counterexample", "flip-examples"])
def test_cli_coarsest_grid_folds_long_partial_sums(name, capsys):
    # grid 8 is far below m = 1000: the sup-norm folds c_0..c_1000 mod 8
    assert main([name, "--grid", "8"]) == 0
    assert capsys.readouterr().out.startswith("[PASS]")


def test_cli_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["no-such-thing"])


def test_cli_failing_verdict_exit_code(capsys):
    # at kmax = 20 the lam = 0.9 orbit has not decayed yet, so the verdict fails
    code = main(["adjoint-decay", "--lam", "0.9", "--kmax", "20"])
    assert code == 1
    assert capsys.readouterr().out.startswith("[FAIL]")


@pytest.mark.parametrize("argv", [
    ["factor-generator", "--terms", "0"],
    ["ball-search", "--word", "zq"],
    ["codim-counts", "--n", "1"],
    ["cesaro", "--seed", "3"],  # cesaro takes no seed
    ["ball-search", "--restarts", "0"],
    ["ball-search", "--restarts", "-1"],
    ["adjoint-decay", "--kmax", "-1"],
    ["membership-witness", "--terms", "-1"],
    ["ideal-counterexample", "--level", "1"],  # no vector to check the identity on
    ["flip-examples", "--terms", "-1"],
    ["ball-search", "--word", "z256"],  # one letter a byte
    # a tolerance that can never give a meaningful verdict
    *([name, "--tol", bad] for name, flags in E.EXPERIMENTS.items() if "tol" in flags
      for bad in ("nan", "-1", "inf", "-inf")),
    # a grid past the basis cap, refused before it is allocated
    ["ideal-counterexample", "--grid", "100000000000"],
    ["flip-examples", "--grid", "100000000000"],
])
def test_cli_usage_and_input_errors_exit_2(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "error" in captured.err and "Traceback" not in captured.err


def test_cli_refuses_nan_lam(capsys):
    assert main(["adjoint-decay", "--lam", "nan"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "need |lam| < 1" in err


@pytest.mark.parametrize("argv, message", [
    # kmax is refused itself, not through the truncation N = 3*kmax + 1 made from it
    (["thin-isometry", "--kmax", "-1"], "need kmax >= 0, got -1"),
    # a series has no truncation, so the message names none
    (["cesaro", "--n", "0"], "need 1 <= n <= 255, got n=0"),
    # an alphabet past one letter a byte, by the series or vector built over it
    (["cesaro", "--n", "300"], "need 1 <= n <= 255, got n=300"),
    (["membership-witness", "--n", "300"], "need 1 <= n <= 255, got n=300"),
    (["ideal-counterexample", "--n", "300"], "need 1 <= n <= 255, got n=300"),
    (["flip-examples", "--n", "300"], "need 1 <= n <= 255, got n=300"),
    (["codim-counts", "--n", "300"], "need 1 <= n <= 255, got n=300"),
    # refused up front, not by the words built over it or the factor basis
    (["thin-isometry", "--n", "300"], "need 1 <= n <= 255, got n=300"),
    (["ball-search", "--n", "300"], "need 1 <= n <= 255, got n=300"),
    (["ball-search", "--n", "0"], "need 1 <= n <= 255, got n=0"),
    # one letter, refused before a word the user never gave uses z2
    (["flip-examples", "--n", "1"], "the construction uses z2; need n >= 2, got n=1"),
    (["cesaro", "--n", "1"], "the default symbol uses z2; need n >= 2, got n=1"),
    (["ideal-counterexample", "--n", "1"], "the construction uses z2; need n >= 2, got n=1"),
    (["ball-search", "--n", "1"], "the witness pair uses z2; need n >= 2, got n=1"),
    # the search's bounds, with the values they were given
    (["ball-search", "--degree", "0"], "need |w| <= 2*degree <= N, got |w|=2, degree=0, N=5"),
    (["ball-search", "--level", "3"], "need |w| <= 2*degree <= N, got |w|=2, degree=2, N=3"),
    # L_w = I: the search never reaches its unimodular scalar pairs, so no FAIL is reported
    (["ball-search", "--word", ""], "need a nonempty word w, got '': L_w = I factors only into "
     "unimodular scalars, which the search does not reach"),
    # numpy's own message for a negative seed names no flag
    (["ball-search", "--seed", "-1"], "need seed >= 0, got -1"),
    (["eigenvector", "--seed", "-1"], "need seed >= 0, got -1"),
    # refused up front, not by the first word past the truncation
    (["eigenvector", "--level", "0"], "need N >= 1, got 0"),
    # nor by the symbol built from it
    (["codim-counts", "--level", "0"], "need N >= 1, got 0"),
    (["adjoint-decay", "--level", "0"], "need N >= 1, got 0"),
    (["adjoint-decay", "--level", "-1"], "need N >= 1, got -1"),
    # not by the first word of the flip check past the truncation
    (["flip-examples", "--level", "0"], "need N >= 2, got 0"),
    (["flip-examples", "--level", "1"], "need N >= 2, got 1"),
    (["flip-examples", "--level", "-1"], "need N >= 2, got -1"),
    # the alphabet before the default lam built over it, and before numpy
    (["eigenvector", "--n", "-1"], "need 1 <= n <= 255, got n=-1"),
    (["eigenvector", "--n", "-1", "--seed", "3"], "need 1 <= n <= 255, got n=-1"),
    # each argument alone, not joined with one the CLI has no flag for
    (["ball-search", "--restarts", "0"], "need restarts >= 1, got 0"),
    # bounds stated with the value given
    (["ideal-counterexample", "--level", "0"],
     "need N >= |v| + 1 = 2 to check the identity on a vector, got N=0"),
    (["thin-isometry", "--level", "3"], "need N >= 3*kmax+1 = 7, got N=3"),
    (["cesaro", "--kmax", "5"], "need kmax > support degree 8, got kmax=5"),
    (["factor-generator", "--terms", "0"], "need K >= 1, got 0"),
    (["factor-generator", "--level", "3"],
     "need N >= K + 1 so that depth K stays exact, got N=3, K=64"),
    (["codim-counts", "--n", "1"], "codimension counts need n >= 2, got n=1"),
    (["ideal-counterexample", "--grid", "0"], "need at least 8 grid points, got 0"),
    (["flip-examples", "--grid", "0"], "need at least 8 grid points, got 0"),
    # not by the comparison at truncation N - 1, which the user never set
    (["codim-counts", "--n", "2", "--level", "1"],
     "need N >= d + 1 = 2 so that truncation N - 1 holds the symbol, got N=1"),
], ids=["thin-isometry-kmax", "cesaro-n", "cesaro-n-300", "membership-witness-n-300",
        "ideal-counterexample-n-300", "flip-examples-n-300", "codim-counts-n-300",
        "thin-isometry-n-300", "ball-search-n-300", "ball-search-n-0", "flip-examples-n-1",
        "cesaro-n-1", "ideal-counterexample-n-1", "ball-search-n-1", "ball-search-degree-0",
        "ball-search-level-3", "ball-search-word-empty", "ball-search-seed", "eigenvector-seed",
        "eigenvector-level", "codim-counts-level", "adjoint-decay-level-0",
        "adjoint-decay-level-negative", "flip-examples-level-0", "flip-examples-level-1",
        "flip-examples-level-negative", "eigenvector-n", "eigenvector-n-seed",
        "ball-search-restarts-0", "ideal-counterexample-level-0", "thin-isometry-level-3",
        "cesaro-kmax-5", "factor-generator-terms-0", "factor-generator-level-3",
        "codim-counts-n-1", "ideal-counterexample-grid-0", "flip-examples-grid-0",
        "codim-counts-level-1"])
def test_cli_input_messages_name_the_flags_given(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"fockalg {argv[0]}: error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    # lists as long as the flag
    (["cesaro", "--kmax", "21"], "kmax=21 exceeds cap 20"),
    (["adjoint-decay", "--kmax", "21"], "kmax=21 exceeds cap 20"),
    (["membership-witness", "--terms", "21"], "K=21 exceeds cap 20"),
    # words of total length k(k+1)/2
    (["factor-generator", "--terms", "6"],
     "K=6 builds words of total length K(K+1)/2 = 21, which exceeds cap 20"),
    (["ideal-counterexample", "--level", "6"],
     "N=6 builds words of total length N(N+1)/2 = 21, which exceeds cap 20"),
    # one candidate per restart, a sum of terms + 1 steps
    (["ball-search", "--restarts", "21"], "restarts=21 exceeds cap 20"),
    (["flip-examples", "--terms", "21"], "terms=21 exceeds cap 20"),
], ids=["cesaro-kmax", "adjoint-decay-kmax", "membership-witness-terms", "factor-generator-terms",
        "ideal-counterexample-level", "ball-search-restarts", "flip-examples-terms"])
def test_cli_size_flags_answer_to_the_basis_cap(argv, message, monkeypatch, capsys):
    """A flag that sizes a list or the words of a run is refused past the
    basis cap, before any of it is built, with the value given."""
    monkeypatch.setenv("FOCKALG_BASIS_CAP", "20")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"fockalg {argv[0]}: error: {message}\n"


def test_size_flags_at_the_basis_cap_still_run(monkeypatch):
    monkeypatch.setenv("FOCKALG_BASIS_CAP", "15")
    assert E.exp_cesaro(kmax=15).params["kmax"] == 15
    assert E.exp_membership_witness(K=15).params["K"] == 15
    # runs whose other sizes fit the cap too: a 7-word basis, an 8-point grid
    assert E.exp_flip_examples(N=2, terms=15, grid=8).params["terms"] == 15
    assert E.exp_ball_search(w=Word(), degree=0, N=2, restarts=15).measurements["n_candidates"] == 15
    for run in (lambda: E.exp_cesaro(kmax=16), lambda: E.exp_membership_witness(K=16),
                lambda: E.exp_flip_examples(N=2, terms=16, grid=8),
                lambda: E.exp_ball_search(w=Word(), degree=0, N=2, restarts=16)):
        with pytest.raises(BasisCapExceeded, match="exceeds cap 15$"):
            run()


def test_cli_search_kernel_answers_to_the_basis_cap(monkeypatch, capsys):
    # 993 product words times 32^2 factor-word pairs, refused before anything is allocated
    monkeypatch.delenv("FOCKALG_BASIS_CAP", raising=False)
    assert main(["ball-search", "--n", "31", "--degree", "1", "--level", "2"]) == 2
    assert capsys.readouterr().err == (
        "fockalg ball-search: error: the search kernel at degree 1, n=31 (1016832 entries) "
        "exceeds cap 1000000\n")


def test_cli_tol_is_checked(capsys):
    tol_flags = [name for name, flags in E.EXPERIMENTS.items() if "tol" in flags]
    assert len(tol_flags) == 6
    parser = build_parser()
    for name in tol_flags:
        assert parser.parse_args([name, "--tol", "0"]).tol == 0.0
        assert parser.parse_args([name, "--tol", "1e-9"]).tol == 1e-9
    with pytest.raises(SystemExit) as exc:
        main(["codim-counts", "--tol", "nan"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == ("fockalg codim-counts: error: argument --tol: "
                                       "invalid tol 'nan': need a finite tol >= 0\n")


@pytest.mark.parametrize("name", [name for name, flags in E.EXPERIMENTS.items() if "tol" in flags])
def test_experiment_functions_check_tol(name):
    """The functions refuse a tolerance the CLI refuses, before any other
    check can speak about the operator instead, and still run at tol = 0."""
    run = E.experiment(name)
    for bad in (math.nan, -1.0, math.inf):
        with pytest.raises(ValueError, match=r"^need a finite tol >= 0$"):
            run(tol=bad)
    assert 0.0 in run(tol=0).tolerances.values()


def test_cli_word_names_the_letter_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ball-search", "--word", "z1 z256"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == ("fockalg ball-search: error: argument --word: invalid word 'z1 z256': "
                   "letters must be integers in 1..255, got 256\n")


def test_cli_runs_the_unit_word_at_degree_zero(capsys):
    # the empty-word refusal holds from degree 1 on: at degree 0 the factors
    # are scalars, and the search reaches the pair
    assert main(["ball-search", "--word", "", "--degree", "0"]) == 0
    assert capsys.readouterr().out == "[PASS] ball-search\n"


# -- experiment table ------------------------------------------------------------


def test_experiment_flags_are_function_parameters():
    for name, flags in E.EXPERIMENTS.items():
        params = inspect.signature(E.experiment(name)).parameters
        for flag, (kw, _, _) in flags.items():
            assert kw in params, f"{name} --{flag} -> {kw}"


def test_run_all_runs_each_entry_once(tmp_path, monkeypatch):
    calls = {}
    for name in E.EXPERIMENTS:
        def stub(_name=name, **kwargs):
            calls[_name] = kwargs
            return Report(name=_name, params={}, measurements={}, verdict=True,
                          tolerances={}, anchors=[])
        monkeypatch.setattr(E, "exp_" + name.replace("-", "_"), stub)
    reports = E.run_all(seed=3, out_dir=tmp_path)
    assert [rep.name for rep in reports] == list(E.EXPERIMENTS)
    assert calls == {name: {"seed": 3} if "seed" in flags else {}
                     for name, flags in E.EXPERIMENTS.items()}
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted([f"{name}.json" for name in E.EXPERIMENTS] + ["summary.txt"])


def test_factor_search_demo_script_runs():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "factor_search_demo.py"), "z1 z2", "2", "7"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("target L_[z1 z2]  restarts=2  seed=7")
    # bad input is one line on stderr and exit code 2, not a traceback
    for args in (["z1 z2", "abc"], ["z1 z2", "0"], ["zq"], ["z256"], [""], ["z1 z2", "2", "-1"]):
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "factor_search_demo.py"), *args],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1, (args, proc.stderr)
    assert proc.stderr == "factor_search_demo: error: need seed >= 0, got -1\n"
