import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fockalg import experiments as E
from fockalg import operators
from fockalg.calculus import FactorCandidate
from fockalg.cli import main
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
    # the report and each of the six orbit certificates read the norm of one L
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


@pytest.mark.parametrize("lam", [0.3, 0.9])
def test_adjoint_decay_other_scalars(lam):
    rep = E.exp_adjoint_decay(lam=lam)
    assert rep.verdict


def test_adjoint_decay_rejects_large_scalar():
    with pytest.raises(ValueError):
        E.exp_adjoint_decay(lam=1.0)


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


def test_eigenvector_axis_case():
    rep = E.exp_eigenvector(lam_tuple=(0.5, 0.0), N=8)
    assert rep.verdict
    assert rep.measurements["eigen_residual"] <= 1e-12


def test_eigenvector_zero_case():
    rep = E.exp_eigenvector(lam_tuple=(0.0, 0.0), N=6)
    assert rep.verdict


def test_eigenvector_rejects_large():
    with pytest.raises(ValueError):
        E.exp_eigenvector(lam_tuple=(0.9, 0.9))


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
    cand = FactorCandidate(b, c, 0.0, 0.0, (Word(), word(1, 2)), 1.0 + 0.0j, 1, 0)
    monkeypatch.setattr(E, "search_ball_factorizations", lambda *args, **kwargs: [cand])
    rep = E.exp_ball_search()
    m = rep.measurements
    assert m["n_near"] == 1
    assert m["max_factor_compression_norm"] <= 1 + 1e-12  # 0.990 for b, 1 for c
    assert m["max_near_factor_symbol_bound"] == pytest.approx(1.02)
    assert not rep.verdict


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


def test_cli_word_names_the_letter_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ball-search", "--word", "z1 z256"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == ("fockalg ball-search: error: argument --word: invalid word 'z1 z256': "
                   "letters must be integers in 1..255, got 256\n")


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
    for args in (["z1 z2", "abc"], ["z1 z2", "0"], ["zq"], ["z256"]):
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "factor_search_demo.py"), *args],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1, (args, proc.stderr)
