"""Verification harness reports and the command line surface (in process)."""

import csv
import io
import json
import time

import pytest

from cliffmod.cli import main
from cliffmod.clifford import Multivector
from cliffmod.congruence import GroupDescriptor, enumerate_cosets
from cliffmod.harness import (CHECK_BUILDERS, DEFAULT_THRESHOLDS, THRESHOLDS_VERSION,
                              VerificationReport, check_automorphy, check_limits, check_zeta_nonvanishing,
                              run_checks)
from cliffmod.series import SeriesSpec, scalar_eisenstein


# ---- harness ----------------------------------------------------------------


def test_run_checks_subset():
    reports = run_checks(["clifford", "mobius", "kernel"], seed=7)
    assert [r.check for r in reports] == ["clifford_relations", "mobius_homomorphism",
                                          "kernel_multiplicativity"]
    assert all(r.passed for r in reports)
    assert all(r.residual <= r.threshold for r in reports
               if r.residual is not None and r.threshold is not None)


def test_run_checks_unknown_name():
    with pytest.raises(ValueError):
        run_checks(["clifford", "nonsense"])


def test_threshold_override_can_fail_a_check():
    rep, = run_checks(["kernel"], seed=7, thresholds={"kernel_multiplicativity": 0.0})
    assert not rep.passed
    assert rep.threshold == 0.0


@pytest.mark.parametrize("value", ["1", True])
def test_run_checks_refuses_a_threshold_that_is_not_a_number(value):
    with pytest.raises(ValueError, match="takes a number"):
        run_checks(["kernel"], thresholds={"kernel_multiplicativity": value})


def test_report_shape():
    rep, = run_checks(["kernel"], seed=0)
    d = rep.to_json_dict()
    for key in ("check", "params", "pass", "seconds", "residual", "threshold"):
        assert key in d
    assert isinstance(d["seconds"], float) and 0 <= d["seconds"] == round(d["seconds"], 6)
    line = rep.summary_line()
    assert "kernel_multiplicativity" in line and ("PASS" in line or "FAIL" in line)
    assert set(CHECK_BUILDERS) >= {"clifford", "mobius", "kernel", "monogenic", "jets",
                                   "cosets", "limits", "collapse", "automorphy",
                                   "polymono", "zeta", "abscissa"}
    assert THRESHOLDS_VERSION == "1"
    assert set(DEFAULT_THRESHOLDS)  # nonempty tolerance table


def test_checks_refuse_a_truncation_of_only_c_zero_cosets():
    # odd weight over principal[3] at n = 4 has only the identity coset below L = 8
    with pytest.raises(ValueError, match="word length 6; raise the word limit"):
        check_limits("oddweight", 4, 1, 1, level=3, word_limit=6)
    with pytest.raises(ValueError, match="word length 4; raise the word limit"):
        check_automorphy("oddweight", 4, 1, 1, variant="principal", level=3, word_limits=(4, 6))
    # a level on its own names the principal congruence subgroup in both checks
    with pytest.raises(ValueError, match="word length 4; raise the word limit"):
        check_automorphy("oddweight", 4, 1, 1, level=3, word_limits=(4, 6))
    assert check_limits("oddweight", 4, 1, 1, level=3, word_limit=8).passed


def test_checks_refuse_a_vacuous_request():
    # one word limit (or none increasing) gives no decrease to test; all() of no pairs is True
    for word_limits in ((8,), (), (8, 8), (8, 5)):
        with pytest.raises(ValueError, match="two strictly increasing word limits"):
            check_automorphy("scalar", 5, 1, 2, word_limits=word_limits)
    # equal radii leave no tail: the ratio would be inf
    with pytest.raises(ValueError, match="radii r0 < r1"):
        check_zeta_nonvanishing(radii=(4, 4))
    # the one kind gate of the limit and automorphy checks
    with pytest.raises(ValueError, match=r"^no automorphy statement for series kind 'vector'; "
                                         r"choose from \('scalar', 'oddweight', 'biregular'\)$"):
        check_automorphy("vector", 4, 1, 1, level=3, word_limits=(8, 10))
    with pytest.raises(ValueError, match="^no limit statement for series kind 'poincare'; choose from"):
        check_limits("poincare", 4, 1, 1)


# ---- cli: cosets ---------------------------------------------------------------


def test_cli_cosets_json(tmp_path):
    out = tmp_path / "cosets.json"
    code = main(["cosets", "--n", "4", "--p", "1", "--maxlen", "4",
                 "--outfile", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    reps = enumerate_cosets(GroupDescriptor.full(4, 1), 4)
    assert payload["count"] == len(reps)
    assert payload["count_c_zero"] == sum(1 for r in reps if r.is_c_zero())
    assert payload["contains_neg_identity"] is True
    assert payload["translation_lattice_scale"] == 1
    first = payload["cosets"][0]
    assert set(first) >= {"word_length", "height", "c_zero", "a", "b", "c", "d", "word"}


def test_cli_cosets_csv(tmp_path):
    out = tmp_path / "cosets.csv"
    assert main(["cosets", "--n", "4", "--p", "1", "--group", "theta",
                 "--maxlen", "4", "--out", "csv", "--outfile", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert rows
    assert set(rows[0]) == {"word_length", "height", "c_zero", "a", "b", "c", "d"}


def test_cli_cosets_level_validation(tmp_path, capsys):
    assert main(["cosets", "--n", "4", "--p", "1", "--group", "principal"]) == 2
    assert "level" in capsys.readouterr().err
    # a level on its own names the principal congruence subgroup
    out = tmp_path / "cosets.json"
    assert main(["cosets", "--n", "4", "--p", "1", "--level", "2", "--maxlen", "4",
                 "--outfile", str(out)]) == 0
    assert json.loads(out.read_text())["group"] == "Gamma_1[2]"


# ---- cli: eval -----------------------------------------------------------------


def test_cli_eval_matches_library(tmp_path):
    out = tmp_path / "eval.json"
    code = main(["eval", "--n", "5", "--p", "1", "--series", "scalar", "--s", "2",
                 "--maxlen", "3", "--outfile", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    spec = SeriesSpec("scalar", GroupDescriptor.full(5, 1), 2, word_limit=3)
    for entry, height in zip(payload["results"], (1.0, 2.0)):
        x = Multivector.vector([0.0, 0.0, 0.0, 0.0, height])
        expect = scalar_eisenstein(x, spec)
        got = entry["value"]["components"]
        assert got["00000"] == pytest.approx(expect.value.scalar_part(), rel=1e-12)
        assert entry["n_terms"] == expect.n_terms
        levels = [p["level"] for p in entry["partial_sums"]]
        assert levels == list(range(4))


def test_cli_eval_points_file(tmp_path):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[0.1, -0.2, 0.0, 0.0, 1.5]]))
    out = tmp_path / "eval.json"
    assert main(["eval", "--n", "5", "--p", "1", "--series", "scalar", "--s", "2",
                 "--maxlen", "2", "--points", str(pts), "--outfile", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["results"]) == 1
    assert payload["results"][0]["point"]["components"]["00001"] == pytest.approx(1.5)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[1.0, 2.0]]))  # wrong arity
    assert main(["eval", "--n", "5", "--p", "1", "--series", "scalar", "--s", "2",
                 "--points", str(bad)]) == 2


def test_cli_eval_vector_and_biregular(tmp_path):
    out = tmp_path / "v.json"
    assert main(["eval", "--n", "4", "--p", "1", "--series", "vector", "--s", "1",
                 "--m", "0,0,0,3", "--box", "1", "--maxlen", "2",
                 "--outfile", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["spec"]["m"] == [0, 0, 0, 3]
    out2 = tmp_path / "b.csv"
    assert main(["eval", "--n", "4", "--p", "1", "--series", "biregular", "--s", "1",
                 "--t", "1", "--maxlen", "2", "--out", "csv", "--outfile", str(out2)]) == 0
    rows = list(csv.reader(io.StringIO(out2.read_text())))
    assert rows[0] == ["point", "second_point", "value"]
    assert len(rows) == 3


def test_cli_eval_vector_multi_index_of_the_wrong_length_is_usage_error(capsys):
    err = _one_line_usage_error(capsys, ["eval", "--n", "4", "--series", "vector", "--s", "1", "--m", "3,0"])
    assert "multi-index must be 4 nonnegative integers" in err


@pytest.mark.parametrize("command", ["eval", "limits"])
def test_cli_eval_and_limits_run_without_arguments(capsys, command):
    assert main([command]) == 0
    capsys.readouterr()


def test_cli_eval_divergent_spec_is_usage_error(capsys):
    # weight too large for the dimension: the convergence check refuses
    assert main(["eval", "--n", "4", "--p", "1", "--series", "scalar", "--s", "2"]) == 2
    assert "error:" in capsys.readouterr().err


# ---- cli: verify ---------------------------------------------------------------


def test_cli_verify_pass_and_summary(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "--check", "clifford", "--check", "kernel",
                 "--seed", "3", "--outfile", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "clifford" in err and "kernel" in err
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True
    assert payload["thresholds_version"] == THRESHOLDS_VERSION
    assert [r["check"] for r in payload["reports"]] == ["clifford_relations",
                                                        "kernel_multiplicativity"]


def test_cli_verify_failure_exit_code(tmp_path):
    out = tmp_path / "verify.json"
    code = main(["verify", "--check", "kernel",
                 "--threshold", "kernel_multiplicativity=0", "--outfile", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["all_passed"] is False


def test_cli_verify_usage_errors(capsys):
    assert main(["verify"]) == 2
    assert main(["verify", "--check", "kernel", "--threshold", "oops"]) == 2
    assert main(["verify", "--check", "nonsense"]) == 2
    capsys.readouterr()


def _one_line_usage_error(capsys, argv) -> str:
    """Run argv, expect exit 2 with nothing but a one-line message, return it."""
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    return err


def test_cli_verify_refuses_an_unknown_threshold(capsys):
    err = _one_line_usage_error(capsys, ["verify", "--check", "kernel", "--threshold", "nope=1"])
    assert "'nope'" in err
    # no check reads a clifford_relations tolerance: the relations are exact
    err = _one_line_usage_error(capsys, ["verify", "--check", "clifford",
                                         "--threshold", "clifford_relations=7"])
    assert "'clifford_relations'" in err


def test_cli_verify_refuses_a_negative_threshold(capsys):
    err = _one_line_usage_error(capsys, ["verify", "--check", "monogenic",
                                         "--threshold", "kernel_monogenicity=-1"])
    assert ">= 0" in err


def test_run_checks_refuses_a_pair_threshold_with_lo_above_hi():
    with pytest.raises(ValueError, match="lo <= hi"):
        run_checks(["monogenic"], thresholds={"kernel_monogenicity_ratio": (5.0, 3.0)})


def test_cli_verify_reads_a_pair_threshold_as_lo_hi(capsys):
    # the monogenic check's median halving ratio is 4.00
    assert main(["verify", "--check", "monogenic", "--threshold", "kernel_monogenicity_ratio=4.5,5"]) == 1
    assert main(["verify", "--check", "monogenic", "--threshold", "kernel_monogenicity_ratio=3,5"]) == 0
    err = _one_line_usage_error(capsys, ["verify", "--check", "monogenic",
                                         "--threshold", "kernel_monogenicity_ratio=5,3"])
    assert "lo <= hi" in err
    err = _one_line_usage_error(capsys, ["verify", "--check", "monogenic",
                                         "--threshold", "kernel_monogenicity=1,2"])
    assert "a number" in err


def test_cli_verify_refuses_a_scalar_for_a_pair_threshold(capsys):
    err = _one_line_usage_error(capsys, ["verify", "--check", "monogenic",
                                         "--threshold", "kernel_monogenicity_ratio=3"])
    assert "pair" in err
    with pytest.raises(ValueError, match="pair"):
        run_checks(["monogenic"], thresholds={"kernel_monogenicity_ratio": 4.0})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_verify_refuses_a_non_finite_threshold(capsys, value):
    err = _one_line_usage_error(capsys, ["verify", "--check", "limits",
                                         "--threshold", f"limit_final_error={value}"])
    assert "finite" in err


def test_cli_verify_deterministic_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--check", "kernel", "--check", "mobius", "--deterministic"]
    assert main(argv + ["--outfile", str(a)]) == 0
    assert main(argv + ["--outfile", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_verify_csv(tmp_path):
    out = tmp_path / "verify.csv"
    assert main(["verify", "--check", "kernel", "--out", "csv",
                 "--outfile", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["check", "pass", "residual", "count", "threshold", "target", "seconds"]
    assert rows[1][0] == "kernel_multiplicativity"


# ---- cli: limits ---------------------------------------------------------------


def test_cli_limits(tmp_path, capsys):
    out = tmp_path / "limits.json"
    code = main(["limits", "--n", "5", "--p", "1", "--series", "scalar", "--s", "2",
                 "--maxlen", "6", "--tvals", "10,30", "--outfile", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["check"] == "limit_scalar"
    assert payload["pass"] is True
    assert 0 < payload["seconds"] == round(payload["seconds"], 6)
    assert main(["limits", "--n", "5", "--tvals", "ten"]) == 2
    capsys.readouterr()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the p = 2 word table at its cap L = 5 "
                                        "finds only 6 of the 8 c = 0 cosets")
def test_limit_target_at_p2_counts_every_c_zero_coset():
    assert check_limits("scalar", 6, 2, 2, word_limit=5).target == 8


def test_cli_limits_refuses_a_height_too_large_for_a_float(capsys):
    huge = "1" + "0" * 400
    err = _one_line_usage_error(capsys, ["limits", "--n", "5", "--tvals", f"10,30,{huge}"])
    assert "too large" in err


def test_limits_refuses_fewer_than_two_heights_or_a_non_finite_one(capsys):
    _one_line_usage_error(capsys, ["limits", "--n", "5", "--tvals", "10"])
    for t_values in ((10,), (), (10, float("inf")), (float("nan"), 30)):
        with pytest.raises(ValueError, match="two finite heights"):
            check_limits("scalar", n=5, p=1, s=2, word_limit=6, t_values=t_values)


def test_cli_limits_csv_uses_the_verify_layout(tmp_path, capsys):
    argv = ["limits", "--n", "5", "--p", "1", "--series", "scalar", "--s", "2",
            "--maxlen", "6", "--tvals", "10,30", "--deterministic"]
    out = tmp_path / "limits.csv"
    assert main(argv + ["--out", "csv", "--outfile", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["check", "pass", "residual", "count", "threshold", "target", "seconds"]
    assert len(rows) == 2 and rows[1][0] == "limit_scalar" and rows[1][1] == "True"
    # the default stays the report's JSON
    default, explicit = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--outfile", str(default)]) == 0
    assert main(argv + ["--out", "json", "--outfile", str(explicit)]) == 0
    rep = check_limits("scalar", n=5, p=1, s=2, word_limit=6, t_values=(10, 30))
    rep.seconds = 0.0
    assert default.read_text() == explicit.read_text() == json.dumps(rep.to_json_dict(), indent=2,
                                                                     sort_keys=True)
    capsys.readouterr()



@pytest.mark.parametrize("group, label", [(["--group", "theta"], "Gamma_1_theta"),
                                          (["--group", "principal", "--level", "3"], "Gamma_1[3]"),
                                          (["--level", "3"], "Gamma_1[3]")])
def test_cli_limits_report_names_its_group(tmp_path, capsys, group, label):
    out = tmp_path / "limits.json"
    assert main(["limits", "--n", "5", "--p", "1", "--series", "scalar", "--s", "2", "--maxlen", "8",
                 "--tvals", "10,30", *group, "--outfile", str(out)]) == 0
    assert json.loads(out.read_text())["params"]["group"] == label
    capsys.readouterr()


_SMALL_RUNS = {
    "cosets": ["cosets", "--n", "4", "--p", "1", "--maxlen", "4"],
    "eval": ["eval", "--n", "5", "--p", "1", "--series", "scalar", "--s", "2", "--maxlen", "3"],
    "limits": ["limits", "--n", "5", "--p", "1", "--series", "scalar", "--s", "2", "--maxlen", "6",
               "--tvals", "10,30"],
    "verify": ["verify", "--check", "kernel"],
}


@pytest.mark.parametrize("out", ["json", "csv"])
@pytest.mark.parametrize("command", list(_SMALL_RUNS))
def test_cli_deterministic_output_is_byte_identical_for_every_subcommand(tmp_path, capsys, command, out):
    argv = _SMALL_RUNS[command] + ["--out", out, "--deterministic"]
    runs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.{out}"
        assert main(argv + ["--outfile", str(path)]) == 0
        runs.append((path.read_bytes(), capsys.readouterr()))
    assert runs[0] == runs[1]

def test_cli_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---- cli: bad inputs -------------------------------------------------------------


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


def test_cli_cosets_negative_maxlen_is_usage_error(capsys):
    assert main(["cosets", "--n", "4", "--p", "1", "--maxlen", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err)


@pytest.mark.parametrize("point", [
    [0.0, 0.0, 0.0, 0.0, 1e-300],          # |x|^2 underflows to 0
    [0.0, 0.0, 0.0, 0.0, 1e-160],          # |x|^(s-n) overflows
    [0.0, 0.0, 0.0, 0.0, float("inf")],
    [0.0, 0.0, 0.0, 0.0, 1e300],           # |x|^2 overflows to inf
    [0.0, 0.0, float("nan"), 0.0, 1.0],
    [0.1, 0.2, 0.3, None, 1.0],            # only JSON numbers are coordinates
    [0.1, 0.2, 0.3, [1], 1.0],
    [0.1, 0.2, 0.3, "0.1", 1.0],
    [0.1, 0.2, 0.3, True, 1.0],
    [0, 0, 0, 0, 10 ** 400],               # a JSON integer too large for a float
])
def test_cli_eval_bad_point_is_usage_error(tmp_path, capsys, point):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([point]))  # writes Infinity and NaN as JSON extensions
    assert main(["eval", "--n", "5", "--maxlen", "4", "--points", str(pts)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err)


@pytest.mark.parametrize("argv", [
    ["cosets", "--n", "5", "--p", "1", "--maxlen", "30"],
    ["cosets", "--n", "8", "--p", "2", "--maxlen", "12"],
    ["eval", "--n", "5", "--maxlen", "40"],
    ["eval", "--n", "4", "--series", "vector", "--s", "1", "--m", "0,0,0,3", "--maxlen", "2",
     "--box", "100"],
    ["eval", "--n", "4", "--series", "vector", "--s", "1", "--m", "99,0,0,0", "--maxlen", "1",
     "--box", "1"],
])
def test_cli_over_budget_request_is_a_quick_usage_error(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err) and "budget" in captured.err


@pytest.mark.parametrize("command", ["cosets", "eval", "limits"])
def test_cli_level_on_a_group_without_one_is_usage_error(capsys, command):
    assert main([command, "--n", "5", "--p", "1", "--group", "full", "--level", "5",
                 "--maxlen", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err) and "level" in captured.err


def test_cli_limits_without_c_nonzero_coset_is_usage_error(capsys):
    assert main(["limits", "--n", "4", "--p", "1", "--series", "oddweight", "--s", "1",
                 "--group", "principal", "--level", "3", "--maxlen", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err) and "raise the word limit" in captured.err
