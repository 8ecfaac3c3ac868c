"""Command-line contract: exit codes, output formats, config handling."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import zetacheck
from zetacheck import cli, rhfe, traces
from zetacheck.report import CLAIM_IDS, reports_to_json, strip_volatile

import reference_routes as routes

try:
    from hypothesis import given, seed, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is in the test extra
    given = None


def run(argv):
    """Invoke the entry point, normalizing SystemExit into a return code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return int(exc.code)


# -- exit codes ---------------------------------------------------------------


def test_identity_suite_passes(tmp_path):
    out = tmp_path / "theta.json"
    assert run(["verify", "--suite", "theta", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data) == 20
    assert all(d["status"] == "CONFIRMED" for d in data)


@pytest.mark.parametrize("seed", [0, 1, 89, 3231])
def test_fresnel_suite_equals_the_serial_reference(seed):
    # One call per check gives the reports, order and thresholds of one
    # call per point, wall times aside; seed 89 holds a blind first lobe.
    checks = cli._SUITES["fresnel"]
    reference = routes.serial_fresnel_suite(seed)
    assert [c.threshold for c in checks] == [t for t, _ in reference]
    for check, (_, reports) in zip(checks, reference):
        assert (strip_volatile(reports_to_json(check.evaluate(seed)))
                == strip_volatile(reports_to_json(reports)))


def test_unattainable_tolerance_exits_two(tmp_path):
    out = tmp_path / "race.json"
    code = run(["verify", "--suite", "race", "--tol", "1e-30",
                "--out", str(out)])
    assert code == 2
    # the report file is still written before the failure code is returned
    assert out.exists()


@pytest.mark.parametrize("suite, n_reports, claim_ids", [
    ("race", 25, ["race"] * 25),
    ("reflection", 8, ["race"] * 8),
    ("theta", 20, ["theta-jacobi"] * 20),
    ("newton-leibnitz", 1, ["newton-leibnitz"]),
    ("trace-algebra", 2, ["trace-decomposition", "bridge"]),
])
def test_each_cheap_suite(suite, n_reports, claim_ids, tmp_path):
    out = tmp_path / f"{suite}.json"
    assert run(["verify", "--suite", suite, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data) == n_reports
    assert [d["claimId"] for d in data] == claim_ids
    if suite == "reflection":
        assert [d["inputs"]["check"] for d in data] == \
            ["reflection", "critical-line-real"] * 4
    assert run(["verify", "--suite", suite, "--tol", "1e-30",
                "--out", str(out)]) == 2


def test_nan_sample_residual_is_not_dropped(monkeypatch, tmp_path):
    # One NaN among the 200 bridge samples must fail the check: a max that
    # drops NaN would report the other samples' worst and exit 0.
    real = traces.bridge_residual
    calls = []

    def one_nan(j, s):
        calls.append(1)
        return math.nan if len(calls) == 100 else real(j, s)

    monkeypatch.setattr(traces, "bridge_residual", one_nan)
    out = tmp_path / "algebra.json"
    assert run(["verify", "--suite", "trace-algebra", "--out", str(out)]) == 2
    bridge = json.loads(out.read_text())[1]
    assert bridge["claimId"] == "bridge"
    assert bridge["status"] == "VIOLATED"
    assert bridge["absResidual"] == "nan"


def test_unconverged_newton_leibnitz_sample_is_inconclusive(monkeypatch,
                                                            tmp_path):
    # One sample's quadrature reports converged=False: the worst residual is
    # still tiny, but the check must not confirm what did not converge, and
    # verify must not pass a report that is not CONFIRMED.
    real = rhfe.newton_leibnitz_quadrature
    calls = []

    def one_unconverged(w, v, big_n):
        calls.append(1)
        res = real(w, v, big_n)
        return replace(res, converged=False) if len(calls) == 50 else res

    monkeypatch.setattr(rhfe, "newton_leibnitz_quadrature", one_unconverged)
    out = tmp_path / "nl.json"
    assert run(["verify", "--suite", "newton-leibnitz", "--out",
                str(out)]) == 2
    report, = json.loads(out.read_text())
    assert len(calls) == 100
    assert report["claimId"] == "newton-leibnitz"
    assert report["status"] == "INCONCLUSIVE"
    assert report["absResidual"] < 1e-9


def test_strict_claims_exits_three(tmp_path):
    out = tmp_path / "gram.json"
    assert run(["gram", "--out", str(out)]) == 0
    assert run(["gram", "--strict-claims", "--out", str(out)]) == 3


def test_unwritable_output_exits_four(tmp_path):
    target = tmp_path / "no-such-dir" / "x.json"
    assert run(["gram", "--out", str(target)]) == 4


@pytest.mark.parametrize("argv", [
    ["verify", "--bogus"],
    ["verify", "--suite", "nonsense"],
    ["verify", "--digits", "7"],
    ["verify", "--digits", "999"],
    ["verify", "--tol", "2.0"],
    ["verify", "--format", "xml"],
    ["no-such-command"],
    ["gram", "--seed", "-20260816"],
    ["rhfe", "--im", "-500"],   # past zeta's certified strip |im s| <= 50
    ["rhfe", "--im", "-inf"],
])
def test_invalid_usage_exits_sixty_four(argv, capsys):
    assert run(argv) == 64
    capsys.readouterr()


# -- output formats -----------------------------------------------------------


def test_json_goes_to_stdout_by_default(capsys):
    assert run(["cm"]) == 0
    payload = capsys.readouterr().out
    data = json.loads(payload)
    assert [d["claimId"] for d in data] == ["cm-scan", "cm-scan"]
    assert payload.endswith("\n")


def test_csv_round_trips(capsys):
    assert run(["gram", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 3
    assert rows[0]["claimId"] == "gram-psd"
    float(rows[0]["absResidual"])     # parsable numerics
    json.loads(rows[0]["inputs"])     # inputs column is embedded JSON


# -- determinism ---------------------------------------------------------------


def test_repeat_runs_are_byte_identical_minus_wall_time(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["gram", "--seed", "5", "--out", str(out)]) == 0
    assert strip_volatile(a.read_text()) == strip_volatile(b.read_text())


def test_seed_changes_randomized_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify", "--suite", "newton-leibnitz", "--seed", "1",
                "--out", str(a)]) == 0
    assert run(["verify", "--suite", "newton-leibnitz", "--seed", "2",
                "--out", str(b)]) == 0
    assert strip_volatile(a.read_text()) != strip_volatile(b.read_text())


# -- config files --------------------------------------------------------------


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep setup\nsuite = theta\nformat = csv\n",
                   encoding="utf-8")
    assert run(["verify", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("claimId,")          # csv came from the file


def test_explicit_flags_beat_config_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = race\nformat = csv\n", encoding="utf-8")
    assert run(["verify", "--config", str(cfg), "--suite", "theta",
                "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 20                     # theta grid, not the race grid


def test_abbreviated_flags_beat_config_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = race\nformat = csv\n", encoding="utf-8")
    assert run(["verify", "--config", str(cfg), "--sui", "theta",
                "--form", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [d["claimId"] for d in data] == ["theta-jacobi"] * 20


# flag -> (argument text or None for a switch, RunConfig field, value)
FLAG_VALUES = {
    "--out": ("r.json", "out", "r.json"),
    "--format": ("csv", "format", "csv"),
    "--seed": ("4", "seed", 4),
    "--digits": ("70", "digits", 70),
    "--tol": ("0.001", "tol", 0.001),
    "--strict-claims": (None, "strict_claims", True),
    "--suite": ("theta", "suite", "theta"),
    "--re": ("0.6", "re", 0.6),
    "--im": ("3", "im", 3.0),
    "--n": ("2", "n", 2),
    "--l": ("7", "big_l", 7),
    "--grid": (None, "grid", True),
}
COMMON_FLAGS = ["--out", "--format", "--seed", "--digits", "--tol",
                "--strict-claims"]
COMMAND_FLAGS = {
    "verify": COMMON_FLAGS + ["--suite"],
    "traces": COMMON_FLAGS + ["--re", "--im", "--n", "--l"],
    "rhfe": COMMON_FLAGS + ["--re", "--im", "--grid"],
    "gram": COMMON_FLAGS,
    "cm": COMMON_FLAGS,
    "ledger": COMMON_FLAGS,
}


def flag_argv(flag):
    text = FLAG_VALUES[flag][0]
    return [flag] if text is None else [flag, text]


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_each_command_takes_exactly_its_flags(command, capsys):
    argv, want = [command], cli.RunConfig(command)
    for flag in COMMAND_FLAGS[command]:
        argv += flag_argv(flag)
        _, field, value = FLAG_VALUES[flag]
        setattr(want, field, value)
    assert cli.parse_args(argv) == want
    for flag in sorted(set(FLAG_VALUES) - set(COMMAND_FLAGS[command])):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args([command, *flag_argv(flag)])
        assert exc.value.code == 64
    capsys.readouterr()


ALL_KEYS = ("suite = theta\nout = r.json\nformat = csv\nseed = 4\n"
            "digits = 70\ntol = 0.001\nstrict-claims = YES\nre = 0.6\n"
            "im = 3\nn = 2\nl = 7\ngrid = on\n")


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_every_command_accepts_every_config_key(command, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ALL_KEYS, encoding="utf-8")
    got = cli.parse_args([command, "--config", str(cfg)])
    for flag in COMMAND_FLAGS[command]:
        _, field, value = FLAG_VALUES[flag]
        assert getattr(got, field) == value
    assert cli.parse_args([command, "--config", str(cfg),
                           "--digits", "80"]).digits == 80


def test_config_keys_without_a_flag_have_no_effect(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = race\nre = 0.3\nim = 9\nn = 4\nl = 2\n"
                   "grid = yes\n", encoding="utf-8")
    assert run(["cm"]) == 0
    plain = capsys.readouterr().out
    assert run(["cm", "--config", str(cfg)]) == 0
    assert strip_volatile(capsys.readouterr().out) == strip_volatile(plain)


@pytest.mark.parametrize("body", [
    "unknown_key = 3\n",
    "just a line without equals\n",
    "digits = not-an-int\n",
    "suite = nonsense\n",
    "format = xml\n",
    "strict_claims = ture\n",
    "grid = maybe\n",
    "digits = 7\n",
    "tol = 2.0\n",
    "seed = -1\n",
    "config = other.cfg\n",
    "big_l = 3\n",
])
def test_malformed_config_exits_sixty_four(body, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body, encoding="utf-8")
    assert run(["verify", "--config", str(cfg)]) == 64
    capsys.readouterr()


def test_missing_config_exits_sixty_four(tmp_path, capsys):
    assert run(["verify", "--config", str(tmp_path / "absent.cfg")]) == 64
    capsys.readouterr()


# -- subcommand behavior --------------------------------------------------------


def test_single_point_final_audit(capsys):
    assert run(["rhfe", "--re", "0.75", "--im", "-2", "--digits", "60"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 1
    assert data[0]["claimId"] == "rhfe"
    assert data[0]["status"] == "VIOLATED"


def test_point_outside_region_is_allowed_from_the_cli(capsys):
    assert run(["rhfe", "--re", "0.3", "--im", "1.0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "WARN" in data[0].get("notes", "")


@pytest.mark.parametrize("im_s", ["-1e-3", "-2.5E+1", "-3."])
def test_negative_values_in_any_form_are_not_flags(im_s, capsys):
    assert run(["rhfe", "--im", im_s]) == 0
    spaced = strip_volatile(capsys.readouterr().out)
    assert run(["rhfe", f"--im={im_s}"]) == 0
    assert strip_volatile(capsys.readouterr().out) == spaced


@pytest.mark.parametrize("command", ["rhfe", "traces"])
@pytest.mark.parametrize("im_s", ["-inf", "-INF", "-nan", "-infinity"])
def test_negative_nonfinite_values_are_not_flags(command, im_s, capsys):
    assert run([command, "--im", im_s]) == 64
    assert "s must be finite" in capsys.readouterr().err


if given is None:
    def test_numeric_flags_never_raise():
        pytest.skip("needs hypothesis")
else:
    _NUMBER_TEXT = st.one_of(
        st.builds(lambda x, sign, form: form(sign * x),
                  st.floats(1e-12, 1e6), st.sampled_from([1.0, -1.0]),
                  st.sampled_from([repr, "{:e}".format, "{:f}".format])),
        st.sampled_from(["inf", "-inf", "nan"]))

    @seed(20261018)
    @settings(max_examples=60, deadline=None, database=None)
    @given(_NUMBER_TEXT, _NUMBER_TEXT)
    def test_numeric_flags_never_raise(re_s, im_s):
        # traces is left out: some valid arguments take many seconds there.
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert run(["rhfe", "--re", re_s, "--im", im_s]) in (0, 64)


def test_ledger_covers_the_manifest(tmp_path):
    out = tmp_path / "ledger.json"
    assert run(["ledger", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [d["claimId"] for d in data] == list(CLAIM_IDS)
    inputs = {d["claimId"]: d["inputs"] for d in data}
    assert (inputs["lhpd-search"]["budget"],
            inputs["lhpd-search"]["nPoints"]) == (8, 8)
    assert (inputs["fresnel-positivity"]["nSamples"],
            inputs["fresnel-positivity"]["nuMax"],
            inputs["fresnel-positivity"]["families"]) == (
        240, 50.0, ["exp", "exp", "gauss", "rational"])
    assert (inputs["hausdorff-moments"]["jMax"],
            inputs["hausdorff-moments"]["kMax"]) == (20, 20)
    assert inputs["cm-scan"]["h"] == 0.05
    # The Fresnel routes run off the real axis, so a cosine transform runs.
    reports = {d["claimId"]: d for d in data}
    for claim_id in ("green-fresnel-direct", "green-fresnel-factored"):
        assert inputs[claim_id]["z"] == {"re": 1.0, "im": 2.0}
    assert reports["green-fresnel-factored"]["extra"]["evaluations"] > 0


def test_traces_subcommand_structure(capsys):
    assert run(["traces", "--re", "0.75", "--im", "-2", "--n", "1",
                "--l", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    ids = [d["claimId"] for d in data]
    assert ids == ["trace-decomposition", "hausdorff-moments",
                   "trace-total-positivity", "poisson-vanishing",
                   "j-decomposition"]


def test_traces_on_the_critical_line_at_high_precision(capsys):
    # On re(s) = 1/2 the next trace terms come from the extended-precision
    # series, whose truncation index must grow with the working digits.
    assert run(["traces", "--re", "0.5", "--digits", "200"]) == 0
    data = json.loads(capsys.readouterr().out)
    total = next(d for d in data if d["claimId"] == "trace-total-positivity")
    assert len(total["extra"]["measuredNextTerms"]) == 3


@pytest.mark.parametrize("n, digits", [(5, 150), (5, 200), (6, 200)])
def test_traces_sizes_the_series_at_every_precision(n, digits, capsys):
    # The series' term bound grows with n and the working digits; a bound
    # fixed by n alone stops these short of certified truncation.
    assert run(["traces", "--n", str(n), "--digits", str(digits)]) == 0
    data = json.loads(capsys.readouterr().out)
    total = next(d for d in data if d["claimId"] == "trace-total-positivity")
    assert len(total["extra"]["seriesTerms"]) == n


def test_traces_runs_far_up_the_strip(capsys):
    # At im s = 400 the series needs more terms than n and the digits
    # alone call for.
    assert run(["traces", "--im", "400"]) == 0
    data = json.loads(capsys.readouterr().out)
    total = next(d for d in data if d["claimId"] == "trace-total-positivity")
    assert len(total["extra"]["seriesTerms"]) == 3


@pytest.mark.parametrize("argv, need", [
    (["--n", "12"], 214),
    (["--re", "0.5", "--n", "9"], 212),   # the series reaches n = 12
])
def test_traces_names_the_n_whose_series_outgrows_200_digits(argv, need,
                                                               capsys):
    assert run(["traces", *argv]) == 64
    err = capsys.readouterr().err
    assert f"series for n=12 needs {need} digits" in err
    assert "digits must lie in" not in err


@pytest.mark.parametrize("argv", [["--n", "11"], ["--re", "0.5", "--n", "8"]])
def test_traces_runs_up_to_the_largest_n_in_200_digits(argv, capsys):
    assert run(["traces", *argv]) == 0
    data = json.loads(capsys.readouterr().out)
    total = next(d for d in data if d["claimId"] == "trace-total-positivity")
    assert len(total["extra"]["seriesTerms"]) == int(argv[-1])


@pytest.mark.parametrize("im_s", ["inf", "nan"])
def test_traces_rejects_a_non_finite_argument(im_s, capsys):
    assert run(["traces", "--im", im_s]) == 64
    assert "s must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("re_s", ["0", "1"])
def test_traces_rejects_the_strip_edges(re_s, capsys):
    # The Poisson routes run at s and 1 - s; each edge puts one at re = 0.
    assert run(["traces", "--re", re_s]) == 64
    assert "open strip (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--im", "1e200"], "overflows double precision"),
    (["--l", "-1"], "--l must be >= 0"),
    (["--n", "-2"], "--n must be >= 1"),
    (["--n", "0"], "--n must be >= 1"),
])
def test_traces_rejects_out_of_range_arguments(argv, message, capsys):
    # A DomainError message, not a traceback, and before any audit runs.
    assert run(["traces", *argv]) == 64
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# -- start-up -----------------------------------------------------------------


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # No command needs scipy: with every scipy import made to fail, the lhpd
    # search's commands still exit 0 and write the same reports.
    src = str(Path(zetacheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys; sys.modules['scipy'] = None\n"
             "from zetacheck import cli\n"
             "for command, out in zip(('ledger', 'gram'), sys.argv[1:]):\n"
             "    assert cli.main([command, '--out', out]) == 0\n")
    without = [tmp_path / "ledger.json", tmp_path / "gram.json"]
    subprocess.run([sys.executable, "-c", probe, *map(str, without)],
                   env=env, capture_output=True, text=True, check=True)
    for command, path in zip(("ledger", "gram"), without):
        here = tmp_path / f"{command}-here.json"
        assert run([command, "--out", str(here)]) == 0
        assert strip_volatile(path.read_text()) == \
            strip_volatile(here.read_text())


def test_cli_import_cm_and_gram_leave_mpmath_unloaded(tmp_path):
    # Only the trace series and the Poisson limit need mpmath, and they
    # import it when first called.
    src = str(Path(zetacheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys\n"
             "from zetacheck import cli\n"
             "assert 'mpmath' not in sys.modules, 'import'\n"
             "for command, out in zip(('cm', 'gram'), sys.argv[1:]):\n"
             "    assert cli.main([command, '--out', out]) == 0\n"
             "    assert 'mpmath' not in sys.modules, command\n")
    subprocess.run([sys.executable, "-c", probe, str(tmp_path / "cm.json"),
                    str(tmp_path / "gram.json")],
                   env=env, capture_output=True, text=True, check=True)
