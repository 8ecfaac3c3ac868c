"""Command-line contract: exit codes, output formats, config handling."""

import csv
import io
import json

import pytest

from zetacheck import cli
from zetacheck.report import CLAIM_IDS, strip_volatile


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


@pytest.mark.parametrize("body", [
    "unknown_key = 3\n",
    "just a line without equals\n",
    "digits = not-an-int\n",
    "suite = nonsense\n",
    "format = xml\n",
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


def test_ledger_covers_the_manifest(tmp_path):
    out = tmp_path / "ledger.json"
    assert run(["ledger", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [d["claimId"] for d in data] == list(CLAIM_IDS)


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


@pytest.mark.parametrize("re_s", ["0", "1"])
def test_traces_rejects_the_strip_edges(re_s, capsys):
    # The Poisson routes run at s and 1 - s; each edge puts one at re = 0.
    assert run(["traces", "--re", re_s]) == 64
    assert "open strip (0, 1)" in capsys.readouterr().err
