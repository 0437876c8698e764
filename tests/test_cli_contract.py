"""The CLI contract, one table: argument vectors that argparse accepts but
the program must refuse.  Each exits 2 or 3 with exactly one JSON line
({"error", "message"}) on stderr, nothing on stdout, no traceback and no
output file.  Every vector is refused before any simulation runs, so the
whole table takes a few seconds in process.  The vectors that argparse
itself refuses leave ``main`` the same way, with exit 2."""

import json
import os

import pytest

from pcmeta import cli
from pcmeta import io as pio

CONFIGS = {
    "cfg": {"mu0_values": [0.1], "sigma0_values": [0.1], "r0": [1], "reps": 1000},
    "cfg_nan_alpha": {"mu0_values": [0.1], "sigma0_values": [0.1], "alpha": float("nan")},
    "cfg_no_reps": {"mu0_values": [0.1], "sigma0_values": [0.1], "reps": 0},
    "cfg_no_r0": {"mu0_values": [0.1], "sigma0_values": [0.1], "r0": []},
    "cfg_no_mu0": {"mu0_values": [], "sigma0_values": [0.1], "reps": 1000},
    "cfg_inf_mu0": {"mu0_values": [float("inf")], "sigma0_values": [0.1], "reps": 1000},
    "cfg_seed": {"mu0_values": [0.1], "sigma0_values": [0.1], "r0": [1], "reps": 1000,
                 "seed": 5},
}

CSVS = {
    "empty": "",
    "header": "study_id,p\n",
    "mixed": "study_id,p,events_a,total_a,events_b,total_b\na,0.2,,,,\nb,,1,10,2,10\n",
    "underflow": "study_id,p\na,1e-400\nb,0.3\n",
    "bad_p": "study_id,p\na,nan\nb,0.3\n",
    "edge": "study_id,p\na,1\nb,0.3\n",
}

OUT = ["--out", "{out}"]
TPM = ["--l", "3", "--gamma", "0.5", "--w", "0.1"]
VALIDITY = ["oracle", "validity", "--reps", "10000"]

CASES = [
    # combine
    ["combine", "{empty}"],
    ["combine", "{header}"],
    ["combine", "{mixed}"],
    ["combine", "{underflow}", "--json"],
    ["combine", "{bad_p}"],
    ["combine", "{missing}"],
    ["combine", "{dir}"],
    ["combine", "{p}", "--method", "tpm", "--gamma", "nan"],
    ["combine", "{p}", "--method", "tpm", "--gamma", "0"],
    ["combine", "{p}", "--method", "tpm", "--gamma", "-0.5"],
    ["combine", "{p}", "--method", "tpm", "--gamma", "inf"],
    ["combine", "{p}", "--method", "tpm"],
    ["combine", "{p}", "--gamma", "0.5"],
    ["combine", "{edge}", "--method", "stouffer", "--weights-from", "n_sample"],
    ["combine", "{edge}", "--method", "stouffer", "--json"],
    # pc
    ["pc", "{p}", "--alpha", "nan"],
    ["pc", "{p}", "--alpha", "0"],
    ["pc", "{p}", "--alpha", "-0.05"],
    ["pc", "{p}", "--alpha", "inf"],
    ["pc", "{p}", "--r", "0"],
    ["pc", "{p}", "--r", "-2"],
    ["pc", "{p}", "--r", "99", "--json"],
    ["pc", "{p}", "--json", "--csv", "{out}"],
    ["pc", "{p}", "--r", "3", "--csv", "{out}"],
    ["pc", "{p}", "--csv", "{unwritable}"],
    ["pc", "{p}", "--csv", "{dir}"],
    ["pc", "{p}", "--groups", "--method", "simes"],
    ["pc", "{header}"],
    ["pc", "{underflow}", "--enumerate"],
    ["pc", "{p}", "--weights-from", "n_sample"],
    # exact2x2
    ["exact2x2", "{p}"],
    ["exact2x2", "{empty}"],
    ["exact2x2", "{mixed}", "--json"],
    ["exact2x2", "{missing}"],
    # simulate
    ["simulate", "{cfg}", "--out", "{unwritable}"],
    ["simulate", "{cfg}", "--out", "{dir}"],
    ["simulate", "{cfg}", "--out", ""],
    ["simulate", "{missing}", *OUT],
    ["simulate", "{empty}", *OUT],
    ["simulate", "{cfg_nan_alpha}", *OUT],
    ["simulate", "{cfg_no_reps}", *OUT],
    ["simulate", "{cfg_no_r0}", *OUT],
    ["simulate", "{cfg_no_mu0}", *OUT],
    ["simulate", "{cfg_inf_mu0}", *OUT],
    ["simulate", "{cfg}", "--seed", "-1", *OUT],
    ["simulate", "{cfg_seed}", "--seed", "5", *OUT],
    # counterexample
    ["counterexample", "--alpha", "nan", *OUT],
    ["counterexample", "--alpha", "0", *OUT],
    ["counterexample", "--alpha", "inf", *OUT],
    ["counterexample", "--grid", "0", *OUT],
    ["counterexample", "--grid", "-3", *OUT],
    ["counterexample", "--mu-max", "nan", *OUT],
    ["counterexample", "--mu-max", "inf", *OUT],
    ["counterexample", "--mu-max=-inf", *OUT],
    ["counterexample", "--reps", "0", *OUT],
    ["counterexample", "--reps", "-5", *OUT],
    ["counterexample", "--out", "{unwritable}"],
    ["counterexample", "--out", "{dir}"],
    # dataset
    ["dataset", "--out", "{unwritable}"],
    ["dataset", "--out", "{dir}"],
    ["dataset", "--out", ""],
    # oracle validity
    [*VALIDITY, "--k", "0"],
    [*VALIDITY, "--k", "-2"],
    [*VALIDITY],
    [*VALIDITY, "--k", "3", "--alphas", ""],
    [*VALIDITY, "--k", "3", "--alphas", "nan"],
    [*VALIDITY, "--k", "3", "--alphas", "0,0.05"],
    [*VALIDITY, "--k", "3", "--alphas", "inf"],
    [*VALIDITY, "--z-means", "nan,0"],
    [*VALIDITY, "--z-means", "inf,0"],
    [*VALIDITY, "--z-means", "a,0"],
    [*VALIDITY, "--z-means", "", "--k", "2"],
    [*VALIDITY, "--k", "3", "--method", "tpm", "--gamma", "nan"],
    [*VALIDITY, "--k", "3", "--method", "tpm", "--gamma", "0"],
    [*VALIDITY, "--k", "3", "--pc-r", "0"],
    [*VALIDITY, "--k", "3", "--pc-r", "4"],
    [*VALIDITY, "--k", "3", "--pc-r", "2", "--method", "stouffer"],
    [*VALIDITY, "--k", "3", "--seed", "-1"],
    [*VALIDITY, "--k", "5", "--z-means", "0,0"],
    ["oracle", "validity", "--k", "3", "--reps", "0"],
    ["oracle", "validity", "--k", "3", "--reps", "-1"],
    # oracle tpm-cdf
    ["oracle", "tpm-cdf", "--l", "0", "--gamma", "0.5", "--w", "0.1"],
    ["oracle", "tpm-cdf", "--l", "-1", "--gamma", "0.5", "--w", "0.1"],
    ["oracle", "tpm-cdf", "--l", "3", "--gamma", "nan", "--w", "0.1"],
    ["oracle", "tpm-cdf", "--l", "3", "--gamma", "0", "--w", "0.1"],
    ["oracle", "tpm-cdf", "--l", "3", "--gamma", "inf", "--w", "0.1"],
    ["oracle", "tpm-cdf", "--l", "3", "--gamma", "0.5", "--w", "nan"],
    ["oracle", "tpm-cdf", "--l", "3", "--gamma", "0.5", "--w", "-1"],
    ["oracle", "tpm-cdf", "--l", "3", "--gamma", "0.5", "--w", "inf"],
    ["oracle", "tpm-cdf", *TPM, "--reps", "0"],
    ["oracle", "tpm-cdf", *TPM, "--seed", "-3"],
]


@pytest.fixture()
def paths(tmp_path, monkeypatch):
    monkeypatch.delenv("PCMETA_SEED", raising=False)
    (tmp_path / "p.csv").write_text(pio.export_bundled_csv("pvalues"))
    for name, text in CSVS.items():
        (tmp_path / f"{name}.csv").write_text(text)
    for name, config in CONFIGS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    named = {name: str(tmp_path / f"{name}.csv") for name in ["p", *CSVS]}
    named.update({name: str(tmp_path / f"{name}.json") for name in CONFIGS})
    named.update(missing=str(tmp_path / "missing.csv"), dir=str(tmp_path),
                 unwritable=str(tmp_path / "no" / "out.csv"), out=str(tmp_path / "out.csv"))
    return named


def test_the_table_spans_every_command():
    commands = {tuple(argv[:2]) if argv[0] == "oracle" else argv[0] for argv in CASES}
    assert commands == {"combine", "pc", "exact2x2", "simulate", "counterexample",
                        "dataset", ("oracle", "validity"), ("oracle", "tpm-cdf")}
    assert len(CASES) >= 25


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv))
def test_refused_with_one_json_line(argv, paths, capsys):
    code = cli.main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code in (2, 3), captured
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    assert set(json.loads(lines[0])) == {"error", "message"}
    assert not os.path.exists(paths["out"])


# Argument vectors that argparse itself refuses: a bad int or float, a
# value outside ``choices``, an unknown option or subcommand, a missing
# positional, required option or subcommand, and mutually exclusive options.
ARGPARSE_REFUSALS = [
    ["pc", "{p}", "--r", "abc"],
    ["pc", "{p}", "--r", "3", "--all-r"],
    ["pc", "{p}", "--alpha", "x"],
    ["pc"],
    ["combine", "{p}", "--bogus"],
    ["combine", "{p}", "--method", "nope"],
    ["oracle", "validity", "--method", "nope"],
    ["oracle", "tpm-cdf", "--l", "3"],
    ["simulate", "{cfg}"],
    ["counterexample", "--grid", "2.5", *OUT],
    ["oracle"],
    ["nope"],
    [],
]

SUBCOMMANDS = [[], ["combine"], ["pc"], ["exact2x2"], ["simulate"], ["counterexample"],
               ["dataset"], ["oracle"], ["oracle", "validity"], ["oracle", "tpm-cdf"]]


@pytest.mark.parametrize("argv", ARGPARSE_REFUSALS, ids=lambda argv: " ".join(argv) or "empty")
def test_argparse_refusal_is_one_json_line(argv, paths, capsys):
    code = cli.main([arg.format(**paths) for arg in argv])  # returns, never raises
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == "InputValidationError"
    assert not os.path.exists(paths["out"])


def test_refusal_leaves_the_parser_usable(capsys):
    assert cli.main(["dataset", "--view", "nope"]) == 2
    assert capsys.readouterr().out == ""
    assert cli.main(["dataset", "--view", "counts"]) == 0
    assert capsys.readouterr() == (pio.export_bundled_csv("counts"), "")


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: " ".join(argv) or "top")
def test_help_prints_usage_and_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    assert captured.out.startswith(" ".join(["usage: pcmeta", *argv]))


# Neighbours of two refused vectors above that must still run: --seed on
# a config without a seed, and --k with a --z-means of k entries.
ACCEPTED = [
    ["simulate", "{cfg}", "--seed", "5", *OUT],
    [*VALIDITY, "--k", "2", "--z-means", "0,0"],
]


@pytest.mark.parametrize("argv", ACCEPTED, ids=lambda argv: " ".join(argv))
def test_consistent_neighbour_runs(argv, paths, capsys):
    assert cli.main([arg.format(**paths) for arg in argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out != ""
