"""A seeded fuzz of ``cli.main``'s argument vectors, in process.

Each vector picks a command and draws its options from pools of valid and
invalid values: NaN, +-inf, 0, negatives, non-numbers, empty strings,
empty, malformed, underflowing, non-UTF-8 and deeply nested inputs, and
missing, unwritable or directory paths.  Whatever the vector, ``main``
returns 0, 2 or 3 and lets no exception escape; a nonzero exit leaves
exactly one JSON line on stderr, nothing on stdout and no new file.

Sizes stay small so that no command allocates more than a few MB: grids
of at most 4 points per axis, each command's minimum replicate count,
and CSVs of a few rows.  The whole run takes a few seconds.
"""

import json
import os
import random

import pytest

from pcmeta import cli

SEED = 2015
N_VECTORS = 400

CSVS = {
    "p.csv": "study_id,p\na,0.01\nb,0.2\nc,0.03\nd,0.6\n",
    "grouped.csv": "study_id,group_factor,p,n_sample\n"
                   "a,x,0.01,100\nb,x,0.2,400\nc,y,0.03,50\nd,y,0.6,90\n",
    "counts.csv": "study_id,events_a,total_a,events_b,total_b\n"
                  "a,3,40,9,41\nb,0,20,4,22\nc,5,5,1,9\n",
    "edge.csv": "study_id,p,n_sample\na,0,10\nb,1,20\n",
    "empty.csv": "",
    "header.csv": "study_id,p\n",
    "malformed.csv": "study_id,p\na,abc\nb,\n",
    "no_id.csv": "p\n0.1\n",
    "dup.csv": "study_id,p\na,0.1\na,0.2\n",
    "range.csv": "study_id,p\na,1.5\nb,-0.1\n",
    "underflow.csv": "study_id,p\na,1e-400\nb,0.3\n",
    "zero_total.csv": "study_id,events_a,total_a,events_b,total_b\na,0,0,1,10\n",
    "excess.csv": "study_id,events_a,total_a,events_b,total_b\na,12,10,1,10\n",
    "mixed.csv": "study_id,p,events_a,total_a,events_b,total_b\na,0.2,,,,\nb,,1,10,2,10\n",
}
SMALL = {"mu0_values": [0.1, 0.4], "sigma0_values": [0.1], "r0": [1, 2], "reps": 1000}
CONFIGS = {
    "cfg.json": SMALL,
    "seeded.json": {**SMALL, "seed": 7},
    "stouffer.json": {**SMALL, "methods": ["stouffer_gbhpc"], "r": 3},
    "big_r.json": {**SMALL, "r": 9},
    "short.json": {**SMALL, "n": 3},
    "nan_alpha.json": {**SMALL, "alpha": float("nan")},
    "no_r0.json": {**SMALL, "r0": []},
    "no_reps.json": {**SMALL, "reps": 0},
    "neg_sigma.json": {**SMALL, "sigma0_values": [-0.1]},
    "bad_key.json": {**SMALL, "rep": 5},
}
RAW_FILES = {
    "not_utf8.csv": b"study_id,p\na,0.1\xff\n",
    "not_utf8.json": b'{"reps": 1000\xff}',
    "bad.json": b"{",
    "list.json": b"[1]",
    "deep.json": b"[" * 10**5 + b"]" * 10**5,
}

# Each pool is (valid values, invalid values); a drawn value is valid three
# times in four, so that most commands get past their first check.
FLOATS = (["0.05", "0.3", "1"], ["nan", "inf", "-inf", "0", "-1", "1e-400", "2", "x", ""])
INTS = (["1", "2", "3"], ["-1", "0", "99", "x", "1.5", ""])
SEEDS = (["0", "5"], ["-1", "x"])
METHODS = (["fisher", "simes", "bonferroni", "tpm", "stouffer"], ["nope"])
VALID_CSVS = ["p.csv", "grouped.csv", "counts.csv", "edge.csv"]
INPUTS = (VALID_CSVS, [*(name for name in CSVS if name not in VALID_CSVS),
                       "not_utf8.csv", "missing.csv", "."])
VALID_CONFIGS = ["cfg.json", "seeded.json", "stouffer.json"]
CONFIG_PATHS = (VALID_CONFIGS, [*(name for name in CONFIGS if name not in VALID_CONFIGS),
                                "not_utf8.json", "bad.json", "list.json", "deep.json",
                                "missing.json"])
OUTS = (["out.csv"], ["no/out.csv", ".", ""])
WEIGHTS_FROM = (["n_sample"], ["x"])

# command -> (positional pools, [(option, pool or None for a flag, chance of
# appearing)]).  An option with chance 1 keeps a run small.
COMMANDS = {
    ("combine",): ([INPUTS], [
        ("--method", METHODS, 0.6), ("--gamma", FLOATS, 0.3),
        ("--weights-from", WEIGHTS_FROM, 0.2), ("--json", None, 0.5)]),
    ("pc",): ([INPUTS], [
        ("--r", INTS, 0.4), ("--all-r", None, 0.1), ("--method", METHODS, 0.5),
        ("--gamma", FLOATS, 0.3), ("--groups", None, 0.3), ("--enumerate", None, 0.3),
        ("--weights-from", WEIGHTS_FROM, 0.2), ("--alpha", FLOATS, 0.3),
        ("--json", None, 0.3), ("--csv", OUTS, 0.2)]),
    ("exact2x2",): ([INPUTS], [
        ("--convention", (["min_likelihood", "doubling"], ["x"]), 0.5),
        ("--json", None, 0.5)]),
    ("simulate",): ([CONFIG_PATHS], [
        ("--out", OUTS, 0.95), ("--seed", SEEDS, 0.3)]),
    ("counterexample",): ([], [
        ("--alpha", FLOATS, 0.4), ("--grid", (["1", "2", "4"], ["-1", "0", "x", "2.5"]), 1.0),
        ("--mu-max", FLOATS, 0.4), ("--reps", (["10000"], ["0", "-5", "x"]), 1.0),
        ("--out", OUTS, 0.95), ("--seed", SEEDS, 0.3)]),
    ("dataset",): ([], [
        ("--view", (["pvalues", "counts", "full"], ["x"]), 0.5), ("--out", OUTS, 0.5)]),
    ("oracle", "validity"): ([], [
        ("--method", METHODS, 0.5), ("--gamma", FLOATS, 0.3),
        ("--k", (["1", "2", "3"], ["-1", "0", "x"]), 0.7), ("--pc-r", INTS, 0.4),
        ("--z-means", (["0,0", "0,0,0", "3,0,0"], ["nan,0", "inf,0", "", "a,0"]), 0.4),
        ("--alphas", (["0.05", "0.01,0.05"], ["0,0.05", "nan", "", "2", "a"]), 0.3),
        ("--reps", (["10000"], ["0", "x"]), 1.0), ("--json", None, 0.3),
        ("--seed", SEEDS, 0.3)]),
    ("oracle", "tpm-cdf"): ([], [
        ("--l", (["1", "2", "3"], ["-1", "0", "x"]), 0.95), ("--gamma", FLOATS, 0.95),
        ("--w", FLOATS, 0.95), ("--reps", (["1000000"], ["0", "x"]), 1.0),
        ("--json", None, 0.3), ("--seed", SEEDS, 0.3)]),
}


def draw(rng: random.Random, pool) -> str:
    valid, invalid = pool
    return rng.choice(valid if rng.random() < 0.75 else invalid)


def draw_argv(rng: random.Random) -> list[str]:
    command = rng.choice(list(COMMANDS))
    positional_pools, options = COMMANDS[command]
    argv = list(command)
    for pool in positional_pools:
        if rng.random() < 0.95:
            argv.append(draw(rng, pool))
    for option, pool, chance in options:
        if rng.random() >= chance:
            continue
        if pool is None:
            argv.append(option)
        elif rng.random() < 0.5:
            argv.append(f"{option}={draw(rng, pool)}")
        else:
            argv += [option, draw(rng, pool)]
    if rng.random() < 0.05:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--bogus", "extra"]))
    return argv


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.delenv("PCMETA_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    for name, text in CSVS.items():
        (tmp_path / name).write_text(text)
    for name, config in CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(config))
    for name, raw in RAW_FILES.items():
        (tmp_path / name).write_bytes(raw)
    return tmp_path


def test_fuzzed_argv_exits_0_2_or_3_and_refuses_in_one_json_line(workdir, capsys):
    rng = random.Random(SEED)
    before = sorted(os.listdir(workdir))
    codes = []
    for _ in range(N_VECTORS):
        argv = draw_argv(rng)
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            raise AssertionError(f"main raised on {argv}") from exc
        out, err = capsys.readouterr()
        codes.append(code)
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err, argv
        if code:
            assert out == "", argv
            lines = err.splitlines()
            assert len(lines) == 1, (argv, lines)
            assert set(json.loads(lines[0])) == {"error", "message"}, argv
            assert sorted(os.listdir(workdir)) == before, argv
        elif os.path.exists("out.csv"):
            os.remove("out.csv")
    assert {0, 2} <= set(codes)  # the pools reach both sides of the contract
