"""CLI output bytes at fixed seeds: 40 commands against recorded digests.

Each command runs in process through ``pcmeta.cli.main`` in a fresh
working directory that holds the input files.  The sha256 digest of
its stdout, stderr and every file it writes, and its exit code, must
equal the values recorded here.  A change to any number the CLI prints
or writes, down to the last digit, fails the test; so does a change in
which inputs raise.

The digests were recorded with Python 3.11.7, numpy 2.4.6 and
scipy 1.17.1 on x86-64 Linux.  Other versions may round a transcendental
function differently in the last bit and change a printed digit; then
re-record with ``python tests/test_cli_bytes.py`` on a commit whose
output is known to be right, after checking the differences by hand.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from pcmeta import cli
from pcmeta import io as pio

TIES_CSV = "study_id,n_sample,p\n" + "".join(
    f"s{i},{n},{p}\n"
    for i, (n, p) in enumerate(
        zip((100, 200, 300, 150, 120, 250, 180, 90),
            (0.3, 0.3, 0.3, 0.01, 0.3, 0.04, 0.3, 0.3))
    )
)
ZERO_CSV = "study_id,n_sample,p\na,100,0.2\nb,200,0\nc,300,0.01\nd,150,0.5\ne,120,0.03\n"
SIM_CONFIG = {"mu0_values": [0.1, 0.3], "sigma0_values": [0.05, 0.2], "r0": [2, 4],
              "reps": 1000, "seed": 5}

ORACLE_METHODS = (("fisher",), ("simes",), ("bonferroni",), ("tpm", "--gamma", "0.2"),
                  ("stouffer",))

COMMANDS = {
    "pc_fisher": ["pc", "noac.csv"],
    "pc_simes": ["pc", "noac.csv", "--method", "simes"],
    "pc_bonferroni": ["pc", "noac.csv", "--method", "bonferroni"],
    "pc_tpm": ["pc", "noac.csv", "--method", "tpm", "--gamma", "0.2"],
    "pc_stouffer": ["pc", "noac.csv", "--method", "stouffer"],
    "pc_stouffer_n": ["pc", "noac.csv", "--method", "stouffer", "--weights-from", "n_sample"],
    "pc_enum_fisher": ["pc", "noac.csv", "--enumerate"],
    "pc_enum_simes": ["pc", "noac.csv", "--enumerate", "--method", "simes"],
    "pc_enum_tpm": ["pc", "noac.csv", "--enumerate", "--method", "tpm", "--gamma", "0.2"],
    "pc_groups": ["pc", "noac.csv", "--groups"],
    "pc_r3_json": ["pc", "noac.csv", "--r", "3", "--json"],
    "pc_stouffer_r5_json": ["pc", "noac.csv", "--method", "stouffer", "--weights-from",
                            "n_sample", "--r", "5", "--json"],
    "pc_csv": ["pc", "noac.csv", "--csv", "curve.csv"],
    "pc_ties_stouffer": ["pc", "ties.csv", "--method", "stouffer", "--weights-from",
                         "n_sample"],
    "pc_ties_enum_json": ["pc", "ties.csv", "--enumerate", "--json"],
    "pc_zero_stouffer": ["pc", "zero.csv", "--method", "stouffer"],
    **{
        f"oracle_{m[0]}_k{k}": ["oracle", "validity", "--method", *m, "--k", str(k),
                                "--reps", "10000", "--seed", "3"]
        for m in ORACLE_METHODS
        for k in (2, 5, 10)
    },
    "oracle_fisher_pc_r2": ["oracle", "validity", "--k", "8", "--pc-r", "2",
                            "--reps", "10000", "--seed", "4"],
    "oracle_simes_pc_r3_json": ["oracle", "validity", "--method", "simes", "--z-means",
                                "0,0,3,5", "--pc-r", "3", "--reps", "10000", "--seed",
                                "4", "--json"],
    "exact2x2": ["exact2x2", "counts.csv"],
    "exact2x2_doubling_json": ["exact2x2", "counts.csv", "--convention", "doubling",
                               "--json"],
    "pc_enum_r9_json": ["pc", "noac.csv", "--enumerate", "--r", "9", "--json"],
    "pc_enum_bonferroni": ["pc", "noac.csv", "--enumerate", "--method", "bonferroni"],
    "combine_stouffer_json": ["combine", "noac.csv", "--method", "stouffer",
                              "--weights-from", "n_sample", "--json"],
    "simulate": ["simulate", "sim.json", "--out", "sim.csv"],
    "counterexample": ["counterexample", "--grid", "3", "--reps", "10000", "--seed", "2",
                       "--out", "ce.csv"],
}

# name -> (exit code, sha256 of stdout, stderr and written files)
EXPECTED = {
    "combine_stouffer_json": (0, "7d96551d276e104ca419f00a9e5dcc9c8c195c29da2562e684048a4ebdc3dcbd"),
    "counterexample": (0, "0007309b6645269b2724e8baa1ac90bf530af226d5bf6b3dea82323d4648a48d"),
    "exact2x2": (0, "05d3a8a58e53e79d149bbab6f4ba4517bd2e55b3fd8be89335cb50bc85e95c44"),
    "exact2x2_doubling_json": (0, "a07211d9f9b0201741e1f4f13d7f4c7b042aa955d91a9d2ba79314193e04ba5c"),
    "oracle_bonferroni_k10": (0, "54ac84a3abe3f28f58a7bbc782ae379bc8e8a4876653927581d35e4af577e2c9"),
    "oracle_bonferroni_k2": (0, "3306fa6dee9e1ae075d42df0bedc0c763083ac795d06aa5985b53b9e5968e2bb"),
    "oracle_bonferroni_k5": (0, "5b4c164ceea2e2aed025168df30e3e40961c1eabbd2d37e0aac64a1c0b77a033"),
    "oracle_fisher_k10": (0, "7b05f03575c73116783c933ed56695215f8a853471c6c3362a5d89310577c2ec"),
    "oracle_fisher_k2": (0, "c6a0254d6e935947f23f0368224cbeaf788dd915118c55673ac283d5b3d1461b"),
    "oracle_fisher_k5": (0, "76b2f665a1ea04b2fe3190ff8450ac230a690776d58d484a2f9f4195f3494063"),
    "oracle_fisher_pc_r2": (0, "f6047c12d23f024d4824bb871617a2b45f0afabb70a2886dd603411cfccd0614"),
    "oracle_simes_k10": (0, "b02a0c7908fe0fe692a31dbe5452ddbff0c23844249a44ddbad1dad92fb6c591"),
    "oracle_simes_k2": (0, "cbc0c8d1911e43c18cc6cba765a6b9c71cd7144904396b97dbbdaadf0eefbbba"),
    "oracle_simes_k5": (0, "b7b915aed5cc3e96c58b619d211ab54309bfdf28e5a5b2f591679cba142832dc"),
    "oracle_simes_pc_r3_json": (0, "301b92b2530ddac5d7d7a7d233683c18f97eea88387d6f6b64e201fd67fc42ff"),
    "oracle_stouffer_k10": (0, "d42a0616b4d7091ee0f0e7fab75f5381835230a5710f7c6630ef9359c3377a66"),
    "oracle_stouffer_k2": (0, "8b7751b117aa9d4859ed16b8e02a4a7f7a86a67ec383c9e876dd03fc2ac32f2b"),
    "oracle_stouffer_k5": (0, "95fbd186726a5f07536467892c7ecceb23a98e823f02fb1afe450dc35035bc02"),
    "oracle_tpm_k10": (0, "9013527a40b7722fa6fe5b449ffda0394799fb0a1abafed88f1f209e7bafea9d"),
    "oracle_tpm_k2": (0, "a536bcb15e656d14e9a48cc474fc8daeebe9301cfcb16d8047fb7d88b581dc94"),
    "oracle_tpm_k5": (0, "ca3856aec4678443d1aed1dc89d2be4068e2829a447bd65a96d3925ea9526853"),
    "pc_bonferroni": (0, "61868dc5421f52d8449e5f4facd3f02c8dbaa3a85ed4dfed32ec1a674e3c8d83"),
    "pc_csv": (0, "cbcd616bf68f7b3dcbadb7e7f83c746cf710bf1d62fc6260a9b2d97574754335"),
    "pc_enum_bonferroni": (0, "49a93f92ce50b2d25ee3a964b37395830bafb2aec46b410fd8ba5098e0f57ef8"),
    "pc_enum_fisher": (0, "6d333f8785168989ad28ac394fb1c0f7c656510bbffde2da17dda489aa08abec"),
    "pc_enum_simes": (0, "47e6dbb3a19028267ac65c8f25fb7471b242a25b7b94f7964751d22ddad756c7"),
    "pc_enum_r9_json": (0, "4985d27dff0f63a1d4647bf320e1e6eb9c7911ca5686f918f83fce173b1190d7"),
    "pc_enum_tpm": (0, "d5f4f7a491a750520af75f2c63f9bec50508fb47d193941b6730f5b7231ba89e"),
    "pc_fisher": (0, "5d51ffa73a68c548a1d3a83ef2a84f2ea1d8342e6cf981e81ee8ba44548d7acc"),
    "pc_groups": (0, "3588dafc79cdc5b930ae2bf5e1af093449341a12214a57f1e38d13a5de0e9d1c"),
    "pc_r3_json": (0, "2f28ca3f3c3fb80c653de2501603438fd5013a2ea2bdc928a8ac34f54ba43b18"),
    "pc_simes": (0, "24c02f6cd8cf244498c75f5af5cf2312cce91df56dd574422844637347ed2b31"),
    "pc_stouffer": (0, "8c101ea1376464f3a2c22626fe5bff90d7f08b88c443b8372ac8e9f537f669d7"),
    "pc_stouffer_n": (0, "d8c1be0cc20a7a90e30650646a86daef9708b68943c22c820ca9f19ddcc8506e"),
    "pc_stouffer_r5_json": (0, "681b730090ff9bb01a79153c53d172ba11e3248aced1cba7e8685b40504aa0fe"),
    "pc_ties_enum_json": (0, "4490032272b939d25cf90ddb34107b9b031d8400fd110cab6f1d7d3804b17592"),
    "pc_ties_stouffer": (0, "2e7f75a846ece782844d98b900d61eacfe2b7b148fd4b870f503673da7a38553"),
    "pc_tpm": (0, "d99cde0b38ae900bb1a517270146c1ceba0e80dd8bc2b804de35c41d8809343a"),
    "pc_zero_stouffer": (2, "a964465d6e2d1d5ceda72b640073db10080ae75fc34d85800dc8b323e4044fbb"),
    "simulate": (0, "c41a43c5981e321c41f2fe551e9e71932c043daaf0bfafc08c5d0aeeee0fad67"),
}


def write_inputs(directory: Path) -> None:
    (directory / "noac.csv").write_text(pio.export_bundled_csv("pvalues"))
    (directory / "counts.csv").write_text(pio.export_bundled_csv("counts"))
    (directory / "ties.csv").write_text(TIES_CSV)
    (directory / "zero.csv").write_text(ZERO_CSV)
    (directory / "sim.json").write_text(json.dumps(SIM_CONFIG))


def run_command(argv, directory: Path, read_output) -> tuple[int, str]:
    """Run one command in ``directory``; return its exit code and digest."""
    before = set(os.listdir(directory))
    code = cli.main(list(argv))
    out, err = read_output()
    digest = hashlib.sha256(out.encode() + b"\0" + err.encode())
    for name in sorted(set(os.listdir(directory)) - before):
        digest.update(b"\0" + name.encode() + b"\0" + (directory / name).read_bytes())
    return code, digest.hexdigest()


def test_suite_size():
    assert len(COMMANDS) == 40
    assert set(EXPECTED) == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_bytes(name, tmp_path, monkeypatch, capsys):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PCMETA_SEED", raising=False)
    capsys.readouterr()
    got = run_command(COMMANDS[name], tmp_path, lambda: tuple(capsys.readouterr()))
    assert got == EXPECTED[name], COMMANDS[name]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    os.environ.pop("PCMETA_SEED", None)
    for name in sorted(COMMANDS):
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            write_inputs(directory)
            os.chdir(directory)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, digest = run_command(
                    COMMANDS[name], directory, lambda: (out.getvalue(), err.getvalue())
                )
            os.chdir(Path(__file__).parent)
        sys.stdout.write(f'    "{name}": ({code}, "{digest}"),\n')
