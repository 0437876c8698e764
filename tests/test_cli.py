"""CLI and serialization behavior: round trips, exit codes, determinism."""

import csv
import json
import math

import pytest

from pcmeta import cli
from pcmeta import io as pio
from pcmeta.errors import InputValidationError, NonConvergenceError
from pcmeta.numerics import ProbValue


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def pvalue_csv(tmp_path):
    path = tmp_path / "pvalues.csv"
    path.write_text(pio.export_bundled_csv("pvalues"))
    return str(path)


@pytest.fixture()
def counts_csv(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(pio.export_bundled_csv("counts"))
    return str(path)


class TestStudyRecords:
    def test_p_xor_counts(self):
        with pytest.raises(InputValidationError):
            pio.StudyRecord(study_id="x", p=0.5, events_a=1, total_a=2,
                            events_b=1, total_b=2)
        with pytest.raises(InputValidationError):
            pio.StudyRecord(study_id="x")
        with pytest.raises(InputValidationError):
            pio.StudyRecord(study_id="x", events_a=1, total_a=2)

    def test_group_labels_all_or_none(self):
        rows = [
            {"study_id": "a", "p": "0.1", "group_factor": "g"},
            {"study_id": "b", "p": "0.2", "group_factor": ""},
        ]
        with pytest.raises(InputValidationError):
            pio.parse_study_rows(rows)

    def test_mixed_rows_rejected(self):
        records = [
            pio.StudyRecord(study_id="a", p=0.1),
            pio.StudyRecord(study_id="b", events_a=1, total_a=10, events_b=2,
                            total_b=10),
        ]
        with pytest.raises(InputValidationError):
            pio.records_to_pvalues(records)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "study_id,group_factor,p,n_sample\ns1,g1,0.25,100\ns2,g2,1e-12,400\n"
        )
        records = pio.read_study_csv(str(path))
        assert [r.study_id for r in records] == ["s1", "s2"]
        ps = pio.records_to_pvalues(records)
        assert math.isclose(ps[1].linear, 1e-12, rel_tol=1e-12)
        assert pio.stouffer_weights_from_records(records) == (10.0, 20.0)

    def test_bundled_views(self, bundled_pvalue_records, bundled_count_records):
        assert len(bundled_pvalue_records) == 18
        assert all(not r.has_counts for r in bundled_pvalue_records)
        assert all(r.has_counts for r in bundled_count_records)
        groups = pio.partition_from_records(bundled_pvalue_records)
        assert sorted(len(b) for b in groups.blocks) == [2, 2, 2, 2, 2, 2, 3, 3]


class TestCombineCommand:
    def test_fisher_on_age_rows(self, tmp_path, capsys):
        path = tmp_path / "age.csv"
        path.write_text("study_id,p\na,9.26e-03\nb,6.61e-05\n")
        code, out, _ = run_cli(capsys, "combine", str(path), "--method", "fisher",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert math.isclose(doc["p"], 9.37e-06, rel_tol=1e-2)

    def test_single_row_identity(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("study_id,p\nonly,0.37\n")
        code, out, _ = run_cli(capsys, "combine", str(path), "--json")
        doc = json.loads(out)
        assert code == 0 and math.isclose(doc["p"], 0.37, rel_tol=1e-12)

    def test_tpm_gamma_one_equals_fisher(self, pvalue_csv, capsys):
        _, out_f, _ = run_cli(capsys, "combine", pvalue_csv, "--method", "fisher",
                              "--json")
        _, out_t, _ = run_cli(capsys, "combine", pvalue_csv, "--method", "tpm",
                              "--gamma", "1.0", "--json")
        assert json.loads(out_f)["p"] == json.loads(out_t)["p"]

    def test_counts_input_goes_through_exact_test(self, counts_csv, capsys):
        code, out, _ = run_cli(capsys, "combine", counts_csv, "--json")
        assert code == 0
        assert json.loads(out)["n"] == 18

    def test_human_output_has_both_forms(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("study_id,p\nonly,1e-200\n")
        code, out, _ = run_cli(capsys, "combine", str(path))
        assert code == 0 and "1e-200" in out and "log" in out


class TestPcCommand:
    def test_r1_fisher_equals_combine(self, pvalue_csv, capsys):
        _, out_pc, _ = run_cli(capsys, "pc", pvalue_csv, "--r", "1",
                               "--method", "fisher", "--json")
        _, out_c, _ = run_cli(capsys, "combine", pvalue_csv, "--method", "fisher",
                              "--json")
        assert json.loads(out_pc)["p"] == json.loads(out_c)["p"]

    def test_groups_curve_json_schema(self, pvalue_csv, capsys):
        code, out, _ = run_cli(capsys, "pc", pvalue_csv, "--groups", "--all-r",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"method", "n", "entries", "alpha", "confidence_set",
                            "r_hat", "warnings"}
        assert doc["n"] == 18 and len(doc["entries"]) == 18
        assert doc["method"] == "gbhpc:structured"
        for e in doc["entries"]:
            assert math.isclose(math.exp(e["log_p"]), e["p"], rel_tol=1e-9)

    def test_bonferroni_warning_reported(self, pvalue_csv, capsys):
        _, out, _ = run_cli(capsys, "pc", pvalue_csv, "--method", "bonferroni",
                            "--all-r", "--json")
        doc = json.loads(out)
        assert doc["r_hat"] == 12
        assert doc["confidence_set"] == list(range(1, 13))
        assert any("dips" in w for w in doc["warnings"])

    def test_json_reparses_to_equal_values(self, pvalue_csv, capsys):
        _, out, _ = run_cli(capsys, "pc", pvalue_csv, "--groups", "--all-r", "--json")
        doc = json.loads(out)
        again = json.loads(json.dumps(doc))
        assert again == doc

    def test_csv_roundtrip(self, pvalue_csv, tmp_path, capsys):
        out_csv = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "pc", pvalue_csv, "--method", "simes",
                             "--all-r", "--csv", str(out_csv))
        assert code == 0
        rows = list(csv.DictReader(out_csv.open()))
        assert len(rows) == 18
        for row in rows:
            assert math.isclose(
                math.exp(float(row["log_p"])), float(row["p"]), rel_tol=1e-9
            )

    def test_enumerate_matches_bhpc(self, pvalue_csv, capsys):
        _, out_a, _ = run_cli(capsys, "pc", pvalue_csv, "--method", "simes",
                              "--r", "3", "--json")
        _, out_b, _ = run_cli(capsys, "pc", pvalue_csv, "--method", "simes",
                              "--r", "3", "--enumerate", "--json")
        a, b = json.loads(out_a), json.loads(out_b)
        assert math.isclose(a["log_p"], b["log_p"], rel_tol=1e-12)

    def test_stouffer_uses_enumeration(self, pvalue_csv, capsys):
        code, out, _ = run_cli(capsys, "pc", pvalue_csv, "--method", "stouffer",
                               "--weights-from", "n_sample", "--r", "2", "--json")
        assert code == 0
        assert json.loads(out)["method"] == "gbhpc:enumerate"

    def test_human_output_interpretation_line(self, pvalue_csv, capsys):
        code, out, _ = run_cli(capsys, "pc", pvalue_csv, "--method", "bonferroni",
                               "--all-r")
        assert code == 0
        assert "at least 12 of 18" in out
        assert "0.667" in out

    def test_groups_missing_labels(self, tmp_path, capsys):
        path = tmp_path / "nolabels.csv"
        path.write_text("study_id,p\na,0.1\nb,0.2\n")
        code, _, err = run_cli(capsys, "pc", str(path), "--groups", "--all-r")
        assert code == 2
        assert json.loads(err)["error"] == "InputValidationError"

    def test_r_out_of_range(self, pvalue_csv, capsys):
        code, _, err = run_cli(capsys, "pc", pvalue_csv, "--r", "99")
        assert code == 2 and "99" in json.loads(err)["message"]

    def test_alpha_checked_before_r(self, pvalue_csv, capsys):
        code, _, err = run_cli(capsys, "pc", pvalue_csv, "--r", "99", "--alpha", "2")
        assert code == 2 and "alpha" in json.loads(err)["message"]

    def test_single_r_computes_one_entry(self, pvalue_csv, capsys, monkeypatch):
        from pcmeta import partial_conjunction

        seen = []
        enumerate_one = partial_conjunction.gbhpc_enumerate

        def spy(ps, r, g, budget):
            seen.append(r)
            return enumerate_one(ps, r, g, budget)

        monkeypatch.setattr(partial_conjunction, "gbhpc_enumerate", spy)
        code, out, _ = run_cli(capsys, "pc", pvalue_csv, "--enumerate", "--r", "9",
                               "--json")
        assert code == 0 and seen == [9]
        monkeypatch.undo()
        _, out_curve, _ = run_cli(capsys, "pc", pvalue_csv, "--enumerate", "--json")
        entry = json.loads(out_curve)["entries"][8]
        assert json.loads(out)["log_p"] == entry["log_p"]


class TestExact2x2Command:
    def test_rows_match_direct_calls(self, counts_csv, capsys):
        code, out, _ = run_cli(capsys, "exact2x2", counts_csv, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["convention"] == "min_likelihood"
        by_id = {r["study_id"]: r for r in doc["rows"]}
        assert math.isclose(by_id["age_le75"]["p"], 9.26e-03, rel_tol=2e-2)
        assert math.isclose(by_id["age_le75"]["odds_ratio"], 0.85, rel_tol=1e-2)
        assert math.isclose(by_id["age_ge75"]["p"], 6.61e-05, rel_tol=2e-2)

    def test_rejects_pvalue_rows(self, pvalue_csv, capsys):
        code, _, err = run_cli(capsys, "exact2x2", pvalue_csv)
        assert code == 2 and json.loads(err)["error"] == "InputValidationError"


class TestSimulateCommand:
    def test_smoke_and_determinism(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "mu0_values": [0.05, 0.2],
            "sigma0_values": [0.05],
            "r0": [1, 2],
            "reps": 2000,
            "seed": 99,
        }))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code, _, _ = run_cli(capsys, "simulate", str(config), "--out", str(out1))
        assert code == 0
        code, _, _ = run_cli(capsys, "simulate", str(config), "--out", str(out2))
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = pio.read_power_grid_csv(out1.read_text())
        assert len(rows) == 2 * 1 * 3 * 2  # grid x methods x r0 values
        assert all(0.0 <= r["power"] <= 1.0 for r in rows)
        assert all(not math.isnan(r["power"]) for r in rows)

    def test_bad_config(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("{not json")
        code, _, err = run_cli(capsys, "simulate", str(config), "--out",
                               str(tmp_path / "x.csv"))
        assert code == 2 and json.loads(err)["error"] == "InputValidationError"


class TestCounterexampleCommand:
    def test_ordering_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["counterexample", "--alpha", "0.2", "--grid", "5", "--reps",
                "10000", "--seed", "42"]
        assert run_cli(capsys, *args, "--out", str(out1))[0] == 0
        assert run_cli(capsys, *args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = list(csv.DictReader(out1.open()))
        assert len(rows) == 3 * 25
        powers = {}
        for row in rows:
            key = (row["mu1"], row["mu2"])
            powers.setdefault(key, {})[row["test"]] = float(row["power"])
        for key, by_test in powers.items():
            assert by_test["phi_tilde"] >= by_test["phi"], key


class TestDatasetCommand:
    def test_views_parse(self, tmp_path, capsys):
        for view in ("pvalues", "counts", "full"):
            out = tmp_path / f"{view}.csv"
            code, _, _ = run_cli(capsys, "dataset", "--view", view, "--out", str(out))
            assert code == 0
            rows = list(csv.DictReader(out.open()))
            assert len(rows) == 18

    def test_stdout_export(self, capsys):
        code, out, _ = run_cli(capsys, "dataset", "--view", "pvalues")
        assert code == 0 and out.startswith("study_id,")


class TestOracleCommands:
    def test_validity_json(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "validity", "--method", "fisher",
                               "--k", "3", "--reps", "20000", "--seed", "7",
                               "--alphas", "0.05", "--json")
        assert code == 0
        doc = json.loads(out)
        est = doc["estimates"][0]
        assert est["valid"] and abs(est["rate"] - 0.05) < 0.01

    def test_validity_boundary_pc(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "validity", "--method", "simes",
                               "--pc-r", "2", "--z-means", "6,0,0,0,0",
                               "--reps", "20000", "--seed", "8", "--json")
        assert code == 0
        assert all(e["valid"] for e in json.loads(out)["estimates"])

    def test_tpm_cdf(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "tpm-cdf", "--l", "3", "--gamma",
                               "0.5", "--w", "1.0", "--reps", "1000000",
                               "--seed", "5", "--json")
        assert code == 0
        assert json.loads(out)["estimate"] == 1.0


class TestInputContract:
    # sqrt(100) / 1e-320 overflows to an infinite weight.
    TINY_SIGMA_ROWS = {
        "two_rows": "study_id,p,n_sample,sigma\na,0.01,100,1e-320\nb,0.99,100,1e-320\n",
        "one_row": "study_id,p,n_sample,sigma\na,0.01,100,1e-320\n",
    }

    @pytest.mark.parametrize("rows", sorted(TINY_SIGMA_ROWS))
    @pytest.mark.parametrize("command", ["combine", "pc"])
    def test_infinite_weight_rejected(self, tmp_path, capsys, rows, command):
        path = tmp_path / "tiny_sigma.csv"
        path.write_text(self.TINY_SIGMA_ROWS[rows])
        code, out, err = run_cli(capsys, command, str(path), "--method", "stouffer",
                                 "--weights-from", "n_sample", "--json")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "InputValidationError"

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
    def test_nonfinite_sigma_rejected(self, tmp_path, capsys, sigma):
        path = tmp_path / "sigma.csv"
        path.write_text(f"study_id,p,n_sample,sigma\na,0.01,100,{sigma}\n")
        code, out, err = run_cli(capsys, "combine", str(path), "--json")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "InputValidationError"
        with pytest.raises(InputValidationError):
            pio.StudyRecord(study_id="a", p=0.01, sigma=float(sigma))

    def test_duplicate_study_id_rejected(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("study_id,p\na,0.01\na,0.5\n")
        code, out, err = run_cli(capsys, "pc", str(path), "--json")
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "InputValidationError" and "a" in doc["message"]


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "combine", "/nonexistent.csv", "--json")
        assert code == 2
        assert out == ""  # stdout stays machine-clean
        assert json.loads(err)["error"] == "InputValidationError"

    def test_nonconvergence_maps_to_3(self, pvalue_csv, capsys, monkeypatch):
        def boom(*a, **k):
            raise NonConvergenceError("did not stabilize")

        monkeypatch.setattr(cli, "pc_curve", boom)
        code = cli.main(["pc", pvalue_csv, "--all-r"])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.err)["error"] == "NonConvergenceError"

    def test_seed_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PCMETA_SEED", "123")
        out1 = tmp_path / "a.csv"
        code, _, _ = run_cli(capsys, "counterexample", "--grid", "3", "--reps",
                             "10000", "--out", str(out1))
        assert code == 0
        monkeypatch.setenv("PCMETA_SEED", "not-an-int")
        code, _, err = run_cli(capsys, "counterexample", "--grid", "3", "--reps",
                               "10000", "--out", str(tmp_path / "b.csv"))
        assert code == 2
