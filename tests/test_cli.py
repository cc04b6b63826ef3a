import json

import numpy as np
import pytest

from bcrsp.cli import main, parse_phase


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestPhaseParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi", np.pi),
            ("-pi", -np.pi),
            ("2pi/3", 2 * np.pi / 3),
            ("pi/4", np.pi / 4),
            ("3pi", 3 * np.pi),
            ("0.75", 0.75),
            (1.5, 1.5),
            (2, 2.0),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_phase(text) == pytest.approx(expected, abs=1e-15)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_phase("two pies")


class TestRun:
    def test_ten_clean_trials(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "run.json",
            {"dimension": 3, "alice_phases": [0, 0], "bob_phases": [0, 0],
             "trials": 10, "seed": 7},
        )
        assert main(["run", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_recovered"] is True
        assert len(report["trials"]) == 10
        for row in report["trials"]:
            assert row["fidelity_a1"] == pytest.approx(1.0, abs=1e-10)
            assert row["fidelity_b2"] == pytest.approx(1.0, abs=1e-10)

    def test_seeded_draw_order_is_pinned(self, tmp_path, capsys):
        # outcome tuples recorded from the six-qudit engine; the per-leg
        # engine must keep drawing l, n, m, k in this order
        cfg = write_config(
            tmp_path,
            "seeded.json",
            {"dimension": 5, "alice_phases": [0.1, 0.2, 0.3, 0.4],
             "bob_phases": ["pi/3", "pi/3", "pi/3", "pi/3"], "trials": 6, "seed": 7},
        )
        assert main(["run", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [row["outcome"] for row in report["trials"]] == [
            [3, 4, 3, 1], [3, 0, 0, 0], [1, 2, 4, 3],
            [4, 4, 1, 3], [1, 1, 2, 2], [0, 3, 2, 2],
        ]

    def test_forced_outcome_reports_corrections(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "forced.json",
            {"dimension": 4,
             "alice_phases": ["pi/3", "2pi/3", "pi"],
             "bob_phases": [0.4, 1.1, 2.8],
             "forced_outcome": [2, 2, 0, 1]},
        )
        assert main(["run", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        row = report["trials"][0]
        assert row["correction_a1"] == 2
        assert row["correction_b2"] == 3

    def test_zero_trials_is_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "bad.json",
            {"dimension": 3, "alice_phases": [0, 0], "bob_phases": [0, 0], "trials": 0},
        )
        assert main(["run", "--config", cfg]) == 2
        assert "trials" in capsys.readouterr().err

    def test_wrong_phase_count_is_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "bad2.json",
            {"dimension": 3, "alice_phases": [0], "bob_phases": [0, 0]},
        )
        assert main(["run", "--config", cfg]) == 2

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent.json"]) == 2

    def test_noisy_run_reports_exact_fidelities(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "noisy.json",
            {"dimension": 4, "alice_phases": [0, 0, 0], "bob_phases": [0, 0, 0],
             "noise": {"kind": "qudit-flip", "gamma": 0.8}},
        )
        assert main(["run", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fidelity_a1"] == pytest.approx(1.0, abs=1e-10)
        assert report["noise"]["branch_count"] == 256

    @pytest.mark.parametrize("missing", ["kind", "gamma"])
    def test_noise_block_missing_field_is_config_error(self, tmp_path, capsys, missing):
        noise = {"kind": "qudit-flip", "gamma": 0.8}
        del noise[missing]
        cfg = write_config(
            tmp_path,
            "partial_noise.json",
            {"dimension": 4, "alice_phases": [0, 0, 0], "bob_phases": [0, 0, 0],
             "noise": noise},
        )
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert missing in err


RUN_BASE = {"dimension": 3, "alice_phases": [0, 0], "bob_phases": [0, 0]}
SWEEP_BASE = {"dimension": 3, "noise": {"kind": "dephasing"}}
MALFORMED = {
    "run-null-gamma": ("run", {**RUN_BASE, "noise": {"kind": "qudit-flip", "gamma": None}}),
    "run-list-noise-with-keys": ("run", {**RUN_BASE, "noise": ["kind", "gamma"]}),
    "run-list-noise": ("run", {**RUN_BASE, "noise": [1, 2]}),
    # only an absent or null noise block means a noiseless run
    "run-empty-noise": ("run", {**RUN_BASE, "noise": {}}),
    "run-empty-list-noise": ("run", {**RUN_BASE, "noise": []}),
    "run-zero-noise": ("run", {**RUN_BASE, "noise": 0}),
    "run-false-noise": ("run", {**RUN_BASE, "noise": False}),
    "run-empty-text-noise": ("run", {**RUN_BASE, "noise": ""}),
    "run-short-forced": ("run", {**RUN_BASE, "forced_outcome": [1, 2]}),
    "run-null-forced-index": ("run", {**RUN_BASE, "forced_outcome": [1, 2, None, 0]}),
    "run-scalar-phases": ("run", {**RUN_BASE, "alice_phases": 5}),
    "run-list-seed": ("run", {**RUN_BASE, "seed": [1]}),
    "run-array": ("run", [RUN_BASE]),
    "sweep-array": ("sweep", [SWEEP_BASE]),
    "sweep-text-steps": ("sweep", {**SWEEP_BASE, "gamma_grid": {"steps": "x"}}),
    "sweep-list-noise": ("sweep", {**SWEEP_BASE, "noise": ["kind"]}),
    # numeric fields take no booleans, integer fields no non-integral numbers
    "run-fractional-forced-index": ("run", {**RUN_BASE, "forced_outcome": [0, 0, 0, 1.5]}),
    "run-boolean-trials": ("run", {**RUN_BASE, "trials": True}),
    "run-fractional-trials": ("run", {**RUN_BASE, "trials": 2.5}),
    "run-fractional-dimension": ("run", {**RUN_BASE, "dimension": 3.5}),
    "run-fractional-seed": ("run", {**RUN_BASE, "seed": 1.5}),
    "run-infinite-seed": ("run", {**RUN_BASE, "seed": float("inf")}),
    "run-boolean-phase": ("run", {**RUN_BASE, "alice_phases": [True, 0]}),
    "run-boolean-gamma": ("run", {**RUN_BASE, "noise": {"kind": "dephasing", "gamma": True}}),
    "table-fractional-dimension": ("table", {"dimension": 2.7}),
    "table-boolean-dimension": ("table", {"dimension": True}),
    "sweep-fractional-steps": ("sweep", {**SWEEP_BASE, "gamma_grid": {"steps": 2.5}}),
    "sweep-boolean-gamma": ("sweep", {**SWEEP_BASE, "gamma_grid": [0.0, False]}),
}


class TestMalformedConfig:
    @pytest.mark.parametrize("command,payload", MALFORMED.values(), ids=MALFORMED.keys())
    def test_exits_2_with_one_line(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_null_noise_is_a_noiseless_run(self, tmp_path, capsys):
        reports = []
        for cfg in ({**RUN_BASE, "seed": 5}, {**RUN_BASE, "seed": 5, "noise": None}):
            assert main(["run", "--config", write_config(tmp_path, "run.json", cfg)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert "noise" not in json.loads(reports[0])

    def test_integral_floats_are_integers(self, tmp_path, capsys):
        # 3.0 is the integer 3: the report equals that of the integer config
        reports = []
        for value in (3, 3.0):
            cfg = write_config(
                tmp_path, "integral.json",
                {**RUN_BASE, "dimension": value, "trials": value, "seed": value},
            )
            assert main(["run", "--config", cfg]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]


class TestSweep:
    def test_flip_exact_column_is_unity(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "sweep.json",
            {"dimension": 4, "alice_phases": [0, 0, 0], "bob_phases": [0, 0, 0],
             "noise": {"kind": "qudit-flip"},
             "gamma_grid": {"start": 0.0, "stop": 1.0, "steps": 5}},
        )
        assert main(["sweep", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "gamma,exact_fidelity_A1,exact_fidelity_B2,paper_fidelity,deviation"
        assert len(lines) == 6
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[1]) == pytest.approx(1.0, abs=1e-10)
            assert float(cells[3]) == 1.0
            assert float(cells[4]) <= 1e-10

    def test_phase_flip_columns(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "pf.json",
            {"dimension": 4, "alice_phases": [0, 0, 0], "bob_phases": [0, 0, 0],
             "noise": {"kind": "qudit-phase-flip"},
             "gamma_grid": [0.0, 0.4]},
        )
        assert main(["sweep", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        row = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert float(row["gamma"]) == 0.4
        assert float(row["paper_fidelity"]) == pytest.approx(0.7, abs=1e-12)
        expected_exact = np.sqrt((1 - 0.3) ** 2 + 3 * 0.4**2 / 16)
        assert float(row["exact_fidelity_A1"]) == pytest.approx(expected_exact, abs=1e-10)
        assert float(row["deviation"]) == pytest.approx(expected_exact - 0.7, abs=1e-10)

    def test_dephasing_reference_column(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "deph.json",
            {"dimension": 4, "alice_phases": [0, 0, 0], "bob_phases": [0, 0, 0],
             "noise": {"kind": "dephasing"},
             "gamma_grid": [0.0, 1.0]},
        )
        assert main(["sweep", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert float(lines[1].split(",")[3]) == pytest.approx(1.0, abs=1e-12)
        assert float(lines[2].split(",")[3]) == pytest.approx(0.25, abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "det.json",
            {"dimension": 4, "alice_phases": [0, 0, 0], "bob_phases": [0, 0, 0],
             "noise": {"kind": "dephasing"},
             "gamma_grid": {"start": 0.0, "stop": 1.0, "steps": 3}},
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--seed", "11", "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--seed", "11", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "sj.json",
            {"dimension": 4, "alice_phases": [0, 0, 0], "bob_phases": [0, 0, 0],
             "noise": {"kind": "qudit-flip"}, "gamma_grid": [0.5]},
        )
        assert main(["sweep", "--config", cfg, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["gamma"] == 0.5

    def test_missing_noise_kind(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "nk.json",
            {"dimension": 4, "alice_phases": [0, 0, 0], "bob_phases": [0, 0, 0]},
        )
        assert main(["sweep", "--config", cfg]) == 2

    def test_unknown_noise_kind(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "uk.json",
            {"dimension": 4, "alice_phases": [0, 0, 0], "bob_phases": [0, 0, 0],
             "noise": {"kind": "thermal"}},
        )
        assert main(["sweep", "--config", cfg]) == 2
        assert "unknown noise kind" in capsys.readouterr().err


class TestTable:
    def test_qutrit_table(self, capsys):
        assert main(["table", "--dimension", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        notes = [l for l in lines if l.startswith("#")]
        rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("l,")]
        assert len(rows) == 81
        assert any("swapped" in note for note in notes)
        assert "1,1,0,1,U1,U2" in rows
        assert "0,0,0,0,U0,U0" in rows

    def test_qubit_table_row_count(self, capsys):
        assert main(["table", "--dimension", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("l,")]
        assert len(rows) == 16

    def test_four_level_spot_row(self, capsys):
        assert main(["table", "--dimension", "4"]) == 0
        out = capsys.readouterr().out
        assert "2,2,0,1,U2,U3" in out

    def test_oversized_dimension_rejected(self, capsys):
        assert main(["table", "--dimension", "9"]) == 2


class TestDecompose:
    def test_builtin_controller_matrix(self, capsys):
        assert main(["decompose", "--builtin", "charlie4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["beam_splitters"] == 6
        assert float(doc["reconstruction_error"]) <= 1e-10

    def test_identity_builtin(self, capsys):
        assert main(["decompose", "--builtin", "identity4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert float(doc["reconstruction_error"]) <= 1e-12

    def test_matrix_file_with_complex_cells(self, tmp_path, capsys):
        mat = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
        path = tmp_path / "x.json"
        path.write_text(json.dumps(mat))
        assert main(["decompose", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 2

    def test_non_unitary_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([[1, 1], [1, 1]]))
        assert main(["decompose", "--input", str(path)]) == 1
        assert "not unitary" in capsys.readouterr().err

    def test_unknown_builtin(self, capsys):
        assert main(["decompose", "--builtin", "nosuch"]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"x": 1},
            [[1, [2]]],
            [],
            5,
            [[[1, 2, 3]]],
            [[1, 0]],
            [[1, 0], [0]],
            [["1", 0], [0, 1]],
            [[True, 0], [0, 1]],
            {"matrix": "1"},
            [[float("nan"), 0], [0, 1]],
            [[1, 0], [0, [float("inf"), 0]]],
            [[10**400, 0], [0, 1]],
        ],
        ids=["no-matrix-key", "short-pair", "empty", "scalar", "long-pair",
             "non-square", "ragged", "text-cell", "bool-cell", "text-matrix",
             "nan-cell", "inf-pair", "huge-int"],
    )
    def test_malformed_input_exits_2_with_one_line(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestVerify:
    def test_invariant_suite_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out
