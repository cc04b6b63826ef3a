import argparse
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bcrsp.noise
import bcrsp.protocol
from bcrsp import cli
from bcrsp.cli import main, parse_phase
from bcrsp.noise import (
    NoiseKind,
    OutcomePolicy,
    compare_paper_vs_exact,
    noisy_protocol_run,
    run_fidelities,
)
from bcrsp.protocol import CorrectionRule, OutcomeTuple, PhaseVector
from dense import build_correction_table

GOLDEN = Path(__file__).parent / "golden"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_main(argv, stdin=""):
    """(exit code, stderr) of main(argv) as a shell sees them: every warning
    is written to stderr the way Python's default filter shows it."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(out), redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    shown = "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught
    )
    return code, shown + err.getvalue()


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

    @pytest.mark.parametrize("text", ["pi/0", "-2pi/0.0", "3 pi / 0"])
    def test_rejects_zero_divisor(self, text):
        with pytest.raises(ValueError, match=f"phase {text!r} divides by zero"):
            parse_phase(text)


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

    def test_forced_run_is_one_trial_whatever_trials_and_seed(self, tmp_path, capsys):
        reports = []
        for extra in ({"trials": 5, "seed": 3}, {}):
            cfg = {**RUN_BASE, "forced_outcome": [2, 1, 0, 2], **extra}
            assert main(["run", "--config", write_config(tmp_path, "run.json", cfg)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert [row["trial"] for row in json.loads(reports[0])["trials"]] == [0]

    def test_noiseless_run_accepts_every_policy_and_ignores_it(self, tmp_path, capsys):
        reports = []
        for extra in ({}, *({"policy": p.value} for p in OutcomePolicy)):
            cfg = {**RUN_BASE, "trials": 3, "seed": 4, **extra}
            assert main(["run", "--config", write_config(tmp_path, "run.json", cfg)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[1:] == reports[:1] * len(OutcomePolicy)

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

    @pytest.mark.parametrize("policy", [p.value for p in OutcomePolicy])
    def test_noisy_run_reports_every_residual_in_golden_order(self, tmp_path, capsys, policy):
        alice, bob = PhaseVector(5, (0.3, 1.9, 2.4, 5.1)), PhaseVector(5, (1.2, 0.0, 4.4, 2.8))
        cfg = {"dimension": 5, "alice_phases": list(alice.phases), "bob_phases": list(bob.phases),
               "noise": {"kind": "qudit-phase-flip", "gamma": 0.45}, "policy": policy}
        assert main(["run", "--config", write_config(tmp_path, "run.json", cfg)]) == 0
        noise = json.loads(capsys.readouterr().out)["noise"]
        golden = json.loads((GOLDEN / f"run-noisy-{policy}.json").read_text())["noise"]
        assert list(noise) == list(golden)
        run = noisy_protocol_run(alice, bob, 5, NoiseKind.QUDIT_PHASE_FLIP, 0.45,
                                 OutcomePolicy(policy))
        assert len(run.residuals) == 8
        assert {k: noise[k] for k in run.residuals} == run.residuals

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
NOISY_BASE = {**RUN_BASE, "noise": {"kind": "dephasing", "gamma": 0.3}}
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
    # a noisy run reads forced_outcome as the conditioned tuple
    "run-noisy-out-of-range-forced": ("run", {**NOISY_BASE, "policy": "conditioned",
                                              "forced_outcome": [9, 9, 9, 9]}),
    "run-noisy-averaged-forced": ("run", {**NOISY_BASE, "forced_outcome": [0, 1, 2, 0]}),
    # a noisy run is exact: it has no trials to count and nothing to seed
    "run-noisy-trials": ("run", {**NOISY_BASE, "trials": 5}),
    "run-noisy-seed": ("run", {**NOISY_BASE, "seed": 3}),
    "run-noisy-trials-and-seed": ("run", {**NOISY_BASE, "trials": 5, "seed": 3}),
    # a pi fraction over zero, a policy that is no choice, a dimension below 2
    "run-phase-over-zero": ("run", {**RUN_BASE, "alice_phases": ["pi/0", 0]}),
    "run-noisy-phase-over-zero": ("run", {**NOISY_BASE, "bob_phases": [0, "2pi/0"]}),
    "sweep-phase-over-zero": ("sweep", {**SWEEP_BASE, "bob_phases": [0, "-2pi/0.0"]}),
    "run-unknown-policy": ("run", {**NOISY_BASE, "policy": "bogus"}),
    "run-null-policy": ("run", {**NOISY_BASE, "policy": None}),
    # a noiseless run does not use the policy, but a bad one is still an error
    "run-noiseless-unknown-policy": ("run", {**RUN_BASE, "policy": "bogus"}),
    "run-noiseless-null-policy": ("run", {**RUN_BASE, "policy": None}),
    "run-noiseless-forced-list-policy": ("run", {**RUN_BASE, "forced_outcome": [0, 1, 2, 0],
                                                 "policy": ["averaged"]}),
    "sweep-list-policy": ("sweep", {**SWEEP_BASE, "policy": ["averaged"]}),
    "sweep-zero-dimension": ("sweep", {**SWEEP_BASE, "dimension": 0}),
    # a key the command does not read would leave its default silently in place
    "run-misspelled-key": ("run", {**RUN_BASE, "dimention": 3}),
    "run-noise-extra-key": ("run", {**RUN_BASE, "noise": {"kind": "dephasing", "gamma": 0.3,
                                                          "gama": 0.5}}),
    "run-grid-key": ("run", {**NOISY_BASE, "gamma_grid": [0.1]}),
    "sweep-misspelled-key": ("sweep", {"dimention": 3, "noise": {"kind": "dephasing"}}),
    "sweep-noise-gamma": ("sweep", {**SWEEP_BASE, "noise": {"kind": "dephasing", "gamma": 0.3}}),
    "sweep-grid-misspelled-key": ("sweep", {**SWEEP_BASE, "gamma_grid": {"step": 3}}),
    "sweep-trials": ("sweep", {**SWEEP_BASE, "trials": 2}),
    "table-phases": ("table", {"dimension": 3, "alice_phases": [0, 0]}),
}


class TestMalformedConfig:
    @pytest.mark.parametrize("command,payload", MALFORMED.values(), ids=MALFORMED.keys())
    def test_exits_2_with_one_line(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command,payload,words",
        [
            ("run", {**RUN_BASE, "bob_phases": [0, "pi/0"]}, ["phase 'pi/0'"]),
            ("sweep", {**SWEEP_BASE, "policy": "bogus"},
             ["policy 'bogus'", "['averaged', 'conditioned']"]),
            ("run", {**NOISY_BASE, "policy": None},
             ["policy None", "['averaged', 'conditioned']"]),
            ("sweep", {**SWEEP_BASE, "dimension": 0, "alice_phases": [0]},
             ["dimension must be at least 2, got 0"]),
            # a bad phase names its list and entry
            ("run", {**RUN_BASE, "alice_phases": [{}, 0]},
             ["alice_phases[0]: cannot parse phase {}"]),
            ("run", {**RUN_BASE, "bob_phases": [0, []]},
             ["bob_phases[1]: cannot parse phase []"]),
            ("sweep", {**SWEEP_BASE, "alice_phases": ["abc", 0]},
             ["alice_phases[0]: could not convert string to float: 'abc'"]),
            ("run", {**RUN_BASE, "bob_phases": [0, "inf"]},
             ["bob_phases[1]: phase 'inf' is not finite"]),
            ("sweep", {**SWEEP_BASE, "bob_phases": [float("-inf"), 0]},
             ["bob_phases[0]: phase -inf is not finite"]),
            ("run", {**RUN_BASE, "bob_phases": [0, "pi/0"]}, ["bob_phases[1]: phase 'pi/0'"]),
            ("sweep", {**SWEEP_BASE, "gamma_grid": {"start": 0.5, "stop": 2.0, "steps": 3}},
             ["gamma_grid stop 2.0 outside [0, 1]"]),
            # the size ceilings, checked before any list of that size is built
            ("run", {**RUN_BASE, "dimension": 1025}, ["dimension must be at most 1024, got 1025"]),
            ("sweep", {**SWEEP_BASE, "dimension": 1e200},
             ["dimension must be at most 1024, got 1e+200"]),
            ("sweep", {**SWEEP_BASE, "dimension": 10**9},
             ["dimension must be at most 1024, got 1000000000"]),
            ("run", {**RUN_BASE, "trials": 10**6 + 1},
             ["trials must be at most 1000000, got 1000001"]),
            ("run", {**RUN_BASE, "trials": 1e200}, ["trials must be at most 1000000, got 1e+200"]),
            ("run", {**NOISY_BASE, "trials": 10**9},
             ["trials must be at most 1000000, got 1000000000"]),
            ("sweep", {**SWEEP_BASE, "gamma_grid": {"steps": 10**9}},
             ["gamma_grid steps must be at most 1000000, got 1000000000"]),
            ("sweep", {**SWEEP_BASE, "gamma_grid": {"steps": -1}},
             ["gamma_grid steps must be at least 0, got -1"]),
            # a number field takes no string, even one that int() or float() reads
            ("run", {**RUN_BASE, "dimension": "3", "alice_phases": [0, 0]},
             ["dimension must be an integer, got '3'"]),
            ("run", {**RUN_BASE, "trials": "2"}, ["trials must be an integer, got '2'"]),
            ("run", {**RUN_BASE, "seed": "1_0"}, ["seed must be an integer, got '1_0'"]),
            ("run", {**RUN_BASE, "forced_outcome": [0, 0, "1", 0]},
             ["forced_outcome index must be an integer, got '1'"]),
            ("sweep", {**SWEEP_BASE, "dimension": " 4 "},
             ["dimension must be an integer, got ' 4 '"]),
            ("sweep", {**SWEEP_BASE, "gamma_grid": {"stop": "1e0"}},
             ["gamma_grid stop must be a number, got '1e0'"]),
            ("sweep", {**SWEEP_BASE, "gamma_grid": [0.0, "0.5"]},
             ["gamma must be a number, got '0.5'"]),
            ("run", {**NOISY_BASE, "noise": {"kind": "dephasing", "gamma": "0.5"}},
             ["gamma must be a number, got '0.5'"]),
            ("table", {"dimension": "3"}, ["dimension must be an integer, got '3'"]),
            # an unknown key is named, with the keys its object takes
            ("sweep", {"dimention": 3, "noise": {"kind": "dephasing"}},
             ["unknown config key 'dimention'; expected one of ['dimension', 'alice_phases', "
              "'bob_phases', 'noise', 'policy', 'gamma_grid']"]),
            ("sweep", {**SWEEP_BASE, "gamma_grid": {"step": 3}},
             ["unknown gamma_grid key 'step'; expected one of ['start', 'stop', 'steps']"]),
            ("sweep", {**SWEEP_BASE, "noise": {"kind": "dephasing", "gamma": 0.3}},
             ["unknown noise key 'gamma'; expected one of ['kind']"]),
            ("run", {**RUN_BASE, "noise": {"kind": "dephasing", "gamma": 0.3, "gama": 0.5}},
             ["unknown noise key 'gama'; expected one of ['kind', 'gamma']"]),
            ("run", {**RUN_BASE, "gamma_grid": [0.1]},
             ["unknown config key 'gamma_grid'; expected one of ['dimension', 'alice_phases', "
              "'bob_phases', 'trials', 'seed', 'forced_outcome', 'noise', 'policy']"]),
            ("table", {"dimension": 3, "seed": 1},
             ["unknown config key 'seed'; expected one of ['dimension']"]),
            ("run", {**RUN_BASE, "policy": "bogus"},
             ["policy 'bogus'", "['averaged', 'conditioned']"]),
        ],
    )
    def test_message_names_the_field(self, tmp_path, capsys, command, payload, words):
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        for word in words:
            assert word in err

    def test_noisy_run_rejects_seed_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "noisy.json", NOISY_BASE)
        assert main(["run", "--config", cfg, "--seed", "3"]) == 2
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

    def test_noisy_forced_outcome_is_the_conditioned_tuple(self, tmp_path, capsys):
        reports = []
        for extra in ({"forced_outcome": [2, 1, 0, 2]}, {}):
            cfg = {**NOISY_BASE, "policy": "conditioned", **extra}
            assert main(["run", "--config", write_config(tmp_path, "run.json", cfg)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        forced, default = reports
        assert forced["noise"]["conditioned_outcome"] == [2, 1, 0, 2]
        assert default["noise"]["conditioned_outcome"] == [0, 0, 0, 0]
        # every tuple yields the same outputs
        assert forced["fidelity_a1"] == default["fidelity_a1"]
        assert forced["fidelity_b2"] == default["fidelity_b2"]

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

    @pytest.mark.parametrize("policy", [p.value for p in OutcomePolicy])
    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize(
        "alice,bob",
        [(PhaseVector(3, (0.4, 2.1)), PhaseVector(3, (1.7, 0.6))),
         (PhaseVector.zero(4), PhaseVector.zero(4))],
        ids=["n3-random", "n4-flat"],
    )
    def test_rows_are_the_comparison_report(self, tmp_path, capsys, alice, bob, kind, policy):
        # every printed number is the report's, and the report's numbers are
        # those of a run under the config's own policy
        grid = [0.0, 0.25, 0.6, 1.0]
        cfg = write_config(
            tmp_path, "rows.json",
            {"dimension": alice.dim, "alice_phases": list(alice.phases),
             "bob_phases": list(bob.phases), "noise": {"kind": kind.value}, "policy": policy,
             "gamma_grid": grid},
        )
        assert main(["sweep", "--config", cfg, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rows = compare_paper_vs_exact(kind, alice, bob, grid).rows
        assert [
            (r.gamma, r.exact_a1, r.exact_b2, r.paper, r.deviation) for r in rows
        ] == [tuple(d.values()) for d in doc]
        for r in rows:
            run = noisy_protocol_run(alice, bob, alice.dim, kind, r.gamma, OutcomePolicy(policy))
            assert (r.exact_a1, r.exact_b2) == run_fidelities(run, alice, bob)

    def test_never_builds_an_ensemble(self, tmp_path, capsys, monkeypatch):
        # the flat N=4 shift-and-phase rows are flagged, and a sweep prints no
        # breakdown, so no eigendecomposition runs
        def refuse(*args):
            raise AssertionError("sweep built a branch ensemble")

        monkeypatch.setattr(bcrsp.noise, "ensemble_from_density", refuse)
        cfg = write_config(
            tmp_path, "pf.json", {"dimension": 4, "noise": {"kind": "qudit-phase-flip"}}
        )
        assert main(["sweep", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert float(lines[-1].split(",")[4]) > 1e-6

    @pytest.mark.parametrize("kind", [k.value for k in NoiseKind])
    def test_never_computes_residuals(self, tmp_path, capsys, monkeypatch, kind):
        # a sweep prints fidelities only, so no eigvalsh of an output runs
        def refuse(*args):
            raise AssertionError("sweep computed invariant residuals")

        monkeypatch.setattr(bcrsp.noise, "_invariant_residuals", refuse)
        cfg = write_config(tmp_path, "res.json", {"dimension": 16, "noise": {"kind": kind}})
        for fmt in ("csv", "json"):
            assert main(["sweep", "--config", cfg, "--format", fmt]) == 0
            assert capsys.readouterr().out

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


def printed_table_rows(n: int, capsys) -> list[str]:
    """The data rows that `bcrsp table --dimension n` prints."""
    assert main(["table", "--dimension", str(n)]) == 0
    return [line for line in capsys.readouterr().out.splitlines() if line[:1].isdigit()]


def library_table_rows(n: int) -> list[str]:
    """`build_correction_table(n)` as CSV data rows."""
    return [
        f"{oc.l},{oc.n},{oc.m},{oc.k},U{rule.a1_index},U{rule.b2_index}"
        for oc, rule in build_correction_table(n).items()
    ]


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

    @pytest.mark.parametrize("payload", [{"dimension": 3}, {"dimension": 5, "bogus": 1}])
    def test_dimension_and_config_are_exclusive(self, tmp_path, payload):
        cfg = write_config(tmp_path, "table.json", payload)
        code, err = run_main(["table", "--dimension", "3", "--config", cfg])
        assert (code, err) == (2, "error: table takes --dimension or --config, not both\n")

    @pytest.mark.parametrize("n", range(2, 7))
    def test_rows_equal_the_library_table_in_order(self, capsys, n):
        assert printed_table_rows(n, capsys) == library_table_rows(n)

    def test_one_rule_body_feeds_table_and_library(self, capsys, monkeypatch):
        # a different rule patched into its one body shows in both the
        # library table and the printed rows
        monkeypatch.setattr(
            bcrsp.protocol, "correction_indices",
            lambda l, n, m, k, dim: ((m - n) % dim, (k * l) % dim),
        )
        assert build_correction_table(3)[OutcomeTuple(2, 1, 0, 2)] == CorrectionRule(2, 1)
        rows = printed_table_rows(3, capsys)
        assert "2,1,0,2,U2,U1" in rows
        assert rows == library_table_rows(3)

    def test_builds_no_outcome_or_rule_object(self, capsys, monkeypatch):
        built = []
        for cls in (OutcomeTuple, CorrectionRule):
            init = cls.__init__

            def counted(self, *args, _init=init, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        assert main(["table", "--dimension", "6"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 7 + 6**4
        assert built == []


class TestParser:
    def test_built_once_across_calls(self, tmp_path, monkeypatch):
        # a parser the cache already holds would hide a rebuild on the first call
        cli.build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        out = str(tmp_path / "out")
        calls = [["table", "--dimension", "3"], ["decompose", "--builtin", "charlie4"], ["verify"]]
        assert main([*calls[0], "--out", out]) == 0
        # the root parser and one parser per subcommand
        assert len(built) == 6
        for argv in calls * 2:
            assert main([*argv, "--out", out]) == 0
        assert len(built) == 6

    @pytest.mark.parametrize("argv,message", [
        (["table", "--dimension", "x"], "argument --dimension: invalid int value: 'x'"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
        (["table", "--dimension", "3", "--bogus"], "unrecognized arguments: --bogus"),
        (["decompose", "--builtin"], "argument --builtin: expected one argument"),
        (["sweep", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    ])
    def test_bad_argv_is_one_error_line(self, tmp_path, argv, message):
        code, err = run_main(argv)
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"error: {message}")
        # the shared parser carries nothing from the bad call into a good one
        out = tmp_path / "out"
        for good, golden in [
            (["table", "--dimension", "3"], "table-n3.csv"),
            (["decompose", "--builtin", "charlie4"], "decompose-charlie4.json"),
            (["verify"], "verify.txt"),
        ]:
            assert main([*good, "--out", str(out)]) == 0
            assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("argv", [["--help"], ["table", "--help"]])
    def test_help_prints_and_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: bcrsp")
        assert "error" not in out


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

    def test_nan_deviation_is_not_unitary(self, capsys, monkeypatch):
        # `dev > tol` is False for NaN; the pre-check must reject it instead
        monkeypatch.setattr(cli, "unitarity_deviation", lambda mat: float("nan"))
        assert main(["decompose", "--builtin", "identity4"]) == 1
        err = capsys.readouterr().err
        assert err == "error: input matrix is not unitary (deviation nan)\n"

    def test_unknown_builtin(self, capsys):
        assert main(["decompose", "--builtin", "nosuch"]) == 2

    def test_builtin_and_input_are_exclusive(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([[1, 0], [0, 1]]))
        code, err = run_main(["decompose", "--builtin", "identity4", "--input", str(path)])
        assert (code, err) == (2, "error: decompose takes --builtin or --input, not both\n")

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


class TestOverflow:
    """Numbers that overflow numpy leave the one error line and no warning."""

    @pytest.mark.parametrize(
        "argv,doc,expected",
        [
            (["decompose", "--input"], [[1e200, 0], [0, 1]],
             (1, "error: input matrix is not unitary (deviation inf)\n")),
            (["sweep", "--config"],
             {**SWEEP_BASE, "gamma_grid": {"start": 1e308, "stop": -1e308, "steps": 3}},
             (2, "error: gamma_grid start 1e+308 outside [0, 1]\n")),
        ],
        ids=["decompose-huge-cell", "sweep-huge-grid"],
    )
    def test_one_error_line(self, tmp_path, argv, doc, expected):
        assert run_main([*argv, write_config(tmp_path, "in.json", doc)]) == expected


class TestVerify:
    def test_invariant_suite_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out


def pi_text(divisors):
    return st.builds(
        "{}{}pi{}".format,
        st.sampled_from(["", "-", "+ "]),
        st.sampled_from(["", "0", "2", "0.5"]),
        st.sampled_from(divisors),
    )


PI_TEXT = pi_text(["", "/0", "/0.0", "/3", " / 2.5"])


def any_json(*numbers):
    """JSON values of every type, with small numbers and `numbers` among the leaves."""
    return st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-2, 3),
            st.floats(-3, 3),
            st.sampled_from([float("nan"), float("inf"), -float("inf")]),
            *numbers,
            st.text(max_size=6),
            PI_TEXT,
        ),
        lambda inner: st.lists(inner, max_size=6)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=8,
    )


# huge finite floats overflow numpy and list sizes, and a huge dimension or
# trial count is above its ceiling
ANY_JSON = any_json(st.sampled_from([1e308, -1e308, 1e200]))
PHASE = st.one_of(st.floats(-10, 10), st.just(1e300), pi_text(["", "/3", " / 2.5"]))
GAMMA = st.floats(0, 1)
# where a fuzzed value lands: a field, an entry of a field, or nothing
PATHS = [
    ("dimension",), ("alice_phases",), ("alice_phases", 0), ("bob_phases",),
    ("bob_phases", -1), ("noise",), ("noise", "kind"), ("noise", "gamma"),
    ("policy",), ("trials",), ("seed",), ("forced_outcome",), ("forced_outcome", 2),
    ("gamma_grid",), ("gamma_grid", "steps"), ("gamma_grid", "start"), ("gamma_grid", 0),
]
DROP = object()


@st.composite
def configs(draw):
    """(command, config): a valid run, sweep or table document with up to
    three fields replaced or dropped, or now and then any JSON value."""
    command = draw(st.sampled_from(["run", "sweep", "table"]))
    n = draw(st.integers(-2, 6))
    phases = st.lists(PHASE, min_size=max(n - 1, 0), max_size=max(n - 1, 0))
    # each command's document holds only that command's keys
    doc = {"dimension": n}
    if command != "table":
        doc.update(alice_phases=draw(phases), bob_phases=draw(phases))
    noise = {"kind": draw(st.sampled_from([k.value for k in NoiseKind])), "gamma": draw(GAMMA)}
    policy = draw(st.sampled_from([p.value for p in OutcomePolicy]))
    if command == "run" and draw(st.booleans()):
        doc.update(noise=noise, policy=policy)
    elif command == "run":
        doc.update(trials=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**40)))
        if draw(st.booleans()):
            doc["forced_outcome"] = draw(st.lists(st.integers(0, 5), min_size=4, max_size=4))
    elif command == "sweep":
        grid = st.fixed_dictionaries(
            {"start": GAMMA, "stop": GAMMA, "steps": st.integers(1, 5)}
        ) | st.lists(GAMMA, min_size=1, max_size=5)
        doc.update(noise={"kind": noise["kind"]}, policy=policy, gamma_grid=draw(grid))
    for path in draw(st.lists(st.sampled_from(PATHS), max_size=3)):
        value = draw(st.just(DROP) | ANY_JSON)
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if isinstance(parent, dict) and value is DROP:
            parent.pop(path[-1], None)
        elif isinstance(parent, dict):
            parent[path[-1]] = value
        elif (isinstance(parent, list) and type(path[-1]) is int
              and -len(parent) <= path[-1] < len(parent) and value is not DROP):
            parent[path[-1]] = value
    if draw(st.integers(0, 19)) == 7:
        doc = draw(ANY_JSON)
    return command, doc


# cells that keep a permutation matrix unitary: 1, -1, i and -i
UNIT_CELL = st.sampled_from([1, -1, [0, 1], [0, -1]])


@st.composite
def matrix_documents(draw):
    """A `decompose --input` document, bare rows or {"matrix": rows}: a
    permutation matrix of order 0..4 with up to three cells or rows replaced
    by any small JSON value, or now and then any JSON value for the rows."""
    size = draw(st.integers(0, 4))
    rows = [[int(j == p) for j in range(size)] for p in draw(st.permutations(range(size)))]
    cell = UNIT_CELL | ANY_JSON
    for _ in range(draw(st.integers(0, 3)) if size else 0):
        i = draw(st.integers(0, size - 1))
        if rows[i] and draw(st.booleans()):
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(cell)
        else:
            rows[i] = draw(st.lists(cell, max_size=4))
    if draw(st.integers(0, 9)) == 7:
        rows = draw(ANY_JSON)
    return {"matrix": rows} if draw(st.booleans()) else rows


def assert_exit_and_stderr(code, err):
    """Exit 0 with nothing on stderr, or 1 or 2 with one error line."""
    assert code in (0, 1, 2)
    assert err.startswith("error: ") and err.count("\n") == 1 if code else err == ""


class TestBoundaryFuzz:
    """Any JSON input exits 0, 1 or 2, and a failure is one stderr line
    with no warning before it."""

    @given(case=configs())
    @example(case=("run", {**RUN_BASE, "alice_phases": ["pi/0", 0]}))
    @example(case=("run", {**RUN_BASE, "dimension": 1e200}))
    @example(case=("run", {**RUN_BASE, "dimension": 10**9}))
    @example(case=("run", {**RUN_BASE, "trials": 1e200}))
    @example(case=("run", {**RUN_BASE, "trials": 10**9}))
    @example(case=("sweep", {**SWEEP_BASE, "dimension": 1e200}))
    @example(case=("sweep", {**SWEEP_BASE, "dimension": 10**9}))
    @example(case=("sweep", {**SWEEP_BASE,
                             "gamma_grid": {"start": 1e308, "stop": -1e308, "steps": 3}}))
    @example(case=("sweep", {**SWEEP_BASE, "gamma_grid": {"steps": 10**9}}))
    @example(case=("sweep", {**SWEEP_BASE, "gamma_grid": {"steps": -1}}))
    @settings(max_examples=300, deadline=None)
    def test_exit_code_and_one_line_errors(self, case):
        command, doc = case
        assert_exit_and_stderr(*run_main([command, "--config", "-"], stdin=json.dumps(doc)))

    @given(doc=matrix_documents())
    @example(doc=[[1e200, 0], [0, 1]])
    @settings(max_examples=200, deadline=None)
    def test_decompose_input(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "matrix.json"
        path.write_text(json.dumps(doc))
        assert_exit_and_stderr(*run_main(["decompose", "--input", str(path)]))
