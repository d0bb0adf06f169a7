"""Command-line behavior: payload shapes, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from idrlab import cli


def invoke(argv, payload=None, tmp_path=None):
    argv = list(argv)
    if payload is not None:
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        argv += ["--in", str(path)]
    return cli.run(argv)


def test_newton_to_coeffs(tmp_path):
    payload, code = invoke(
        ["newton", "to-coeffs"], {"values": ["0", "1", "4", "9"]}, tmp_path
    )
    assert code == 0
    assert payload == {"status": "ok", "result": {"coeffs": ["0", "1", "2", "0"]}}


def test_newton_to_values(tmp_path):
    payload, code = invoke(
        ["newton", "to-values", "--x-max", "3"], {"coeffs": ["1", "2", "2"]}, tmp_path
    )
    assert code == 0
    assert payload["result"] == {"values": ["1", "3", "7", "13"]}


def test_idr_check_both_agrees(tmp_path):
    payload, code = invoke(
        ["idr", "check", "--method", "both"], {"values": ["0", "0", "1", "1"]}, tmp_path
    )
    assert code == 0
    result = payload["result"]
    assert result["bruteforce"]["violation"] == {"a": "2", "b": "0"}
    assert result["bruteforce"]["pairs_checked"] == "2"
    assert "2" in result["newton"]["failing_indices"]
    assert result["agree"] is True


def test_idr_check_single_methods(tmp_path):
    payload, _ = invoke(
        ["idr", "check", "--method", "brute"], {"values": ["1", "2", "5", "16"]}, tmp_path
    )
    assert payload["result"] == {
        "bruteforce": {"pairs_checked": "6", "violation": None}
    }
    payload, _ = invoke(
        ["idr", "check", "--method", "newton"], {"values": ["0", "0", "1", "1"]}, tmp_path
    )
    assert payload["result"] == {"newton": {"failing_indices": ["2", "3"]}}


def test_idr_project(tmp_path):
    payload, code = invoke(
        ["idr", "project"], {"values": ["1", "3", "9", "27", "81"]}, tmp_path
    )
    assert code == 0
    assert payload["result"] == {"values": ["1", "3", "9", "25", "69"]}


def test_idr_lemmas():
    payload, code = invoke(["idr", "lemmas", "--n", "6"])
    assert code == 0
    result = payload["result"]
    assert result["passed"] is True
    assert [entry["name"] for entry in result["lemmas"]] == [
        "binomial_window",
        "shift_difference",
        "pair_difference",
    ]
    assert all(entry["counterexample"] is None for entry in result["lemmas"])


def test_lcm_table_convention_entry():
    payload, code = invoke(["lcm", "table", "--n", "0"])
    assert code == 0
    assert payload["result"] == {"entries": ["1"]}


def test_family_eval_factorial():
    payload, code = invoke(
        ["family", "eval", "--family", "factorial-e", "--a", "1", "--x-max", "5"]
    )
    assert code == 0
    assert payload["result"] == {"values": ["1", "2", "5", "16", "65", "326"]}


def test_family_eval_hyper_floor():
    payload, code = invoke(
        [
            "family", "eval", "--family", "hyper",
            "--a", "-1", "--k", "2", "--r", "1",
            "--rounding", "floor", "--x-max", "4",
        ]
    )
    assert code == 0
    assert payload["result"] == {"values": ["-1", "-2", "-3", "-10", "-29"]}


def test_family_eval_polynomial(tmp_path):
    payload, code = invoke(
        ["family", "eval", "--family", "polynomial", "--x-max", "3"],
        {"coeffs": ["0", {"num": "1", "den": "2"}]},
        tmp_path,
    )
    assert code == 0
    assert payload["result"] == {"values": ["0", "0", "1", "1"]}


def test_family_eval_exponential():
    payload, code = invoke(
        [
            "family", "eval", "--family", "exponential",
            "--alpha", "3/2", "--base", "2", "--x-max", "4",
        ]
    )
    assert code == 0
    assert payload["result"] == {"values": ["1", "3", "6", "12", "24"]}


def test_family_verify_rows():
    payload, code = invoke(
        [
            "family", "verify", "--family", "factorial-e",
            "--a", "1", "--rounding", "floor", "--x-max", "2",
        ]
    )
    assert code == 0
    result = payload["result"]
    assert result["consistent"] is True
    assert result["undecided"] == "0"
    assert result["rows"][0] == {
        "x": "0", "closed": "1", "oracle": "2", "status": "patched",
    }
    assert result["rows"][1]["status"] == "match"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--family", "factorial-e", "--a", "1", "--x-max", "-3"],
        ["eval", "--family", "hyper", "--a", "2", "--k", "3", "--r", "1", "--x-max", "-1"],
        ["eval", "--family", "exponential", "--alpha", "1", "--base", "2", "--x-max", "-1"],
        ["eval", "--family", "factorial-e", "--a", "0", "--x-max", "0"],
        ["eval", "--family", "hyper", "--a", "1", "--k", "2", "--r", "2", "--x-max", "0"],
        ["verify", "--family", "factorial-e", "--a", "1", "--x-max", "-3"],
        ["verify", "--family", "hyper", "--a", "1", "--k", "2", "--r", "0", "--x-max", "-3"],
        ["verify", "--family", "factorial-e", "--a", "0", "--x-max", "0"],
        ["scaled", "--scale", "2", "--a", "1", "--x-max", "-1"],
    ],
)
def test_family_commands_reject_out_of_domain_arguments(argv):
    payload, code = invoke(["family", *argv])
    assert code == 1
    assert payload["status"] == "error"


def test_family_verify_hyper_rows():
    payload, code = invoke(
        [
            "family", "verify", "--family", "hyper", "--a", "-1", "--k", "2",
            "--r", "1", "--rounding", "ceil", "--x-max", "6",
        ]
    )
    assert code == 0
    result = payload["result"]
    assert result["consistent"] is True
    assert result["undecided"] == "0"
    assert [row["status"] for row in result["rows"]] == ["patched"] + ["match"] * 6


def test_family_scaled():
    payload, code = invoke(["family", "scaled", "--scale", "3", "--a", "1", "--x-max", "3"])
    assert code == 0
    assert payload["result"] == {"values": ["3", "6", "15", "48"]}


def test_analyze_gap(tmp_path):
    payload, code = invoke(
        ["analyze", "gap", "--modulus", "5"],
        {"values": ["0", "7", "14", "21", "28"]},
        tmp_path,
    )
    assert code == 0
    result = payload["result"]
    assert result["max_gap"] == {"num": "1", "den": "1"}
    assert result["samples"] == "5"
    assert [part["num"] for part in result["fractional_parts"]] == [
        "0", "1", "2", "3", "4",
    ]


def test_analyze_witnesses():
    payload, code = invoke(["analyze", "witness", "--kind", "power-factorial", "--a", "2"])
    assert code == 0
    assert payload["result"] == {"x": "5", "y": "2", "divisor": "3"}
    payload, code = invoke(
        ["analyze", "witness", "--kind", "scaled-factorial", "--p", "2", "--q", "3"]
    )
    assert code == 0
    assert payload["result"] == {"a": "16", "b": "3", "divisor": "13"}


def test_analyze_polynomial(tmp_path):
    payload, code = invoke(
        ["analyze", "polynomial", "--prefix", "4"],
        {"coeffs": ["0", {"num": "1", "den": "2"}]},
        tmp_path,
    )
    assert code == 0
    assert payload["result"] == {
        "integral_high_coeffs": False,
        "violation": {"a": "2", "b": "0"},
    }


def test_cf_convergents():
    payload, code = invoke(["cf", "convergents", "--a", "1", "--n", "6"])
    assert code == 0
    result = payload["result"]
    assert result["terms"] == ["2", "1", "2", "1", "1", "4"]
    assert result["convergents"][-1] == {"p": "87", "q": "32"}


def test_error_payloads_name_the_problem(tmp_path):
    payload, code = invoke(["newton", "to-coeffs"], {"values": []}, tmp_path)
    assert code == 1
    assert payload["status"] == "error"
    assert "non-empty" in payload["error"]

    payload, code = invoke(["idr", "check"], {"values": ["bad"]}, tmp_path)
    assert code == 1
    assert "bad" in payload["error"]

    payload, code = invoke(["family", "eval", "--family", "factorial-e", "--x-max", "3"])
    assert code == 1
    assert "--a" in payload["error"]


def test_unknown_subcommand_exits_nonzero(capsys):
    payload, code = invoke(["nonsense"])
    assert payload is None
    assert code == 1
    capsys.readouterr()


def test_malformed_json_exits_nonzero(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    payload, code = cli.run(["newton", "to-coeffs", "--in", str(path)])
    assert code == 1
    assert payload["status"] == "error"


def test_missing_input_file_exits_one(capsys, tmp_path):
    # an I/O problem is bad input (exit 1); exit 2 is for internal breaches
    code = cli.main(["newton", "to-coeffs", "--in", str(tmp_path / "absent.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["status"] == "error"


def test_main_prints_compact_sorted_json(capsys, tmp_path):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"values": ["1", "2", "5", "16"]}))
    argv = ["idr", "check", "--method", "both", "--in", str(path)]
    code = cli.main(argv)
    first = capsys.readouterr().out
    assert code == 0
    assert first.endswith("\n")
    parsed = json.loads(first)
    assert first == json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n"
    # byte-identical on repeat
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_main_emits_error_payload_as_json(capsys, tmp_path):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"values": []}))
    code = cli.main(["newton", "to-coeffs", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    parsed = json.loads(captured.out)
    assert parsed["status"] == "error"
    assert "non-empty" in parsed["error"]


def test_stdin_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "idrlab", "newton", "to-coeffs", "--in", "-"],
        input='{"values": ["0", "1", "4", "9"]}',
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "status": "ok",
        "result": {"coeffs": ["0", "1", "2", "0"]},
    }
