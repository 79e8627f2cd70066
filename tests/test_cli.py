import dataclasses
import functools
import json
import math
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from properloss import verify
from properloss.cli import main, parse_machine, render_machine
from properloss.divergences import Monomial, PolyDivergence
from properloss.domain import Distribution
from properloss.estimators import ExponentVector


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMachineFormat:
    def test_round_trip_is_byte_identical(self):
        pairs = [("command", "demo"), ("value", "1.25"), ("note", "a b c")]
        text = render_machine(pairs)
        parsed_pairs, record = parse_machine(text)
        assert parsed_pairs == pairs
        assert record == dict(pairs)
        assert render_machine(parsed_pairs) == text

    def test_final_line_is_json(self):
        text = render_machine([("k", "v")])
        assert json.loads(text.strip().split("\n")[-1]) == {"k": "v"}


class TestCompileInfo:
    def test_l2_degrees(self, capsys):
        code, out, _ = run(capsys, "compile-info", "--divergence", "l2", "--format", "machine")
        assert code == 0
        _, record = parse_machine(out)
        assert record["deg_model"] == "2"
        assert record["deg_target"] == "2"

    def test_brier_minimal_sizes(self, capsys):
        code, out, _ = run(capsys, "compile-info", "--divergence", "brier", "--format", "machine")
        assert code == 0
        _, record = parse_machine(out)
        assert record["minimal_sizes"] == "n>=2, m>=1"

    def test_series_divergence_reports_no_fixed_sizes(self, capsys):
        code, out, _ = run(capsys, "compile-info", "--divergence", "cross-entropy", "--format", "machine")
        assert code == 0
        _, record = parse_machine(out)
        assert record["family"] == "power-series"

    def test_gate_failure_exits_with_config_error(self, capsys):
        code, _, err = run(capsys, "compile-info", "--divergence", "l2", "--n", "1", "--m", "2")
        assert code == 2
        assert ">= 2" in err

    def test_n_alone_is_gated_as_a_known_target_compile(self, capsys):
        code, _, err = run(capsys, "compile-info", "--divergence", "l2", "--n", "1")
        assert code == 2
        assert "model sample of size >= 2" in err
        code, out, _ = run(capsys, "compile-info", "--divergence", "l2", "--n", "2", "--format", "machine")
        assert code == 0
        assert "known target" in parse_machine(out)[1]["compiled"]

    def test_m_alone_exits_2_naming_the_missing_n(self, capsys):
        code, out, err = run(capsys, "compile-info", "--divergence", "l2", "--m", "2")
        assert code == 2 and out == ""
        assert "--n" in err

    def test_n_with_a_series_divergence_exits_2_naming_it(self, capsys):
        for divergence in ("cross-entropy", "kl", "entropy"):
            code, out, err = run(capsys, "compile-info", "--divergence", divergence, "--n", "1", "--m", "0")
            assert code == 2 and out == ""
            assert err.startswith(f"error: --n does not apply to {divergence}")

    def test_m_with_kl_or_entropy_exits_2_naming_it(self, capsys):
        for divergence in ("kl", "entropy"):
            code, out, err = run(capsys, "compile-info", "--divergence", divergence, "--m", "2")
            assert code == 2 and out == ""
            assert err.startswith(f"error: --m does not apply to {divergence}")

    def test_cross_entropy_m_below_1_exits_2(self, capsys):
        code, out, err = run(capsys, "compile-info", "--divergence", "cross-entropy", "--m", "0")
        assert code == 2 and out == ""
        assert "--m 0" in err and "m >= 1" in err

    def test_cross_entropy_m_compiles_the_fixed_target_variant(self, capsys):
        code, out, _ = run(capsys, "compile-info", "--divergence", "cross-entropy", "--m", "3", "--format", "machine")
        assert code == 0
        assert parse_machine(out)[1]["compiled"] == "cross-entropy power-series loss, Poisson model, fixed target size 3"

    def test_unknown_divergence(self, capsys):
        code, _, err = run(capsys, "compile-info", "--divergence", "nonsense")
        assert code == 2
        assert "unknown divergence" in err

    def test_spec_file_divergence(self, capsys, tmp_path):
        spec = {
            "monomials": [
                {"coeff": 1, "p_exps": [2, 0], "q_exps": [0, 0]},
                {"coeff": "-1/2", "p_exps": [1, 0], "q_exps": [0, 1]},
            ]
        }
        path = tmp_path / "div.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, _ = run(capsys, "compile-info", "--divergence", str(path), "--format", "machine")
        assert code == 0
        _, record = parse_machine(out)
        assert record["deg_model"] == "2"
        assert record["deg_target"] == "1"


#: The squared distance over two outcomes, written out as a spec file.
L2_SPEC = {"monomials": [
    {"coeff": 1, "p_exps": [2, 0], "q_exps": [0, 0]},
    {"coeff": -2, "p_exps": [1, 0], "q_exps": [1, 0]},
    {"coeff": 1, "p_exps": [0, 0], "q_exps": [2, 0]},
    {"coeff": 1, "p_exps": [0, 2], "q_exps": [0, 0]},
    {"coeff": -2, "p_exps": [0, 1], "q_exps": [0, 1]},
    {"coeff": 1, "p_exps": [0, 0], "q_exps": [0, 2]},
]}


def _spec_with(**fields):
    """A one-monomial l2-like spec over two outcomes with ``fields`` replaced."""
    return {"monomials": [{"coeff": 1, "p_exps": [2, 0], "q_exps": [0, 0], **fields}]}


class TestSpecFiles:
    """A spec file the loader refuses exits 2 from every command that reads it, naming the file."""

    @pytest.mark.parametrize("spec, named", [
        ({"monomials": ["x"]}, "monomial 0: need an object"),
        ([1, 2], 'need an object with a "monomials" list'),
        ({"terms": []}, 'need an object with a "monomials" list'),
        ({"monomials": [{"coeff": 1, "p_exps": [2, 0]}]}, "monomial 0: need an object with coeff, p_exps and q_exps"),
        (_spec_with(p_exps=2), "monomial 0: p_exps must be a list of integers >= 0, not 2"),
        (_spec_with(coeff=None), "monomial 0: coeff must be a finite number"),
        (_spec_with(coeff=True), "monomial 0: coeff must be a finite number"),
        (_spec_with(coeff=math.inf), "monomial 0: coeff must be a finite number or a string such as \"1/3\", not Infinity"),
        (_spec_with(coeff="one"), 'monomial 0: coeff "one" is not a rational number'),
        (_spec_with(coeff="1/0"), 'monomial 0: coeff "1/0" is not a rational number'),
        (_spec_with(p_exps=[2.5, 0]), "monomial 0: p_exps must be a list of integers >= 0, not [2.5, 0]"),
        (_spec_with(q_exps=[True, 0]), "monomial 0: q_exps must be a list of integers >= 0, not [true, 0]"),
        (_spec_with(q_exps=[-1, 0]), "monomial 0: q_exps must be a list of integers >= 0"),
        (_spec_with(coeff=0), "monomial 0: monomial coefficients must be nonzero"),
        ({"monomials": []}, 'the "monomials" list is empty'),
        (_spec_with(q_exps=[0]), "monomial 0: p_exps and q_exps need one length of at least 1, not 2 and 1"),
        (_spec_with(p_exps=[], q_exps=[]), "monomial 0: p_exps and q_exps need one length of at least 1, not 0 and 0"),
        ({"monomials": [_spec_with()["monomials"][0], {"coeff": 1, "p_exps": [1], "q_exps": [0]}]},
         "monomial 1: exponent lists of length 1, where monomial 0 has 2"),
    ], ids=["monomial-not-object", "top-level-list", "no-monomials", "missing-key", "exps-not-list", "null-coeff",
            "bool-coeff", "infinite-coeff", "unparsed-coeff", "zero-denominator", "float-exponent", "bool-exponent",
            "negative-exponent", "zero-coeff", "empty-monomials", "unequal-lengths", "zero-outcomes", "mixed-dimensions"])
    @pytest.mark.parametrize("command", [
        ("compile-info", "--n", "2", "--m", "2"),
        ("eval", "--n", "2", "--m", "2", "--model-probs", "0.2,0.8", "--target-probs", "0.5,0.5", "--replicates", "10"),
    ], ids=["compile-info", "eval"])
    def test_a_malformed_spec_exits_2_naming_the_file(self, capsys, tmp_path, spec, named, command):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, err = run(capsys, command[0], "--divergence", str(path), *command[1:])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith(f"error: spec file {str(path)!r}") and named in err

    def test_a_spec_over_fewer_outcomes_than_the_sources_exits_2(self, capsys, tmp_path):
        path = tmp_path / "l2.json"
        path.write_text(json.dumps(L2_SPEC), encoding="utf-8")
        argv = ["eval", "--n", "2", "--m", "2", "--replicates", "200", "--format", "machine"]
        two = ["--model-probs", "0.2,0.8", "--target-probs", "0.5,0.5"]
        code, out, _ = run(capsys, *argv, "--divergence", str(path), *two)
        assert code == 0
        _, builtin, _ = run(capsys, *argv, "--divergence", "l2", *two)
        assert parse_machine(out)[1]["mean"] == parse_machine(builtin)[1]["mean"]
        code, out, err = run(capsys, *argv, "--divergence", str(path),
                             "--model-probs", "0.2,0.3,0.5", "--target-probs", "0.5,0.25,0.25")
        assert code == 2 and out == "" and "Traceback" not in err
        assert err == "error: count row dimensions (3, 3), divergence needs 2\n"


class TestEval:
    def test_known_vectors(self, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "--divergence", "l2",
            "--n", "2", "--m", "2",
            "--model-probs", "0.25,0.75",
            "--target-probs", "0.5,0.5",
            "--replicates", "20000",
            "--seed", "7",
            "--format", "machine",
        )
        assert code == 0
        _, record = parse_machine(out)
        mean = float(record["mean"])
        se = float(record["std_error"])
        assert abs(mean - 0.125) <= 4 * se
        assert record["seed"] == "7"

    def test_degree_gate_exit_code_and_message(self, capsys):
        code, _, err = run(
            capsys,
            "eval",
            "--divergence", "l2",
            "--n", "1", "--m", "2",
            "--model-probs", "0.5,0.5",
            "--target-probs", "0.5,0.5",
        )
        assert code == 2
        assert ">= 2" in err

    def test_file_sources(self, capsys, tmp_path):
        # alternating tokens: every draw of 2 gives the histogram (1, 1) on
        # both sides, so the loss is exactly -1 in every replicate
        model = tmp_path / "model.txt"
        target = tmp_path / "target.txt"
        model.write_text("a\nb\n" * 50, encoding="utf-8")
        target.write_text("b\na\n" * 50, encoding="utf-8")
        code, out, _ = run(
            capsys,
            "eval",
            "--divergence", "l2",
            "--n", "2", "--m", "2",
            "--labels", "a,b",
            "--model-file", str(model),
            "--target-file", str(target),
            "--replicates", "50",
            "--format", "machine",
        )
        assert code == 0
        _, record = parse_machine(out)
        assert float(record["mean"]) == -1.0
        assert float(record["std_error"]) == 0.0

    def test_file_source_exhaustion_is_a_source_error(self, capsys, tmp_path):
        model = tmp_path / "model.txt"
        target = tmp_path / "target.txt"
        model.write_text("a\nb\n", encoding="utf-8")
        target.write_text("a\nb\n" * 50, encoding="utf-8")
        code, _, err = run(
            capsys,
            "eval",
            "--divergence", "l2",
            "--n", "2", "--m", "2",
            "--labels", "a,b",
            "--model-file", str(model),
            "--target-file", str(target),
            "--replicates", "50",
        )
        assert code == 4
        assert "ran out" in err

    def test_unknown_token_is_a_source_error(self, capsys, tmp_path):
        model = tmp_path / "model.txt"
        target = tmp_path / "target.txt"
        model.write_text("z\nz\n" * 50, encoding="utf-8")
        target.write_text("a\nb\n" * 50, encoding="utf-8")
        code, _, err = run(
            capsys,
            "eval",
            "--divergence", "l2",
            "--n", "2", "--m", "2",
            "--labels", "a,b",
            "--model-file", str(model),
            "--target-file", str(target),
            "--replicates", "10",
        )
        assert code == 4

    def test_subprocess_source(self, capsys):
        child = (
            "import sys\n"
            "for line in sys.stdin:\n"
            "    n = int(line.strip())\n"
            "    if n == 0:\n"
            "        break\n"
            "    for i in range(n):\n"
            "        sys.stdout.write('a\\n' if i % 2 == 0 else 'b\\n')\n"
            "    sys.stdout.flush()\n"
        )
        code, out, _ = run(
            capsys,
            "eval",
            "--divergence", "l2",
            "--n", "2", "--m", "2",
            "--labels", "a,b",
            "--model-cmd", f'{sys.executable} -c "{child}"',
            "--target-probs", "0.5,0.5",
            "--replicates", "20",
            "--seed", "3",
            "--format", "machine",
        )
        assert code == 0

    def test_a_token_file_that_is_not_utf8_exits_4_naming_the_file(self, capsys, tmp_path):
        tokens = tmp_path / "tokens.txt"
        tokens.write_bytes(b"a\nb\n\xff\na\n")
        code, out, err = run(
            capsys,
            "eval",
            "--divergence", "l2",
            "--n", "2", "--m", "2",
            "--labels", "a,b",
            "--model-probs", "0.5,0.5",
            "--target-file", str(tokens),
            "--replicates", "2",
        )
        assert code == 4 and out == ""
        assert err == (f"error: sample file {str(tokens)!r} holds a token that is not text: "
                       "byte 0xff is not UTF-8 (invalid start byte)\n")

    def test_a_generator_writing_bytes_that_are_not_utf8_exits_4_naming_the_command(self, capsys):
        child = (
            "import sys\n"
            "for line in sys.stdin:\n"
            "    if int(line) == 0:\n"
            "        break\n"
            "    sys.stdout.buffer.write(b'a\\n\\xff\\n')\n"
            "    sys.stdout.flush()\n"
        )
        command = f'{sys.executable} -c "{child}"'
        code, out, err = run(
            capsys,
            "eval",
            "--divergence", "l2",
            "--n", "2", "--m", "2",
            "--labels", "a,b",
            "--model-cmd", command,
            "--target-probs", "0.5,0.5",
            "--replicates", "2",
        )
        assert code == 4 and out == ""
        assert err.startswith("error: generator [")
        assert f"{child!r}] wrote a token that is not text: byte 0xff is not UTF-8 (invalid start byte)" in err
        assert "Traceback" not in err

    def test_an_unknown_token_in_a_file_exits_4_naming_the_file(self, capsys, tmp_path):
        tokens = tmp_path / "tokens.txt"
        tokens.write_text("a\nb\nzzz\na\n", encoding="utf-8")
        code, out, err = run(
            capsys,
            "eval",
            "--divergence", "l2",
            "--n", "2", "--m", "2",
            "--labels", "a,b",
            "--model-probs", "0.5,0.5",
            "--target-file", str(tokens),
            "--replicates", "2",
        )
        assert code == 4 and out == ""
        assert err == f"error: sample file {str(tokens)!r}: token 'zzz' is not a label of this domain\n"

    def test_an_unknown_token_at_the_head_of_a_large_batch_exits_4_naming_the_command(self, capsys):
        # 40,000 requested tokens overfill the pipe: the child is still
        # writing when the bad first token is read, and must not be left
        # blocked on its write until the close deadline kills it
        child = (
            "import sys\n"
            "for line in sys.stdin:\n"
            "    n = int(line)\n"
            "    if n == 0:\n"
            "        break\n"
            "    sys.stdout.write('zzz\\n' + 'a\\n' * (n - 1))\n"
            "    sys.stdout.flush()\n"
        )
        start = time.monotonic()
        code, out, err = run(
            capsys,
            "eval",
            "--divergence", "l2",
            "--n", "2", "--m", "2",
            "--labels", "a,b",
            "--model-cmd", f'{sys.executable} -c "{child}"',
            "--target-probs", "0.5,0.5",
            "--replicates", "20000",
        )
        elapsed = time.monotonic() - start
        assert code == 4 and out == ""
        assert err.startswith("error: generator [")
        assert f"{child!r}]: token 'zzz' is not a label of this domain\n" in err
        assert "did not exit" not in err
        assert elapsed < 2.0

    def test_a_helper_holding_the_generators_output_open_does_not_hold_eval_up(self, capsys):
        # the close waits for the child's exit, not for the end of its output
        child = (
            "import subprocess, sys\n"
            "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(3)'])\n"
            "for line in sys.stdin:\n"
            "    n = int(line)\n"
            "    if n == 0:\n"
            "        break\n"
            "    sys.stdout.write('a\\n' * n)\n"
            "    sys.stdout.flush()\n"
        )
        start = time.monotonic()
        code, _, _ = run(
            capsys,
            "eval",
            "--divergence", "l2",
            "--n", "2", "--m", "2",
            "--labels", "a,b",
            "--model-cmd", f'{sys.executable} -c "{child}"',
            "--target-probs", "0.5,0.5",
            "--replicates", "4",
        )
        assert code == 0
        assert time.monotonic() - start < 1.0

    def test_a_configuration_error_after_a_generator_started_stops_it(self, capsys, monkeypatch, tmp_path):
        started = []

        class RecordedPopen(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(subprocess, "Popen", RecordedPopen)
        child = "import sys\nfor line in sys.stdin:\n    if int(line) == 0:\n        break\n"
        code, out, err = run(
            capsys,
            "eval",
            "--divergence", "l2",
            "--n", "2", "--m", "2",
            "--labels", "a,b",
            "--target-cmd", f'{sys.executable} -c "{child}"',
            "--model-file", str(tmp_path / "absent.txt"),
            "--replicates", "4",
        )
        assert code == 2 and out == ""
        assert "does not exist" in err
        assert len(started) == 1
        assert all(proc.returncode is not None for proc in started)

    def test_float_overflow_in_the_log_series_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "eval",
            "--divergence", "cross-entropy",
            "--alpha", "1000", "--beta", "1000",
            "--model-probs", "0.5,0.5",
            "--target-probs", "0.5,0.5",
            "--replicates", "2",
        )
        assert code == 2
        assert err == "error: Poisson rate 1000.0 is too large: exp(-1000.0) is below the smallest normal float\n"

    def test_non_finite_mean_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "huge.json"
        spec.write_text(json.dumps({"monomials": [
            {"coeff": 1e308, "p_exps": [2, 0], "q_exps": [0, 0]},
            {"coeff": 1e308, "p_exps": [0, 2], "q_exps": [0, 0]},
        ]}), encoding="utf-8")
        code, _, err = run(
            capsys,
            "eval",
            "--divergence", str(spec),
            "--n", "2", "--m", "1",
            "--model-probs", "0.5,0.5",
            "--target-probs", "0.5,0.5",
            "--replicates", "10",
        )
        assert code == 2
        assert err == "error: the estimate's mean is inf: the loss values exceed float range\n"

    def test_generator_that_does_not_exit_is_a_source_error(self, capsys, monkeypatch):
        import properloss.sampling as sampling

        monkeypatch.setattr(sampling, "CLOSE_TIMEOUT_S", 0.2)
        child = (
            "import sys, time\n"
            "for line in sys.stdin:\n"
            "    sys.stdout.write('a\\n' * int(line.strip()))\n"
            "    sys.stdout.flush()\n"
            "time.sleep(60)\n"
        )
        code, _, err = run(
            capsys,
            "eval",
            "--divergence", "l2",
            "--n", "2", "--m", "2",
            "--labels", "a,b",
            "--model-cmd", f'{sys.executable} -c "{child}"',
            "--target-probs", "0.5,0.5",
            "--replicates", "4",
        )
        assert code == 4
        assert "did not exit within 0.2 s" in err

    def test_cross_entropy_eval(self, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "--divergence", "cross-entropy",
            "--alpha", "8", "--beta", "8",
            "--model-probs", "0.5,0.5",
            "--target-probs", "0.5,0.5",
            "--replicates", "5000",
            "--seed", "1",
            "--format", "machine",
        )
        assert code == 0
        _, record = parse_machine(out)
        mean, se = float(record["mean"]), float(record["std_error"])
        assert abs(mean - 0.6931471805599453) <= 5 * se

    def test_log_series_stays_finite_at_large_counts(self, capsys):
        # some complement counts pass 170, where ff(t, k) no longer fits a float
        code, out, _ = run(
            capsys,
            "eval",
            "--divergence", "cross-entropy",
            "--alpha", "300", "--beta", "300",
            "--model-probs", "0.5,0.5",
            "--target-probs", "0.5,0.5",
            "--format", "machine",
        )
        assert code == 0
        _, record = parse_machine(out)
        mean, se = float(record["mean"]), float(record["std_error"])
        assert abs(mean - 0.6931471805599453) <= 5 * se

    def test_labels_file_scores_a_large_domain_like_labels(self, capsys, tmp_path):
        # 50,000 labels take 339 KB as one --labels argument, past Linux's 128 KiB per-argument cap
        labels = [f"t{i}" for i in range(50_000)]
        labels_file = tmp_path / "labels.txt"
        labels_file.write_text("".join(f"{lab}\n" for lab in labels), encoding="utf-8")
        rng = np.random.default_rng(0)
        model = tmp_path / "model.txt"
        target = tmp_path / "target.txt"
        model.write_text("".join(f"t{i}\n" for i in rng.integers(0, 40, 400)), encoding="utf-8")
        target.write_text("".join(f"t{i}\n" for i in rng.integers(10, 50, 400)), encoding="utf-8")
        common = (
            "eval", "--divergence", "l2", "--n", "2", "--m", "2",
            "--model-file", str(model), "--target-file", str(target),
            "--replicates", "200", "--format", "machine",
        )
        code, out, _ = run(capsys, *common, "--labels-file", str(labels_file))
        assert code == 0
        by_file = parse_machine(out)[1]
        code, out, _ = run(capsys, *common, "--labels", ",".join(labels))
        assert code == 0
        by_argument = parse_machine(out)[1]
        assert by_file["labels"] == f"file:{labels_file}"
        for key in ("mean", "std_error", "ci_low", "ci_high", "scheme", "replicates"):
            assert by_file[key] == by_argument[key]

    def test_labels_file_and_labels_together_exit_2(self, capsys, tmp_path):
        labels_file = tmp_path / "labels.txt"
        labels_file.write_text("a\nb\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            "eval", "--divergence", "l2", "--n", "2", "--m", "2",
            "--labels", "a,b", "--labels-file", str(labels_file),
            "--model-probs", "0.5,0.5", "--target-probs", "0.5,0.5",
        )
        assert code == 2
        assert "at most one of --labels / --labels-file" in err

    def test_missing_labels_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "eval", "--divergence", "l2", "--n", "2", "--m", "2",
            "--labels-file", str(tmp_path / "absent.txt"),
            "--model-probs", "0.5,0.5", "--target-probs", "0.5,0.5",
        )
        assert code == 2
        assert "does not exist" in err

    def test_n_with_a_series_divergence_exits_2_naming_it(self, capsys):
        code, out, err = run(
            capsys,
            "eval",
            "--divergence", "cross-entropy",
            "--alpha", "8", "--beta", "8", "--n", "2",
            "--model-probs", "0.5,0.5",
            "--target-probs", "0.5,0.5",
            "--replicates", "10",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: --n does not apply to cross-entropy")

    def test_m_with_kl_or_entropy_exits_2_naming_it(self, capsys):
        for divergence in ("kl", "entropy"):
            code, out, err = run(
                capsys,
                "eval",
                "--divergence", divergence,
                "--alpha", "8", "--beta", "8", "--m", "2",
                "--model-probs", "0.5,0.5",
                "--target-probs", "0.5,0.5",
                "--replicates", "10",
            )
            assert code == 2 and out == ""
            assert err.startswith(f"error: --m does not apply to {divergence}")

    def test_generator_stderr_is_in_the_error(self, capsys):
        child = "import sys\nsys.stderr.write('bad weights\\n')\nsys.exit(3)\n"
        code, out, err = run(
            capsys,
            "eval",
            "--divergence", "l2",
            "--n", "2", "--m", "2",
            "--labels", "a,b",
            "--model-cmd", f'{sys.executable} -c "{child}"',
            "--target-probs", "0.5,0.5",
            "--replicates", "4",
        )
        assert code == 4 and out == ""
        assert "bad weights" in err

    def test_first_generator_failure_is_the_one_reported(self, capsys):
        # the child reads its request, then fails: the short read is the error,
        # and its nonzero exit, found while closing, only adds a note
        child = "import sys\nsys.stdin.readline()\nsys.stderr.write('bad weights\\n')\nsys.exit(3)\n"
        code, out, err = run(
            capsys,
            "eval",
            "--divergence", "l2",
            "--n", "2", "--m", "2",
            "--labels", "a,b",
            "--model-cmd", f'{sys.executable} -c "{child}"',
            "--target-probs", "0.5,0.5",
            "--replicates", "4",
        )
        assert code == 4 and out == ""
        first, note = err.splitlines()
        assert first.startswith("error: generator ")
        assert "ended after 0 of 8 requested tokens; its stderr: bad weights" in first
        assert note.startswith("note: closing a source afterwards also failed: generator exited with code 3")

    @pytest.mark.parametrize(
        "divergence, sizes, rates, ignored",
        [
            ("cross-entropy", ("--m", "3"), ("--alpha", "8", "--beta", "8"), "beta"),
            ("l2", ("--n", "2", "--m", "2"), ("--alpha", "8"), "alpha"),
            ("l2", ("--n", "2", "--m", "2"), ("--beta", "8"), "beta"),
            ("entropy", (), ("--alpha", "8", "--beta", "8"), "alpha"),
        ],
    )
    def test_a_rate_the_loss_does_not_use_exits_2_naming_it(self, capsys, divergence, sizes, rates, ignored):
        code, out, err = run(
            capsys,
            "eval",
            "--divergence", divergence, *sizes, *rates,
            "--model-probs", "0.5,0.5",
            "--target-probs", "0.5,0.5",
            "--replicates", "10",
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: --{ignored} does not apply to {divergence}")

    def test_entropy_eval_needs_no_model(self, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "--divergence", "entropy",
            "--beta", "8",
            "--target-probs", "0.5,0.5",
            "--replicates", "5000",
            "--seed", "1",
            "--format", "machine",
        )
        assert code == 0
        _, record = parse_machine(out)
        mean, se = float(record["mean"]), float(record["std_error"])
        assert abs(mean - 0.6931471805599453) <= 5 * se

    @pytest.mark.parametrize(
        "divergence, sizes",
        [
            ("l2", ("--n", "2", "--m", "2")),
            ("lk:4", ("--n", "4", "--m", "4")),
            ("brier", ("--n", "2", "--m", "1")),
            ("cross-entropy", ("--alpha", "6", "--beta", "4")),
            ("cross-entropy", ("--alpha", "6", "--m", "3")),
            ("kl", ("--alpha", "6", "--beta", "4")),
            ("entropy", ("--beta", "4")),
        ],
    )
    def test_mode_changes_no_estimate(self, capsys, divergence, sizes):
        # --mode sets how the probabilities parse; the loss and the estimate are float either way
        model = () if divergence == "entropy" else ("--model-probs", "0.2,0.3,0.5")
        records = {}
        for mode in ("float", "exact"):
            code, out, _ = run(
                capsys,
                "eval",
                "--divergence", divergence, *sizes, *model,
                "--target-probs", "0.1,0.6,0.3",
                "--replicates", "400",
                "--seed", "5",
                "--mode", mode,
                "--format", "machine",
            )
            assert code == 0
            records[mode] = parse_machine(out)[1]
            assert records[mode].pop("mode") == mode
        assert records["exact"] == records["float"]


#: ``properloss verify --seed 7 --format machine``, byte for byte: every check's name, order, tag, gap and detail.
VERIFY_SEED_7_MACHINE = (
    "command=verify\n"
    "seed=7\n"
    "check.plugin-bias=PASS [exact] gap=4.44e-05 optimum at n=10 is 1/18 (grid 0.0556), below 1/10 for n=2..20\n"
    "check.plugin-improper=PASS [exact] gap=summed-frequency-variance 7 interior models all show a positive exact gap\n"
    "check.squared-known-target=PASS [exact] gap=0 1224 (model, target, n) combinations, exact equality\n"
    "check.squared-two-sample=PASS [exact] gap=0 1224 (model, target, n, m) combinations, exact equality\n"
    "check.compiler-exact=PASS [exact] gap=0 l2, lk:4, brier compiled at their degrees match exactly on the grid\n"
    "check.compiler-gates=PASS [exact] gap=0 compilation succeeds at the degree boundary and refuses one draw below it\n"
    "check.degree-one-affine=PASS [exact] gap=0 one-draw expected losses are affine in the model; constant under a uniform target\n"
    "check.single-draw-infeasible=PASS [exact] gap=0 no single-draw loss of ANY form matches the squared distance on three collinear models\n"
    "check.bregman=PASS [exact] gap=0 Bregman loss equals the closed squared-loss form pointwise; mean-vs-truth gap is the summed variance\n"
    "check.cross-entropy=PASS [truncated] gap=7.28e-10 truncated expectations match -sum q ln p at two points (tail 5.2e-20)\n"
    "check.entropy-kl=PASS [truncated] gap=7.28e-10 entropy matches -sum q ln q; KL matches sum q ln(q/p)\n"
    "check.cramer-energy=PASS [exact] gap=0 two-draw enumeration: E[cramer] equals the CDF-distance oracle, E[energy] is exactly twice it\n"
    "check.mc-sanity=PASS [truncated] gap=1.18e-02 Monte Carlo mean within 5 standard errors of 0.125 (se 6.35e-03)\n"
    "failures=0\n"
    '{"check.bregman":"PASS [exact] gap=0 Bregman loss equals the closed squared-loss form pointwise; mean-vs-truth gap is the summed variance","'
    'check.compiler-exact":"PASS [exact] gap=0 l2, lk:4, brier compiled at their degrees match exactly on the grid","'
    'check.compiler-gates":"PASS [exact] gap=0 compilation succeeds at the degree boundary and refuses one draw below it","'
    'check.cramer-energy":"PASS [exact] gap=0 two-draw enumeration: E[cramer] equals the CDF-distance oracle, E[energy] is exactly twice it","'
    'check.cross-entropy":"PASS [truncated] gap=7.28e-10 truncated expectations match -sum q ln p at two points (tail 5.2e-20)","'
    'check.degree-one-affine":"PASS [exact] gap=0 one-draw expected losses are affine in the model; constant under a uniform target","'
    'check.entropy-kl":"PASS [truncated] gap=7.28e-10 entropy matches -sum q ln q; KL matches sum q ln(q/p)","'
    'check.mc-sanity":"PASS [truncated] gap=1.18e-02 Monte Carlo mean within 5 standard errors of 0.125 (se 6.35e-03)","'
    'check.plugin-bias":"PASS [exact] gap=4.44e-05 optimum at n=10 is 1/18 (grid 0.0556), below 1/10 for n=2..20","'
    'check.plugin-improper":"PASS [exact] gap=summed-frequency-variance 7 interior models all show a positive exact gap","'
    'check.single-draw-infeasible":"PASS [exact] gap=0 no single-draw loss of ANY form matches the squared distance on three collinear models","'
    'check.squared-known-target":"PASS [exact] gap=0 1224 (model, target, n) combinations, exact equality","'
    'check.squared-two-sample":"PASS [exact] gap=0 1224 (model, target, n, m) combinations, exact equality","'
    'command":"verify","'
    'failures":"0","'
    'seed":"7"}\n'
)

VERIFY_SEED_0_HUMAN = (
    "command                       verify\n"
    "seed                          0\n"
    "check.plugin-bias             PASS [exact] gap=4.44e-05 optimum at n=10 is 1/18 (grid 0.0556), below 1/10 for n=2..20\n"
    "check.plugin-improper         PASS [exact] gap=summed-frequency-variance 7 interior models all show a positive exact gap\n"
    "check.squared-known-target    PASS [exact] gap=0 1224 (model, target, n) combinations, exact equality\n"
    "check.squared-two-sample      PASS [exact] gap=0 1224 (model, target, n, m) combinations, exact equality\n"
    "check.compiler-exact          PASS [exact] gap=0 l2, lk:4, brier compiled at their degrees match exactly on the grid\n"
    "check.compiler-gates          PASS [exact] gap=0 compilation succeeds at the degree boundary and refuses one draw below it\n"
    "check.degree-one-affine       PASS [exact] gap=0 one-draw expected losses are affine in the model; constant under a uniform target\n"
    "check.single-draw-infeasible  PASS [exact] gap=0 no single-draw loss of ANY form matches the squared distance on three collinear models\n"
    "check.bregman                 PASS [exact] gap=0 Bregman loss equals the closed squared-loss form pointwise; mean-vs-truth gap is the summed variance\n"
    "check.cross-entropy           PASS [truncated] gap=7.28e-10 truncated expectations match -sum q ln p at two points (tail 5.2e-20)\n"
    "check.entropy-kl              PASS [truncated] gap=7.28e-10 entropy matches -sum q ln q; KL matches sum q ln(q/p)\n"
    "check.cramer-energy           PASS [exact] gap=0 two-draw enumeration: E[cramer] equals the CDF-distance oracle, E[energy] is exactly twice it\n"
    "check.mc-sanity               PASS [truncated] gap=7.50e-04 Monte Carlo mean within 5 standard errors of 0.125 (se 6.30e-03)\n"
    "failures                      0\n"
)


class TestVerify:
    def test_seed_7_machine_output_is_pinned(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "7", "--format", "machine")
        assert code == 0
        assert out == VERIFY_SEED_7_MACHINE

    def test_seed_0_human_output_is_pinned(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "0")
        assert code == 0
        assert out == VERIFY_SEED_0_HUMAN

    def test_failure_exit_code(self, capsys, monkeypatch):
        import properloss.cli as cli_mod

        monkeypatch.setattr(cli_mod, "CHECKS", {"doomed": ("exact", lambda seed: (False, "1", "synthetic failure"))})
        code, out, _ = run(capsys, "verify", "--format", "machine")
        assert code == 3
        assert parse_machine(out)[1]["check.doomed"] == "FAIL [exact] gap=1 synthetic failure"

    def test_the_sweeping_checks_build_no_report(self, capsys, monkeypatch):
        def no_report(*args, **kwargs):
            raise AssertionError("a sweeping check built a VerificationReport")

        monkeypatch.setattr(verify, "VerificationReport", no_report)
        names = ("squared-known-target", "squared-two-sample", "compiler-exact")
        argv = [arg for name in names for arg in ("--only", name)]
        code, out, _ = run(capsys, "verify", *argv, "--seed", "7", "--format", "machine")
        assert code == 0
        pinned, _ = parse_machine(VERIFY_SEED_7_MACHINE)
        assert out == render_machine([(k, v) for k, v in pinned if not k.startswith("check.") or k[6:] in names])

    @pytest.mark.parametrize("check, compile_name, worst, sizes", [
        ("squared-known-target", "compile_known_target", Fraction(5, 3**20), "n"),  # the largest shift, at n = 5
        ("squared-two-sample", "compile_two_sample", Fraction(9, 3**20), "n, m"),  # at n * m = 3 * 3
    ])
    def test_a_shifted_loss_fails_its_sweeping_check_with_the_exact_gap(self, capsys, monkeypatch, check,
                                                                         compile_name, worst, sizes):
        compile_l2 = getattr(verify, compile_name)

        def shifted(divergence, *sizes):
            loss = compile_l2(divergence, *sizes)
            shift = Fraction(math.prod(sizes), 3**20)  # the pmf sums to 1, so each expectation moves by the shift
            return dataclasses.replace(loss, evaluator=lambda h, t, f=loss.evaluator: f(h, t) + shift)

        monkeypatch.setattr(verify, compile_name, shifted)
        code, out, err = run(capsys, "verify", "--only", check, "--format", "machine")
        assert code == 3 and err == ""
        detail = f"1224 (model, target, {sizes}) combinations, exact equality"
        assert parse_machine(out)[1][f"check.{check}"] == f"FAIL [exact] gap={worst} {detail}"

    @pytest.mark.parametrize("check, compile_name, worst, sizes", [
        ("squared-known-target", "compile_known_target", Fraction(5, 3**20), "n"),
        ("squared-two-sample", "compile_two_sample", Fraction(9, 3**20), "n, m"),
    ])
    def test_a_shifted_loss_that_keeps_the_compiled_attributes_still_fails(self, capsys, monkeypatch, check,
                                                                          compile_name, worst, sizes):
        compile_l2 = getattr(verify, compile_name)

        def shifted(divergence, *sizes):
            loss = compile_l2(divergence, *sizes)
            shift = Fraction(math.prod(sizes), 3**20)

            @functools.wraps(loss.evaluator)  # copies the compiled evaluator's attributes, its exact route included
            def evaluator(h, t):
                return loss.evaluator(h, t) + shift

            assert evaluator.numerators is loss.evaluator.numerators
            return dataclasses.replace(loss, evaluator=evaluator)

        monkeypatch.setattr(verify, compile_name, shifted)
        code, out, err = run(capsys, "verify", "--only", check, "--format", "machine")
        assert code == 3 and err == ""
        detail = f"1224 (model, target, {sizes}) combinations, exact equality"
        assert parse_machine(out)[1][f"check.{check}"] == f"FAIL [exact] gap={worst} {detail}"

    def test_a_passing_squared_check_builds_no_fraction_per_value(self, monkeypatch):
        from properloss import compiler, divergences

        for name in ("squared-known-target", "squared-two-sample", "compiler-exact"):
            body = verify.CHECKS[name][1]
            outcome = body(7)  # warms the grids, which are Fractions built once per process
            built = []

            def counted(*args):
                built.append(args)
                return Fraction(*args)

            with monkeypatch.context() as patch:
                for module in (compiler, divergences):
                    patch.setattr(module, "Fraction", counted)
                assert body(7) == outcome and outcome[0]
            assert built == [], name

    def test_each_exact_check_repeats_its_outcome_in_one_process(self):
        for name, (tag, body) in verify.CHECKS.items():
            if tag == "exact":
                assert body(7) == body(7), name

    @pytest.mark.parametrize("check, compile_name, worst, sizes", [
        ("squared-known-target", "compile_known_target", Fraction(5, 3**20), "n"),
        ("squared-two-sample", "compile_two_sample", Fraction(9, 3**20), "n, m"),
    ])
    def test_a_warm_memo_still_fails_a_shifted_loss(self, capsys, monkeypatch, check, compile_name, worst, sizes):
        compile_l2, shifting = getattr(verify, compile_name), []

        def shifted_on_the_second_run(divergence, *sizes):
            loss = compile_l2(divergence, *sizes)
            if not shifting:
                return loss
            shift = Fraction(math.prod(sizes), 3**20)
            return dataclasses.replace(loss, evaluator=lambda h, t, f=loss.evaluator: f(h, t) + shift)

        monkeypatch.setattr(verify, compile_name, shifted_on_the_second_run)
        code, out, _ = run(capsys, "verify", "--only", check, "--format", "machine")
        assert code == 0
        shifting.append(True)
        built = verify._pmf_numerators.cache_info().misses
        code, out, err = run(capsys, "verify", "--only", check, "--format", "machine")
        assert verify._pmf_numerators.cache_info().misses == built  # every side came from the memo
        assert code == 3 and err == ""
        detail = f"1224 (model, target, {sizes}) combinations, exact equality"
        assert parse_machine(out)[1][f"check.{check}"] == f"FAIL [exact] gap={worst} {detail}"

    def test_mode_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--mode", "exact"])
        assert exc.value.code == 2
        assert "--mode" in capsys.readouterr().err

    def test_seed_env_var_is_the_default(self, capsys, monkeypatch):
        monkeypatch.setenv("PROPERLOSS_SEED", "123")
        code, out, _ = run(capsys, "verify", "--only", "mc-sanity", "--format", "machine")
        assert code == 0
        _, record = parse_machine(out)
        assert record["seed"] == "123"

    def test_a_seed_env_var_that_is_not_an_integer_exits_2_naming_it(self, capsys, monkeypatch):
        monkeypatch.setenv("PROPERLOSS_SEED", "abc")
        code, out, err = run(capsys, "verify", "--only", "plugin-bias")
        assert code == 2 and out == ""
        assert err == "error: PROPERLOSS_SEED='abc' is not an integer seed\n"

    def test_an_explicit_seed_does_not_read_the_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("PROPERLOSS_SEED", "abc")
        code, out, _ = run(capsys, "verify", "--only", "plugin-bias", "--seed", "4", "--format", "machine")
        assert code == 0
        assert parse_machine(out)[1]["seed"] == "4"

    def test_the_seed_env_var_is_read_at_each_call(self, capsys, monkeypatch):
        seeds = []
        for value in ("11", "12"):
            monkeypatch.setenv("PROPERLOSS_SEED", value)
            code, out, _ = run(capsys, "verify", "--only", "plugin-bias", "--format", "machine")
            assert code == 0
            seeds.append(parse_machine(out)[1]["seed"])
        monkeypatch.delenv("PROPERLOSS_SEED")
        code, out, _ = run(capsys, "verify", "--only", "plugin-bias", "--format", "machine")
        seeds.append(parse_machine(out)[1]["seed"])
        assert seeds == ["11", "12", "0"]

    def test_the_parser_is_built_once(self):
        from properloss.cli import build_parser

        assert build_parser() is build_parser()

    def test_single_check_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "plugin-bias", "--format", "machine")
        assert code == 0
        _, record = parse_machine(out)
        assert record["check.plugin-bias"].startswith("PASS")
        assert record["failures"] == "0"

    def test_cramer_energy_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "cramer-energy")
        assert code == 0
        assert "PASS" in out

    def test_unknown_check_name(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "bogus")
        assert code == 2
        assert "known checks" in err

    def test_an_unknown_name_next_to_a_known_one_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--only", "plugin-bias", "--only", "no-such-check")
        assert code == 2
        assert "no-such-check" in err and "known checks" in err
        assert out == ""

    def test_full_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--format", "machine")
        assert code == 0
        _, record = parse_machine(out)
        assert record["failures"] == "0"
        checks = [k for k in record if k.startswith("check.")]
        assert len(checks) == 13
        assert all(record[k].startswith("PASS") for k in checks)


class TestDemoBias:
    def test_skewed_default(self, capsys):
        code, out, _ = run(capsys, "demo-bias", "--format", "machine")
        assert code == 0
        pairs, record = parse_machine(out)
        closed = []
        for n in range(2, 21):
            row = record[f"argmin.n{n}"]
            fields = dict(tok.split("=") for tok in row.split())
            closed.append(float(fields["closed"]))
            assert float(fields["gap"]) > 0  # strictly below q1 = 0.1
        assert closed == sorted(closed)  # monotone toward the target from below
        assert render_machine(pairs) == out  # machine output round-trips

    def test_symmetric_target_has_zero_gap(self, capsys):
        code, out, _ = run(capsys, "demo-bias", "--q1", "0.5", "--n-min", "2", "--n-max", "6", "--format", "machine")
        assert code == 0
        _, record = parse_machine(out)
        for n in range(2, 7):
            fields = dict(tok.split("=") for tok in record[f"argmin.n{n}"].split())
            assert float(fields["gap"]) == 0.0

    def test_single_draw_row_is_flagged(self, capsys):
        code, out, _ = run(capsys, "demo-bias", "--n-min", "1", "--n-max", "2", "--format", "machine")
        assert code == 0
        _, record = parse_machine(out)
        assert "flag=affine" in record["argmin.n1"]

    def test_an_empty_size_range_exits_2(self, capsys):
        code, out, err = run(capsys, "demo-bias", "--n-min", "5", "--n-max", "2")
        assert code == 2 and out == ""
        assert "--n-min 5 exceeds --n-max 2" in err


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        import os
        import subprocess

        import properloss

        # the child imports the package this suite imported, installed or not
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(properloss.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH")))))
        out = subprocess.run(
            [sys.executable, "-m", "properloss", "compile-info", "--divergence", "l2", "--format", "machine"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert out.returncode == 0
        _, record = parse_machine(out.stdout)
        assert record["deg_model"] == "2"


class TestCramerCommand:
    def test_cramer_and_energy(self, capsys, tmp_path):
        model = tmp_path / "model.txt"
        target = tmp_path / "target.txt"
        model.write_text("0\n1\n", encoding="utf-8")
        target.write_text("0\n1\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "cramer", "--model-file", str(model), "--target-file", str(target), "--energy",
            "--format", "machine",
        )
        assert code == 0
        _, record = parse_machine(out)
        assert float(record["cramer"]) == -0.5
        assert float(record["energy"]) == -1.0

    def test_crps(self, capsys, tmp_path):
        model = tmp_path / "model.txt"
        model.write_text("0\n1\n", encoding="utf-8")
        code, out, _ = run(capsys, "cramer", "--model-file", str(model), "--crps", "0", "--format", "machine")
        assert code == 0
        _, record = parse_machine(out)
        assert float(record["crps"]) == 0.0

    def test_vectors(self, capsys, tmp_path):
        model = tmp_path / "model.txt"
        target = tmp_path / "target.txt"
        model.write_text("0,0\n1,2\n", encoding="utf-8")
        target.write_text("0,0\n1,2\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "cramer", "--model-file", str(model), "--target-file", str(target),
            "--vectors", "--seed", "5", "--format", "machine",
        )
        assert code == 0
        _, record = parse_machine(out)
        assert "projected_cramer" in record

    def test_missing_target_without_crps(self, capsys, tmp_path):
        model = tmp_path / "model.txt"
        model.write_text("0\n1\n", encoding="utf-8")
        code, _, err = run(capsys, "cramer", "--model-file", str(model))
        assert code == 2

    def test_vectors_without_a_target_exit_2(self, capsys, tmp_path):
        model = tmp_path / "model.txt"
        model.write_text("0,0\n1,2\n", encoding="utf-8")
        code, out, err = run(capsys, "cramer", "--vectors", "--model-file", str(model))
        assert code == 2 and out == ""
        assert err == "error: --vectors needs --target-file: the projected loss compares two samples\n"

    @pytest.mark.parametrize(
        "name, model, target, extra",
        [
            # the merged breakpoints 3.4e308 apart give an infinite gap
            ("cramer", "1.7e308\n-1.7e308\n", "1.6e308\n-1.6e308\n", ("--energy",)),
            ("crps", "1.7e308\n-1.7e308\n", None, ("--crps", "1.7e308")),
            # in one dimension the seeded direction is +-1, so the gap stays infinite
            ("projected_cramer", "1.7e308\n-1.7e308\n", "1.6e308\n-1.6e308\n", ("--vectors",)),
        ],
    )
    def test_a_statistic_beyond_float_range_exits_2_naming_it(self, capsys, tmp_path, name, model, target, extra):
        model_file = tmp_path / "model.txt"
        model_file.write_text(model, encoding="utf-8")
        argv = ["cramer", "--model-file", str(model_file), *extra]
        if target is not None:
            target_file = tmp_path / "target.txt"
            target_file.write_text(target, encoding="utf-8")
            argv += ["--target-file", str(target_file)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: the {name} statistic is ")
        assert "Traceback" not in err

    def test_an_exact_energy_beyond_float_range_exits_2(self, capsys, tmp_path):
        # cramer is 1.2e308; the energy statistic 4 * 6e307 = 2.4e308 is not a float
        model = tmp_path / "model.txt"
        target = tmp_path / "target.txt"
        model.write_text("-6e307\n-6e307\n", encoding="utf-8")
        target.write_text("6e307\n6e307\n", encoding="utf-8")
        code, out, err = run(capsys, "cramer", "--model-file", str(model), "--target-file", str(target), "--energy")
        assert code == 2 and out == ""
        assert err.startswith("error: numeric failure (OverflowError: ")
        assert "Traceback" not in err


class TestCramerSampleFileErrors:
    """A sample file the cramer loaders refuse exits 2 with an error that names the file and the line."""

    def cramer(self, capsys, tmp_path, model: bytes, target: bytes = b"0\n1\n", *extra):
        model_file, target_file = tmp_path / "model.txt", tmp_path / "target.txt"
        model_file.write_bytes(model)
        target_file.write_bytes(target)
        argv = ["cramer", "--model-file", str(model_file), "--target-file", str(target_file), *extra]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "Traceback" not in err
        return err, str(model_file), str(target_file)

    def test_a_line_that_is_not_a_real(self, capsys, tmp_path):
        err, model, _ = self.cramer(capsys, tmp_path, b"0.5\n\n  \nabc\n2\n")
        assert err == f"error: sample file {model!r} line 4: could not convert string to float: 'abc'\n"

    def test_a_byte_that_is_not_utf8(self, capsys, tmp_path):
        err, model, _ = self.cramer(capsys, tmp_path, b"0.5\n\xff\n")
        assert err == f"error: sample file {model!r} line 2: byte 0xff is not UTF-8 (invalid start byte)\n"

    def test_the_target_file_is_named(self, capsys, tmp_path):
        err, _, target = self.cramer(capsys, tmp_path, b"0\n1\n", b"1\n2\n1e\n", "--energy")
        assert err == f"error: sample file {target!r} line 3: could not convert string to float: '1e'\n"

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_lines_count_as_text_mode_splits_them(self, capsys, tmp_path, newline):
        err, model, _ = self.cramer(capsys, tmp_path, newline.join([b"1", b"2", b"x", b""]))
        assert err == f"error: sample file {model!r} line 3: could not convert string to float: 'x'\n"
        err, model, _ = self.cramer(capsys, tmp_path, newline.join([b"1", b"\xc3(", b""]))
        assert err == f"error: sample file {model!r} line 2: byte 0xc3 is not UTF-8 (invalid continuation byte)\n"

    def test_a_vector_line_that_is_not_reals(self, capsys, tmp_path):
        err, model, _ = self.cramer(capsys, tmp_path, b"1,2\n3,x\n", b"0,0\n1,1\n", "--vectors")
        assert err == f"error: sample file {model!r} line 2: could not convert string to float: 'x'\n"

    def test_a_vector_file_with_a_byte_that_is_not_utf8(self, capsys, tmp_path):
        err, _, target = self.cramer(capsys, tmp_path, b"1,2\n3,4\n", b"0,0\n\n1,\xff\n", "--vectors")
        assert err == f"error: sample file {target!r} line 3: byte 0xff is not UTF-8 (invalid start byte)\n"

    def test_a_vector_of_another_width(self, capsys, tmp_path):
        err, model, _ = self.cramer(capsys, tmp_path, b"1,2\n3,4\n\n5\n6,7\n", b"0,0\n1,1\n", "--vectors")
        assert err == f"error: sample file {model!r} line 4: mixed point dimensions [1, 2]\n"

    def test_a_projection_beyond_float_range(self, capsys, tmp_path):
        # seed 1's direction is about (0.39, 0.92), so the first point projects past float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the inf is reported once, by the error line, with no numpy warning
            err, _, _ = self.cramer(capsys, tmp_path, b"1.7e308,1.7e308\n0,0\n", b"0,0\n1,1\n",
                                    "--vectors", "--seed", "1")
        assert err == "error: sample values must be finite, got inf\n"


class TestVerifyDivergenceEvaluations:
    BREGMAN_DETAIL = ("Bregman loss equals the closed squared-loss form pointwise; "
                      "mean-vs-truth gap is the summed variance")

    def test_a_rejected_bregman_gradient_is_a_failed_check(self, capsys, monkeypatch):
        def wrong(d):  # 3 p_x in place of 2 p_x
            return tuple(PolyDivergence((Monomial(3, ExponentVector.unit(d, x), ExponentVector.zero(d)),))
                         for x in range(d))

        monkeypatch.setattr(verify, "squared_norm_gradient", wrong)
        code, out, err = run(capsys, "verify", "--only", "bregman", "--format", "machine")
        assert code == 3 and err == ""
        assert f"check.bregman=FAIL [exact] gap=0 {self.BREGMAN_DETAIL}\n" in out

    def test_the_bregman_check_evaluates_no_float(self, capsys, monkeypatch):
        calls = []
        evaluate = PolyDivergence.evaluate

        def exact_only(self, p, q):
            for point in (p, q):
                if any(isinstance(v, float) for v in (point.probs if isinstance(point, Distribution) else point)):
                    raise AssertionError(f"float entry in {point}")
            calls.append((p, q))
            return evaluate(self, p, q)

        monkeypatch.setattr(PolyDivergence, "evaluate", exact_only)
        code, out, _ = run(capsys, "verify", "--only", "bregman")
        assert code == 0 and f"PASS [exact] gap=0 {self.BREGMAN_DETAIL}\n" in out
        # G at each empirical distribution of n = 2, 3, 4 draws over d = 2 (3 + 4 + 5) and at the 5 grid models
        assert len(calls) == 12 + 5

    def test_each_squared_check_evaluates_each_grid_point_once(self, capsys, monkeypatch):
        calls = []
        evaluate = PolyDivergence.evaluate

        def counted(self, p, q):
            calls.append((p, q))
            return evaluate(self, p, q)

        monkeypatch.setattr(PolyDivergence, "evaluate", counted)
        for check in ("squared-known-target", "squared-two-sample"):
            calls.clear()
            code, _, _ = run(capsys, "verify", "--only", check)
            assert code == 0
            # (model, target) pairs on the d=2, step 1/8 grid (9 points) and the d=3, step 1/4 grid (15 points)
            assert len(calls) == len(set(calls)) == 9**2 + 15**2
