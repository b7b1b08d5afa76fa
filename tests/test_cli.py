import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import contextprob.cli
from contextprob import analyze_model, emit_report, load_model
from contextprob.cli import main

from synth import perfbench_spans

EXAMPLES = Path(__file__).resolve().parent.parent / "example_models"
GOLDEN = EXAMPLES / "golden"

MODEL_NAMES = ["classical", "perturbed", "hyperbolic"]
TABLE_NAMES = ["interference_table", "hyperbolic_table"]
TABLE_HEADER = "experiment,outcome_a,outcome_b,count\n"


def _edited(name, **fields):
    """An example model document as text, each field set to a value or mapped by a function."""
    doc = json.loads((EXAMPLES / name).read_text())
    for key, value in fields.items():
        doc[key] = value(doc[key]) if callable(value) else value
    return json.dumps(doc)


def run(argv, capsysbinary):
    code = main(argv)
    out, err = capsysbinary.readouterr()
    return code, out, err


class TestAnalyze:
    def test_model_to_stdout(self, capsysbinary):
        code, out, err = run(
            ["analyze", "--model", str(EXAMPLES / "classical.json")], capsysbinary
        )
        assert code == 0
        assert err == b""
        doc = json.loads(out)
        assert doc["amplitudes"]["regime"] == "trigonometric"
        assert doc["input_digest"].startswith("sha256:")

    def test_table_to_stdout(self, capsysbinary):
        code, out, _ = run(
            ["analyze", "--table", str(EXAMPLES / "interference_table.csv")],
            capsysbinary,
        )
        assert code == 0
        entries = json.loads(out)["interference"]["entries"]
        assert [e["coefficient"] for e in entries] == [0.5, -0.5]

    def test_out_file_matches_stdout(self, tmp_path, capsysbinary):
        target = tmp_path / "report.json"
        code, _, _ = run(
            [
                "analyze",
                "--model",
                str(EXAMPLES / "perturbed.json"),
                "--out",
                str(target),
            ],
            capsysbinary,
        )
        assert code == 0
        code, out, _ = run(
            ["analyze", "--model", str(EXAMPLES / "perturbed.json")], capsysbinary
        )
        assert target.read_bytes() == out

    def test_cli_agrees_with_the_library(self, capsysbinary):
        path = EXAMPLES / "hyperbolic.json"
        code, out, _ = run(["analyze", "--model", str(path)], capsysbinary)
        assert code == 0
        raw = path.read_bytes()
        import hashlib

        expected = emit_report(
            analyze_model(
                load_model(raw),
                input_digest="sha256:" + hashlib.sha256(raw).hexdigest(),
            )
        )
        assert out == expected

    def test_seed_override_is_echoed(self, capsysbinary):
        code, out, _ = run(
            ["analyze", "--model", str(EXAMPLES / "classical.json"), "--seed", "99"],
            capsysbinary,
        )
        assert code == 0
        assert json.loads(out)["seed"] == 99

    @pytest.mark.parametrize(
        "source, path",
        [("--model", "classical.json"), ("--table", "interference_table.csv")],
    )
    def test_negative_seed_exits_2(self, source, path, capsysbinary):
        code, out, err = run(
            ["analyze", source, str(EXAMPLES / path), "--seed", "-3"], capsysbinary
        )
        assert (code, out) == (2, b"")
        assert err == b"error: seed must be a non-negative integer\n"

    def test_negative_seed_is_rejected_before_the_analysis(self, tmp_path, capsysbinary):
        doc = json.loads((EXAMPLES / "classical.json").read_text())
        doc["context"] = [0, 1]  # degenerate: exits 3 without the bad seed
        starved = tmp_path / "starved.json"
        starved.write_text(json.dumps(doc))
        code, out, err = run(
            ["analyze", "--model", str(starved), "--seed", "-3"], capsysbinary
        )
        assert (code, out) == (2, b"")
        assert err == b"error: seed must be a non-negative integer\n"

    @pytest.mark.parametrize(
        "source, text, location",
        [
            pytest.param("--model", '{"schema": 2}', "schema", id="schema"),
            pytest.param(
                "--model", _edited("classical.json", weights=[10**400, 0.2, 0.3, 0.4]),
                "weights[0]", id="huge-weight",
            ),
            pytest.param(
                "--model", _edited("perturbed.json", kernel=lambda k: [[10**400] + k[0][1:]] + k[1:]),
                "kernel.row[0][0]", id="huge-kernel-entry",
            ),
            pytest.param(
                "--model", '{"schema": 1, "weights": [1' + "0" * 5000 + "]}", "not valid JSON",
                id="over-long-integer",
            ),
            pytest.param("--model", _edited("classical.json", variables=[]), "variables", id="variables"),
            pytest.param(
                "--model", _edited("classical.json", variables=lambda v: dict(v, path="left")),
                "variables.path", id="variable-values",
            ),
            pytest.param("--model", _edited("classical.json", selector=3), "selector", id="selector"),
            pytest.param("--model", _edited("classical.json", context=[]), "context", id="context"),
            pytest.param(
                "--model", _edited("classical.json", kernel=[[1, 0, 0, 0]]), "kernel", id="kernel-rows"
            ),
            pytest.param("--model", _edited("classical.json", options=[7]), "options", id="options"),
            pytest.param("--table", "", "header", id="empty-table"),
            pytest.param(
                "--table", TABLE_HEADER + "direct,,,750\n", "row[2]", id="empty-outcome"
            ),
        ],
    )
    def test_malformed_input_exits_2_at_its_location(
        self, source, text, location, tmp_path, capsysbinary
    ):
        bad = tmp_path / "bad"
        bad.write_text(text)
        code, out, err = run(["analyze", source, str(bad)], capsysbinary)
        assert (code, out) == (2, b"")
        assert err.startswith(f"error: {location}: ".encode()) and err.count(b"\n") == 1

    @pytest.mark.parametrize(
        "entry, total", [(2**64, "1.8446744073709552e+19"), (10**30, "1e+30")]
    )
    def test_kernel_integer_beyond_int64_exits_2_at_its_row(
        self, entry, total, tmp_path, capsysbinary
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(_edited("perturbed.json", kernel=lambda k: [[entry] + k[0][1:]] + k[1:]))
        code, out, err = run(["analyze", "--model", str(bad)], capsysbinary)
        assert (code, out) == (2, b"")
        assert err == f"error: kernel.row[0]: row must sum to 1 within 1e-12, got {total}\n".encode()

    def test_deeply_nested_model_exits_2(self, tmp_path):
        # A fresh interpreter, as a user runs it: the parser's recursion error must not escape.
        bad = tmp_path / "nested.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        result = subprocess.run(
            [sys.executable, "-m", "contextprob", "analyze", "--model", str(bad)],
            capture_output=True,
        )
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr.startswith(b"error: not valid JSON: maximum recursion depth")
        assert result.stderr.count(b"\n") == 1

    @pytest.mark.parametrize(
        "command, key, first, second",
        [
            ("analyze", "weights", "[0.1, 0.2, 0.3, 0.4]", "[0.4, 0.3, 0.2, 0.1]"),
            ("analyze", "screen", '["up", "down", "up", "down"]', '["up", "up", "down", "down"]'),
            ("sample", "seed", "7", "8"),
        ],
        ids=["weights", "variables.screen", "options.seed"],
    )
    def test_repeated_key_exits_2(self, command, key, first, second, tmp_path, capsysbinary):
        text = (EXAMPLES / "classical.json").read_text()
        once = f'"{key}": {first}'
        assert text.count(once) == 1
        repeated = tmp_path / "repeated.json"
        repeated.write_text(text.replace(once, f'{once}, "{key}": {second}'))
        argv = [command, "--model", str(repeated)]
        if command == "sample":
            argv += ["--variable", "screen"]
        code, out, err = run(argv, capsysbinary)
        assert (code, out) == (2, b"")
        assert err == f"error: not valid JSON: duplicate key '{key}'\n".encode()

    @pytest.mark.parametrize("where", ["weights", "kernel"])
    @pytest.mark.parametrize(
        "row",
        [
            pytest.param([1e308, 1e308, 0.0, 0.0], id="overflowing-sum"),
            pytest.param([float("inf"), float("-inf"), 0.0, 0.0], id="inf-pair"),
        ],
    )
    def test_numpy_warnings_stay_out_of_the_error(self, where, row, tmp_path, capsysbinary):
        doc = json.loads((EXAMPLES / "classical.json").read_text())
        if where == "weights":
            doc["weights"] = row
        else:
            doc["kernel"] = [row, [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))  # inf is written as Infinity
        # pyproject.toml turns a RuntimeWarning into an error, so one that
        # escapes main fails here even though pytest captures warnings.
        code, out, err = run(["analyze", "--model", str(bad)], capsysbinary)
        assert (code, out) == (2, b"")
        assert err.startswith(b"error:") and err.count(b"\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "sample"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "field, location",
        [
            ("classify_tolerance", "options.classify_tolerance"),
            ("energy", "variables.energy[1]"),
        ],
    )
    def test_non_finite_number_exits_2_at_its_location(
        self, command, value, field, location, tmp_path, capsysbinary
    ):
        doc = json.loads((EXAMPLES / "classical.json").read_text())
        if field == "energy":
            doc["variables"]["energy"] = [0.5, value, 1.5, 2.5]
        else:
            doc["options"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))  # written as NaN or Infinity
        argv = [command, "--model", str(bad)]
        if command == "sample":
            argv += ["--variable", "screen", "--n", "10"]
        code, out, err = run(argv, capsysbinary)
        assert (code, out) == (2, b"")
        assert err.startswith(f"error: {location}: ".encode()) and err.count(b"\n") == 1

    def test_tiny_branches_have_zero_coefficients(self, tmp_path, capsysbinary):
        doc = json.loads((EXAMPLES / "classical.json").read_text())
        doc["weights"] = [5e-301, 0.5, 5e-301, 0.5]  # branch products underflow
        model = tmp_path / "tiny.json"
        model.write_text(json.dumps(doc))
        code, out, err = run(["analyze", "--model", str(model)], capsysbinary)
        assert (code, err) == (0, b"")
        entries = json.loads(out)["interference"]["entries"]
        assert [e["coefficient"] for e in entries] == [0.0, 0.0]

    def test_missing_file_exits_2(self, capsysbinary):
        code, _, err = run(["analyze", "--model", "/nowhere/none.json"], capsysbinary)
        assert code == 2
        assert b"cannot read" in err

    def test_degenerate_table_exits_3(self, tmp_path, capsysbinary):
        table = tmp_path / "degenerate.csv"
        table.write_text(
            "experiment,outcome_a,outcome_b,count\n"
            "direct,,up,0\n"
            "direct,,down,0\n"
            "sequential,left,up,5\n"
            "sequential,left,down,5\n"
            "sequential,right,up,5\n"
            "sequential,right,down,5\n"
        )
        code, _, err = run(["analyze", "--table", str(table)], capsysbinary)
        assert code == 3
        assert err.startswith(b"error:")

    def test_context_starving_a_selector_value_exits_3(self, tmp_path, capsysbinary):
        doc = json.loads((EXAMPLES / "classical.json").read_text())
        doc["context"] = [0, 1]  # both points carry path == "left"
        starved = tmp_path / "starved.json"
        starved.write_text(json.dumps(doc))
        code, _, err = run(["analyze", "--model", str(starved)], capsysbinary)
        assert code == 3
        assert err.startswith(b"error:")


class TestGoldenReports:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_model_reports_are_stable(self, name, capsysbinary):
        code, out, _ = run(
            ["analyze", "--model", str(EXAMPLES / f"{name}.json")], capsysbinary
        )
        assert code == 0
        assert out == (GOLDEN / f"{name}.report.json").read_bytes()

    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_table_reports_are_stable(self, name, capsysbinary):
        code, out, _ = run(
            ["analyze", "--table", str(EXAMPLES / f"{name}.csv")], capsysbinary
        )
        assert code == 0
        assert out == (GOLDEN / f"{name}.report.json").read_bytes()

    @pytest.mark.parametrize(
        "name, edit",
        [
            *(
                pytest.param(name, lambda doc: doc.pop("points"), id=f"{name}-auto-named")
                for name in MODEL_NAMES  # every shipped example names its points
            ),
            pytest.param(
                "hyperbolic",
                lambda doc: doc.update(kernel=[[0 if x == 0 else x for x in row] for row in doc["kernel"]]),
                id="hyperbolic-integer-zeros",  # written as 0, not 0.0
            ),
        ],
    )
    def test_an_equivalent_model_analyses_to_its_golden(self, name, edit, tmp_path, capsysbinary):
        doc = json.loads((EXAMPLES / f"{name}.json").read_text())
        edit(doc)
        model = tmp_path / f"{name}.json"
        model.write_text(json.dumps(doc))
        code, out, err = run(["analyze", "--model", str(model)], capsysbinary)
        assert (code, err) == (0, b"")
        report, golden = json.loads(out), json.loads((GOLDEN / f"{name}.report.json").read_bytes())
        assert report.pop("input_digest") != golden.pop("input_digest")  # it hashes the input bytes
        assert report == golden

    def test_an_auto_named_model_validates_and_samples(self, tmp_path, capsysbinary):
        doc = json.loads((EXAMPLES / "classical.json").read_text())
        del doc["points"]
        model = tmp_path / "classical.json"
        model.write_text(json.dumps(doc))
        code, _, err = run(["validate", "--model", str(model)], capsysbinary)
        assert (code, err) == (0, b"")
        sample = ["sample", "--variable", "screen", "--n", "1000", "--model"]
        code, out, err = run(sample + [str(model)], capsysbinary)
        assert (code, err) == (0, b"")
        assert run(sample + [str(EXAMPLES / "classical.json")], capsysbinary) == (0, out, b"")

    def test_bytes_survive_thread_count_changes(self, tmp_path):
        # run in separate interpreters with different BLAS thread settings;
        # the report bytes must not care
        outputs = []
        for threads in ("1", "4"):
            env = dict(os.environ, OMP_NUM_THREADS=threads)
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "contextprob",
                    "analyze",
                    "--model",
                    str(EXAMPLES / "hyperbolic.json"),
                ],
                capture_output=True,
                env=env,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0] == (GOLDEN / "hyperbolic.report.json").read_bytes()


class TestSample:
    def test_sampling_is_seed_deterministic(self, capsysbinary):
        argv = [
            "sample",
            "--model",
            str(EXAMPLES / "classical.json"),
            "--variable",
            "screen",
            "--n",
            "5000",
            "--seed",
            "21",
        ]
        code, first, _ = run(argv, capsysbinary)
        assert code == 0
        code, second, _ = run(argv, capsysbinary)
        assert first == second
        code, third, _ = run(argv[:-1] + ["22"], capsysbinary)
        assert third != first

    def test_sample_document_shape(self, capsysbinary):
        code, out, _ = run(
            [
                "sample",
                "--model",
                str(EXAMPLES / "classical.json"),
                "--variable",
                "path",
                "--n",
                "1000",
                "--seed",
                "5",
            ],
            capsysbinary,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["variable"] == "path"
        assert doc["support"] == ["left", "right"]
        assert sum(doc["counts"]) == doc["total"] == 1000
        assert doc["seed"] == 5
        assert doc["frequencies"] == [c / 1000 for c in doc["counts"]]
        # the exact bytes canonical_json writes: counts an int list, frequencies a float list
        assert out == (
            b'{\n'
            b'  "counts": [305, 695],\n'
            b'  "frequencies": [0.30499999999999999, 0.69499999999999995],\n'
            b'  "schema": 1,\n'
            b'  "seed": 5,\n'
            b'  "support": ["left", "right"],\n'
            b'  "total": 1000,\n'
            b'  "variable": "path"\n'
            b'}\n'
        )

    def test_defaults_come_from_model_options(self, capsysbinary):
        # classical.json pins seed 7; sample_size defaults to 100000
        code, out, _ = run(
            [
                "sample",
                "--model",
                str(EXAMPLES / "classical.json"),
                "--variable",
                "screen",
            ],
            capsysbinary,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 7
        assert doc["total"] == 100000

    def test_unknown_variable_exits_2(self, capsysbinary):
        code, _, err = run(
            [
                "sample",
                "--model",
                str(EXAMPLES / "classical.json"),
                "--variable",
                "nope",
            ],
            capsysbinary,
        )
        assert code == 2
        assert b"nope" in err

    @pytest.mark.parametrize("n", [10**29, 10**400], ids=["1e29", "1e400"])
    def test_count_beyond_int64_exits_2(self, n, capsysbinary):
        code, out, err = run(
            [
                "sample",
                "--model",
                str(EXAMPLES / "classical.json"),
                "--variable",
                "screen",
                "--n",
                str(n),
            ],
            capsysbinary,
        )
        assert code == 2
        assert out == b""
        lines = err.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in err.decode()

    def test_out_file(self, tmp_path, capsysbinary):
        target = tmp_path / "counts.json"
        code, _, _ = run(
            [
                "sample",
                "--model",
                str(EXAMPLES / "classical.json"),
                "--variable",
                "screen",
                "--n",
                "100",
                "--seed",
                "1",
                "--out",
                str(target),
            ],
            capsysbinary,
        )
        assert code == 0
        assert sum(json.loads(target.read_bytes())["counts"]) == 100


class TestValidate:
    def test_reports_model_shape(self, capsys):
        code = main(["validate", "--model", str(EXAMPLES / "hyperbolic.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("model ok: 4 points")
        assert "selector: arm" in out
        assert "kernel present" in out

    def test_kernel_absent(self, capsys):
        code = main(["validate", "--model", str(EXAMPLES / "classical.json")])
        assert code == 0
        assert "kernel absent" in capsys.readouterr().out

    def test_invalid_model_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert main(["validate", "--model", str(bad)]) == 2

    @pytest.mark.parametrize("name, shown", [("\u00e9cran", "\u00e9cran"), ("\ud800", "\\ud800")])
    def test_a_variable_name_is_printed_in_any_case(self, name, shown, tmp_path):
        model = tmp_path / "named.json"
        model.write_text(_edited("classical.json", variables=lambda v: {**v, name: v["screen"]}))
        result = subprocess.run(
            [sys.executable, "-m", "contextprob", "validate", "--model", str(model)],
            capture_output=True, env=dict(os.environ, PYTHONIOENCODING="utf-8"),
        )
        assert (result.returncode, result.stderr) == (0, b"")
        assert f"variables: path, screen, {shown};".encode() in result.stdout


# Each kernel row sums to 1 within 1e-12, but the masses pushed through the
# kernel from the "b" points sum to 1.000000000001, one ulp beyond the band.
EDGE_OF_BAND = {
    "schema": 1,
    "weights": [0.25, 0.25, 0.25, 0.25],
    "variables": {"s": ["a", "a", "b", "b"], "o": ["x", "y", "x", "y"]},
    "selector": "s",
    "outcome": "o",
    "context": [0, 1, 2, 3],
    "kernel": [
        [0.1336509999817902, 0.4019380151905997, 0.2028622206846785, 0.2615487641439314],
        [0.30054239207950706, 0.11231168251802473, 0.1943327842980202, 0.3928131411054478],
        [0.3839617335400133, 0.289387532215628, 0.21609613390679586, 0.11055460033856283],
        [0.0911494749601842, 0.5503086630490865, 0.29280294080840014, 0.06573892118332905],
    ],
}


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_edge_of_band_model_exits_0(command, tmp_path, capsysbinary):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(EDGE_OF_BAND))
    code, out, err = run([command, "--model", str(path)], capsysbinary)
    assert (code, err) == (0, b"")
    assert out


# Both branches of x are about 1e-310, so the gap over their geometric mean
# overflows: x has no finite coefficient and is degenerate, like a zero branch.
OVERFLOWING_COEFFICIENT = {
    "schema": 1,
    "weights": [1e-310, 1e-310, 0.5, 0.5],
    "variables": {"s": ["g", "g", "h", "h"], "o": ["x", "y", "x", "y"]},
    "selector": "s",
    "outcome": "o",
    "context": [0, 1, 2, 3],
    "kernel": [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1e-310, 1.0],
        [0.0, 0.0, 1e-310, 1.0],
    ],
}


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_overflowing_coefficient_model_exits_0(command, tmp_path, capsysbinary):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOWING_COEFFICIENT))
    code, out, err = run([command, "--model", str(path)], capsysbinary)
    assert (code, err) == (0, b"")
    if command == "analyze":
        report = json.loads(out)
        entries = report["interference"]["entries"]
        assert [e["classification"] for e in entries] == ["degenerate", "hyperbolic"]
        assert entries[0]["coefficient"] is None
        assert math.isfinite(entries[1]["coefficient"])
        assert report["amplitudes"]["regime"] == "degenerate"


# x's branches are about 1e-313 and 0.44, so its amplitude components are
# about -6.6e155 each and their squares overflow.
OVERFLOWING_SQUARES = {
    "schema": 1,
    "weights": [0.0, 0.5, 0.0, 0.5],
    "variables": {"s": ["g", "g", "h", "h"], "o": ["x", "y", "x", "y"]},
    "selector": "s",
    "outcome": "o",
    "context": [0, 1, 2, 3],
    "kernel": [
        [2.2250738585e-313, 1.0, 0, 0],
        [2.2250738585e-313, 1.0, 0, 0],
        [0, 0, 0.875, 0.125],
        [0, 0, 0.875, 0.125],
    ],
}


def test_overflowing_squares_model_has_a_finite_born_residual(tmp_path, capsysbinary):
    path = tmp_path / "squares.json"
    path.write_text(json.dumps(OVERFLOWING_SQUARES))
    code, out, err = run(["analyze", "--model", str(path)], capsysbinary)
    assert (code, err) == (0, b"")
    report = json.loads(out)
    assert report["amplitudes"]["regime"] == "hyperbolic"
    assert math.isfinite(report["born_residual"])


# The commands that write a document, to stdout unless given --out.
WRITING_COMMANDS = {
    "analyze-model": ["analyze", "--model", str(EXAMPLES / "classical.json")],
    "analyze-table": ["analyze", "--table", str(EXAMPLES / "interference_table.csv")],
    "sample": [
        "sample", "--model", str(EXAMPLES / "classical.json"), "--variable", "screen", "--n", "10",
    ],
}


class TestUnwritableOut:
    @pytest.mark.parametrize("argv", WRITING_COMMANDS.values(), ids=WRITING_COMMANDS.keys())
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_exits_2(self, argv, target, tmp_path, capsysbinary):
        out_path = tmp_path / "absent" / "out.json" if target == "missing-dir" else tmp_path
        code, out, err = run(argv + ["--out", str(out_path)], capsysbinary)
        assert code == 2
        assert out == b""
        lines = err.decode().splitlines()
        assert lines == [lines[0]] and lines[0].startswith(f"error: cannot write {out_path}: ")


def _run_to_stdout(argv, stdout, buffering):
    """``python -m contextprob`` in a fresh interpreter, writing to ``stdout``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    flags = ["-u"] if buffering == "unbuffered" else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "contextprob", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, check=False,
    )


class TestUnwritableStdout:
    """A write to stdout that fails ends like an unwritable ``--out``: exit 2
    and one error line, and the interpreter's last flush of stdout adds none."""

    COMMANDS = {
        **WRITING_COMMANDS,
        "validate": ["validate", "--model", str(EXAMPLES / "classical.json")],
    }

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    def test_a_full_device_exits_2(self, argv, buffering):
        with open("/dev/full", "wb") as full:
            result = _run_to_stdout(argv, full, buffering)
        assert result.returncode == 2
        assert result.stderr == b"error: cannot write stdout: No space left on device\n"

    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    def test_a_closed_pipe_exits_2(self, argv, buffering):
        reader, writer = os.pipe()
        os.close(reader)  # closed before the command starts, so every write fails
        try:
            result = _run_to_stdout(argv, writer, buffering)
        finally:
            os.close(writer)
        assert result.returncode == 2
        assert result.stderr == b"error: cannot write stdout: Broken pipe\n"


class TestParser:
    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_model_and_table_are_mutually_exclusive(self):
        with pytest.raises(SystemExit) as info:
            main(["analyze", "--model", "a.json", "--table", "b.csv"])
        assert info.value.code == 2


# A byte edit: (position as a share of the file, kind, byte).
_edits = st.lists(
    st.tuples(
        st.floats(0.0, 1.0),
        st.sampled_from(["replace", "insert", "delete"]),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=4,
)


class TestByteFuzz:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        name=st.sampled_from(
            [f"{n}.json" for n in MODEL_NAMES] + [f"{n}.csv" for n in TABLE_NAMES]
        ),
        edits=_edits,
    )
    def test_mutated_examples_end_in_a_report_or_one_error_line(
        self, name, edits, tmp_path, capsysbinary
    ):
        data = bytearray((EXAMPLES / name).read_bytes())  # far longer than 4 bytes
        for share, kind, byte in edits:
            at = min(int(share * len(data)), len(data) - 1)
            if kind == "insert":
                data.insert(at, byte)
            elif kind == "replace":
                data[at] = byte
            else:
                del data[at]
        path = tmp_path / name
        path.write_bytes(bytes(data))
        source = "--model" if name.endswith(".json") else "--table"
        capsysbinary.readouterr()  # drop what earlier examples printed
        code, out, err = run(["analyze", source, str(path)], capsysbinary)
        assert code in (0, 2, 3)
        if code == 0:
            assert err == b"" and out.endswith(b"\n")
        else:
            assert out == b""
            assert err.startswith(b"error: ") and err.count(b"\n") == 1


def test_every_traced_stage_is_reached_by_the_examples(capsysbinary):
    """The benchmark's traced run takes a stage's figures from a run of
    ``cli.main`` over the examples when its own operations skip that stage,
    so each stage it traces must be called there."""
    spans = perfbench_spans()
    argvs = []
    for name in MODEL_NAMES:
        model = str(EXAMPLES / f"{name}.json")
        argvs += [["analyze", "--model", model], ["validate", "--model", model]]
    argvs += [["analyze", "--table", str(EXAMPLES / f"{name}.csv")] for name in TABLE_NAMES]
    argvs.append(
        ["sample", "--model", str(EXAMPLES / "classical.json"), "--variable", "screen",
         "--n", "1000"]
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [contextprob.cli.main(argv) for argv in argvs]  # the traced main
    finally:
        tracer.uninstall()
    capsysbinary.readouterr()
    assert codes == [0] * len(argvs)
    expected = {
        f"{module}.{function}"
        for module, functions in spans.TARGETS.items()
        for function in functions
    } | {"model_io.json_loads", "model_io.effective_kernel"}
    assert sorted(expected - set(tracer.names)) == []
    assert contextprob.cli.main is main  # the originals are back
