"""Command line behavior: parsing, exit codes, JSON reports, determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from segbreak import ConsistencyError, PenaltyConfig, SegmentRange, cli, segment_cost
from segbreak.cli import SCHEMA_VERSION, main
from segbreak.simulation import generate_scenario, one_break_spec, write_dataset


@pytest.fixture()
def data_file(tmp_path):
    ds = generate_scenario(one_break_spec(n=60, breakpoint=30, seed=0))
    path = tmp_path / "data.txt"
    write_dataset(ds, path)
    return str(path)


@pytest.fixture()
def scenario_file(tmp_path):
    doc = {
        "n": 40,
        "breakpoints": [20],
        "coefficients": [[3.0, 0.0], [0.0, -3.0]],
        "covariate_means": [0.0, 0.0],
        "error_std": 0.5,
        "seed": 3,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArgumentParsing:
    def test_help_exits_zero(self, capsys):
        code, out, _ = _run(capsys, ["--help"])
        assert code == 0
        assert "fit" in out and "select" in out and "simulate" in out

    def test_unknown_flag(self, capsys, data_file):
        code, _, _ = _run(capsys, ["fit", data_file, "--bogus"])
        assert code == 2

    def test_missing_subcommand(self, capsys):
        code, _, _ = _run(capsys, [])
        assert code == 2


class TestInputErrors:
    def test_unparseable_token_cites_position(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0\n3.0 oops\n")
        code, _, err = _run(capsys, ["fit", str(path)])
        assert code == 2
        assert "row 2, column 2" in err

    def test_ragged_rows(self, capsys, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("1 2 3\n4 5 6\n7 8\n")
        code, _, err = _run(capsys, ["fit", str(path)])
        assert code == 2
        assert "row 3" in err

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, _, err = _run(capsys, ["fit", str(path)])
        assert code == 2
        assert "no data rows" in err

    def test_single_column(self, capsys, tmp_path):
        path = tmp_path / "narrow.txt"
        path.write_text("1.0\n2.0\n")
        code, _, err = _run(capsys, ["fit", str(path)])
        assert code == 2
        assert "covariate" in err

    def test_non_finite_value(self, capsys, tmp_path):
        path = tmp_path / "inf.txt"
        path.write_text("1.0 2.0\n3.0 inf\n")
        code, _, err = _run(capsys, ["fit", str(path)])
        assert code == 2
        assert "non-finite" in err

    # Where a file holds several errors, the first line with one wins, and
    # within it the first bad token in column order, before the width check.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 2\n3 inf oops\n4 5 6\n", "non-finite value at row 2, column 2"),
            ("1 2\n3 oops inf\n", "could not parse 'oops' at row 2, column 2"),
            ("1 2\n3 4 oops\n", "could not parse 'oops' at row 2, column 3"),
            ("1 2\n3 4 5\n6 x\n", "row 2 has 3 fields, expected 2"),
            ("1, 2\n3,\n", "could not parse '' at row 2, column 2"),
            ("1 2\n\n3 nan\n4\n", "non-finite value at row 3, column 2"),
        ],
        ids=["inf-before-token", "token-before-nan", "token-before-width",
             "width-before-later-token", "empty-field", "blank-line-counted"],
    )
    def test_first_error_is_cited_in_full(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, _, err = _run(capsys, ["fit", str(path)])
        assert code == 2
        assert f"{path}: {message}\n" in err

    def test_tokens_are_stripped_as_by_str_strip(self, tmp_path):
        # float() accepts surrounding spaces but not the separator \x1f,
        # which str.strip() removes: such a token still reads as its number
        path = tmp_path / "odd.txt"
        path.write_text("1.5, 2\n\x1f3 ,4\x1f\n 1_0 ,-0.0\n")
        got = cli._read_matrix(str(path), False, None)
        assert got.tolist() == [[1.5, 2.0], [3.0, 4.0], [10.0, -0.0]]

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = _run(capsys, ["fit", str(tmp_path / "nope.txt")])
        assert code == 2

    def test_header_skipping(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        body = "\n".join(
            " ".join(repr(float(v)) for v in row) for row in rng.standard_normal((12, 3))
        )
        path = tmp_path / "headed.txt"
        path.write_text("y x1 x2\n" + body + "\n")
        code, _, _ = _run(capsys, ["fit", str(path), "--header", "--min-seg", "3"])
        assert code == 0
        code, _, _ = _run(capsys, ["fit", str(path), "--min-seg", "3"])
        assert code == 2  # header tokens are not numbers

    def test_comma_sniffing_and_explicit_delimiter(self, capsys, tmp_path):
        rows = "1.0,2.0\n2.0,1.0\n3.0,0.5\n4.0,0.2\n5.0,0.1\n6.0,0.4\n"
        comma = tmp_path / "comma.txt"
        comma.write_text(rows)
        code, _, _ = _run(capsys, ["fit", str(comma), "--min-seg", "3"])
        assert code == 0
        semi = tmp_path / "semi.txt"
        semi.write_text(rows.replace(",", ";"))
        code, _, _ = _run(
            capsys, ["fit", str(semi), "--min-seg", "3", "--delimiter", ";"]
        )
        assert code == 0


def _per_line_reader(path, header, delimiter):
    """The reader without its np.loadtxt fast path: every line is split and
    converted on its own."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = []
    width = None
    skip_first = header
    for lineno, line in enumerate(lines, start=1):
        if skip_first:
            skip_first = False
            continue
        if not line.strip():
            continue
        if delimiter is not None:
            parts = line.split(delimiter)
        elif "," in line:
            parts = line.split(",")
        else:
            parts = line.split()
        try:
            values = list(map(float, parts))
        except ValueError:
            values = None
        if values is None or not all(map(math.isfinite, values)):
            values = []
            for colno, token in enumerate(parts, start=1):
                token = token.strip()
                try:
                    value = float(token)
                except ValueError:
                    raise cli.CliInputError(
                        f"{path}: could not parse {token!r} at row {lineno}, "
                        f"column {colno}"
                    ) from None
                if not math.isfinite(value):
                    raise cli.CliInputError(
                        f"{path}: non-finite value at row {lineno}, column {colno}"
                    )
                values.append(value)
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise cli.CliInputError(
                f"{path}: row {lineno} has {len(values)} fields, expected {width}"
            )
        rows.append(values)
    if not rows:
        raise cli.CliInputError(f"{path}: no data rows")
    if width < 2:
        raise cli.CliInputError(
            f"{path}: need a response column plus at least one covariate"
        )
    return np.array(rows, dtype=np.float64)


def _read_outcome(reader, path, header, delimiter):
    """The array a reader returns, or the message of the error it raises."""
    try:
        return reader(path, header, delimiter)
    except cli.CliInputError as exc:
        return str(exc)


def _assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray), got
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))  # keeps -0.0


# Tokens that float() and numpy's parser treat differently or that sit on
# the edge of either: numpy rejects the first three, which float() reads, and
# float() rejects the \x1f-padded ones, which the per-line reader strips.
_TOKENS = ["1_0", "\u0661", "\u0661.5", "\x1f3", "4\x1f", "\xa01", "1.", ".5", "+1",
           "-0", "1E+3", "1e999", "infinity", "nan", "", "0x10", "1d3", "#1"]
_TEXTS = {
    **{f"comma-first-{i}": f"{tok},2\n3,4\n5,6\n" for i, tok in enumerate(_TOKENS)},
    **{f"comma-later-{i}": f"1,2\n3,{tok}\n5,6\n" for i, tok in enumerate(_TOKENS)},
    **{f"space-first-{i}": f"{tok} 2\n3 4\n5 6\n" for i, tok in enumerate(_TOKENS)},
    **{f"space-later-{i}": f"1 2\n3 {tok}\n5 6\n" for i, tok in enumerate(_TOKENS)},
    "trailing-comma": "1,2,\n3,4,\n",
    "trailing-space": "1 2 \n3 4\t\n",
    "comma": "1.5,2\n-3,4e-2\n5,6\n",
    "spaces-and-tabs": " 1.5  2\t7\n-3 4e-2 8\n",
    "comma-then-space-rows": "1,2\n3 4\n5,6\n",
    "space-then-comma-rows": "1 2\n3,4\n5 6\n",
    "comma-with-spaces": "1, 2\n3 ,4\n",
    "crlf": "1 2\r\n3 4\r\n5,6\r\n",
    "lone-cr": "1,2\r3,4\r5,6",
    "form-feed": "1 2\x0c3 4\n5 6\x0c7 8\n",
    "record-separator": "1,2\x1e3,4\n5,6\x1e7,8\n",
    "line-separator": "1 2\u20283 4\n5 6\u20287 8\n",
    "unit-separator-line": "1 2\n\x1f\n3 4\n",
    "blank-lines": "\n1 2\n\n3 4\n\n",
    "whitespace-lines": "1 2\n   \n3 4\n\t\n",
    "comma-whitespace-lines": "1,2\n  \n3,4\n",
    "blank-first-line": "\n1,2\n3,4\n",
    "header-row": "y x\n1 2\n3 4\n",
    "comma-header-row": "y,x\n1,2\n3,4\n",
    "comma-header-space-rows": "y,x\n1 2\n3 4\n",
    "header-only": "y,x\n",
    "one-row": "1 2 3\n",
    "one-column": "1\n2\n",
    "ragged": "1 2\n3 4 5\n",
    "no-final-newline": "1 2\n3 4",
    "empty": "",
}


class TestReaderParity:
    """The reader returns what the per-line reader returns, array or error,
    whether or not its np.loadtxt fast path takes the file."""

    @pytest.mark.parametrize("header", [False, True], ids=["no-header", "header"])
    @pytest.mark.parametrize("name", list(_TEXTS))
    def test_sniffed(self, tmp_path, name, header):
        path = tmp_path / "data.txt"
        path.write_bytes(_TEXTS[name].encode())
        _assert_same_outcome(
            _read_outcome(cli._read_matrix, str(path), header, None),
            _read_outcome(_per_line_reader, str(path), header, None),
        )

    @pytest.mark.parametrize(
        "text, delimiter",
        [("1;2\n3;4\n", ";"), ("1, 2\n3,4\n", ","), ("1 2\n3 4\n", ","),
         ("1\t2\n3\t4\n", "\t"), ("1;2;\n3;4;\n", ";")],
        ids=["semicolon", "comma", "comma-absent", "tab", "trailing-semicolon"],
    )
    def test_explicit_delimiter(self, tmp_path, text, delimiter):
        path = tmp_path / "data.txt"
        path.write_bytes(text.encode())
        for header in (False, True):
            _assert_same_outcome(
                _read_outcome(cli._read_matrix, str(path), header, delimiter),
                _read_outcome(_per_line_reader, str(path), header, delimiter),
            )

    def test_fast_path_reads_preset_files(self, tmp_path):
        path = tmp_path / "data.txt"
        write_dataset(generate_scenario(one_break_spec(n=60, breakpoint=30, seed=0)), path)
        want = _per_line_reader(str(path), False, None)
        _assert_same_outcome(cli._load_text(path.read_text(), False), want)
        _assert_same_outcome(cli._read_matrix(str(path), False, None), want)

    def test_line_break_gate_is_needed(self, tmp_path, monkeypatch):
        # np.loadtxt splits lines on "\n" only and takes a form feed for
        # whitespace; without the gate this file reads as 2 x 4, not 4 x 2
        path = tmp_path / "data.txt"
        path.write_bytes(_TEXTS["form-feed"].encode())
        assert cli._read_matrix(str(path), False, None).shape == (4, 2)
        monkeypatch.setattr(cli, "_OTHER_LINE_BREAKS", ())
        assert cli._read_matrix(str(path), False, None).shape == (2, 4)

    @pytest.mark.parametrize("action", ["error", "always"])
    @pytest.mark.parametrize(
        "text, header",
        [("", False), ("", True), ("y x\n", True), ("\n\n  \n", False), ("\n\n  \n", True)],
        ids=["empty", "empty-header", "header-only", "blank-lines", "blank-lines-header"],
    )
    def test_no_warning_leaks(self, capsys, tmp_path, text, header, action):
        path = tmp_path / "data.txt"
        path.write_text(text)
        flags = ["--header"] if header else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            with pytest.raises(cli.CliInputError, match="no data rows"):
                cli._read_matrix(str(path), header, None)
            code, out, err = _run(capsys, ["fit", str(path), *flags])
        assert caught == []
        assert (code, out, err) == (2, "", f"error: {path}: no data rows\n")


class TestFamilyFlags:
    def test_bridge_requires_gamma(self, capsys, data_file):
        code, _, err = _run(capsys, ["fit", data_file, "--family", "bridge"])
        assert code == 2
        assert "--gamma" in err

    def test_adaptive_rejects_gamma(self, capsys, data_file):
        code, _, _ = _run(
            capsys, ["fit", data_file, "--family", "adaptive", "--gamma", "1.5"]
        )
        assert code == 2

    def test_lasso_pins_gamma(self, capsys, data_file):
        code, _, _ = _run(
            capsys, ["fit", data_file, "--family", "lasso", "--gamma", "2"]
        )
        assert code == 2

    def test_ridge_accepts_matching_gamma(self, capsys, data_file):
        code, _, _ = _run(
            capsys, ["fit", data_file, "--k", "1", "--family", "ridge", "--gamma", "2"]
        )
        assert code == 0


class TestFit:
    def test_report_structure(self, capsys, data_file):
        code, out, _ = _run(capsys, ["fit", data_file, "--k", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["command"] == "fit"
        assert (doc["n"], doc["p"]) == (60, 10)
        results = doc["results"]
        assert results["k"] == 1
        assert results["breakpoints"] == [30]
        first, second = results["segments"]
        assert (first["first_sample"], first["last_sample"]) == (1, 30)
        assert (second["first_sample"], second["last_sample"]) == (31, 60)
        assert first["lambda"] == pytest.approx(30.0**0.45)
        for seg in (first, second):
            assert len(seg["coefficients"]) == 10
            assert all(1 <= k <= 10 for k in seg["active_covariates"])
            assert seg["penalized_cost"] == pytest.approx(
                seg["rss"] + seg["penalty_value"]
            )
            assert set(seg["standard_errors"]) == {
                str(k) for k in seg["active_covariates"]
            }
        total = sum(seg["penalized_cost"] for seg in results["segments"])
        assert results["total_score"] == pytest.approx(total, rel=1e-12)
        assert doc["config"]["penalty"]["family"] == "adaptive"

    def test_out_flag_writes_file(self, capsys, data_file, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = _run(
            capsys, ["fit", data_file, "--k", "1", "--out", str(out_path)]
        )
        assert code == 0
        assert out == ""
        doc = json.loads(out_path.read_text())
        assert doc["results"]["breakpoints"] == [30]

    def test_center_flag(self, capsys, data_file):
        code, out, _ = _run(capsys, ["fit", data_file, "--k", "1", "--center"])
        assert code == 0
        assert json.loads(out)["config"]["input"]["center"] is True
        # the parser is built once per process, but no flag carries over
        code, out, _ = _run(capsys, ["fit", data_file, "--k", "1"])
        assert code == 0
        assert json.loads(out)["config"]["input"]["center"] is False

    def test_infeasible_k_exits_three(self, capsys, data_file):
        code, _, err = _run(capsys, ["fit", data_file, "--k", "10"])
        assert code == 3
        assert "11" in err  # minimum segment length is cited

    def test_strangled_solver_exits_four(self, capsys, data_file):
        code, _, _ = _run(
            capsys, ["fit", data_file, "--k", "1", "--cd-max-iter", "1"]
        )
        assert code == 4

    @pytest.mark.parametrize("tol", ["1e-2", "0.1"])
    def test_loose_cd_tolerance_fits(self, capsys, data_file, tol):
        code, out, _ = _run(capsys, ["fit", data_file, "--k", "1", "--cd-tol", tol])
        assert code == 0
        assert json.loads(out)["results"]["breakpoints"] == [30]

    @pytest.mark.parametrize(
        "flags, gamma",
        [(["--family", "bridge", "--gamma", "1.5"], 1.5),
         (["--family", "bridge", "--gamma", "0.5"], 0.5),
         (["--family", "lasso"], 1.0)],
        ids=["bridge-1.5", "bridge-0.5", "lasso"],
    )
    def test_segments_cost_what_segment_cost_gives(self, capsys, data_file, flags, gamma):
        code, out, _ = _run(capsys, ["fit", data_file, "--k", "1", *flags])
        assert code == 0
        ds = generate_scenario(one_break_spec(n=60, breakpoint=30, seed=0))
        config = PenaltyConfig(family="lasso_type", gamma=gamma, rho=0.45)
        for seg in json.loads(out)["results"]["segments"]:
            rng = SegmentRange(seg["first_sample"] - 1, seg["last_sample"])
            want = segment_cost(ds, rng, config).penalized_cost
            assert seg["penalized_cost"] == pytest.approx(want, rel=1e-9)

    def test_failed_consistency_check_exits_four(self, capsys, data_file, monkeypatch):
        def drifted(*args, **kwargs):
            raise ConsistencyError("segment refit total drifted")

        monkeypatch.setattr(cli, "optimal_breakpoints", drifted)
        code, _, err = _run(capsys, ["fit", data_file, "--k", "1"])
        assert code == 4
        assert "drifted" in err


class TestSelect:
    def test_report_structure(self, capsys, data_file):
        code, out, _ = _run(capsys, ["select", data_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "select"
        results = doc["results"]
        assert results["k_hat"] == 1
        assert [row["k"] for row in results["table"]] == [0, 1, 2, 3]
        assert results["best"]["breakpoints"] == [30]
        chosen = results["table"][1]
        assert chosen["feasible"]
        assert chosen["criterion"] == min(
            row["criterion"] for row in results["table"] if row["feasible"]
        )

    def test_bad_bn_exponent(self, capsys, data_file):
        code, _, _ = _run(capsys, ["select", data_file, "--bn-exponent", "0.8"])
        assert code == 2

    def test_k_max_respected(self, capsys, data_file):
        code, out, _ = _run(capsys, ["select", data_file, "--k-max", "1"])
        assert code == 0
        doc = json.loads(out)
        assert [row["k"] for row in doc["results"]["table"]] == [0, 1]


class TestSimulate:
    def test_scenario_file_run(self, capsys, scenario_file):
        code, out, _ = _run(
            capsys,
            ["simulate", "--scenario", scenario_file, "--reps", "3", "--workers", "1"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "simulate"
        assert doc["config"]["scenario"]["seed"] == 3  # file seed used
        assert doc["config"]["selection_mode"] == "fixed_k"
        assert doc["config"]["fixed_k"] == 1
        results = doc["results"]
        assert results["replications"] == 3
        assert results["completed"] == 3
        assert results["median_breakpoints"] == [20]

    def test_table_preset_run(self, capsys):
        code, out, _ = _run(
            capsys, ["simulate", "--table", "1", "--reps", "2", "--workers", "1"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["source"] == {"table": 1}
        assert doc["config"]["scenario"]["n"] == 50
        assert doc["config"]["scenario"]["breakpoints"] == [20, 35]

    def test_select_mode(self, capsys, scenario_file):
        code, out, _ = _run(
            capsys,
            [
                "simulate", "--scenario", scenario_file, "--reps", "2",
                "--workers", "1", "--select", "--k-max", "2",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["selection_mode"] == "criterion"
        assert doc["results"]["selected_k_counts"] is not None
        # a later call in the same process is back in fixed-K mode
        code, out, _ = _run(
            capsys, ["simulate", "--scenario", scenario_file, "--reps", "2", "--workers", "1"]
        )
        assert code == 0
        assert json.loads(out)["config"]["selection_mode"] == "fixed_k"

    def test_scenario_validation(self, capsys, tmp_path):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        code, _, _ = _run(capsys, ["simulate", "--scenario", str(bad_json)])
        assert code == 2

        not_object = tmp_path / "list.json"
        not_object.write_text("[1, 2]")
        code, _, _ = _run(capsys, ["simulate", "--scenario", str(not_object)])
        assert code == 2

        unknown_key = tmp_path / "unknown.json"
        unknown_key.write_text(
            json.dumps({"n": 30, "breakpoints": [], "coefficients": [[1.0]], "zap": 1})
        )
        code, _, err = _run(capsys, ["simulate", "--scenario", str(unknown_key)])
        assert code == 2
        assert "zap" in err

        missing_key = tmp_path / "missing.json"
        missing_key.write_text(json.dumps({"n": 30, "breakpoints": []}))
        code, _, err = _run(capsys, ["simulate", "--scenario", str(missing_key)])
        assert code == 2
        assert "coefficients" in err

    @pytest.mark.parametrize(
        "key, value, named",
        [("breakpoints", 5, "breakpoints"), ("breakpoints", [20.5], "breakpoints"),
         ("error_std", "a", "error_std"), ("error_std", None, "error_std"),
         ("error_std", math.nan, "error_std"), ("error_std", math.inf, "error_std"),
         ("coefficients", [[math.nan, 0.0], [0.0, -3.0]], "coefficient_vectors"),
         ("covariate_means", [math.inf, 0.0], "covariate_means"),
         ("coefficients", [[]], "coefficient_vectors")],
        ids=["breakpoints-int", "breakpoints-fraction", "error-std-string", "error-std-null",
             "error-std-nan", "error-std-infinity", "coefficient-nan", "mean-infinity",
             "no-coefficients"],
    )
    def test_scenario_value_of_wrong_type(self, capsys, scenario_file, tmp_path, key, value, named):
        # these crashed with a bare TypeError, truncated 20.5 to 20, or
        # (non-finite or empty values) failed every replication with exit 4
        doc = json.loads(open(scenario_file).read())
        doc[key] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        code, _, err = _run(
            capsys, ["simulate", "--scenario", str(path), "--reps", "2", "--workers", "1"]
        )
        assert code == 2
        assert str(path) in err and repr(named) in err

    def test_select_rejects_fixed_k(self, capsys):
        # the selection study used to run and report "fixed_k": null
        code, out, err = _run(
            capsys,
            ["simulate", "--table", "1", "--select", "--fixed-k", "2", "--reps", "2",
             "--workers", "1"],
        )
        assert code == 2
        assert out == ""
        assert "--fixed-k" in err


class TestSeedResolution:
    def _seed_of(self, capsys, argv):
        code, out, _ = _run(capsys, argv)
        assert code == 0
        return json.loads(out)["config"]["scenario"]["seed"]

    def test_flag_beats_file(self, capsys, scenario_file):
        argv = [
            "simulate", "--scenario", scenario_file, "--reps", "1",
            "--workers", "1", "--seed", "9",
        ]
        assert self._seed_of(capsys, argv) == 9

    def test_file_beats_env(self, capsys, scenario_file, monkeypatch):
        monkeypatch.setenv("SEGBREAK_SEED", "5")
        argv = ["simulate", "--scenario", scenario_file, "--reps", "1", "--workers", "1"]
        assert self._seed_of(capsys, argv) == 3

    def test_env_beats_default(self, capsys, scenario_file, tmp_path, monkeypatch):
        doc = json.loads(open(scenario_file).read())
        del doc["seed"]
        seedless = tmp_path / "seedless.json"
        seedless.write_text(json.dumps(doc))
        monkeypatch.setenv("SEGBREAK_SEED", "5")
        argv = ["simulate", "--scenario", str(seedless), "--reps", "1", "--workers", "1"]
        assert self._seed_of(capsys, argv) == 5

    def test_default_zero(self, capsys, scenario_file, tmp_path, monkeypatch):
        monkeypatch.delenv("SEGBREAK_SEED", raising=False)
        doc = json.loads(open(scenario_file).read())
        del doc["seed"]
        seedless = tmp_path / "seedless.json"
        seedless.write_text(json.dumps(doc))
        argv = ["simulate", "--scenario", str(seedless), "--reps", "1", "--workers", "1"]
        assert self._seed_of(capsys, argv) == 0

    def test_malformed_env_seed(self, capsys, scenario_file, tmp_path, monkeypatch):
        doc = json.loads(open(scenario_file).read())
        del doc["seed"]
        seedless = tmp_path / "seedless.json"
        seedless.write_text(json.dumps(doc))
        monkeypatch.setenv("SEGBREAK_SEED", "abc")
        code, _, err = _run(
            capsys,
            ["simulate", "--scenario", str(seedless), "--reps", "1", "--workers", "1"],
        )
        assert code == 2
        assert "SEGBREAK_SEED" in err


class TestWorkerDeterminism:
    def test_reports_byte_identical_across_worker_counts(
        self, scenario_file, tmp_path, capsys
    ):
        texts = []
        for workers in (1, 2):
            out_path = tmp_path / f"report_{workers}.json"
            code, _, _ = _run(
                capsys,
                [
                    "simulate", "--scenario", scenario_file, "--reps", "6",
                    "--workers", str(workers), "--out", str(out_path),
                ],
            )
            assert code == 0
            texts.append(out_path.read_bytes())
        assert texts[0] == texts[1]
