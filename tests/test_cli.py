"""End-to-end command-line checks: output bytes, exit codes, seed handling."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdl_compass
from cdl_compass import scm
from cdl_compass.cli import main
from cdl_compass.lattice import knowledge_state
from cdl_compass.registry import Catalog, MethodCard, save_catalog
from cdl_compass.scm import Dataset

CHAIN_GRAPH = "X -> Y\nY -> Z\n"
# Full conditional-independence signatures (with dependence statements), so
# each file pins down a single Markov equivalence class.
CHAIN_CONSTRAINTS = (
    "S _||_ D | C\n"
    "not S _||_ D\n"
    "not S _||_ C\n"
    "not S _||_ C | D\n"
    "not C _||_ D\n"
    "not C _||_ D | S\n"
)
COLLIDER_CONSTRAINTS = (
    "S _||_ D\n"
    "not S _||_ D | C\n"
    "not S _||_ C\n"
    "not S _||_ C | D\n"
    "not C _||_ D\n"
    "not C _||_ D | S\n"
)
# Pairwise marginal independence plus one conditional dependence: no DAG
# produces this pattern.
IMPOSSIBLE_CONSTRAINTS = (
    "S _||_ C\n"
    "C _||_ D\n"
    "S _||_ D\n"
    "not S _||_ C | D\n"
)
LINEAR_MODEL = (
    "graph:\n"
    "X -> Y\n"
    "equations:\n"
    "Y = 2 * X + U\n"
    "noise:\n"
    "U_X ~ Normal(0.0, 1.0)\n"
    "U_Y ~ Normal(0.0, 1.0)\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def declared_entry_point(name):
    """argv that starts the `[project.scripts]` target `name` in pyproject.toml
    the way pip's generated wrapper script starts it."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, func = target.split(":")
    code = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = {name!r}; sys.exit({func}())"
    )
    return [sys.executable, "-c", code]


def env_importing_this_package():
    """The environment with the directory holding the `cdl_compass` this
    suite imported put first on PYTHONPATH, so a child process imports it."""
    package_root = str(Path(cdl_compass.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    paths = [package_root, inherited] if inherited else [package_root]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def run_child(*argv):
    """``cdl-compass argv`` in a child process, so that a traceback or a numpy
    warning reaches its stderr."""
    return subprocess.run(
        [*declared_entry_point("cdl-compass"), *argv],
        capture_output=True,
        text=True,
        env=env_importing_this_package(),
        timeout=120,
    )


@pytest.fixture()
def chain_graph(tmp_path):
    path = tmp_path / "chain.graph"
    path.write_text(CHAIN_GRAPH)
    return str(path)


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "linear.scm"
    path.write_text(LINEAR_MODEL)
    return str(path)


@pytest.fixture()
def linear_csv(tmp_path, model_file, capsys):
    out = tmp_path / "linear.csv"
    assert main(["simulate", model_file, "--n", "200", "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    return str(out)


class TestDsep:
    def test_blocked(self, capsys, chain_graph):
        code, out, err = run_cli(
            capsys, "dsep", chain_graph, "--x", "X", "--y", "Z", "--given", "Y"
        )
        assert (code, out, err) == (0, "d-separated: true\n", "")

    def test_open(self, capsys, chain_graph):
        code, out, _ = run_cli(capsys, "dsep", chain_graph, "--x", "X", "--y", "Z")
        assert code == 0
        assert out == "d-separated: false\n"

    def test_comma_conditioning(self, capsys, chain_graph):
        code, out, _ = run_cli(
            capsys, "dsep", chain_graph, "--x", "X", "--y", "Z", "--given", "Y,"
        )
        assert out == "d-separated: true\n"

    @pytest.mark.parametrize(
        "given",
        [["B", "C"], ["B,C"], ["B C"], [" B,\tC, "], ["B", "C,"], ["B", "B", "C"], ["C,B,C"]],
    )
    def test_name_list_splits_on_commas_and_whitespace(self, capsys, tmp_path, given):
        path = tmp_path / "chain4.graph"
        path.write_text("A -> B\nB -> C\nC -> D\n")
        code, out, _ = run_cli(
            capsys, "dsep", str(path), "--x", "A", "--y", "D", "--given", *given,
            "--format", "json",
        )
        assert (code, json.loads(out)["given"]) == (0, ["B", "C"])

    def test_json(self, capsys, chain_graph):
        code, out, _ = run_cli(
            capsys,
            "dsep", chain_graph, "--x", "X", "--y", "Z", "--given", "Y", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "x": "X",
            "y": "Z",
            "given": ["Y"],
            "d_separated": True,
        }

    def test_unknown_node(self, capsys, chain_graph):
        code, out, err = run_cli(capsys, "dsep", chain_graph, "--x", "X", "--y", "Q")
        assert code == 1
        assert err.startswith("error:")
        assert "Q" in err

    def test_cyclic_graph_names_no_line(self, capsys, tmp_path):
        path = tmp_path / "cycle.graph"
        path.write_text("X -> Y\nY -> Z\nZ -> X\n")
        code, out, err = run_cli(capsys, "dsep", str(path), "--x", "X", "--y", "Z")
        assert (code, out) == (1, "")
        assert err.startswith("error: directed cycle: ")
        assert "line" not in err

    def test_overlapping_conditioning(self, capsys, chain_graph):
        code, _, err = run_cli(
            capsys, "dsep", chain_graph, "--x", "X", "--y", "Z", "--given", "X"
        )
        assert code == 1
        assert "conditioning" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "dsep", str(tmp_path / "nope.graph"), "--x", "X", "--y", "Y"
        )
        assert code == 1
        assert err.startswith("error:")

    def test_missing_required_flag_exits_2(self, capsys, chain_graph):
        with pytest.raises(SystemExit) as exc:
            main(["dsep", chain_graph, "--x", "X"])
        assert exc.value.code == 2


class TestMec:
    def test_chain_class(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(CHAIN_CONSTRAINTS)
        code, out, _ = run_cli(
            capsys, "mec", str(path), "--vars", "S,C,D", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 3
        assert sorted(map(tuple, payload["graphs"])) == [
            ("C -> D", "C -> S"),
            ("C -> D", "S -> C"),
            ("C -> S", "D -> C"),
        ]

    def test_collider_class(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(COLLIDER_CONSTRAINTS)
        code, out, _ = run_cli(capsys, "mec", str(path), "--vars", "S,C,D")
        assert code == 0
        assert out == "D -> C\nS -> C\n"

    def test_text_separates_graphs_with_blank_lines(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(CHAIN_CONSTRAINTS)
        code, out, _ = run_cli(capsys, "mec", str(path), "--vars", "S,C,D")
        assert out.count("\n\n") == 2

    def test_unsatisfiable(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(IMPOSSIBLE_CONSTRAINTS)
        code, out, _ = run_cli(capsys, "mec", str(path), "--vars", "S,C,D")
        assert code == 0
        assert out == "no consistent graph\n"

    def test_sparse_six_variable_set_is_refused(self, capsys, tmp_path):
        # Too few constraints on six variables would search 3^13 branches.
        path = tmp_path / "c.txt"
        path.write_text("V0 _||_ V1\nV2 _||_ V3\n")
        code, out, err = run_cli(capsys, "mec", str(path), "--vars", "V0,V1,V2,V3,V4,V5")
        assert code == 1
        assert out == ""
        assert err == (
            "error: the constraints leave 13 of 15 variable pairs undecided: "
            "1594323 search branches exceed the cap of 59049 (3^10)\n"
        )

    def test_bad_constraint_line(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("S _||_\n")
        code, _, err = run_cli(capsys, "mec", str(path), "--vars", "S,C,D")
        assert code == 1
        assert err.startswith("error:")

    def test_repeated_variable_counts_once(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(CHAIN_CONSTRAINTS)
        once = run_cli(capsys, "mec", str(path), "--vars", "S,C,D")
        assert run_cli(capsys, "mec", str(path), "--vars", "S,S,C,D,C") == once

    def test_cap_is_checked_before_the_file_is_read(self, capsys, tmp_path, monkeypatch):
        # A "| *" line states 2^(n-2) statements; at 20 variables reading it
        # takes seconds, so the file must not be read at all.
        from cdl_compass import graphs

        def unread(*_):
            raise AssertionError("the constraint file was read")

        monkeypatch.setattr(graphs, "parse_constraints", unread)
        star = tmp_path / "star.txt"
        star.write_text("not V0 _||_ V1 | *\n")
        twenty = ",".join(f"V{i}" for i in range(20))
        for path in (star, tmp_path / "missing.txt"):
            code, out, err = run_cli(capsys, "mec", str(path), "--vars", twenty)
            assert (code, out) == (1, "")
            assert err == "error: 20 variables exceed the enumeration cap of 7\n"


class TestSimulate:
    def test_header_and_shape(self, capsys, model_file):
        code, out, _ = run_cli(capsys, "simulate", model_file, "--n", "5")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "X,Y"
        assert len(lines) == 6

    def test_same_argv_same_bytes(self, capsys, model_file):
        first = run_cli(capsys, "simulate", model_file, "--n", "50")
        second = run_cli(capsys, "simulate", model_file, "--n", "50")
        assert first == second

    def test_default_seed_is_zero(self, capsys, model_file):
        plain = run_cli(capsys, "simulate", model_file, "--n", "20")
        seeded = run_cli(capsys, "simulate", model_file, "--n", "20", "--seed", "0")
        assert plain == seeded

    def test_output_ignores_the_environment(self, model_file, linear_csv):
        # Child processes, each with its own environment.  The seed comes
        # from --seed alone: CDL_COMPASS_SEED, which once replaced the
        # default, changes nothing.
        unset = env_importing_this_package()
        unset.pop("CDL_COMPASS_SEED", None)
        for argv in (
            ("simulate", model_file, "--n", "20"),
            ("test", linear_csv, "--test", "resid", "--x", "X", "--resid", "Y",
             "--permutations", "99"),
            ("anm", linear_csv, "--x", "X", "--y", "Y"),
        ):
            runs = [
                subprocess.run(
                    [*declared_entry_point("cdl-compass"), *argv],
                    capture_output=True,
                    env=env,
                    timeout=120,
                )
                for env in (unset, {**unset, "CDL_COMPASS_SEED": "7"})
            ]
            assert runs[0].returncode == 0, runs[0].stderr
            assert [(r.returncode, r.stdout, r.stderr) for r in runs[1:]] == [
                (0, runs[0].stdout, runs[0].stderr)
            ], argv

    def test_out_matches_stdout(self, capsys, tmp_path, model_file):
        streamed = run_cli(capsys, "simulate", model_file, "--n", "30", "--seed", "4")
        target = tmp_path / "sample.csv"
        code, out, _ = run_cli(
            capsys, "simulate", model_file, "--n", "30", "--seed", "4", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == streamed[1]

    def test_json(self, capsys, model_file):
        code, out, _ = run_cli(
            capsys, "simulate", model_file, "--n", "4", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["n"] == 4
        assert sorted(payload["columns"]) == ["X", "Y"]
        assert len(payload["columns"]["X"]) == 4

    @pytest.mark.parametrize(
        "fmt,unbuilt", [("text", "column"), ("json", "to_csv")], ids=["text", "json"]
    )
    def test_builds_only_the_chosen_form(self, capsys, model_file, monkeypatch, fmt, unbuilt):
        # the JSON form reads each column into a list; the text form formats the CSV
        want = run_cli(capsys, "simulate", model_file, "--n", "5", "--format", fmt)

        def unbuilt_form(*_):
            raise AssertionError(f"Dataset.{unbuilt} called")

        monkeypatch.setattr(Dataset, unbuilt, unbuilt_form)
        assert run_cli(capsys, "simulate", model_file, "--n", "5", "--format", fmt) == want

    def test_bad_model_file(self, capsys, tmp_path):
        path = tmp_path / "bad.scm"
        path.write_text("equations:\nY = X\n")
        code, _, err = run_cli(capsys, "simulate", str(path), "--n", "5")
        assert code == 1
        assert err.startswith("error:")

    def test_non_finite_values_exit_1(self, tmp_path):
        # A child process, so that a numpy warning would reach stderr.
        path = tmp_path / "overflow.scm"
        path.write_text(LINEAR_MODEL.replace("2 * X", "X * 1e300 * 1e300"))
        proc = subprocess.run(
            [*declared_entry_point("cdl-compass"), "simulate", str(path), "--n", "5"],
            capture_output=True,
            text=True,
            env=env_importing_this_package(),
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "'Y'" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_overflowing_noise_sum_exits_1(self, tmp_path):
        # A child process, so that a numpy warning would reach stderr.
        path = tmp_path / "overflow.scm"
        path.write_text(
            "graph:\nX -> Y\nequations:\nY = X * 1e308 + U\nnoise:\n"
            "U_X ~ Uniform(1.0, 1.5)\nU_Y ~ Normal(1e308, 1.0)\n"
        )
        proc = subprocess.run(
            [*declared_entry_point("cdl-compass"), "simulate", str(path), "--n", "5"],
            capture_output=True,
            text=True,
            env=env_importing_this_package(),
            timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: equation for 'Y': non-finite result from operator '+'\n"

    @pytest.mark.parametrize(
        "noise, message",
        [
            ("Uniform(0.0, inf)", "need finite high - low, got [0.0, inf]"),
            ("Uniform(-1e308, 1e308)", "need finite high - low, got [-1e+308, 1e+308]"),
        ],
    )
    def test_uniform_noise_of_infinite_width_names_its_line(self, tmp_path, noise, message):
        # numpy's uniform refused the width with an OverflowError traceback.
        path = tmp_path / "wide.scm"
        path.write_text(f"graph:\nX\nequations:\nnoise:\nU_X ~ {noise}\n")
        proc = run_child("simulate", str(path), "--n", "3", "--seed", "1")
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: line 5: {message}\n")

    def test_long_sum_samples(self, tmp_path):
        # The parser loops over the 3,000 terms and the program is flat, so
        # nothing recurses over the sum.
        def columns(body):
            path = tmp_path / "model.scm"
            path.write_text(LINEAR_MODEL.replace("2 * X", body))
            proc = run_child("simulate", str(path), "--n", "50", "--seed", "1")
            assert (proc.returncode, proc.stderr) == (0, "")
            header, *rows = proc.stdout.splitlines()
            assert header == "X,Y"
            return np.array([[float(v) for v in row.split(",")] for row in rows]).T

        x, y = columns(" + ".join(["0.5 * X"] * 3000))
        same_x, noise = columns("0.0")  # Y = 0.0 + U is U_Y's own column
        assert same_x.tobytes() == x.tobytes()
        total = 0.5 * x
        for _ in range(2999):
            total = total + 0.5 * x
        assert (total + noise).tobytes() == y.tobytes()

    def test_deep_parentheses_name_the_equation_line(self, tmp_path):
        # Nesting of any depth parses: the deep model samples as the bare
        # one does, and a fault at depth is named by its equation's line.
        def run(body):
            path = tmp_path / "deep.scm"
            path.write_text(LINEAR_MODEL.replace("2 * X", body))
            return run_child("simulate", str(path), "--n", "3", "--seed", "1")

        deep, bare = run("(" * 3000 + "X" + ")" * 3000), run("X")
        assert (deep.returncode, deep.stderr) == (bare.returncode, bare.stderr) == (0, "")
        assert deep.stdout == bare.stdout
        unfinished = run("(" * 3000 + "X")
        assert (unfinished.returncode, unfinished.stdout) == (1, "")
        assert unfinished.stderr == (
            "error: line 4: bad expression: byte 3001: expected ')', found end of input\n"
        )

    def test_refused_allocation_exits_1(self, capsys, monkeypatch, model_file):
        # A sampler that raises, never a real allocation: with overcommit a
        # huge block can be granted and the process killed when it is touched.
        def refuse(*_, **__):
            raise MemoryError(
                "Unable to allocate 2.18 TiB for an array with shape (3, 100000000000) "
                "and data type float64"
            )

        monkeypatch.setattr(scm, "sample", refuse)
        code, out, err = run_cli(capsys, "simulate", model_file, "--n", "100000000000")
        assert (code, out) == (1, "")
        assert err == (
            "error: Unable to allocate 2.18 TiB for an array with shape (3, 100000000000) "
            "and data type float64\n"
        )

    def test_refused_allocation_without_a_message(self, capsys, monkeypatch, model_file):
        # The interpreter's own MemoryError, unlike numpy's, carries no text.
        def refuse(*_, **__):
            raise MemoryError()

        monkeypatch.setattr(scm, "sample", refuse)
        code, out, err = run_cli(capsys, "simulate", model_file, "--n", "3")
        assert (code, out, err) == (1, "", "error: out of memory\n")

    def test_node_named_like_a_noise_symbol(self, capsys, tmp_path):
        # Y := 2 * U_Z would read the key Z's noise, not the node U_Z.
        path = tmp_path / "shadow.scm"
        path.write_text(
            "graph:\nU_Z -> Y\nZ\nequations:\nY := 2 * U_Z\nnoise:\n"
            "U_Z ~ Normal(0, 1)\nU_U_Z ~ Normal(5, 0.001)\n"
        )
        code, out, err = run_cli(capsys, "simulate", str(path), "--n", "5")
        assert code == 1
        assert out == ""
        assert err == (
            "error: graph node 'U_Z' has the name of the noise symbol of noise key 'Z'\n"
        )

    def test_bad_graph_line_names_file_line(self, capsys, tmp_path):
        path = tmp_path / "bad.scm"
        path.write_text(LINEAR_MODEL.replace("graph:\n", "graph:\n# edges\nX\nY => Z\n"))
        code, out, err = run_cli(capsys, "simulate", str(path), "--n", "5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 4: graph section: expected 'a -> b'")
        assert "line 0" not in err and "line 2" not in err


class TestAssumptionTests:
    def test_ks_runs(self, capsys, linear_csv):
        code, out, _ = run_cli(capsys, "test", linear_csv, "--test", "ks", "--column", "X")
        assert code == 0
        assert out.startswith("test: ks\n")
        assert "decision: fail_to_reject" in out
        assert "bears_on: noise_model" in out

    def test_ks_uniform_reference_rejects_gaussian(self, capsys, linear_csv):
        code, out, _ = run_cli(
            capsys,
            "test", linear_csv, "--test", "ks", "--column", "X", "--uniform", "0", "1",
        )
        assert code == 0
        assert "decision: reject_null" in out

    def test_jb_runs(self, capsys, linear_csv):
        code, out, _ = run_cli(capsys, "test", linear_csv, "--test", "jb", "--column", "Y")
        assert code == 0
        assert "test: jarque_bera" in out

    def test_cusum_runs(self, capsys, linear_csv):
        code, out, _ = run_cli(
            capsys, "test", linear_csv, "--test", "cusum", "--x", "X", "--y", "Y"
        )
        assert code == 0
        assert "test: cusum" in out
        assert "advisory:" in out
        assert "decision: fail_to_reject" in out

    @pytest.fixture()
    def three_columns(self, tmp_path):
        x, y, z = np.random.default_rng(2).normal(size=(3, 80))
        path = tmp_path / "xyz.csv"
        Dataset({"X": x, "Y": y, "Z": z}).to_csv(str(path))
        return str(path)

    def test_pcorr_repeated_given_counts_once(self, capsys, three_columns):
        argv = ("test", three_columns, "--test", "pcorr", "--x", "X", "--y", "Y", "--given")
        code, out, err = run_cli(capsys, *argv, "Z,Z")
        assert (code, out, err) == run_cli(capsys, *argv, "Z")
        assert code == 0

    def test_pcorr_given_may_not_repeat_x(self, capsys, three_columns):
        code, out, err = run_cli(
            capsys, "test", three_columns, "--test", "pcorr", "--x", "X", "--y", "Y",
            "--given", "X",
        )
        assert (code, out) == (1, "")
        assert err == "error: variables must be distinct, got ['X', 'Y', 'X']\n"

    def test_pcorr_runs(self, capsys, linear_csv):
        code, out, _ = run_cli(
            capsys, "test", linear_csv, "--test", "pcorr", "--x", "X", "--y", "Y"
        )
        assert code == 0
        assert "test: partial_correlation" in out
        assert "decision: reject_null" in out
        assert "bears_on: plausible" in out

    @pytest.mark.parametrize("rows", [0, 1, 2, 3])
    def test_pcorr_on_too_few_rows_prints_one_error(self, tmp_path, rows):
        # A child process, so that a numpy warning would reach stderr.
        path = tmp_path / "few.csv"
        path.write_text("X,Y\n" + "".join(f"{i},{i * i % 5}\n" for i in range(rows)))
        proc = subprocess.run(
            [*declared_entry_point("cdl-compass"), "test", str(path), "--test", "pcorr",
             "--x", "X", "--y", "Y"],
            capture_output=True,
            text=True,
            env=env_importing_this_package(),
            timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: need more than 3 samples for 0 conditioners, got {rows}\n"

    def test_pcorr_names_a_non_finite_column(self, capsys, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("X,Y\n" + "".join(f"{i},{i % 3}\n" for i in range(9)) + "9,-inf\n")
        code, out, err = run_cli(
            capsys, "test", str(path), "--test", "pcorr", "--x", "X", "--y", "Y"
        )
        assert (code, out, err) == (1, "", "error: Y contains non-finite values\n")

    def test_ks_against_a_nan_mean_exits_1(self):
        # 400 rows take the asymptotic p-value, whose series never ended on
        # the NaN statistic; a child process, so that a hang fails the test.
        data = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "data.csv"
        proc = subprocess.run(
            [*declared_entry_point("cdl-compass"), "test", str(data), "--test", "ks",
             "--column", "X", "--mu", "nan"],
            capture_output=True,
            text=True,
            env=env_importing_this_package(),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: mu must be finite, got nan\n"

    def test_ks_at_an_extreme_scale_warns_nothing(self):
        # (v - mu) / sigma overflows; on Python floats it does so silently,
        # where numpy's scalars printed a RuntimeWarning.
        data = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "data.csv"
        proc = run_child(
            "test", str(data), "--test", "ks", "--column", "X", "--mu", "1e308", "--sigma", "1e-308"
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "statistic: 1.0\np_value: 0.0\n" in proc.stdout

    def test_resid_deterministic(self, capsys, linear_csv):
        argv = (
            "test", linear_csv, "--test", "resid",
            "--x", "X", "--resid", "Y", "--permutations", "99",
        )
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
        assert first[0] == 0

    def test_json_report(self, capsys, linear_csv):
        code, out, _ = run_cli(
            capsys,
            "test", linear_csv, "--test", "ks", "--column", "X", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["test"] == "ks"
        assert payload["decision"] == "fail_to_reject"

    def test_missing_columns_exit_2(self, capsys, linear_csv):
        code, out, err = run_cli(capsys, "test", linear_csv, "--test", "cusum")
        assert code == 2
        assert err == "usage error: test 'cusum' requires --x, --y\n"
        assert out == ""

    def test_missing_flag_reported_before_the_file_is_read(self, capsys, tmp_path):
        missing = str(tmp_path / "nonexistent.csv")
        code, out, err = run_cli(capsys, "test", missing, "--test", "ks")
        assert (code, out, err) == (2, "", "usage error: test 'ks' requires --column\n")

    def test_partially_missing(self, capsys, linear_csv):
        code, _, err = run_cli(
            capsys, "test", linear_csv, "--test", "resid", "--x", "X"
        )
        assert code == 2
        assert err == "usage error: test 'resid' requires --resid\n"

    def test_unknown_column(self, capsys, linear_csv):
        code, _, err = run_cli(capsys, "test", linear_csv, "--test", "jb", "--column", "Q")
        assert code == 1
        assert err.startswith("error:")

    def test_overlong_quoted_field_exits_1(self, capsys, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text('X\n1.0\n"' + "1" * 131073 + '"\n')
        code, out, err = run_cli(capsys, "test", str(path), "--test", "jb", "--column", "X")
        assert code == 1
        assert out == ""
        assert err.startswith("error: row 3: field larger than field limit")

    def test_alpha_passthrough(self, capsys, linear_csv):
        code, out, _ = run_cli(
            capsys,
            "test", linear_csv, "--test", "ks", "--column", "X", "--alpha", "0.01",
        )
        assert "alpha: 0.01" in out


class TestAnm:
    @pytest.fixture()
    def cubic_csv(self, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 1.0, 120)
        y = x**3 + rng.uniform(-0.1, 0.1, 120)
        path = tmp_path / "cubic.csv"
        Dataset({"x": x, "y": y}).to_csv(str(path))
        return str(path)

    def test_direction_text(self, capsys, cubic_csv):
        code, out, _ = run_cli(capsys, "anm", cubic_csv, "--x", "x", "--y", "y")
        assert code == 0
        assert out.startswith("direction: x_to_y\n")
        assert "forward:" in out and "backward:" in out

    def test_direction_json(self, capsys, cubic_csv):
        code, out, _ = run_cli(
            capsys, "anm", cubic_csv, "--x", "x", "--y", "y", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["direction"] == "x_to_y"
        assert payload["forward"]["decision"] == "fail_to_reject"
        assert payload["backward"]["decision"] == "reject_null"

    def test_deterministic(self, capsys, cubic_csv):
        first = run_cli(capsys, "anm", cubic_csv, "--x", "x", "--y", "y", "--seed", "2")
        second = run_cli(capsys, "anm", cubic_csv, "--x", "x", "--y", "y", "--seed", "2")
        assert first == second


class TestCatalogCommands:
    def test_list_all(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "list")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert len(lines) == 16
        assert lines[0].startswith("backdoor-adjust: ")
        assert lines == sorted(lines)

    def test_list_line_format(self, capsys):
        _, out, _ = run_cli(capsys, "catalog", "list")
        resit = next(l for l in out.split("\n") if l.startswith("resit:"))
        assert resit.startswith(
            "resit: unknown:noise_model:static -> causal:noise_model:static  ("
        )
        assert resit.endswith(")")

    def test_list_temporal(self, capsys):
        _, out, _ = run_cli(capsys, "catalog", "list", "--temporal", "temporal")
        ids = [line.split(":")[0] for line in out.rstrip("\n").split("\n")]
        assert ids == ["msm", "ode-discovery", "pcmci", "var-granger"]

    @pytest.mark.parametrize(
        "flags",
        [("--temporal", "weekly"), ("--min-a-posteriori", "causal:noise_model:weekly")],
        ids=["temporal", "triple"],
    )
    def test_bad_temporal_label_one_rule(self, capsys, flags):
        code, out, err = run_cli(capsys, "catalog", "list", *flags)
        assert (code, out) == (1, "")
        assert err == (
            "error: unknown TemporalFlag label 'weekly'; expected one of static, temporal\n"
        )

    def test_list_tag(self, capsys):
        _, out, _ = run_cli(capsys, "catalog", "list", "--tag", "ignorability")
        ids = [line.split(":")[0] for line in out.rstrip("\n").split("\n")]
        assert ids == ["backdoor-adjust", "cate-forest", "dml", "iptw", "msm"]

    def test_list_reachability_filter(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "catalog", "list",
            "--temporal", "temporal",
            "--min-a-posteriori", "causal:nonparametric:temporal",
        )
        ids = [line.split(":")[0] for line in out.rstrip("\n").split("\n")]
        assert ids == ["msm", "ode-discovery"]

    def test_list_empty(self, capsys):
        code, out, _ = run_cli(
            capsys, "catalog", "list", "--min-a-posteriori", "causal:fully_known:static"
        )
        assert code == 0
        assert out == "no matching cards\n"

    def test_list_json(self, capsys):
        _, out, _ = run_cli(capsys, "catalog", "list", "--format", "json")
        payload = json.loads(out)
        assert [c["id"] for c in payload][:2] == ["backdoor-adjust", "cate-forest"]

    def test_list_bad_triple(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "list", "--min-a-posteriori", "causal")
        assert code == 1
        assert err.startswith("error:")

    def test_show_text(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "show", "resit")
        assert code == 0
        assert "id: resit\n" in out
        assert "a_priori: unknown:noise_model:static\n" in out
        assert "testability:" in out
        assert "a_priori parametric noise_model: testable" in out
        assert "a_posteriori structural causal: untestable" in out

    def test_show_json_has_tiers(self, capsys):
        _, out, _ = run_cli(capsys, "catalog", "show", "pc", "--format", "json")
        payload = json.loads(out)
        assert payload["id"] == "pc"
        assert payload["testability"]["a_priori"]["structural"] == "no_tests_needed"
        assert payload["testability"]["a_posteriori"]["structural"] == "testable"

    def test_show_unknown(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "show", "nope")
        assert code == 1
        assert err == "error: no card with id 'nope'\n"

    def test_custom_catalog(self, capsys, tmp_path):
        card = MethodCard(
            id="only-card",
            name="Only card",
            citation_key="doe2020only",
            a_priori=knowledge_state("unknown", "nonparametric", "static"),
            a_posteriori=knowledge_state("plausible", "nonparametric", "static"),
        )
        path = tmp_path / "cat.json"
        save_catalog(Catalog([card]), str(path))
        code, out, _ = run_cli(capsys, "catalog", "list", "--catalog", str(path))
        assert code == 0
        assert out.startswith("only-card: ")

    def test_broken_catalog_file(self, capsys, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text('{"not": "a list"}')
        code, _, err = run_cli(capsys, "catalog", "list", "--catalog", str(path))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", [("catalog", "list"), ("audit",)])
    @pytest.mark.parametrize(
        "side,field,value,message",
        [
            (
                "a_priori",
                "structural",
                1,
                "error: card 1: a_priori: unknown StructuralTag label 1; "
                "expected one of unknown, plausible, causal\n",
            ),
            (
                "a_posteriori",
                "temporal",
                ["static"],
                "error: card 1: a_posteriori: unknown TemporalFlag label ['static']; "
                "expected one of static, temporal\n",
            ),
        ],
        ids=["structural-int", "temporal-list"],
    )
    def test_state_field_that_is_not_a_label(
        self, capsys, tmp_path, command, side, field, value, message
    ):
        card = {
            "id": "only-card",
            "name": "Only card",
            "citation_key": "doe2020only",
            "a_priori": {
                "structural": "unknown",
                "parametric": "nonparametric",
                "temporal": "static",
            },
            "a_posteriori": {
                "structural": "plausible",
                "parametric": "nonparametric",
                "temporal": "static",
            },
            "assumption_tags": [],
            "notes": "",
        }
        card[side][field] = value
        path = tmp_path / "cat.json"
        path.write_text(json.dumps([card]))
        code, out, err = run_cli(capsys, *command, "--catalog", str(path))
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("command", [("catalog", "list"), ("audit",)])
    def test_card_that_is_not_an_object(self, capsys, tmp_path, command):
        path = tmp_path / "cat.json"
        path.write_text("[1]")
        code, out, err = run_cli(capsys, *command, "--catalog", str(path))
        assert (code, out, err) == (1, "", "error: card 1: a card is a JSON object, not int\n")


class TestValidateCommand:
    def pipeline(self, tmp_path, ids):
        path = tmp_path / "pipe.json"
        path.write_text(json.dumps(ids))
        return str(path)

    def test_valid_pipeline(self, capsys, tmp_path):
        path = self.pipeline(tmp_path, ["resit", "decaf"])
        code, out, _ = run_cli(
            capsys, "validate", path, "--start", "unknown:noise_model:static"
        )
        assert code == 0
        assert out.rstrip("\n").endswith("VALID: final state causal:noise_model:static")

    def test_invalid_pipeline(self, capsys, tmp_path):
        path = self.pipeline(tmp_path, ["decaf"])
        code, out, _ = run_cli(
            capsys, "validate", path, "--start", "unknown:noise_model:static"
        )
        assert code == 1
        assert "INVALID: stage 1 (decaf)" in out

    def test_line_format_pipeline(self, capsys, tmp_path):
        path = tmp_path / "pipe.txt"
        path.write_text("# two stages\nresit\ndecaf\n")
        code, out, _ = run_cli(
            capsys, "validate", str(path), "--start", "unknown:noise_model:static"
        )
        assert code == 0

    def test_unknown_card(self, capsys, tmp_path):
        path = self.pipeline(tmp_path, ["nope"])
        code, _, err = run_cli(
            capsys, "validate", path, "--start", "unknown:noise_model:static"
        )
        assert code == 1
        assert err == "error: no card with id 'nope'\n"

    def test_bad_start(self, capsys, tmp_path):
        path = self.pipeline(tmp_path, ["resit"])
        code, _, err = run_cli(capsys, "validate", path, "--start", "wat")
        assert code == 1
        assert err.startswith("error:")

    def test_json_output(self, capsys, tmp_path):
        path = self.pipeline(tmp_path, ["decaf"])
        code, out, _ = run_cli(
            capsys,
            "validate", path, "--start", "unknown:noise_model:static",
            "--format", "json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["overall"] is False
        assert payload["stages"][0]["card"] == "decaf"


class TestPlanCommand:
    def test_finds_plan(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "plan",
            "--start", "unknown:noise_model:static",
            "--goal", "causal:nonparametric:static",
        )
        assert code == 0
        assert out == "resit\n"

    def test_json_is_bare_array(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "plan",
            "--start", "unknown:noise_model:static",
            "--goal", "causal:nonparametric:static",
            "--format", "json",
        )
        assert json.loads(out) == [["resit"]]

    def test_json_runs_no_transition_audit(self, capsys, monkeypatch):
        # --show-relaxing marks only the text form
        from cdl_compass import engine

        argv = (
            "plan", "--start", "unknown:noise_model:static",
            "--goal", "causal:nonparametric:static", "--format", "json",
        )
        want = run_cli(capsys, *argv)

        def no_audit(*_):
            raise AssertionError("audit_transitions called")

        monkeypatch.setattr(engine, "audit_transitions", no_audit)
        assert run_cli(capsys, *argv, "--show-relaxing") == want

    def test_no_plan(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "plan",
            "--start", "unknown:noise_model:static",
            "--goal", "causal:fully_known:static",
        )
        assert code == 0
        assert out == "no plan found\n"

    def test_strict_empty_exits_1(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "plan",
            "--start", "unknown:noise_model:static",
            "--goal", "causal:fully_known:static",
            "--strict", "--format", "json",
        )
        assert code == 1
        assert json.loads(out) == []

    def test_strict_with_plan_exits_0(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "plan",
            "--start", "unknown:noise_model:static",
            "--goal", "causal:nonparametric:static",
            "--strict",
        )
        assert code == 0

    def test_already_satisfied(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "plan",
            "--start", "causal:fully_known:static",
            "--goal", "plausible:nonparametric:static",
        )
        assert code == 0
        assert out == "(already satisfied)\n"

    def test_max_len_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "plan",
            "--start", "unknown:noise_model:static",
            "--goal", "causal:nonparametric:static",
            "--max-len", "0",
        )
        assert out == "no plan found\n"

    def test_show_relaxing_markers(self, capsys, tmp_path):
        relax = MethodCard(
            id="fit-forms",
            name="Fit functional forms",
            citation_key="test2020relax",
            a_priori=knowledge_state("causal", "nonparametric", "static"),
            a_posteriori=knowledge_state("plausible", "fully_known", "static"),
        )
        discover = MethodCard(
            id="orient-all",
            name="Orient all edges",
            citation_key="test2020orient",
            a_priori=knowledge_state("unknown", "nonparametric", "static"),
            a_posteriori=knowledge_state("causal", "nonparametric", "static"),
        )
        path = tmp_path / "cat.json"
        save_catalog(Catalog([relax, discover]), str(path))
        code, out, _ = run_cli(
            capsys,
            "plan", "--catalog", str(path),
            "--start", "unknown:nonparametric:static",
            "--goal", "causal:fully_known:static",
            "--show-relaxing",
        )
        assert code == 0
        assert out == "orient-all -> ~fit-forms\n"


class TestAuditCommand:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "audit")
        assert code == 0
        assert out.rstrip("\n").endswith(
            "counts: none=7  structural=8  parametric=1  both=0"
        )

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--format", "json")
        payload = json.loads(out)
        assert payload["counts"] == {
            "none": 7,
            "structural": 8,
            "parametric": 1,
            "both": 0,
        }
        assert payload["relaxing"] == []


@pytest.mark.parametrize(
    "argv, noun",
    [
        (["validate", "{path}", "--start", "unknown:noise_model:static"], "pipeline file"),
        (["catalog", "list", "--catalog", "{path}"], "catalog file"),
        (["audit", "--catalog", "{path}"], "catalog file"),
    ],
    ids=["validate", "catalog-list", "audit"],
)
def test_deeply_nested_json_is_refused_by_name(tmp_path, argv, noun):
    # json's decoder recurses once per level, so a file nested past the
    # recursion limit is refused by name, with no traceback.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    proc = run_child(*(arg.format(path=path) for arg in argv))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: a {noun} nests too deeply\n"


class TestParserBehaviour:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--loud"])
        assert exc.value.code == 2

    def test_console_script_installed(self, capsys):
        # A source checkout run with PYTHONPATH=src has no installed script, so
        # the declared entry point is always started as pip's wrapper would
        # start it; an installed script on PATH is checked as well.
        in_process = run_cli(capsys, "audit")
        exe = shutil.which("cdl-compass")
        if exe is not None:
            proc = subprocess.run(
                [exe, "audit"], capture_output=True, text=True, check=True
            )
            assert proc.stdout == in_process[1]
        proc = subprocess.run(
            [*declared_entry_point("cdl-compass"), "audit"],
            capture_output=True,
            text=True,
            check=True,
            env=env_importing_this_package(),
        )
        assert proc.stdout == in_process[1]
