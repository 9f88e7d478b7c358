"""Golden digests of the command line's front end.

Each case is an argv run in process through ``cli.main``; ``golden/front_end.json``
holds its exit code (argparse's own exit code for a usage error it finds) and
the SHA-256 of its stdout and of its stderr.  The cases run the bench
fixtures through every subcommand in both formats, ``anm`` in both formats
on a tie-heavy CSV the harness writes, ``test`` on small CSVs holding a
non-finite value or too few rows, Normal and Uniform parameters out of
range for the ``ks`` reference and for a model's noise, ``sample``'s columns at
n = 2000 for three models and two seeds, the usage errors that exit 2, every
format error of the graph, constraint, model, expression and pipeline readers
that the CLI and model tests raise, and the ways names, labels and catalog
sources are given on the command line, so a rewrite of those readers must
keep every output byte.  The file also holds, under ``sample``, the SHA-256
of the bench's wide 1000-variable model and narrow chain and of the columns
``sample`` draws from each, in process, at the sizes the bench draws them.

The digests pin the numpy build that made them, whose ``exp``, ``log`` and
``sin`` may round otherwise elsewhere, and the Python version, whose argparse
words the usage errors: on another numpy, Python or platform the test fails
rather than skips.  Regenerate the file, as a deliberate act, with::

    PYTHONPATH=src python tests/test_front_end_golden.py --write

which prints every argv it adds, removes or changes against the old file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from cdl_compass.cli import main
from cdl_compass.scm import parse_scm, sample

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent / "bench"
FIXTURES = BENCH / "fixtures"
GOLDEN = HERE / "golden" / "front_end.json"

LINEAR_MODEL = (
    "graph:\n"
    "X -> Y\n"
    "equations:\n"
    "Y = 2 * X + U\n"
    "noise:\n"
    "U_X ~ Normal(0.0, 1.0)\n"
    "U_Y ~ Normal(0.0, 1.0)\n"
)


def _model_with_equation(equation: str) -> str:
    return LINEAR_MODEL.replace("Y = 2 * X + U", equation)


CHAIN_MODEL = (
    "graph:\n"
    "A -> B\nB -> C\nC -> D\n"
    "equations:\n"
    "B = 0.5 * A + U\n"
    "C := exp(0 - B * B) + U_C\n"
    "D = -1.5 * C + U\n"
    "noise:\n"
    "U_A ~ Normal(0.0, 1.0)\n"
    "U_B ~ Normal(0.0, 0.5)\n"
    "U_C ~ Uniform(-0.25, 0.25)\n"
    "U_D ~ Normal(1.0, 2.0)\n"
)
CUBIC_MODEL = (
    "graph:\nX -> Y\nW\nequations:\nY = X ** 3 + U\n"
    "noise:\nU_X ~ Uniform(0.0, 1.0)\nU_Y ~ Uniform(-0.1, 0.1)\nU_W ~ Normal(0.0, 1.0)\n"
)
# A one-card catalog; its file name starts with "[".
CATALOG = (
    '[{"id": "only-card", "name": "Only card", "citation_key": "doe2020only", '
    '"a_priori": {"structural": "unknown", "parametric": "nonparametric", '
    '"temporal": "static"}, '
    '"a_posteriori": {"structural": "plausible", "parametric": "nonparametric", '
    '"temporal": "static"}, '
    '"assumption_tags": ["faithfulness"], "notes": ""}]\n'
)


def _tie_heavy_csv(seed: int = 1, n: int = 300) -> str:
    """X rounded to integers and Y = X plus noise: the backward direction
    smooths X against Y, so its residuals hold long runs that agree up to
    rounding."""
    rng = np.random.default_rng(seed)
    x = np.rint(rng.normal(0.0, 1.5, n))
    y = x + 0.3 * rng.normal(0.0, 1.0, n)
    return "X,Y\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(x, y))


# Input files by name; an argv names one as ``@<name>``, which runs as the
# relative path ``<name>`` from the directory that holds them, and a bench
# fixture as ``fixtures/<name>``.
INPUTS = {
    # graphs
    "crlf.graph": "X -> Y\r\nY -> Z  # trailing comment\r\n",
    "cycle.graph": "X -> Y\nY -> Z\nZ -> X\n",
    "bad_arrow.graph": "# header\nX -> Y\n\nY => Z\n",
    "two_names.graph": "X Y\n",
    "self_loop.graph": "X -> X\n",
    "mixed.graph": "X -> Y\nX -- Y\n",
    "undirected.graph": "X -- Y\nY -> Z\n",
    "empty.graph": "# nothing here\n\n",
    # names that are no identifier
    "comma_name.graph": "A,B -> C\nA\nD\n",
    "dash_name.graph": "X-1 -> Y\n",
    "zero_width.graph": "A\u200b -> B\n",
    # constraints
    "chain.constraints": (
        "S _||_ D | C\nnot S _||_ D\nnot S _||_ C\n"
        "not S _||_ C | D\nnot C _||_ D\nnot C _||_ D | S\n"
    ),
    "impossible.constraints": "S _||_ C\nC _||_ D\nS _||_ D\nnot S _||_ C | D\n",
    "star.constraints": "# all subsets\nnot C _||_ D | *\nS _||_ D | C\n",
    "sparse.constraints": "V0 _||_ V1\nV2 _||_ V3\n",
    "no_y.constraints": "S _||_\n",
    "no_marker.constraints": "S C\n",
    "two_x.constraints": "S C _||_ D\n",
    "undeclared_x.constraints": "Q _||_ S\n",
    "undeclared_y.constraints": "S _||_ Q | C\n",
    "undeclared_given.constraints": "S _||_ D | C, Q\n",
    "undeclared_star.constraints": "S _||_ Q | *\n",
    "overlap.constraints": "\nS _||_ D | S\n",
    "contradiction.constraints": "S _||_ D\nnot S _||_ D\n",
    "self_star.constraints": "S _||_ S | *\n",
    "star_cap.constraints": "not V0 _||_ V1 | *\n",
    "bar_left.constraints": "not A|B _||_ C\n",
    "bar_right.constraints": "not C _||_ A|B\n",
    # every pair of seven variables dependent given every subset: the
    # complete graph's class, all 5,040 orderings of V0..V6
    "complete7.constraints": "".join(
        f"not V{i} _||_ V{j} | *\n" for i in range(7) for j in range(i + 1, 7)
    ),
    # the same less the pair V0, V1, which is independent: the 120 orderings
    # with V0 and V1 first
    "complete7_less_one.constraints": "V0 _||_ V1\n" + "".join(
        f"not V{i} _||_ V{j} | *\n" for i in range(7) for j in range(i + 1, 7) if j > 1
    ),
    # five variables with six pairs left undecided
    "undecided5.constraints": "V0 _||_ V2 | V1\nnot V0 _||_ V1 | *\nnot V1 _||_ V2 | *\nV3 _||_ V4\n",
    # models
    "linear.scm": LINEAR_MODEL,
    "commented.scm": LINEAR_MODEL.replace("graph:", "# model\ngraph:  # sections"),
    "unknown_section.scm": "stuff:\n",
    "before_header.scm": "X -> Y\ngraph:\n",
    "no_plus_u.scm": "equations:\nY = X\n",
    "missing_u.scm": _model_with_equation("Y = 2 * X"),
    "no_operator.scm": _model_with_equation("Y ~ 2 * X"),
    "poisson.scm": LINEAR_MODEL.replace("U_Y ~ Normal(0.0, 1.0)", "U_Y ~ Poisson(3)"),
    "bad_sigma.scm": LINEAR_MODEL.replace("U_Y ~ Normal(0.0, 1.0)", "U_Y ~ Normal(0.0, -1.0)"),
    "duplicate_noise.scm": LINEAR_MODEL + "U_Y ~ Normal(0.0, 2.0)\n",
    "duplicate_equation.scm": _model_with_equation("Y = 2 * X + U\nY := X"),
    "not_a_node.scm": _model_with_equation("Z = 2 * X + U"),
    "undirected.scm": "graph:\nA -- B\nequations:\nnoise:\n",
    "graph_line.scm": LINEAR_MODEL.replace("graph:\n", "graph:\n\n# edges\nX\nY => Z\n"),
    "graph_line_cli.scm": LINEAR_MODEL.replace("graph:\n", "graph:\n# edges\nX\nY => Z\n"),
    "cycle.scm": "graph:\nX -> Y\nY -> X\nequations:\nnoise:\n",
    "no_noise.scm": "graph:\nX\nequations:\nnoise:\n",
    # a node that no equation or noise line can name
    "dash_name.scm": "graph:\nX-1 -> Y\nequations:\nY := 1.0\nnoise:\n",
    "shadow.scm": (
        "graph:\nU_Z -> Y\nZ\nequations:\nY := 2 * U_Z\nnoise:\n"
        "U_Z ~ Normal(0, 1)\nU_U_Z ~ Normal(5, 0.001)\n"
    ),
    "undeclared_symbol.scm": _model_with_equation("Y := X + U_Q"),
    "overflow.scm": _model_with_equation("Y = X * 1e300 * 1e300 + U"),
    "chain.scm": CHAIN_MODEL,
    "cubic.scm": CUBIC_MODEL,
    # noise parameters out of range, on a node with no children
    "normal_inf.scm": "graph:\nX\nequations:\nnoise:\nU_X ~ Normal(0.0, inf)\n",
    "normal_nan.scm": "graph:\nX\nequations:\nnoise:\nU_X ~ Normal(nan, 1.0)\n",
    "normal_huge.scm": "graph:\nX\nequations:\nnoise:\nU_X ~ Normal(0.0, 1e308)\n",
    # expressions, inside model equations
    "expr_char.scm": _model_with_equation("Y = 2 * @X + U"),
    "expr_function.scm": _model_with_equation("Y := foo(X) + U_Y"),
    "expr_zero.scm": _model_with_equation("Y = X / 0.0 + U"),
    "expr_paren.scm": _model_with_equation("Y := (X + 1"),
    "expr_trailing.scm": _model_with_equation("Y := X X"),
    "expr_nbsp.scm": _model_with_equation("Y := X +\u00a0\u00a0@"),
    "expr_em_space.scm": _model_with_equation("Y := X\u2003* \u00e9"),
    "expr_empty.scm": _model_with_equation("Y :="),
    "expr_infinite.scm": _model_with_equation("Y = 1e999 * X + U"),
    "expr_power.scm": _model_with_equation("Y := 2 ** ** X"),
    "expr_dollar.scm": _model_with_equation("Y := exp($)"),
    # pipelines
    "unknown_card.json": '["nope"]\n',
    "not_ids.json": "[1, 2]\n",
    "truncated.json": '["resit",\n',
    "lines.pipeline": "# two stages\nresit\n\ndecaf  # last\n",
    "empty.pipeline": "\n  # only a comment\n",
    # catalogs
    "[cat].json": CATALOG,
    "number_name.catalog": CATALOG.replace('"Only card"', "7"),
    # data
    "ties.csv": _tie_heavy_csv(),
    "inf.csv": "X,Y,Z\n1,2,3\n2,inf,4\n3,5,1\n4,1,2\n5,3,3\n",
    "three_rows.csv": "X,Y,Z\n1,2,3\n2,1,4\n3,5,1\n",
    "four_rows.csv": "X,Y\n1,2\n2,1\n3,5\n4,4\n",
}

START = ("--start", "unknown:noise_model:static")
DATA = "fixtures/data.csv"
CASES = [
    # the bench fixtures, in both formats
    ("dsep", "fixtures/dag.graph", "--x", "A", "--y", "G"),
    ("dsep", "fixtures/dag.graph", "--x", "A", "--y", "F", "--given", "E", "--format", "json"),
    ("mec", "fixtures/smoking.constraints", "--vars", "S,C,D"),
    ("mec", "fixtures/smoking.constraints", "--vars", "S,C,D", "--format", "json"),
    ("simulate", "fixtures/model.scm", "--n", "5", "--seed", "0"),
    ("simulate", "fixtures/model.scm", "--n", "3", "--seed", "7", "--format", "json"),
    ("validate", "fixtures/pipeline.json", *START),
    ("validate", "fixtures/pipeline.json", *START, "--format", "json"),
    ("plan", *START, "--goal", "causal:nonparametric:static", "--show-relaxing"),
    ("plan", *START, "--goal", "causal:nonparametric:static", "--format", "json"),
    ("plan", *START, "--goal", "causal:fully_known:static", "--strict"),
    ("audit",),
    ("audit", "--format", "json"),
    ("catalog", "list"),
    ("catalog", "list", "--format", "json"),
    ("catalog", "show", "resit"),
    ("catalog", "show", "resit", "--format", "json"),
    *[
        (*argv, *fmt)
        for argv in (
            ("test", DATA, "--test", "ks", "--column", "X"),
            ("test", DATA, "--test", "ks", "--column", "E", "--uniform", "0", "1"),
            ("test", DATA, "--test", "jb", "--column", "Y"),
            ("test", DATA, "--test", "cusum", "--x", "X", "--y", "Y"),
            ("test", DATA, "--test", "resid", "--x", "X", "--resid", "R", "--seed", "3"),
            ("test", DATA, "--test", "pcorr", "--x", "X", "--y", "Z", "--given", "Y"),
            ("anm", DATA, "--x", "C", "--y", "E", "--seed", "5"),
            ("anm", "@ties.csv", "--x", "X", "--y", "Y", "--seed", "1"),
        )
        for fmt in ((), ("--format", "json"))
    ],
    # sample's columns, bit for bit
    *[
        ("simulate", model, "--n", "2000", "--seed", seed)
        for model in ("fixtures/model.scm", "@chain.scm", "@cubic.scm")
        for seed in ("0", "11")
    ],
    # usage errors, exit 2
    ("test", DATA, "--test", "resid", "--x", "X"),
    ("dsep", "fixtures/dag.graph", "--y", "G"),
    ("frobnicate",),
    # names, labels and catalog sources as the command line gives them
    ("plan", "--start", "unknown:noise_model:weekly", "--goal", "causal:nonparametric:static"),
    ("mec", "@self_star.constraints", "--vars", "S,C,D"),
    ("mec", "fixtures/smoking.constraints", "--vars", "S C D"),
    ("dsep", "fixtures/dag.graph", "--x", "A", "--y", "F", "--given", "B E"),
    ("catalog", "list", "--catalog", "@[cat].json"),
    ("catalog", "list", "--catalog", "@number_name.catalog"),
    ("catalog", "list", "--temporal", "weekly"),
    ("catalog", "list", "--temporal"),
    ("mec", "fixtures/smoking.constraints", "--vars", "S,S,C,D"),
    ("dsep", "fixtures/dag.graph", "--x", "A", "--y", "F", "--given", "B", "B"),
    ("dsep", "fixtures/dag.graph", "--x", "A", "--y", "F", "--given", "B", "B", "--format", "json"),
    ("test", DATA, "--test", "pcorr", "--x", "X", "--y", "Z", "--given", "Y Y"),
    ("test", DATA, "--test", "pcorr", "--x", "X", "--y", "Z", "--given", "X"),
    # non-finite values and samples below a test's floor
    ("test", "@inf.csv", "--test", "pcorr", "--x", "X", "--y", "Y", "--given", "Z"),
    ("test", "@three_rows.csv", "--test", "pcorr", "--x", "X", "--y", "Y"),
    ("test", "@four_rows.csv", "--test", "cusum", "--x", "X", "--y", "Y"),
    ("test", "@four_rows.csv", "--test", "ks", "--column", "X", "--mu", "nan"),
    # noise parameters out of range, for the ks reference and a model
    ("test", DATA, "--test", "ks", "--column", "X", "--sigma", "inf"),
    ("test", DATA, "--test", "ks", "--column", "X", "--uniform", "0", "inf"),
    ("simulate", "@normal_huge.scm", "--n", "200", "--seed", "1"),
    # the enumeration cap, with a file that expands and with one that is missing
    ("mec", "@star_cap.constraints", "--vars", ",".join(f"V{i}" for i in range(8))),
    ("mec", "missing.constraints", "--vars", ",".join(f"V{i}" for i in range(7))),
    ("mec", "@complete7.constraints", "--vars", ",".join(f"V{i}" for i in range(7))),
    (
        "mec", "@complete7.constraints", "--vars", ",".join(f"V{i}" for i in range(7)),
        "--max-nodes", "7",
    ),
    ("mec", "@complete7_less_one.constraints", "--vars", ",".join(f"V{i}" for i in range(7))),
    ("mec", "@undecided5.constraints", "--vars", "V0,V1,V2,V3,V4", "--format", "json"),
    # graph files
    ("dsep", "@crlf.graph", "--x", "X", "--y", "Z", "--given", "Y"),
    ("dsep", "@cycle.graph", "--x", "X", "--y", "Z"),
    ("dsep", "@bad_arrow.graph", "--x", "X", "--y", "Y"),
    ("dsep", "@two_names.graph", "--x", "X", "--y", "Y"),
    ("dsep", "@self_loop.graph", "--x", "X", "--y", "X"),
    ("dsep", "@mixed.graph", "--x", "X", "--y", "Y"),
    ("dsep", "@undirected.graph", "--x", "X", "--y", "Z"),
    ("dsep", "@empty.graph", "--x", "X", "--y", "Y"),
    # names that are no identifier, in graph files and in --vars
    ("dsep", "@comma_name.graph", "--x", "A,B", "--y", "C"),
    ("dsep", "@comma_name.graph", "--x", "C", "--y", "D", "--given", "A,B"),
    ("dsep", "@dash_name.graph", "--x", "X-1", "--y", "Y"),
    ("dsep", "@zero_width.graph", "--x", "A\u200b", "--y", "B"),
    ("mec", "@bar_left.constraints", "--vars", "A|B,C"),
    ("mec", "@bar_right.constraints", "--vars", "A|B,C"),
    # constraint files
    ("mec", "@chain.constraints", "--vars", "S,C,D", "--format", "json"),
    ("mec", "@impossible.constraints", "--vars", "S,C,D"),
    ("mec", "@star.constraints", "--vars", "S, C, D"),
    ("mec", "@sparse.constraints", "--vars", "V0,V1,V2,V3,V4,V5"),
    *[
        ("mec", f"@{name}.constraints", "--vars", "S,C,D")
        for name in (
            "no_y", "no_marker", "two_x", "undeclared_x", "undeclared_y",
            "undeclared_given", "undeclared_star", "overlap", "contradiction",
        )
    ],
    # model and expression files
    ("simulate", "@linear.scm", "--n", "4", "--seed", "1"),
    ("simulate", "@commented.scm", "--n", "4", "--seed", "1"),
    *[
        ("simulate", f"@{name}", "--n", "3", "--seed", "0")
        for name in sorted(INPUTS)
        if name.endswith(".scm")
        and name not in (
            "linear.scm", "commented.scm", "chain.scm", "cubic.scm", "normal_huge.scm",
        )
    ],
    # pipeline files
    *[
        ("validate", f"@{name}", *START)
        for name in sorted(INPUTS)
        if name.endswith((".json", ".pipeline")) and name != "[cat].json"
    ],
]


# (bench model, seed, n): the wide model as the bench samples it, and the
# narrow chain at a tenth of the bench's million rows.
SAMPLES = [("wide", seed, 2000) for seed in (0, 7)] + [
    ("narrow", seed, 100_000) for seed in (0, 7)
]


def _resolve(arg: str) -> str:
    if arg.startswith("@"):
        return arg[1:]
    if arg.startswith("fixtures/"):
        return str(FIXTURES / arg.split("/", 1)[1])
    return arg


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue())}


def sample_digests() -> dict:
    """The SHA-256 of each ``SAMPLES`` model's text and of the names and
    float64 bytes of the columns ``sample`` draws from it."""
    sys.path.insert(0, str(BENCH))
    try:
        import inputs  # bench/inputs.py, which imports bench/oracles.py
    finally:
        sys.path.remove(str(BENCH))
    digests = {}
    for model, seed, n in SAMPLES:
        text = getattr(inputs, f"{model}_scm")(seed)[0]
        data = sample(parse_scm(text), n, seed=seed)
        columns = hashlib.sha256()
        for name in data.names:
            columns.update(name.encode("utf-8") + b"\0")
            columns.update(np.ascontiguousarray(data.column(name), dtype="<f8").tobytes())
        digests[f"{model} seed={seed} n={n}"] = {
            "model": _sha256(text),
            "columns": columns.hexdigest(),
        }
    return digests


def run_cases(workdir: Path) -> dict:
    """The golden record of every case, run from ``workdir`` with ``INPUTS`` in it.

    argparse wraps its usage text at 80 columns whatever terminal the run has.
    """
    for name, text in INPUTS.items():
        (workdir / name).write_bytes(text.encode("utf-8"))
    home = os.getcwd()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        os.chdir(workdir)
        try:
            cases = {" ".join(argv): _run([_resolve(arg) for arg in argv]) for argv in CASES}
        finally:
            os.chdir(home)
    return {
        "numpy": np.__version__,
        "platform": platform.machine(),
        "python": ".".join(platform.python_version_tuple()[:2]),
        "cases": cases,
        "sample": sample_digests(),
    }


def changed_cases(want: dict, got: dict) -> list[tuple[str, str]]:
    """``(added | removed | changed, argv)`` for every case ``got`` records otherwise."""
    return [
        ("added" if argv not in want else "removed" if argv not in got else "changed", argv)
        for argv in sorted(want.keys() | got.keys())
        if want.get(argv) != got.get(argv)
    ]


_ENVIRONMENT = ("numpy", "platform", "python")
_SECTIONS = ("cases", "sample")


def test_front_end_outputs_match_golden(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_cases(tmp_path)
    assert [got[key] for key in _ENVIRONMENT] == [want.get(key) for key in _ENVIRONMENT], (
        "the digests were written under another numpy, Python or platform; "
        "regenerate them deliberately with --write"
    )
    for section in _SECTIONS:
        assert changed_cases(want[section], got[section]) == [], section


def test_every_input_is_used():
    named = {arg[1:] for argv in CASES for arg in argv if arg.startswith("@")}
    assert named == set(INPUTS)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {GOLDEN.name}")
    if not parser.parse_args().write:
        parser.error("pass --write to regenerate the golden file")
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        record = run_cases(Path(tmp))
    for key in _ENVIRONMENT:
        if old.get(key) != record[key]:
            print(f"{key}: {old.get(key)} -> {record[key]}")
    for section in _SECTIONS:
        for kind, key in changed_cases(old.get(section, {}), record[section]):
            print(f"{kind}: {key}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record['cases'])} cases to {GOLDEN}", file=sys.stderr)
