"""Golden digests of the command line's front end.

Each case is an argv run in process through ``cli.main``; ``golden/front_end.json``
holds its exit code and the SHA-256 of its stdout and of its stderr.  The
cases run the bench fixtures through ``dsep``, ``mec``, ``simulate``,
``validate``, ``plan``, ``audit`` and ``catalog``, and every format error of
the graph, constraint, model, expression and pipeline readers that the CLI
and model tests raise, so a rewrite of those readers must keep every output
byte.

The digests pin the numpy build that made them, whose ``exp``, ``log`` and
``sin`` may round otherwise elsewhere: on another numpy version or platform
the test fails rather than skips.  Regenerate the file, as a deliberate act,
with::

    PYTHONPATH=src python tests/test_front_end_golden.py --write
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from cdl_compass.cli import main

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "bench" / "fixtures"
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


# Input files by name; an argv names one as ``@<name>`` and a bench fixture
# as ``fixtures/<name>``.
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
    "not_a_node.scm": _model_with_equation("Z = 2 * X + U"),
    "undirected.scm": "graph:\nA -- B\nequations:\nnoise:\n",
    "graph_line.scm": LINEAR_MODEL.replace("graph:\n", "graph:\n\n# edges\nX\nY => Z\n"),
    "graph_line_cli.scm": LINEAR_MODEL.replace("graph:\n", "graph:\n# edges\nX\nY => Z\n"),
    "cycle.scm": "graph:\nX -> Y\nY -> X\nequations:\nnoise:\n",
    "no_noise.scm": "graph:\nX\nequations:\nnoise:\n",
    "shadow.scm": (
        "graph:\nU_Z -> Y\nZ\nequations:\nY := 2 * U_Z\nnoise:\n"
        "U_Z ~ Normal(0, 1)\nU_U_Z ~ Normal(5, 0.001)\n"
    ),
    "undeclared_symbol.scm": _model_with_equation("Y := X + U_Q"),
    "overflow.scm": _model_with_equation("Y = X * 1e300 * 1e300 + U"),
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
}

START = ("--start", "unknown:noise_model:static")
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
    ("catalog", "show", "resit", "--format", "json"),
    # graph files
    ("dsep", "@crlf.graph", "--x", "X", "--y", "Z", "--given", "Y"),
    ("dsep", "@cycle.graph", "--x", "X", "--y", "Z"),
    ("dsep", "@bad_arrow.graph", "--x", "X", "--y", "Y"),
    ("dsep", "@two_names.graph", "--x", "X", "--y", "Y"),
    ("dsep", "@self_loop.graph", "--x", "X", "--y", "X"),
    ("dsep", "@mixed.graph", "--x", "X", "--y", "Y"),
    ("dsep", "@undirected.graph", "--x", "X", "--y", "Z"),
    ("dsep", "@empty.graph", "--x", "X", "--y", "Y"),
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
        if name.endswith(".scm") and name not in ("linear.scm", "commented.scm")
    ],
    # pipeline files
    *[
        ("validate", f"@{name}", *START)
        for name in sorted(INPUTS)
        if name.endswith((".json", ".pipeline"))
    ],
]


def _resolve(arg: str, workdir: Path) -> str:
    if arg.startswith("@"):
        return str(workdir / arg[1:])
    if arg.startswith("fixtures/"):
        return str(FIXTURES / arg.split("/", 1)[1])
    return arg


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cases(workdir: Path) -> dict:
    """The golden record of every case, with ``INPUTS`` written to ``workdir``."""
    for name, text in INPUTS.items():
        (workdir / name).write_bytes(text.encode("utf-8"))
    cases = {}
    for argv in CASES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([_resolve(arg, workdir) for arg in argv])
        cases[" ".join(argv)] = {
            "exit": code,
            "stdout": _sha256(out.getvalue()),
            "stderr": _sha256(err.getvalue()),
        }
    return {"numpy": np.__version__, "platform": platform.machine(), "cases": cases}


def test_front_end_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.delenv("CDL_COMPASS_SEED", raising=False)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_cases(tmp_path)
    assert (got["numpy"], got["platform"]) == (want["numpy"], want["platform"]), (
        "the digests were written under another numpy or platform; "
        "regenerate them deliberately with --write"
    )
    changed = sorted(
        argv
        for argv in want["cases"].keys() | got["cases"].keys()
        if want["cases"].get(argv) != got["cases"].get(argv)
    )
    assert changed == []


def test_every_input_is_used():
    named = {arg[1:] for argv in CASES for arg in argv if arg.startswith("@")}
    assert named == set(INPUTS)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {GOLDEN.name}")
    if not parser.parse_args().write:
        parser.error("pass --write to regenerate the golden file")
    with tempfile.TemporaryDirectory() as tmp:
        record = run_cases(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record['cases'])} cases to {GOLDEN}", file=sys.stderr)
