"""Import guard: heavy dependencies load only on the paths that use them.

Each check runs in a fresh interpreter (``sys.executable``), because this
suite's own ``sys.modules`` already holds numpy and scipy and would hide a
regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdl_compass
from cdl_compass import lattice, stats

HEAVY = ("numpy", "scipy")

# Runs cli.main on its argv with stdout swallowed, then reports which heavy
# modules the process loaded.
CLI_CHILD = (
    "import contextlib, io, json, sys\n"
    "from cdl_compass.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    f"print(json.dumps([code, sorted(m for m in {HEAVY!r} if m in sys.modules)]))\n"
)


def _child_env():
    package_root = str(Path(cdl_compass.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    paths = [package_root, inherited] if inherited else [package_root]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    env.pop("CDL_COMPASS_SEED", None)
    return env


def _run_child(*args):
    proc = subprocess.run(
        [sys.executable, "-c", *args],
        capture_output=True,
        text=True,
        check=True,
        env=_child_env(),
        timeout=120,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    files = {
        "graph": "X -> Y\nY -> Z\n",
        "constraints": "S _||_ D | C\nnot S _||_ D\nnot S _||_ C\nnot C _||_ D\n",
        "model": (
            "graph:\nX -> Y\nequations:\nY = 2 * X + U\nnoise:\n"
            "U_X ~ Normal(0.0, 1.0)\nU_Y ~ Normal(0.0, 1.0)\n"
        ),
        "pipeline": '["resit", "backdoor-adjust", "dml"]\n',
    }
    # 60 rows: above the exact Kolmogorov-Smirnov cutoff of 35.
    rows = ["X,Y,Z,R"]
    for i in range(60):
        x = ((i * 37) % 60) / 59.0
        y = 2.0 * x + ((i * 11) % 7 - 3) / 10.0
        rows.append(f"{x!r},{y!r},{(y - x) ** 3!r},{((i * 13) % 9 - 4) / 10.0!r}")
    files["data"] = "\n".join(rows) + "\n"
    paths = {}
    for name, text in files.items():
        path = root / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


NO_HEAVY = {
    "dsep": ["dsep", "{graph}", "--x", "X", "--y", "Z", "--given", "Y"],
    "mec": ["mec", "{constraints}", "--vars", "S,C,D"],
    "catalog-list": ["catalog", "list"],
    "catalog-show": ["catalog", "show", "resit"],
    "validate": ["validate", "{pipeline}", "--start", "unknown:noise_model:static"],
    "plan": ["plan", "--start", "unknown:noise_model:static", "--goal", "causal:nonparametric:static"],
    "audit": ["audit"],
}

NO_SCIPY = {
    "simulate": ["simulate", "{model}", "--n", "50", "--seed", "1"],
    "test-ks": ["test", "{data}", "--test", "ks", "--column", "X"],
    "test-jb": ["test", "{data}", "--test", "jb", "--column", "Y"],
    "test-cusum": ["test", "{data}", "--test", "cusum", "--x", "X", "--y", "Y"],
    "test-resid": ["test", "{data}", "--test", "resid", "--x", "X", "--resid", "R"],
    "test-pcorr": ["test", "{data}", "--test", "pcorr", "--x", "X", "--y", "Z", "--given", "Y"],
    "anm": ["anm", "{data}", "--x", "X", "--y", "Z"],
}


def _cli(inputs, argv):
    code, loaded = _run_child(CLI_CHILD, *(arg.format(**inputs) for arg in argv))
    assert code == 0
    return loaded


def test_package_import_loads_no_heavy_modules():
    assert _run_child(
        f"import sys, json, cdl_compass; "
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    ) == []


def test_expressions_load_no_numpy_until_evaluated():
    assert _run_child(
        "import sys, json\n"
        "from cdl_compass.expressions import format_expression, parse_expression\n"
        "format_expression(parse_expression('exp(x) / 2 ** y'))\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    ) == []


@pytest.mark.parametrize("name", sorted(NO_HEAVY))
def test_graph_catalog_and_pipeline_commands_load_no_heavy_modules(inputs, name):
    assert _cli(inputs, NO_HEAVY[name]) == []


@pytest.mark.parametrize("name", sorted(NO_SCIPY))
def test_sampling_and_stats_commands_load_no_scipy(inputs, name):
    assert "scipy" not in _cli(inputs, NO_SCIPY[name])


def test_every_exported_name_resolves():
    for name in cdl_compass.__all__:
        assert getattr(cdl_compass, name) is not None
    assert set(cdl_compass.__all__) <= set(dir(cdl_compass))
    with pytest.raises(AttributeError, match="no attribute 'not_exported'"):
        cdl_compass.not_exported


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from cdl_compass import *", namespace)
    assert set(cdl_compass.__all__) <= set(namespace)
    assert namespace["ks_test"] is stats.ks_test


def test_tiers_are_shared_with_lattice():
    assert stats.testability_tier is lattice.testability_tier
    assert stats.TestabilityTier is lattice.TestabilityTier
    assert cdl_compass.testability_tier is lattice.testability_tier
