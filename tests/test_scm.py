"""Structural models: datasets, factorizations, sampling, CATE oracles, text format."""

import csv
import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdl_compass.expressions import EvaluationError
from cdl_compass.graphs import Dag
from cdl_compass.lattice import ParametricTag
from cdl_compass.scm import (
    Dataset,
    Factor,
    Factorization,
    NormalNoise,
    Scm,
    ScmFormatError,
    StructuralEquation,
    UniformNoise,
    evaluate_factorization,
    format_scm,
    oracle_cate,
    parse_scm,
    sample,
    scopes_consistent_with_dag,
)
from helpers_scm import ihdp_surfaces

LINEAR_MODEL = """\
graph:
X -> Y
equations:
Y = 2 * X + U
noise:
U_X ~ Normal(0.0, 1.0)
U_Y ~ Normal(0.0, 1.0)
"""

CHAIN_MODEL = """\
graph:
X -> Y
Y -> Z
equations:
Y = 0.8 * X + U
Z = -0.6 * Y + U
noise:
U_X ~ Normal(0.0, 1.0)
U_Y ~ Normal(0.0, 1.0)
U_Z ~ Normal(0.0, 1.0)
"""


# ---------------------------------------------------------------------------
# Dataset


class TestDataset:
    def test_basic(self):
        d = Dataset({"b": [1.0, 2.0], "a": [3.0, 4.0]})
        assert d.names == ("b", "a")  # declaration order kept
        assert d.n == 2
        assert list(d.column("a")) == [3.0, 4.0]

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Dataset({"x": [1.0, float("nan")]})

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            Dataset({"x": [1.0], "y": [1.0, 2.0]})

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one column"):
            Dataset({})

    def test_bad_column_name(self):
        with pytest.raises(ValueError, match="bad column name"):
            Dataset({"a b": [1.0]})

    def test_unknown_column(self):
        with pytest.raises(ValueError, match="unknown column"):
            Dataset({"x": [1.0]}).column("y")

    def test_column_that_is_not_a_vector(self):
        with pytest.raises(ValueError, match="^column 'x' is not a vector$"):
            Dataset({"x": [[1.0, 2.0]]})

    def test_csv_round_trip_exact(self):
        d = Dataset({"x": [0.1, 1 / 3, 1e-300], "y": [2.0, -5.5, 7.25]})
        again = Dataset.from_csv(io.StringIO(d.to_csv()))
        assert again.names == d.names
        for name in d.names:
            assert np.array_equal(again.column(name), d.column(name))

    def test_csv_17_digits(self):
        text = Dataset({"x": [1 / 3]}).to_csv()
        assert text == "x\n0.33333333333333331\n"

    def test_from_csv_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            Dataset.from_csv(io.StringIO("x\nnan\n"))

    def test_from_csv_rejects_non_numeric(self):
        with pytest.raises(ValueError, match="non-numeric"):
            Dataset.from_csv(io.StringIO("x\nhello\n"))

    def test_from_csv_rejects_ragged(self):
        with pytest.raises(ValueError, match="fields"):
            Dataset.from_csv(io.StringIO("x,y\n1.0\n"))

    def test_from_csv_rejects_duplicate_header(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dataset.from_csv(io.StringIO("x,x\n1.0,2.0\n"))

    def test_from_csv_rejects_empty(self):
        with pytest.raises(ValueError, match="header"):
            Dataset.from_csv(io.StringIO(""))

    def test_to_csv_file_target(self, tmp_path):
        path = tmp_path / "d.csv"
        d = Dataset({"x": [1.0]})
        assert d.to_csv(path) is None
        assert path.read_text() == "x\n1\n"

    def test_to_csv_matches_row_by_row_writer(self, tmp_path):
        # Several write blocks, a header that needs quoting, and values at
        # the edges of the float range.
        rng = np.random.default_rng(17)
        n = 9001
        edge = [0.0, -0.0, np.inf, -np.inf, 5e-324, 1.7976931348623157e308, 1 / 3]
        x = rng.normal(size=n)
        x[: len(edge)] = edge
        d = Dataset({"x": x, 'y,"q"': rng.standard_cauchy(n) * 1e200})
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(d.names)
        for i in range(n):
            writer.writerow([format(d.column(c)[i], ".17g") for c in d.names])
        assert d.to_csv() == want.getvalue()
        handle = io.StringIO()
        assert d.to_csv(handle) is None
        assert handle.getvalue() == want.getvalue()
        path = tmp_path / "d.csv"
        d.to_csv(path)
        assert path.read_bytes() == want.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# Factors and factorizations


def coin_chain() -> Factorization:
    """P(X) * P(Y | X) over binary domains; normalizes exactly."""
    px = Factor.from_table(
        ["X"], {"X": [0.0, 1.0]}, {(0.0,): 0.5, (1.0,): 0.5}
    )
    py = Factor.from_table(
        ["Y", "X"],
        {"X": [0.0, 1.0], "Y": [0.0, 1.0]},
        {
            (0.0, 0.0): 0.75,
            (1.0, 0.0): 0.25,
            (0.0, 1.0): 0.25,
            (1.0, 1.0): 0.75,
        },
    )
    return Factorization([px, py])


class TestFactors:
    def test_table_lookup(self):
        f = coin_chain().factors[1]
        assert f.evaluate({"Y": 1.0, "X": 0.0}) == 0.25

    def test_table_must_cover_domain(self):
        with pytest.raises(ValueError, match="full joint domain"):
            Factor.from_table(["X"], {"X": [0.0, 1.0]}, {(0.0,): 1.0})

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Factor.from_table(["X"], {"X": [0.0]}, {(0.0,): -1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, bad):
        # NaN slips past a `< 0` test, and the mass check then sums to nan.
        table = {(0.0,): bad, (1.0,): 1.0}
        with pytest.raises(
            ValueError, match=rf"^non-finite factor value {bad!r} at \(0\.0,\)$"
        ):
            Factor.from_table(["X"], {"X": [0.0, 1.0]}, table)

    def test_negative_infinity_reported_as_negative(self):
        with pytest.raises(ValueError, match=r"^negative factor value -inf at \(0\.0,\)$"):
            Factor.from_table(["X"], {"X": [0.0]}, {(0.0,): -math.inf})

    def test_expression_factor(self):
        f = Factor.from_expression(["x"], "x * x")
        assert f.evaluate({"x": 3.0}) == 9.0

    def test_expression_negative_at_evaluation(self):
        f = Factor.from_expression(["x"], "x")
        with pytest.raises(ValueError, match="negative"):
            f.evaluate({"x": -1.0})

    def test_out_of_domain_value(self):
        f = coin_chain().factors[0]
        with pytest.raises(ValueError, match="outside the declared domain"):
            f.evaluate({"X": 2.0})

    def test_missing_assignment(self):
        f = coin_chain().factors[0]
        with pytest.raises(ValueError, match="missing scope"):
            f.evaluate({})

    def test_exactly_one_backing(self):
        with pytest.raises(ValueError, match="exactly one"):
            Factor(("x",), (("x", None),))

    def test_empty_scope(self):
        with pytest.raises(ValueError, match="nonempty"):
            Factor.from_expression([], "1.0")

    @pytest.mark.parametrize(
        "scope,domains,message",
        [
            (("X", "X"), (("X", (0.0,)),), "factor scope repeats a variable"),
            (("X", "Y"), (("X", (0.0,)),), "domains must cover exactly the scope variables"),
            (("X",), (("X", None),), "table factors need a finite domain for every variable"),
        ],
        ids=["repeated-scope", "uncovered-scope", "real-valued-table"],
    )
    def test_malformed_table_factor(self, scope, domains, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Factor(scope, domains, table=(((0.0,), 1.0),))


class TestFactorization:
    def test_mass_checked_against_exact_fractions(self):
        # Independent rational oracle: sum the product over the joint domain
        # with Fractions and confirm it is exactly 1, so construction of the
        # float version must also pass its mass check.
        px = {(0.0,): Fraction(1, 2), (1.0,): Fraction(1, 2)}
        py = {
            (0.0, 0.0): Fraction(3, 4),
            (1.0, 0.0): Fraction(1, 4),
            (0.0, 1.0): Fraction(1, 4),
            (1.0, 1.0): Fraction(3, 4),
        }
        total = sum(
            px[(x,)] * py[(y, x)] for x in (0.0, 1.0) for y in (0.0, 1.0)
        )
        assert total == 1
        coin_chain()  # float twin constructs without complaint

    def test_needs_a_factor(self):
        with pytest.raises(ValueError, match="^a factorization needs at least one factor$"):
            Factorization([])

    def test_unnormalized_mass_rejected(self):
        bad = Factor.from_table(["X"], {"X": [0.0, 1.0]}, {(0.0,): 0.5, (1.0,): 0.4})
        with pytest.raises(ValueError, match="does not normalize"):
            Factorization([bad])

    def test_explicit_normalizer(self):
        f = Factor.from_table(["X"], {"X": [0.0, 1.0]}, {(0.0,): 1.0, (1.0,): 3.0})
        fz = Factorization([f], z=4.0)
        assert evaluate_factorization(fz, {"X": 1.0}) == 0.75

    def test_bad_normalizer(self):
        f = coin_chain().factors[0]
        with pytest.raises(ValueError, match="positive"):
            Factorization([f], z=0.0)

    def test_inconsistent_domains(self):
        a = Factor.from_table(["X"], {"X": [0.0, 1.0]}, {(0.0,): 0.5, (1.0,): 0.5})
        b = Factor.from_table(["X"], {"X": [0.0, 2.0]}, {(0.0,): 0.5, (2.0,): 0.5})
        with pytest.raises(ValueError, match="inconsistent domains"):
            Factorization([a, b])

    def test_real_valued_scope_skips_mass_check(self):
        f = Factor.from_expression(["x"], "exp(x)")
        fz = Factorization([f])
        assert evaluate_factorization(fz, {"x": 0.0}) == 1.0

    def test_evaluate_joint(self):
        fz = coin_chain()
        assert evaluate_factorization(fz, {"X": 1.0, "Y": 1.0}) == 0.375

    def test_variables(self):
        assert coin_chain().variables() == frozenset({"X", "Y"})


class TestScopeCheck:
    def test_chain_factorization_matches_chain(self):
        g = Dag.of([("X", "Y")])
        assert scopes_consistent_with_dag(coin_chain(), g)

    def test_wrong_direction_rejected(self):
        # Reversed graph wants scopes {Y} and {X, Y}; the factorization has
        # {X} and {X, Y}.
        g = Dag.of([("Y", "X")])
        assert not scopes_consistent_with_dag(coin_chain(), g)

    def test_extra_factor_rejected(self):
        g = Dag.of([("X", "Y")])
        ones = Factor.from_table(["X"], {"X": [0.0, 1.0]}, {(0.0,): 1.0, (1.0,): 1.0})
        f = Factorization([*coin_chain().factors, ones])
        assert not scopes_consistent_with_dag(f, g)

    def test_isolated_node(self):
        g = Dag.of(nodes=["X"])
        f = Factorization(
            [Factor.from_table(["X"], {"X": [0.0, 1.0]}, {(0.0,): 0.5, (1.0,): 0.5})]
        )
        assert scopes_consistent_with_dag(f, g)
        assert not scopes_consistent_with_dag(f, Dag.of(nodes=["X", "Y"]))


# ---------------------------------------------------------------------------
# Noise specs


class TestNoise:
    def test_normal_sigma_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            NormalNoise(0.0, 0.0)

    def test_uniform_ordering(self):
        with pytest.raises(ValueError, match="low < high"):
            UniformNoise(1.0, 1.0)

    def test_format(self):
        assert NormalNoise(0.0, 1.0).format() == "Normal(0.0, 1.0)"
        assert UniformNoise(-1.0, 1.0).format() == "Uniform(-1.0, 1.0)"

    def test_one_definition_per_family(self):
        from cdl_compass import stats

        assert (NormalNoise, UniformNoise) == (stats.NormalNoise, stats.UniformNoise)
        assert stats.gaussian_cdf(1.0, 2.0)(3.0) == NormalNoise(1.0, 2.0).cdf(3.0)
        assert stats.uniform_cdf(0.0, 4.0)(1.0) == UniformNoise(0.0, 4.0).cdf(1.0) == 0.25

    def test_overflowing_normal_draw_names_its_symbol(self):
        # Finite parameters, yet mu + sigma * z overflows for |z| > 1.8.
        overflow = r"^U_X: a draw of Normal\(0\.0, 1e\+308\) overflows$"
        m = parse_scm("graph:\nX\nequations:\nnoise:\nU_X ~ Normal(0.0, 1e308)\n")
        with pytest.raises(ValueError, match=overflow):
            sample(m, 200, seed=1)
        m = parse_scm(
            "graph:\nY0\nY1\nequations:\nY0 := U_X\nY1 := 2 * U_X\n"
            "noise:\nU_X ~ Normal(0.0, 1e308)\n"
        )
        with pytest.raises(ValueError, match=overflow):
            oracle_cate(m, {}, n_mc=200)


# ---------------------------------------------------------------------------
# Model construction and sampling


class TestScmValidation:
    def test_parents_come_from_the_graph(self):
        # Y's parent is X because the graph says so, whether or not its
        # equation reads X; Z is no parent, so no equation of Y may read it.
        g = Dag.of([("X", "Y")], nodes=["Z"])
        noise = {"X": NormalNoise(), "Y": NormalNoise(), "Z": NormalNoise()}
        constant = StructuralEquation("Y", ParametricTag.NOISE_MODEL, expr_of("1.0"))
        assert Scm(g, [constant], noise).equations == {"Y": constant}
        reads_z = StructuralEquation("Y", ParametricTag.NOISE_MODEL, expr_of("X + Z"))
        with pytest.raises(ValueError, match=r"references undeclared symbols \['Z'\]$"):
            Scm(g, [reads_z], noise)

    def test_long_equation_builds(self):
        # A 3,000-term sum is a flat program, so the model builds, compares,
        # and reads back from its text.
        g = Dag.of([("X", "Y")])
        long_sum = expr_of(" + ".join(["0.5 * X"] * 3000))
        eq = StructuralEquation("Y", ParametricTag.NOISE_MODEL, long_sum)
        noise = {"X": NormalNoise(), "Y": NormalNoise()}
        m = Scm(g, [eq], noise)
        assert m.equations == {"Y": eq}
        text = format_scm(m)
        assert parse_scm(text) == parse_scm(text) == m

    def test_noise_model_needs_own_noise(self):
        g = Dag.of([("X", "Y")])
        eq = StructuralEquation("Y", ParametricTag.NOISE_MODEL, expr_of("X"))
        with pytest.raises(ValueError, match="needs a noise spec"):
            Scm(g, [eq], {"X": NormalNoise()})

    def test_fully_known_undeclared_symbol(self):
        g = Dag.of([("X", "Y")])
        eq = StructuralEquation("Y", ParametricTag.FULLY_KNOWN, expr_of("X + U_Q"))
        with pytest.raises(ValueError, match="undeclared symbols"):
            Scm(g, [eq], {"X": NormalNoise()})

    def test_node_named_like_a_noise_symbol(self):
        g = Dag.of([("U_Z", "Y")], nodes=["Z"])
        eq = StructuralEquation("Y", ParametricTag.FULLY_KNOWN, expr_of("2 * U_Z"))
        noise = {"Z": NormalNoise(), "U_Z": NormalNoise(5.0, 0.001)}
        with pytest.raises(ValueError, match="^graph node 'U_Z' .* noise key 'Z'$"):
            Scm(g, [eq], noise)

    def test_equation_target_must_be_graph_node(self):
        g = Dag.of(nodes=["X"])
        eq = StructuralEquation("Y", ParametricTag.FULLY_KNOWN, expr_of("1.0"))
        with pytest.raises(ValueError, match="^equation target 'Y' is not a graph node$"):
            Scm(g, [eq], {"X": NormalNoise()})

    def test_exogenous_needs_noise(self):
        g = Dag.of(nodes=["X"])
        with pytest.raises(ValueError, match="no noise spec"):
            Scm(g)

    def test_duplicate_equation(self):
        g = Dag.of(nodes=["X"])
        eq = StructuralEquation("X", ParametricTag.FULLY_KNOWN, expr_of("1.0"))
        with pytest.raises(ValueError, match="duplicate equation"):
            Scm(g, [eq, eq])

    def test_shape_only_levels_not_sampleable(self):
        g = Dag.of([("X", "Y")])
        eq = StructuralEquation("Y", ParametricTag.PARAMETRIC)
        m = Scm(g, [eq], {"X": NormalNoise()})
        assert not m.sampleable()
        with pytest.raises(ValueError, match="cannot sample"):
            sample(m, 10)

    def test_shape_only_outcome_has_no_effect_or_text(self):
        g = Dag.of([("X", "Y0"), ("X", "Y1")])
        eqs = [
            StructuralEquation("Y0", ParametricTag.PARAMETRIC),
            StructuralEquation("Y1", ParametricTag.FULLY_KNOWN, expr_of("X")),
        ]
        m = Scm(g, eqs, {"X": NormalNoise()})
        with pytest.raises(ValueError) as exc:
            oracle_cate(m, {"X": 0.0})
        assert str(exc.value) == (
            "outcome equation 'Y0' is at the parametric level; "
            "an explicit or additive-noise form is required"
        )
        with pytest.raises(ValueError) as exc:
            format_scm(m)
        assert str(exc.value) == "equation for 'Y0' at level parametric has no text form"

    def test_a_model_equals_no_other_type(self):
        m = parse_scm(LINEAR_MODEL)
        assert m.__eq__(format_scm(m)) is NotImplemented
        assert m != format_scm(m)

    def test_shape_levels_refuse_expressions(self):
        with pytest.raises(ValueError, match="cannot carry"):
            StructuralEquation("Y", ParametricTag.PARAMETRIC, expr_of("X"))

    def test_expr_required_when_sampleable(self):
        with pytest.raises(ValueError, match="needs an expression"):
            StructuralEquation("Y", ParametricTag.NOISE_MODEL)


def expr_of(text):
    from cdl_compass.expressions import parse_expression

    return parse_expression(text)


class TestSampling:
    def test_same_seed_same_bytes(self):
        m = parse_scm(LINEAR_MODEL)
        a = sample(m, 50, seed=7).to_csv()
        b = sample(m, 50, seed=7).to_csv()
        assert a == b

    def test_different_seeds_differ(self):
        m = parse_scm(LINEAR_MODEL)
        assert sample(m, 50, seed=0).to_csv() != sample(m, 50, seed=1).to_csv()

    def test_declaration_order_irrelevant(self):
        reordered = LINEAR_MODEL.replace(
            "U_X ~ Normal(0.0, 1.0)\nU_Y ~ Normal(0.0, 1.0)",
            "U_Y ~ Normal(0.0, 1.0)\nU_X ~ Normal(0.0, 1.0)",
        )
        a = sample(parse_scm(LINEAR_MODEL), 20, seed=3).to_csv()
        b = sample(parse_scm(reordered), 20, seed=3).to_csv()
        assert a == b

    def test_columns_sorted(self):
        m = parse_scm(LINEAR_MODEL)
        assert sample(m, 5).names == ("X", "Y")

    def test_structure_holds_exactly(self):
        # With the noise substreams keyed by name, Y - 2X must reproduce
        # the U_Y stream; check the structural identity by zeroing it out.
        text = LINEAR_MODEL.replace("Y = 2 * X + U", "Y := 2 * X")
        d = sample(parse_scm(text), 100, seed=5)
        assert np.array_equal(d.column("Y"), 2.0 * d.column("X"))

    def test_additive_noise_shares_parent_stream(self):
        # Same seed, two models differing only in Y's equation: X columns match.
        a = sample(parse_scm(LINEAR_MODEL), 100, seed=9)
        b = sample(parse_scm(LINEAR_MODEL.replace("2 * X", "5 * X")), 100, seed=9)
        assert np.array_equal(a.column("X"), b.column("X"))
        np.testing.assert_allclose(
            a.column("Y") - 2.0 * a.column("X"),
            b.column("Y") - 5.0 * b.column("X"),
            rtol=0,
            atol=1e-12,
        )

    def test_uniform_bounds(self):
        text = "graph:\nX\nequations:\nnoise:\nU_X ~ Uniform(2.0, 3.0)\n"
        d = sample(parse_scm(text), 500, seed=1)
        assert d.column("X").min() >= 2.0
        assert d.column("X").max() < 3.0

    def test_negative_n(self):
        with pytest.raises(ValueError, match="non-negative"):
            sample(parse_scm(LINEAR_MODEL), -1)

    def test_non_finite_values_name_the_equation(self):
        m = parse_scm(LINEAR_MODEL.replace("2 * X", "log(X)"))
        with pytest.raises(EvaluationError, match=r"^equation for 'Y': .*log\(\)"):
            sample(m, 50, seed=0)

    def test_overflowing_noise_sum_names_the_equation(self):
        # g(X) and U_Y are finite on their own; only their sum overflows.
        text = (
            "graph:\nX -> Y\nequations:\nY = X * 1e308 + U\nnoise:\n"
            "U_X ~ Uniform(1.0, 1.5)\nU_Y ~ Normal(1e308, 1.0)\n"
        )
        message = "^equation for 'Y': non-finite result from operator '\\+'$"
        with pytest.raises(EvaluationError, match=message):
            sample(parse_scm(text), 5, seed=0)
        # The fully-known form of the same model has said so all along.
        with pytest.raises(EvaluationError, match=message):
            sample(parse_scm(text.replace("Y = X * 1e308 + U", "Y := X * 1e308 + U_Y")), 5)

    def test_peak_memory_is_one_block(self):
        # The values fill one n x k block, and each node's noise is drawn
        # into its own row: a second block of draws would double the peak.
        m = parse_scm(CHAIN_MODEL)
        sample(m, 1)  # the first draw imports numpy.random: keep it out of the count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            d = sample(m, 200_000, seed=4)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        output = sum(d.column(c).nbytes for c in d.names)
        assert peak <= 1.5 * output

    def test_unused_noise_key_changes_no_column(self):
        m = parse_scm(CHAIN_MODEL)
        extra = parse_scm(CHAIN_MODEL + "U_Unused ~ Uniform(0.0, 1.0)\n")
        a, b = sample(m, 300, seed=8), sample(extra, 300, seed=8)
        assert a.names == b.names
        assert all(a.column(c).tobytes() == b.column(c).tobytes() for c in a.names)

    def test_slope_recovered(self):
        d = sample(parse_scm(LINEAR_MODEL), 20000, seed=11)
        x, y = d.column("X"), d.column("Y")
        slope = float(np.cov(x, y)[0, 1] / np.var(x, ddof=1))
        assert abs(slope - 2.0) < 0.05


# ---------------------------------------------------------------------------
# Treatment-effect surfaces


class TestSurfaces:
    def test_ihdp_values(self):
        mu0, mu1 = ihdp_surfaces([0.5], [0.0], [1.0], 4.0)
        assert mu0 == pytest.approx(math.exp(0.5), abs=1e-15)
        assert mu1 == 4.5

    def test_vector_case(self):
        mu0, mu1 = ihdp_surfaces([1.0, 2.0], [0.5, 0.5], [0.1, 0.2], 4.0)
        assert mu0 == pytest.approx(math.exp(1.5 * 0.1 + 2.5 * 0.2), rel=1e-15)
        assert mu1 == pytest.approx(0.1 + 0.4 + 4.0, rel=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="common length"):
            ihdp_surfaces([1.0, 2.0], [0.0], [1.0], 4.0)


IHDP_SCALAR = """\
graph:
X -> Y0
X -> Y1
equations:
Y0 := exp(X * 1.0)
Y1 := X * 1.0 + 4.0
noise:
U_X ~ Normal(0.0, 1.0)
"""


class TestOracleCate:
    def test_noise_free_exact(self):
        m = parse_scm(IHDP_SCALAR)
        assert oracle_cate(m, {"X": 0.0}) == 3.0
        assert oracle_cate(m, {"X": 1.0}) == pytest.approx(5.0 - math.e, abs=1e-15)

    def test_noise_free_ignores_n_mc(self):
        m = parse_scm(IHDP_SCALAR)
        assert oracle_cate(m, {"X": 0.0}, n_mc=1) == 3.0

    def test_shared_noise_cancels(self):
        text = """\
graph:
C -> Y0
C -> Y1
equations:
Y0 := U_C + C
Y1 := U_C + C + 2.0
noise:
U_C ~ Normal(0.0, 1.0)
C ~ Normal(0.0, 1.0)
""".replace("C ~", "U_C2 ~")  # placeholder removed below
        text = (
            "graph:\nC -> Y0\nC -> Y1\nequations:\n"
            "Y0 := U_S + C\nY1 := U_S + C + 2.0\n"
            "noise:\nU_S ~ Normal(0.0, 1.0)\nU_C ~ Normal(0.0, 1.0)\n"
        )
        m = parse_scm(text)
        assert oracle_cate(m, {"C": 1.0}, n_mc=50) == pytest.approx(2.0, abs=1e-12)

    def test_additive_outcome_noise_cancels_in_difference_mean(self):
        text = (
            "graph:\nX -> Y0\nX -> Y1\nequations:\n"
            "Y0 = X + U\nY1 = X + 3.0 + U\n"
            "noise:\nU_X ~ Normal(0.0, 1.0)\n"
            "U_Y0 ~ Normal(0.0, 1.0)\nU_Y1 ~ Normal(0.0, 1.0)\n"
        )
        m = parse_scm(text)
        got = oracle_cate(m, {"X": 0.0}, n_mc=200000, seed=2)
        assert got == pytest.approx(3.0, abs=0.02)

    def test_deterministic_per_seed(self):
        text = (
            "graph:\nX -> Y0\nX -> Y1\nequations:\n"
            "Y0 = X + U\nY1 = 2.0 * X + U\n"
            "noise:\nU_X ~ Normal(0.0, 1.0)\n"
            "U_Y0 ~ Normal(0.0, 1.0)\nU_Y1 ~ Normal(0.0, 1.0)\n"
        )
        m = parse_scm(text)
        assert oracle_cate(m, {"X": 1.0}, seed=4) == oracle_cate(m, {"X": 1.0}, seed=4)

    def test_missing_outcome_equation(self):
        m = parse_scm(LINEAR_MODEL)
        with pytest.raises(ValueError, match="Y0"):
            oracle_cate(m, {"X": 0.0})

    def test_missing_covariate(self):
        m = parse_scm(IHDP_SCALAR)
        with pytest.raises(ValueError, match="missing"):
            oracle_cate(m, {})

    def test_overflowing_noise_sum_names_the_outcome(self):
        text = (
            "graph:\nX -> Y0\nX -> Y1\nequations:\nY0 := X\nY1 = X * 1e308 + U\n"
            "noise:\nU_X ~ Normal(0.0, 1.0)\nU_Y1 ~ Normal(1e308, 1.0)\n"
        )
        with pytest.raises(EvaluationError, match="^equation for 'Y1': .*operator '\\+'$"):
            oracle_cate(parse_scm(text), {"X": 1.5}, n_mc=10)

    def test_non_finite_values_name_the_outcome(self):
        text = (
            "graph:\nX -> Y0\nX -> Y1\nequations:\n"
            "Y0 := X\nY1 := log(X + U_S)\n"
            "noise:\nU_S ~ Uniform(0.0, 1.0)\nU_X ~ Normal(0.0, 1.0)\n"
        )
        m = parse_scm(text)
        assert oracle_cate(m, {"X": 1.0}, n_mc=100) < 0.0
        with pytest.raises(EvaluationError, match=r"^equation for 'Y1': .*log\(\)"):
            oracle_cate(m, {"X": -2.0}, n_mc=100)
        noise_free = parse_scm(text.replace("log(X + U_S)", "log(X)"))
        with pytest.raises(EvaluationError, match=r"^equation for 'Y1': .*log\(\)"):
            oracle_cate(noise_free, {"X": 0.0})


# ---------------------------------------------------------------------------
# Text format


class TestScmText:
    def test_parse_format_round_trip(self):
        m = parse_scm(LINEAR_MODEL)
        assert parse_scm(format_scm(m)) == m

    def test_format_canonical(self):
        m = parse_scm(LINEAR_MODEL)
        assert format_scm(m) == (
            "graph:\nX -> Y\nequations:\nY = 2.0 * X + U\n"
            "noise:\nU_X ~ Normal(0.0, 1.0)\nU_Y ~ Normal(0.0, 1.0)\n"
        )

    def test_fully_known_round_trip(self):
        m = parse_scm(IHDP_SCALAR)
        assert parse_scm(format_scm(m)) == m
        assert "Y1 := X * 1.0 + 4.0" in format_scm(m)

    def test_comments_ignored(self):
        commented = LINEAR_MODEL.replace("graph:", "# model\ngraph:  # sections")
        assert parse_scm(commented) == parse_scm(LINEAR_MODEL)

    def test_unknown_section(self):
        with pytest.raises(ScmFormatError, match="unknown section"):
            parse_scm("stuff:\n")

    def test_content_before_header(self):
        with pytest.raises(ScmFormatError, match="before the first section"):
            parse_scm("X -> Y\ngraph:\n")

    def test_noise_model_requires_plus_u(self):
        bad = LINEAR_MODEL.replace("Y = 2 * X + U", "Y = 2 * X")
        with pytest.raises(ScmFormatError, match=r"\+ U"):
            parse_scm(bad)

    def test_error_carries_line(self):
        bad = LINEAR_MODEL.replace("U_Y ~ Normal(0.0, 1.0)", "U_Y ~ Poisson(3)")
        with pytest.raises(ScmFormatError) as exc:
            parse_scm(bad)
        assert exc.value.line == 7

    def test_duplicate_noise(self):
        bad = LINEAR_MODEL + "U_Y ~ Normal(0.0, 2.0)\n"
        with pytest.raises(ScmFormatError, match="duplicate noise"):
            parse_scm(bad)

    def test_duplicate_equation_names_its_line(self):
        bad = LINEAR_MODEL.replace("Y = 2 * X + U", "Y = 2 * X + U\nY := X")
        with pytest.raises(ScmFormatError) as exc:
            parse_scm(bad)
        assert str(exc.value) == "line 5: duplicate equation for 'Y'"

    def test_target_must_be_graph_node(self):
        bad = LINEAR_MODEL.replace("Y = 2 * X + U", "Z = 2 * X + U")
        with pytest.raises(ScmFormatError, match="not a graph node"):
            parse_scm(bad)

    def test_undirected_graph_rejected(self):
        with pytest.raises(ScmFormatError, match="must be directed"):
            parse_scm("graph:\nA -- B\nequations:\nnoise:\n")

    @pytest.mark.parametrize("line", ["X-1 -> Y", "Y -> X-1", "X-1"])
    def test_node_no_line_can_name_is_refused(self, line):
        # U_X-1 is no noise line and X-1 in an equation reads X minus 1.
        text = f"graph:\nY\n{line}\nequations:\nY := 1.0\nnoise:\n"
        with pytest.raises(ScmFormatError) as exc:
            parse_scm(text)
        assert str(exc.value) == "line 3: graph section: variable name 'X-1' is not an identifier"

    def test_library_names_are_identifiers(self):
        with pytest.raises(ValueError, match="variable name 'X-1' is not an identifier"):
            Dag.of(nodes=["X-1"])
        with pytest.raises(ValueError, match="variable name 'a-b' is not an identifier"):
            Scm(Dag.of(nodes=["X"]), noise={"X": NormalNoise(), "a-b": NormalNoise()})
        with pytest.raises(ValueError, match="variable name 'Y 1' is not an identifier"):
            StructuralEquation("Y 1", ParametricTag.NONPARAMETRIC)

    @pytest.mark.parametrize("key", ["a_b", "U_X", "a-b", ""])
    def test_every_model_prints_text_that_reparses(self, key):
        # A noise key that no noise line can write is refused when the model
        # is built, so format_scm never prints text that parse_scm refuses.
        try:
            m = Scm(Dag.of(nodes=["X"]), noise={"X": NormalNoise(), key: UniformNoise()})
        except ValueError as exc:
            assert str(exc) == f"variable name {key!r} is not an identifier"
        else:
            assert parse_scm(format_scm(m)) == m

    def test_graph_line_fault_carries_file_line(self):
        bad = LINEAR_MODEL.replace("graph:\n", "graph:\n\n# edges\nX\nY => Z\n")
        with pytest.raises(ScmFormatError) as exc:
            parse_scm(bad)
        assert exc.value.line == 5
        assert str(exc.value).startswith("line 5: graph section: expected 'a -> b'")

    @pytest.mark.parametrize(
        "graph, message",
        [
            ("X -> Y\nY -> X\n", "graph section: directed cycle"),
            ("X -- Y\n", "graph section: a model graph must be directed"),
            ("X\n", "exogenous variable 'X' has no noise spec"),
        ],
    )
    def test_whole_model_fault_names_no_line(self, graph, message):
        with pytest.raises(ScmFormatError) as exc:
            parse_scm(f"graph:\n{graph}equations:\nnoise:\n")
        assert exc.value.line is None
        assert str(exc.value).startswith(message)

    def test_uniform_round_trip(self):
        text = "graph:\nX\nequations:\nnoise:\nU_X ~ Uniform(-1.0, 1.0)\n"
        m = parse_scm(text)
        assert format_scm(m) == text

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(-5, 5, allow_nan=False).map(lambda v: round(v, 3)),
        sigma=st.floats(0.1, 3, allow_nan=False).map(lambda v: round(v, 3)),
    )
    def test_round_trip_survives_parameters(self, a, sigma):
        m = Scm(
            Dag.of(nodes=["X"]),
            noise={"X": NormalNoise(a, sigma)},
        )
        assert parse_scm(format_scm(m)) == m
