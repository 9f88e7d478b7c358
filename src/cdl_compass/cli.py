"""Command-line front end.

Subcommands: ``dsep``, ``mec``, ``simulate``, ``test`` (``--test`` picks
ks / jb / cusum / resid / pcorr), ``anm``, ``catalog`` (list / show),
``validate``, ``plan``, ``audit``.  Every subcommand takes
``--format text|json``.

Exit codes: 0 on success, 1 on a domain error (bad input file, unknown
node or card, invalid pipeline, empty plan under ``--strict``), 2 on a
usage error (unknown flags, missing or incompatible options).  Output
is byte-identical for identical argv, input files, and seeds.  The
environment variable ``CDL_COMPASS_SEED`` replaces the built-in default
seed 0; an explicit ``--seed`` wins over both.

The numpy-backed modules (``scm``, ``stats``) are imported inside the
handlers that use them, so the graph, catalog and pipeline subcommands
start without loading numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .engine import (
    audit_transitions,
    parse_pipeline,
    plan_pipeline,
    render_audit_text,
    render_plans_text,
    render_validation_text,
    validate_pipeline,
)
from .graphs import d_separated, enumerate_mec, format_graph, parse_constraints, parse_dag
from .lattice import KnowledgeState, testability_tier
from .registry import card_to_mapping, default_catalog, load_catalog, query_catalog

if TYPE_CHECKING:
    from .stats import TestReport


class _UsageError(Exception):
    """Bad flag combination detected after parsing; exits 2 like argparse."""


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, indent=2))


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    raw = os.environ.get("CDL_COMPASS_SEED")
    if raw is None or raw == "":
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"CDL_COMPASS_SEED must be an integer, got {raw!r}") from None


def _load_cli_catalog(args):
    if args.catalog is None:
        return default_catalog()
    return load_catalog(args.catalog)


def _state(triple: str) -> KnowledgeState:
    return KnowledgeState.from_triple(triple)


def _name_list(raw: list[str] | None) -> tuple[str, ...]:
    # accept both space- and comma-separated node lists
    out: list[str] = []
    for chunk in raw or ():
        out.extend(part.strip() for part in chunk.split(",") if part.strip())
    return tuple(out)


def _render_report_text(report: TestReport, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = [
        f"{pad}test: {report.test}",
        f"{pad}statistic: {report.statistic!r}",
        f"{pad}p_value: {report.p_value!r}",
        f"{pad}alpha: {report.alpha!r}",
        f"{pad}decision: {report.decision.label}",
        f"{pad}bears_on: {report.bears_on.label if report.bears_on else '-'}",
    ]
    for key in sorted(report.details):
        value = report.details[key]
        shown = value if isinstance(value, str) else repr(value)
        lines.append(f"{pad}{key}: {shown}")
    for sub in report.sub_reports:
        lines.append(f"{pad}advisory:")
        lines.extend(_render_report_text(sub, indent + 1))
    return lines


def _emit_report(report: TestReport, fmt: str) -> None:
    if fmt == "json":
        _emit_json(report.to_mapping())
    else:
        _emit("\n".join(_render_report_text(report)))


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_dsep(args) -> int:
    graph = parse_dag(_read_text(args.graph))
    given = _name_list(args.given)
    separated = d_separated(graph, args.x, args.y, given)
    if args.format == "json":
        _emit_json(
            {
                "x": args.x,
                "y": args.y,
                "given": sorted(given),
                "d_separated": separated,
            }
        )
    else:
        _emit(f"d-separated: {'true' if separated else 'false'}")
    return 0


def _cmd_mec(args) -> int:
    variables = _name_list([args.vars])
    constraints = parse_constraints(_read_text(args.constraints), variables)
    graphs = enumerate_mec(constraints, variables, max_nodes=args.max_nodes)
    texts = [format_graph(g).rstrip("\n") for g in graphs]
    if args.format == "json":
        _emit_json(
            {
                "count": len(graphs),
                "graphs": [text.split("\n") if text else [] for text in texts],
            }
        )
    else:
        if not graphs:
            _emit("no consistent graph")
        else:
            _emit("\n\n".join(texts))
    return 0


def _cmd_simulate(args) -> int:
    from .scm import parse_scm, sample

    model = parse_scm(_read_text(args.model))
    data = sample(model, args.n, seed=_resolve_seed(args))
    if args.out is not None:
        data.to_csv(args.out)
        return 0
    if args.format == "json":
        _emit_json(
            {
                "n": data.n,
                "columns": {name: list(data.column(name)) for name in data.names},
            }
        )
    else:
        _emit(data.to_csv())
    return 0


def _require(args, flags: list[str]) -> None:
    missing = [
        flag
        for flag in flags
        if getattr(args, flag.lstrip("-").replace("-", "_")) is None
    ]
    if missing:
        raise _UsageError(f"test {args.test!r} requires {', '.join(missing)}")


def _cmd_test(args) -> int:
    from .scm import Dataset
    from .stats import (
        cusum_linearity_test,
        gaussian_cdf,
        jarque_bera_test,
        ks_test,
        partial_correlation_ci_test,
        residual_independence_test,
        uniform_cdf,
    )

    data = Dataset.from_csv(args.data)
    if args.test == "ks":
        _require(args, ["--column"])
        if args.uniform is not None:
            cdf = uniform_cdf(args.uniform[0], args.uniform[1])
        else:
            cdf = gaussian_cdf(args.mu, args.sigma)
        report = ks_test(data.column(args.column), cdf, alpha=args.alpha)
    elif args.test == "jb":
        _require(args, ["--column"])
        report = jarque_bera_test(data.column(args.column), alpha=args.alpha)
    elif args.test == "cusum":
        _require(args, ["--x", "--y"])
        report = cusum_linearity_test(
            data.column(args.x), data.column(args.y), alpha=args.alpha
        )
    elif args.test == "resid":
        _require(args, ["--x", "--resid"])
        report = residual_independence_test(
            data.column(args.x),
            data.column(args.resid),
            alpha=args.alpha,
            n_permutations=args.permutations,
            seed=_resolve_seed(args),
        )
    else:  # pcorr
        _require(args, ["--x", "--y"])
        given = _name_list([args.given]) if args.given else ()
        report = partial_correlation_ci_test(
            data, args.x, args.y, given, alpha=args.alpha
        )
    _emit_report(report, args.format)
    return 0


def _cmd_anm(args) -> int:
    from .scm import Dataset
    from .stats import anm_direction

    data = Dataset.from_csv(args.data)
    result = anm_direction(
        data.column(args.x),
        data.column(args.y),
        alpha=args.alpha,
        seed=_resolve_seed(args),
    )
    if args.format == "json":
        _emit_json(
            {
                "direction": result.direction.label,
                "forward": result.forward.to_mapping(),
                "backward": result.backward.to_mapping(),
            }
        )
    else:
        lines = [f"direction: {result.direction.label}", "forward:"]
        lines.extend(_render_report_text(result.forward, 1))
        lines.append("backward:")
        lines.extend(_render_report_text(result.backward, 1))
        _emit("\n".join(lines))
    return 0


def _cmd_catalog_list(args) -> int:
    catalog = _load_cli_catalog(args)
    cards = query_catalog(
        catalog,
        temporal=args.temporal,
        min_a_posteriori=args.min_a_posteriori,
        max_a_priori=args.max_a_priori,
        tag=args.tag,
    )
    if args.format == "json":
        _emit_json([card_to_mapping(c) for c in cards])
    elif not cards:
        _emit("no matching cards")
    else:
        _emit(
            "\n".join(
                f"{c.id}: {c.a_priori.triple} -> {c.a_posteriori.triple}  ({c.name})"
                for c in cards
            )
        )
    return 0


def _tier_mapping(state: KnowledgeState) -> dict:
    return {
        "structural": testability_tier(state.structural.tag).label,
        "parametric": testability_tier(state.parametric.tag).label,
    }


def _cmd_catalog_show(args) -> int:
    catalog = _load_cli_catalog(args)
    card = catalog.card(args.id)
    if args.format == "json":
        payload = card_to_mapping(card)
        payload["testability"] = {
            "a_priori": _tier_mapping(card.a_priori),
            "a_posteriori": _tier_mapping(card.a_posteriori),
        }
        _emit_json(payload)
        return 0
    lines = [
        f"id: {card.id}",
        f"name: {card.name}",
        f"citation: {card.citation_key}",
        f"a_priori: {card.a_priori.triple}",
        f"a_posteriori: {card.a_posteriori.triple}",
        f"tags: {', '.join(card.assumption_tags) if card.assumption_tags else '(none)'}",
        f"notes: {card.notes}",
        "testability:",
    ]
    for label, state in (("a_priori", card.a_priori), ("a_posteriori", card.a_posteriori)):
        tiers = _tier_mapping(state)
        lines.append(
            f"  {label} structural {state.structural.tag.label}: {tiers['structural']}"
        )
        lines.append(
            f"  {label} parametric {state.parametric.tag.label}: {tiers['parametric']}"
        )
    _emit("\n".join(lines))
    return 0


def _cmd_validate(args) -> int:
    catalog = _load_cli_catalog(args)
    ids = parse_pipeline(_read_text(args.pipeline))
    report = validate_pipeline(catalog, ids, _state(args.start))
    if args.format == "json":
        _emit_json(report.to_mapping())
    else:
        _emit(render_validation_text(report))
    return 0 if report.overall else 1


def _cmd_plan(args) -> int:
    catalog = _load_cli_catalog(args)
    plans = plan_pipeline(
        catalog, _state(args.start), _state(args.goal), max_len=args.max_len
    )
    if args.format == "json":
        _emit_json(plans)
    else:
        relaxing = audit_transitions(catalog).relaxing if args.show_relaxing else ()
        _emit(render_plans_text(plans, relaxing))
    if args.strict and not plans:
        return 1
    return 0


def _cmd_audit(args) -> int:
    catalog = _load_cli_catalog(args)
    report = audit_transitions(catalog)
    if args.format == "json":
        _emit_json(report.to_mapping())
    else:
        _emit(render_audit_text(report))
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    catalog_opt = argparse.ArgumentParser(add_help=False)
    catalog_opt.add_argument(
        "--catalog", metavar="FILE", default=None, help="catalog JSON (default: built-in)"
    )

    parser = argparse.ArgumentParser(
        prog="cdl-compass",
        description="Causal knowledge states, method cards, and assumption checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dsep", parents=[common], help="query d-separation in a graph")
    p.add_argument("graph", metavar="GRAPH", help="edge-list file")
    p.add_argument("--x", required=True, metavar="NODE")
    p.add_argument("--y", required=True, metavar="NODE")
    p.add_argument("--given", nargs="*", metavar="NODE", default=None)
    p.set_defaults(handler=_cmd_dsep)

    p = sub.add_parser(
        "mec", parents=[common], help="enumerate graphs consistent with constraints"
    )
    p.add_argument("constraints", metavar="CONSTRAINTS", help="constraint file")
    p.add_argument("--vars", required=True, help="comma-separated variable names")
    p.add_argument("--max-nodes", type=int, default=6)
    p.set_defaults(handler=_cmd_mec)

    p = sub.add_parser("simulate", parents=[common], help="sample a structural model")
    p.add_argument("model", metavar="SCM", help="structural model file")
    p.add_argument("--n", required=True, type=int, help="number of samples")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", metavar="FILE", default=None, help="write CSV here")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("test", parents=[common], help="run an assumption test")
    p.add_argument("data", metavar="CSV", help="dataset file")
    p.add_argument(
        "--test",
        required=True,
        choices=("ks", "jb", "cusum", "resid", "pcorr"),
        help="which test to run",
    )
    p.add_argument("--column", default=None, help="column for ks/jb")
    p.add_argument("--x", default=None, help="input column for cusum/resid/pcorr")
    p.add_argument("--y", default=None, help="response column for cusum/pcorr")
    p.add_argument("--resid", default=None, help="residual column for resid")
    p.add_argument("--given", default=None, help="comma-separated conditioners (pcorr)")
    p.add_argument("--mu", type=float, default=0.0, help="ks reference mean")
    p.add_argument("--sigma", type=float, default=1.0, help="ks reference sd")
    p.add_argument(
        "--uniform",
        nargs=2,
        type=float,
        metavar=("LOW", "HIGH"),
        default=None,
        help="ks reference: uniform on [LOW, HIGH] instead of normal",
    )
    p.add_argument("--permutations", type=int, default=999)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(handler=_cmd_test)

    p = sub.add_parser("anm", parents=[common], help="pairwise direction finding")
    p.add_argument("data", metavar="CSV", help="dataset file")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_anm)

    p = sub.add_parser("catalog", help="browse method cards")
    csub = p.add_subparsers(dest="catalog_command", required=True)

    c = csub.add_parser("list", parents=[common, catalog_opt], help="list/filter cards")
    c.add_argument("--temporal", choices=("static", "temporal"), default=None)
    c.add_argument("--min-a-posteriori", metavar="TRIPLE", default=None)
    c.add_argument("--max-a-priori", metavar="TRIPLE", default=None)
    c.add_argument("--tag", default=None)
    c.set_defaults(handler=_cmd_catalog_list)

    c = csub.add_parser("show", parents=[common, catalog_opt], help="show one card")
    c.add_argument("id")
    c.set_defaults(handler=_cmd_catalog_show)

    p = sub.add_parser(
        "validate", parents=[common, catalog_opt], help="check a pipeline from a state"
    )
    p.add_argument("pipeline", metavar="PIPELINE", help="JSON array of card ids")
    p.add_argument("--start", required=True, metavar="TRIPLE")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser(
        "plan", parents=[common, catalog_opt], help="shortest card sequences to a goal"
    )
    p.add_argument("--start", required=True, metavar="TRIPLE")
    p.add_argument("--goal", required=True, metavar="TRIPLE")
    p.add_argument(
        "--max-len", type=int, default=6, help="longest pipeline considered (default 6)"
    )
    p.add_argument(
        "--strict", action="store_true", help="exit 1 when no plan reaches the goal"
    )
    p.add_argument(
        "--show-relaxing",
        action="store_true",
        help="mark plan steps whose card relaxes knowledge (text output)",
    )
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser(
        "audit", parents=[common, catalog_opt], help="classify card transitions"
    )
    p.set_defaults(handler=_cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
