"""Command-line front end.

Subcommands: ``dsep``, ``mec``, ``simulate``, ``test`` (``--test`` picks
ks / jb / cusum / resid / pcorr), ``anm``, ``catalog`` (list / show),
``validate``, ``plan``, ``audit``.  Every subcommand takes
``--format text|json`` and prints through ``_show``, which builds only
the form asked for from the handler's JSON payload or text.

Exit codes: 0 on success, 1 on a domain error (bad input file, unknown
node or card, invalid pipeline, empty plan under ``--strict``, memory
refused), 2 on a usage error (unknown flags, missing or incompatible
options).  Output is byte-identical for identical argv and input files;
``--seed`` defaults to 0.

Every handler imports the package modules it runs, and nothing else loads
at start-up, so a cold process compiles and runs only those: ``dsep`` and
``mec`` load ``graphs`` alone; ``catalog`` loads ``lattice`` and
``registry``, and ``validate``, ``plan`` and ``audit`` add ``engine``, none
of them numpy; ``test`` and ``anm`` read their CSV through ``datasets``
without the model code in ``scm``; ``simulate`` loads ``scm``, and with it
``stats``, which holds the Normal and Uniform noise families.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .lattice import KnowledgeState


class _UsageError(Exception):
    """Bad flag combination detected after parsing; exits 2 like argparse."""


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _show(args, payload, text) -> None:
    """Print ``payload()`` as indented JSON or ``text()``, as ``--format`` asks."""
    shown = json.dumps(payload(), indent=2) if args.format == "json" else text()
    sys.stdout.write(shown if shown.endswith("\n") else shown + "\n")


def _load_cli_catalog(args):
    from .registry import default_catalog, load_catalog

    if args.catalog is None:
        return default_catalog()
    return load_catalog(args.catalog)


def _state(triple: str) -> KnowledgeState:
    from .lattice import KnowledgeState

    return KnowledgeState.from_triple(triple)


def _name_list(raw: list[str] | None) -> tuple[str, ...]:
    # split on commas and/or whitespace, as a constraint file's givens; repeats count once
    return tuple(dict.fromkeys(" ".join(raw or ()).replace(",", " ").split()))


def _render_report_text(report: dict, indent: int = 0) -> list[str]:
    """A report's ``to_mapping()``: strings as written, ``None`` as ``-``, the rest
    by ``repr``, details in key order, each sub-report under ``advisory:``."""
    pad = "  " * indent
    fields = [(k, v) for k, v in report.items() if k not in ("details", "sub_reports")]
    lines = [
        f"{pad}{key}: {value if isinstance(value, str) else '-' if value is None else repr(value)}"
        for key, value in fields + sorted(report.get("details", {}).items())
    ]
    for sub in report.get("sub_reports", ()):
        lines += [f"{pad}advisory:", *_render_report_text(sub, indent + 1)]
    return lines


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_dsep(args) -> int:
    from .graphs import d_separated, parse_dag

    graph = parse_dag(_read_text(args.graph))
    given = _name_list(args.given)
    separated = d_separated(graph, args.x, args.y, given)
    _show(
        args,
        lambda: {
            "x": args.x,
            "y": args.y,
            "given": sorted(given),
            "d_separated": separated,
        },
        lambda: f"d-separated: {'true' if separated else 'false'}",
    )
    return 0


def _cmd_mec(args) -> int:
    from .graphs import _enumeration_names, enumerate_mec, format_graph, parse_constraints

    variables = _name_list([args.vars])
    _enumeration_names(variables)  # before "| *" lines expand 2^(n-2)-fold
    constraints = parse_constraints(_read_text(args.constraints), variables)
    graphs = enumerate_mec(constraints, variables)
    texts = [format_graph(g).rstrip("\n") for g in graphs]
    _show(
        args,
        lambda: {
            "count": len(graphs),
            "graphs": [text.split("\n") if text else [] for text in texts],
        },
        lambda: "\n\n".join(texts) if graphs else "no consistent graph",
    )
    return 0


def _cmd_simulate(args) -> int:
    from .scm import parse_scm, sample

    model = parse_scm(_read_text(args.model))
    data = sample(model, args.n, seed=args.seed)
    if args.out is not None:
        data.to_csv(args.out)
        return 0
    _show(
        args,
        lambda: {
            "n": data.n,
            "columns": {name: list(data.column(name)) for name in data.names},
        },
        data.to_csv,
    )
    return 0


# The flags each ``--test`` choice needs, checked before any input is read.
_TEST_FLAGS = {
    "ks": ["--column"],
    "jb": ["--column"],
    "cusum": ["--x", "--y"],
    "resid": ["--x", "--resid"],
    "pcorr": ["--x", "--y"],
}


def _require(args, flags: list[str]) -> None:
    missing = [
        flag
        for flag in flags
        if getattr(args, flag.lstrip("-").replace("-", "_")) is None
    ]
    if missing:
        raise _UsageError(f"test {args.test!r} requires {', '.join(missing)}")


def _cmd_test(args) -> int:
    _require(args, _TEST_FLAGS[args.test])
    from .datasets import Dataset
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
        if args.uniform is not None:
            cdf = uniform_cdf(args.uniform[0], args.uniform[1])
        else:
            cdf = gaussian_cdf(args.mu, args.sigma)
        report = ks_test(data.column(args.column), cdf, alpha=args.alpha)
    elif args.test == "jb":
        report = jarque_bera_test(data.column(args.column), alpha=args.alpha)
    elif args.test == "cusum":
        report = cusum_linearity_test(
            data.column(args.x), data.column(args.y), alpha=args.alpha
        )
    elif args.test == "resid":
        report = residual_independence_test(
            data.column(args.x),
            data.column(args.resid),
            alpha=args.alpha,
            n_permutations=args.permutations,
            seed=args.seed,
        )
    else:  # pcorr
        given = _name_list([args.given]) if args.given else ()
        report = partial_correlation_ci_test(
            data, args.x, args.y, given, alpha=args.alpha
        )
    _show(args, report.to_mapping, lambda: "\n".join(_render_report_text(report.to_mapping())))
    return 0


def _cmd_anm(args) -> int:
    from .datasets import Dataset
    from .stats import anm_direction

    data = Dataset.from_csv(args.data)
    result = anm_direction(
        data.column(args.x),
        data.column(args.y),
        alpha=args.alpha,
        seed=args.seed,
    )
    _show(
        args,
        lambda: {
            "direction": result.direction.label,
            "forward": result.forward.to_mapping(),
            "backward": result.backward.to_mapping(),
        },
        lambda: "\n".join(
            [
                f"direction: {result.direction.label}",
                "forward:",
                *_render_report_text(result.forward.to_mapping(), 1),
                "backward:",
                *_render_report_text(result.backward.to_mapping(), 1),
            ]
        ),
    )
    return 0


def _cmd_catalog_list(args) -> int:
    from .registry import card_to_mapping, query_catalog

    catalog = _load_cli_catalog(args)
    cards = query_catalog(
        catalog,
        temporal=args.temporal,
        min_a_posteriori=args.min_a_posteriori,
        max_a_priori=args.max_a_priori,
        tag=args.tag,
    )
    _show(
        args,
        lambda: [card_to_mapping(c) for c in cards],
        lambda: "\n".join(
            f"{c.id}: {c.a_priori.triple} -> {c.a_posteriori.triple}  ({c.name})"
            for c in cards
        )
        or "no matching cards",
    )
    return 0


def _tier_mapping(state: KnowledgeState) -> dict:
    from .lattice import testability_tier

    return {
        "structural": testability_tier(state.structural.tag).label,
        "parametric": testability_tier(state.parametric.tag).label,
    }


def _cmd_catalog_show(args) -> int:
    from .registry import card_to_mapping

    catalog = _load_cli_catalog(args)
    card = catalog.card(args.id)
    sides = (("a_priori", card.a_priori), ("a_posteriori", card.a_posteriori))
    _show(
        args,
        lambda: {
            **card_to_mapping(card),
            "testability": {side: _tier_mapping(state) for side, state in sides},
        },
        lambda: "\n".join(
            [
                f"id: {card.id}",
                f"name: {card.name}",
                f"citation: {card.citation_key}",
                f"a_priori: {card.a_priori.triple}",
                f"a_posteriori: {card.a_posteriori.triple}",
                f"tags: {', '.join(card.assumption_tags) if card.assumption_tags else '(none)'}",
                f"notes: {card.notes}",
                "testability:",
                *(
                    f"  {side} {axis} {getattr(state, axis).tag.label}: {tier}"
                    for side, state in sides
                    for axis, tier in _tier_mapping(state).items()
                ),
            ]
        ),
    )
    return 0


def _cmd_validate(args) -> int:
    from .engine import parse_pipeline, render_validation_text, validate_pipeline

    catalog = _load_cli_catalog(args)
    ids = parse_pipeline(_read_text(args.pipeline))
    report = validate_pipeline(catalog, ids, _state(args.start))
    _show(args, report.to_mapping, lambda: render_validation_text(report))
    return 0 if report.overall else 1


def _cmd_plan(args) -> int:
    from .engine import audit_transitions, plan_pipeline, render_plans_text

    catalog = _load_cli_catalog(args)
    plans = plan_pipeline(
        catalog, _state(args.start), _state(args.goal), max_len=args.max_len
    )
    _show(
        args,
        lambda: plans,
        lambda: render_plans_text(
            plans, audit_transitions(catalog).relaxing if args.show_relaxing else ()
        ),
    )
    if args.strict and not plans:
        return 1
    return 0


def _cmd_audit(args) -> int:
    from .engine import audit_transitions, render_audit_text

    catalog = _load_cli_catalog(args)
    report = audit_transitions(catalog)
    _show(args, report.to_mapping, lambda: render_audit_text(report))
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
    p.add_argument("--vars", required=True, help="variable names, comma- or space-separated")
    p.set_defaults(handler=_cmd_mec)

    p = sub.add_parser("simulate", parents=[common], help="sample a structural model")
    p.add_argument("model", metavar="SCM", help="structural model file")
    p.add_argument("--n", required=True, type=int, help="number of samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="FILE", default=None, help="write CSV here")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("test", parents=[common], help="run an assumption test")
    p.add_argument("data", metavar="CSV", help="dataset file")
    p.add_argument(
        "--test",
        required=True,
        choices=tuple(_TEST_FLAGS),
        help="which test to run",
    )
    p.add_argument("--column", default=None, help="column for ks/jb")
    p.add_argument("--x", default=None, help="input column for cusum/resid/pcorr")
    p.add_argument("--y", default=None, help="response column for cusum/pcorr")
    p.add_argument("--resid", default=None, help="residual column for resid")
    p.add_argument("--given", default=None, help="comma- or space-separated conditioners (pcorr)")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(handler=_cmd_test)

    p = sub.add_parser("anm", parents=[common], help="pairwise direction finding")
    p.add_argument("data", metavar="CSV", help="dataset file")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_anm)

    p = sub.add_parser("catalog", help="browse method cards")
    csub = p.add_subparsers(dest="catalog_command", required=True)

    c = csub.add_parser("list", parents=[common, catalog_opt], help="list/filter cards")
    c.add_argument("--temporal", metavar="FLAG", default=None, help="static or temporal")
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
    except MemoryError as exc:
        # numpy names the block it could not allocate; the interpreter's own
        # MemoryError carries no message.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
