"""Spans and counters recorded from outside the program.

``Tracer.install()`` replaces the public entry points of each
``cdl_compass`` module with wrappers that record a span (name, start, end,
parent) per call, and counts calls to the two hot graph predicates, which
run far too often to span.  Every module-level alias of a wrapped function
is replaced too, so calls that go through ``cli``'s imported names are seen.
``uninstall()`` puts the originals back.  Spans stay in memory until
``dump()`` writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute or Class.method) pairs that get a span per call.
SPANNED = {
    "graphs": (
        "parse_graph", "parse_dag", "parse_constraints", "implied_independencies",
        "enumerate_mec", "unroll", "Dag.of", "Dag.topological_order", "Dag.descendants",
    ),
    "scm": ("parse_scm", "sample", "Dataset.to_csv", "Dataset.from_csv"),
    "expressions": ("parse_expression", "evaluate_expression"),
    "stats": (
        "ks_test", "jarque_bera_test", "cusum_linearity_test", "residual_independence_test",
        "anm_direction", "partial_correlation_ci_test", "savitzky_golay_smooth",
    ),
    "engine": ("validate_pipeline", "plan_pipeline", "audit_transitions", "parse_pipeline"),
    "registry": ("default_catalog", "load_catalog", "query_catalog"),
    "cli": ("main",),
}
# Called once per DAG and per statement inside enumeration: counted, not spanned.
COUNTED = {"graphs": ("d_separated", "consistent_with")}


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end, self.parent = name, start, None, parent
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part covered by direct child spans."""
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, time.perf_counter(), parent)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
                if parent is not None:
                    spans[parent].child_time += span.duration

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def last_root(self, start_index: int) -> Span:
        """The first top-level span recorded at or after ``start_index``."""
        for span in self.spans[start_index:]:
            if span.parent is None or span.parent < start_index:
                return span
        raise LookupError("no span recorded")

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for module_name in SPANNED:
            importlib.import_module(f"cdl_compass.{module_name}")
        package = {k: m for k, m in sys.modules.items() if k.startswith("cdl_compass")}
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module_name, attrs in table.items():
                module = package[f"cdl_compass.{module_name}"]
                for attr in attrs:
                    name = f"{module_name}.{attr}"
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(module, cls_name)
                        raw = cls.__dict__[meth]
                        if isinstance(raw, classmethod):
                            new = classmethod(make(name, raw.__func__))
                        else:
                            new = make(name, raw)
                        self._saved.append((cls, meth, raw))
                        setattr(cls, meth, new)
                        continue
                    orig = getattr(module, attr)
                    new = make(name, orig)
                    for mod in package.values():
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                self._saved.append((mod, key, orig))
                                setattr(mod, key, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent"],
                    "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
                    "counts": self.counts,
                },
                fh,
            )
