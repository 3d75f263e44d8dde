"""In-memory call tracing of komohe's public functions, installed from outside.

The tracer replaces each target function by a wrapper wherever komohe holds
it: every `komohe.*` module attribute that is the very same object (so
re-exported names such as `komohe.normalize_term` and names imported into
other modules are counted too), or the class attribute for methods. Each
call records a span (name, start, end, parent) and counts; spans stay in
memory and are written out by `dump`. Recursive calls of a function already
on the stack pass through unrecorded, so `render_query` counts one span per
query. Single-threaded use only: the span stack is shared.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (trace name, module, attribute path) for the public functions of each layer
TARGETS = [
    ("registry.normalize_term", "komohe.registry", "normalize_term"),
    ("registry.import_terms", "komohe.registry", "VocabularyRegistry.import_terms"),
    ("registry.add_term", "komohe.registry", "VocabularyRegistry.add_term"),
    ("registry.lookup_term", "komohe.registry", "VocabularyRegistry.lookup_term"),
    ("registry.export_terms", "komohe.registry", "VocabularyRegistry.export_terms"),
    ("store.import_tsv", "komohe.store", "CrosswalkStore.import_tsv"),
    ("store.add_mapping", "komohe.store", "CrosswalkStore.add_mapping"),
    ("store.mappings_from", "komohe.store", "CrosswalkStore.mappings_from"),
    ("store.stats", "komohe.store", "CrosswalkStore.stats"),
    ("store.export_tsv", "komohe.store", "CrosswalkStore.export_tsv"),
    ("queries.parse_query", "komohe.queries", "parse_query"),
    ("queries.expand_query", "komohe.queries", "expand_query"),
    ("queries.render_query", "komohe.queries", "render_query"),
    ("service.Dataset.load", "komohe.service", "Dataset.load"),
    ("service.translate", "komohe.service", "translate"),
    ("service.route", "komohe.service", "KomoheRequestHandler.route"),
    ("cli.run", "komohe.cli", "run"),
    ("cli.load_dataset", "komohe.cli", "load_dataset"),
    ("cli.save_dataset", "komohe.cli", "save_dataset"),
    ("inference.infer_pivot", "komohe.inference", "infer_pivot"),
    ("inference.detect_variant_mappings", "komohe.inference", "detect_variant_mappings"),
    ("assessment.load_corpus", "komohe.assessment", "load_corpus"),
    ("assessment.sample_assessment", "komohe.assessment", "sample_assessment"),
    ("assessment.assess_mapping", "komohe.assessment", "assess_mapping"),
    ("skos.export_skos", "komohe.skos", "export_skos"),
    ("skos.import_skos", "komohe.skos", "import_skos"),
]

# functions whose result length is summed, for results-per-call ratios
SIZED = {"store.mappings_from", "inference.infer_pivot", "inference.detect_variant_mappings"}


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.calls: Counter = Counter()
        self.results: Counter = Counter()  # summed len(result) of outermost SIZED calls
        self.within: Counter = Counter()  # (name, ancestor name) -> calls
        self.durations: dict[tuple[str, str], array] = {}  # (name, group) -> ns per outermost call
        self.group = ""  # set by the caller to split durations, e.g. by route
        self._stack: list[tuple[str, int]] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            tracer.calls[name] += 1
            ancestors = {entry[0] for entry in stack}
            if name in ancestors:
                return fn(*args, **kwargs)
            for ancestor in ancestors:
                tracer.within[(name, ancestor)] += 1
            index = -1
            if len(tracer.spans) < tracer.span_cap:
                index = len(tracer.spans)
                tracer.spans.append([name, 0, 0, stack[-1][1] if stack else -1])
            stack.append((name, index))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            if index >= 0:
                tracer.spans[index][1:3] = (start, end)
            key = (name, tracer.group)
            if key not in tracer.durations:
                tracer.durations[key] = array("q")
            tracer.durations[key].append(end - start)
            if name in SIZED:
                tracer.results[name] += len(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "komohe" or n.startswith("komohe.")]
        for name, module_name, path in TARGETS:
            owner = sys.modules[module_name]
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            if classes:  # a method: patch the class once, keeping classmethod-ness
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, raw)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def ns(self, name: str, group_prefix: str = "") -> list[int]:
        """Durations in ns of outermost calls of `name` made while the group started with group_prefix."""
        out: list[int] = []
        for (n, g), values in self.durations.items():
            if n == name and g.startswith(group_prefix):
                out.extend(values)
        return out

    def total_s(self, name: str) -> float:
        return sum(self.ns(name)) / 1e9

    def dump(self, path: Path) -> None:
        """Spans as TSV (index, name, start_ns, end_ns, parent), then call counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("#span\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\n")
            out.write("#calls\tname\tcount\n")
            for name, count in sorted(self.calls.items()):
                out.write(f"calls\t{name}\t{count}\n")
