"""Outside-in tracing of kostka: wrap public functions, keep spans in memory.

Nothing under src/ knows about this. install() replaces each listed function in
every kostka module namespace that bound it by name (kostka.verify and
kostka.cli import kostka_number directly, the package re-exports everything),
so calls between modules are seen as well as calls from the benchmark.

A span is (parent id, name, start, end), kept in flat arrays; ids are indices
and parents always precede their children. Self time is a span's duration
minus its children's. summary() turns the spans into per-layer metrics once the
timed phase is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from collections.abc import MutableMapping

# layer -> public functions timed at that layer, looked up in kostka.<layer>
LAYERS = {
    "engine": ("kostka_number", "kostka_matrix", "KostkaMatrix.to_csv", "KostkaMatrix.to_json"),
    "partitions": ("dominates", "covers", "partitions_of"),
    "counting": ("count_bounded_compositions", "split_by_first_part"),
    "tableaux": ("iter_semistandard",),
    "transfer_classes": ("signature_of", "signature_census"),
    # the brute-force oracles of two suites; _brute_bounded_counts is private but
    # is the only handle on the bounded-counts oracle
    "verify": ("brute_force_covers", "_brute_bounded_counts"),
}
# suites return a Report; each is looked up in kostka.verify, where the CLI suites bind them
SUITES = (
    "verify_positivity",
    "verify_monotonicity",
    "verify_bounded_counts",
    "verify_adjacent_transfer",
    "verify_covers",
)
# Inside a suite, the outermost span of one of these names counts towards that
# suite's oracle or fast-path time: the fast path is the code under test, the
# oracle the independent route it is compared with.
ROUTES = {
    "engine.kostka_number": "fast",
    "counting.count_bounded_compositions": "fast",
    "counting.split_by_first_part": "fast",
    "partitions.covers": "fast",
    "partitions.dominates": "oracle",
    "tableaux.iter_semistandard": "oracle",
    "transfer_classes.signature_of": "oracle",
    "transfer_classes.signature_census": "oracle",
    "verify.brute_force_covers": "oracle",
    "verify._brute_bounded_counts": "oracle",
}


class CountingCache(MutableMapping):
    """A view over a memo dict that counts lookups, hits and new entries into stats."""

    def __init__(self, store: dict, stats: list[int]):
        self._store = store
        self._stats = stats  # [gets, hits, entries]

    def get(self, key, default=None):
        self._stats[0] += 1
        if key in self._store:
            self._stats[1] += 1
            return self._store[key]
        return default

    def __getitem__(self, key):
        self._stats[0] += 1
        value = self._store[key]
        self._stats[1] += 1
        return value

    def __setitem__(self, key, value):
        if key not in self._store:
            self._stats[2] += 1
        self._store[key] = value

    def __delitem__(self, key):
        del self._store[key]

    def __iter__(self):
        return iter(self._store)

    def __len__(self):
        return len(self._store)


class _TracedIterator:
    """Times each next() of a generator as its own span, so its body's time is its own."""

    def __init__(self, tracer: "Tracer", name_id: int, it):
        self._tracer = tracer
        self._name_id = name_id
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        sid = self._tracer.open(self._name_id)
        try:
            item = next(self._it)
        finally:
            self._tracer.close(sid)
        self._tracer.yielded += 1
        return item


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.reports: dict[int, tuple[str, int]] = {}
        self.memo_stats = [0, 0, 0]
        # stands in for the shared module cache, which starts empty in a fresh child
        self.shared_memo: dict = {}
        self.yielded = 0

    def open(self, name_id: int) -> int:
        sid = len(self.name)
        self.parent.append(self.stack[-1])
        self.name.append(name_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def install(self, kostka) -> None:
        submodules = [m.name for m in pkgutil.iter_modules(kostka.__path__) if m.name != "__main__"]
        modules = [kostka] + [importlib.import_module(f"kostka.{name}") for name in submodules]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"kostka.{layer}")
            for name in names:
                owner, attr = home, name
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(home, cls_name, None)
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue  # gone from the package: its metrics read as absent
                full = f"{layer}.{name}"
                if inspect.isgeneratorfunction(fn):
                    wrapper = self._wrap_generator(fn, full)
                else:
                    wrapper = self._wrap(fn, full, self._cache_arg(fn) if full == "engine.kostka_number" else None)
                if owner is home:
                    self._rebind(modules, fn, wrapper)
                else:
                    setattr(owner, attr, wrapper)
        suites = importlib.import_module("kostka.verify")
        for name in SUITES:
            fn = getattr(suites, name, None)
            if fn is not None:
                self._rebind(modules, fn, self._wrap(fn, f"verify.{name}", None, self._record_report))

    @staticmethod
    def _rebind(modules, fn, wrapper) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, name, transform=None, on_result=None):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if transform is not None:
                args, kwargs = transform(args, kwargs)
            sid = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if on_result is not None:
                on_result(sid, result)
            return result

        return traced

    def _wrap_generator(self, fn, name):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedIterator(self, name_id, fn(*args, **kwargs))

        return traced

    def _record_report(self, sid: int, report) -> None:
        self.reports[sid] = (report.name, report.checked)

    def _cache_arg(self, fn):
        """Route kostka_number's memo through a CountingCache: None means the shared memo."""
        params = list(inspect.signature(fn).parameters)
        if "cache" not in params:
            return None
        pos = params.index("cache")

        def view(cache):
            if isinstance(cache, CountingCache):
                return cache
            return CountingCache(self.shared_memo if cache is None else cache, self.memo_stats)

        def transform(args, kwargs):
            if len(args) > pos:
                return args[:pos] + (view(args[pos]),) + args[pos + 1:], kwargs
            return args, dict(kwargs, cache=view(kwargs.get("cache")))

        return transform

    def summary(self, wall_s: float, suite_names=()) -> tuple[dict, list]:
        """Per-layer metrics, and the spans aggregated by (parent name, name).

        Self times plus unattributed_s add up to wall_s. Each aggregated span is
        [parent name or None, name, calls, total seconds, self seconds].
        """
        n = len(self.name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        edges: dict[tuple[int, int], list] = {}
        for i in range(n):
            name = self.name[i]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            p = self.parent[i]
            edge = edges.setdefault((self.name[p] if p >= 0 else -1, name), [0, 0.0, 0.0])
            edge[0] += 1
            edge[1] += dur[i]
            edge[2] += dur[i] - child[i]

        # walk spans in id order, so a parent's suite and route are known first
        suite_of = [-1] * n
        route_of: list[str | None] = [None] * n
        routes: dict[int, dict[str, float]] = {sid: {"oracle": 0.0, "fast": 0.0} for sid in self.reports}
        for i in range(n):
            p = self.parent[i]
            suite_of[i] = i if i in self.reports else (suite_of[p] if p >= 0 else -1)
            inherited = route_of[p] if p >= 0 else None
            route_of[i] = inherited or ROUTES.get(self.names[self.name[i]])
            if inherited is None and route_of[i] is not None and suite_of[i] >= 0:
                routes[suite_of[i]][route_of[i]] += dur[i]

        out: dict[str, float | int] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for k, name in enumerate(self.names):
            layer, _, func = name.partition(".")
            layer_self[layer] += self_s[k]
            if not func.startswith("verify_"):
                out[f"{name}.calls"] = calls[k]
                out[f"{name}.self_s"] = self_s[k]
        for layer, seconds in layer_self.items():
            out[f"{layer}.self_s"] = seconds
        out["unattributed_s"] = wall_s - sum(self_s)
        out["traced_wall_s"] = wall_s
        out["tableaux.tableaux_yielded"] = self.yielded
        gets, hits, entries = self.memo_stats
        if gets or entries:
            out["engine.memo_entries"] = entries
            out["engine.memo_gets"] = gets
            out["engine.memo_hit_ratio"] = hits / gets if gets else 0.0
        for suite in suite_names:
            for key in ("wall_s", "checked", "oracle_s", "fast_s"):
                out[f"verify.{suite}.{key}"] = 0
        for sid, (suite, checked) in self.reports.items():
            out[f"verify.{suite}.wall_s"] = dur[sid]
            out[f"verify.{suite}.checked"] = checked
            out[f"verify.{suite}.oracle_s"] = routes[sid]["oracle"]
            out[f"verify.{suite}.fast_s"] = routes[sid]["fast"]
        tree = [[self.names[p] if p >= 0 else None, self.names[c]] + e for (p, c), e in edges.items()]
        return out, tree
