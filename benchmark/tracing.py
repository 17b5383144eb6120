"""Per-layer spans and counters, recorded from outside flipspectra.

``Tracer.install`` replaces the public functions of each module with
wrappers, in every flipspectra namespace that holds them: the defining
module and each module (or the CLI) that imported the name.  So a span
opens exactly where one layer calls into another.  ``Tracer.uninstall``
puts the originals back.  No line of the program is edited; spans inside
the program are a separate change.

A span's self time is its duration minus the durations of the wrapped
spans it directly contains.  Helpers that are not wrapped (flips, dual
trees, ``from_edges``, ``is_connected``...) count toward the self time of
the span that called them.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from collections import Counter

# (module, function, span name); the span name plus "_s" is the time metric
SPANS = [
    ("triangulations", "enumerate_triangulations", "triangulations.enumerate"),
    ("flipgraph", "build_associahedron", "flipgraph.build"),
    ("flipgraph", "diagonal_slice", "flipgraph.slice"),
    ("flipgraph", "box_product", "flipgraph.box_product"),
    ("flipgraph", "is_isomorphic", "flipgraph.isomorphism"),
    # lambda_min / lambda_2 are renamed to spectra.dense by their result
    ("spectra", "lambda_min", "spectra.iterative"),
    ("spectra", "lambda_2", "spectra.iterative"),
    ("spectra", "dense_spectrum", "spectra.dense"),
    ("spectra", "matvec", "spectra.matvec"),
    ("census", "pentagon_census", "census.pentagon"),
    ("census", "hexagon_census", "census.hexagon"),
    ("bounds", "certify_collection_bound", "bounds.collection"),
    ("certify", "run_certification", "certify.self"),
    ("cli", "main", "cli.self"),
]

# (module, function, counter): counted calls, no span
COUNTS = [
    ("census", "pentagon_count_vertex_oracle", "census.oracle_calls"),
    ("census", "pentagon_count_edge_oracle", "census.oracle_calls"),
    ("census", "hexagon_count_vertex_oracle", "census.oracle_calls"),
    ("census", "hexagon_census_oracle", "census.oracle_calls"),
    ("census", "count_pentagons_total", "census.oracle_calls"),
]

SPAN_NAMES = sorted({name for _, _, name in SPANS})


def max_rss_mb() -> float:
    """High-water mark of this process's resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans kept in memory for one process; written out when the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.op = -1  # index of the CLI operation in progress: the request id
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._csr_bytes: dict[int, int] = {}
        self._peak: dict[str, float] = {}
        self._residual_max = 0.0
        self._dense_max_vertices = 0
        self._cache_hits0 = 0

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        from flipspectra import flipgraph

        self._cache_hits0 = flipgraph._associahedron_cached.cache_info().hits
        for mod, fn, name in SPANS:
            self._replace(mod, fn, lambda orig, name=name: self._span(name, orig))
        for mod, fn, name in COUNTS:
            self._replace(mod, fn, lambda orig, name=name: self._counter(name, orig))
        orig = flipgraph.Graph.adjacency_sets
        self._patches.append((flipgraph.Graph, "adjacency_sets", orig))
        flipgraph.Graph.adjacency_sets = self._counter("flipgraph.adjacency_sets_calls", orig)
        return self

    def _replace(self, mod: str, fn: str, make) -> None:
        orig = getattr(sys.modules[f"flipspectra.{mod}"], fn)
        wrapper = make(orig)
        for name, module in list(sys.modules.items()):
            if name != "flipspectra" and not name.startswith("flipspectra."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._patches.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- wrappers -----------------------------------------------------------

    def _counter(self, name, orig):
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        return wrapper

    def _span(self, name, orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            rec = {
                "name": name,
                "op": self.op,
                "parent": self._stack[-1] if self._stack else None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rss0 = max_rss_mb()
            rec["t0"] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec["t1"] = time.perf_counter()
                self._stack.pop()
            self._observe(rec, args[0] if args else next(iter(kwargs.values()), None), result)
            rss1 = max_rss_mb()
            if rss1 > rss0:  # the process high-water mark rose inside this span
                self._peak[rec["name"]] = max(self._peak.get(rec["name"], 0.0), rss1)
            return result

        return wrapper

    def _observe(self, rec: dict, first, result) -> None:
        """Counts taken from a finished span's first argument and its result."""
        name = rec["name"]
        if name == "triangulations.enumerate":
            self.counts["triangulations.count"] += len(result)
        elif name == "flipgraph.build":
            self._csr_bytes[id(result)] = result.offsets.nbytes + result.neighbors.nbytes
        elif name == "spectra.iterative":  # lambda_min or lambda_2
            if result.method == "dense":
                rec["name"] = "spectra.dense"
                self._dense_max_vertices = max(self._dense_max_vertices, first.vertex_count)
            self.counts["spectra.iterations"] += result.iterations
            self._residual_max = max(self._residual_max, result.residual)
        elif name == "spectra.dense":  # dense_spectrum
            self._dense_max_vertices = max(self._dense_max_vertices, first.vertex_count)
        elif name == "spectra.matvec":
            # computed, not measured: the CSR arrays, the gathered x values
            # (8 bytes per stored neighbor) and the output vector
            self.counts["spectra.matvec_bytes"] += (
                first.offsets.nbytes + first.neighbors.nbytes
                + 8 * len(first.neighbors) + 8 * first.vertex_count
            )
        elif name == "bounds.collection":
            self.counts["bounds.copies"] += result.parameters["copies"]
        elif name == "certify.self":
            self.counts["certify.claims"] += len(result)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["t1"] - rec["t0"]
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for rec, c in zip(self.spans, child):
            out[rec["name"]] += rec["t1"] - rec["t0"] - c
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far (no units)."""
        from flipspectra import flipgraph

        calls = Counter(rec["name"] for rec in self.spans)
        selfs = self.self_times()
        m = {f"{name}_s": t for name, t in selfs.items()}
        m.update(
            {
                "triangulations.count": self.counts["triangulations.count"],
                "flipgraph.build_calls": calls["flipgraph.build"],
                "flipgraph.build_cache_hits": (
                    flipgraph._associahedron_cached.cache_info().hits - self._cache_hits0
                ),
                "flipgraph.csr_mb": sum(self._csr_bytes.values()) / 2**20,
                "flipgraph.build_peak_rss_mb": self._peak.get("flipgraph.build", 0.0),
                "flipgraph.isomorphism_calls": calls["flipgraph.isomorphism"],
                "flipgraph.adjacency_sets_calls": self.counts["flipgraph.adjacency_sets_calls"],
                "spectra.iterative_calls": calls["spectra.iterative"],
                "spectra.iterations": self.counts["spectra.iterations"],
                "spectra.matvec_calls": calls["spectra.matvec"],
                "spectra.matvec_bytes": self.counts["spectra.matvec_bytes"],
                "spectra.dense_calls": calls["spectra.dense"],
                "spectra.dense_max_vertices": self._dense_max_vertices,
                "spectra.solve_peak_rss_mb": max(
                    self._peak.get("spectra.iterative", 0.0), self._peak.get("spectra.dense", 0.0)
                ),
                "spectra.residual_max": self._residual_max,
                "census.oracle_calls": self.counts["census.oracle_calls"],
                "bounds.copies": self.counts["bounds.copies"],
                "certify.claims": self.counts["certify.claims"],
            }
        )
        return m

    def write(self, path) -> None:
        """One JSON line per span: name, op (request id), parent, start, end."""
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **rec}) + "\n")
