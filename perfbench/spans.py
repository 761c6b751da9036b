"""In-memory spans around the benchmark's calls into the program, and self times.

A span records name, start, end, parent span and pass id.  A span's self time
is its duration minus the durations of its direct children; children of one
span never overlap because the benchmark is single-threaded.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

# Layer times derived by subtraction rather than measured directly.
COMPUTED = {
    "engine.prepare_s": "extra _Prepared build with the same constraints as the search",
    "engine.search_s": "find/count_and_cover call time minus engine.prepare_s",
    "bounds.sets_s": "extra check_sets_only call with the CLI's arguments",
    "cli.emit_s": "cli.main call time minus bounds.sets_s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[Counter] = []
        self._stack: list[int] = []
        self.pass_id = -1

    def begin_pass(self) -> None:
        self.pass_id += 1
        self.counts.append(Counter())

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, **counts: int) -> None:
        self.counts[self.pass_id].update(counts)

    def self_times(self, pass_id: int) -> Counter:
        out: Counter = Counter()
        for name, start, end, parent, pid in self.spans:
            if pid != pass_id:
                continue
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def layers(self, pass_id: int) -> dict:
        """Per-layer metrics of one traced pass."""
        st = self.self_times(pass_id)
        c = self.counts[pass_id]
        prepare = st["engine.prepare"]
        search = st["engine.find"] + st["engine.count_and_cover"] - prepare
        nodes = c["nodes"]
        return {
            "engine.search_s": search,
            "engine.prepare_s": prepare,
            "engine.report_s": st["engine.report"],
            "engine.nodes": nodes,
            "engine.nodes_per_s": nodes / search if nodes else 0.0,
            "engine.searches": c["searches"],
            "engine.solutions": c["solutions"],
            "engine.solutions_per_node": c["solutions"] / nodes if nodes else 0.0,
            "engine.found_ratio": c["found"] / c["searches"] if c["searches"] else 0.0,
            "core.square_s": st["core.square"],
            "delta.grid_s": st["delta.grid"],
            "families.build_s": st["families.build"],
            "families.witness_s": st["families.witness"],
            "delta.certificate_s": st["delta.certificate"],
            "bounds.sets_s": st["bounds.sets"],
            "bounds.union_cells": c["union_cells"],
            "blocks.maps_s": st["blocks.maps"],
            "blocks.theorem_s": st["blocks.theorem"],
            "cli.emit_s": st["cli.main"] - st["bounds.sets"],
            "cli.bytes": c["cli_bytes"],
        }
