"""Spans around the calls into poscert's layers, recorded from outside.

``Tracer.install`` replaces each traced function at the name its caller
looks it up (``delsarte`` imports ``simplex_max`` and friends by name, so
those are wrapped in ``delsarte``'s namespace). A span records its name,
its parent span, start and end, the phase (set-up, warm-up, the timed
list, or the repeats of a cheap operation), whether the call raised, and
an optional count taken from its result. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Optional

# (module whose attribute is replaced, attribute, span name, count of the result)
TRACED = [
    ("poscert.delsarte", "lp_bound", "delsarte.lp_bound", None),
    ("poscert.delsarte", "verify_certificate", "delsarte.verify_certificate", None),
    ("poscert.delsarte", "simplex_max", "simplex.simplex_max", None),
    ("poscert.delsarte", "nonpositivity_witness", "polycore.nonpositivity_witness", None),
    ("poscert.delsarte", "gegenbauer", "gegenbauer.gegenbauer", None),
    ("poscert.delsarte", "to_gegenbauer_basis", "gegenbauer.to_gegenbauer_basis", None),
    ("poscert.delsarte", "expand_gegenbauer", "gegenbauer.expand_gegenbauer", None),
    ("poscert.lattice", "standard_lattice", "lattice.standard_lattice", None),
    ("poscert.lattice", "short_vectors", "lattice.short_vectors", len),
    ("poscert.lattice", "lattice_invariants", "lattice.lattice_invariants", None),
    ("poscert.schurdet", "det_series_direct", "schurdet.det_series_direct", None),
    ("poscert.schurdet", "det_series_formula", "schurdet.det_series_formula", None),
    ("poscert.schurdet", "schur_eval", "schurdet.schur_eval", None),
]


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at top level
    start_ns: int
    end_ns: int
    phase: str
    raised: bool
    count: Optional[int]

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.phase = "setup"
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, attr, name, count in TRACED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), name, count))

    def _wrap(self, fn: Callable, name: str, count: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            raised = True
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                n = count(result) if (count and not raised) else None
                self.spans[index] = Span(name, parent, start, end, self.phase, raised, n)

        return traced

    def write(self, path: Path) -> None:
        """One JSON object per span, in start order."""
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": s.parent, "name": s.name, "start_ns": s.start_ns,
                                     "end_ns": s.end_ns, "phase": s.phase, "raised": s.raised, "count": s.count}) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric: name -> (value, unit).

        A layer that the workload never calls reads 0 (and the repair
        ratio reads 0 when no repair was attempted), so that every
        workload reports the same set of metrics.
        """
        run = [s for s in self.spans if s.phase == "run"]
        setup = [s for s in self.spans if s.phase == "setup"]
        child_ms = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_ms[s.parent] += s.ms

        def total(name: str, phase_spans=run) -> float:
            return sum(s.ms for s in phase_spans if s.name == name)

        def calls(name: str) -> int:
            return sum(1 for s in run if s.name == name)

        def self_ms(name: str) -> float:
            return sum(s.ms - child_ms[i] for i, s in enumerate(self.spans) if s.phase == "run" and s.name == name)

        # Repair attempts are the verify calls made inside lp_bound.
        repair = [s for s in run if s.name == "delsarte.verify_certificate" and s.parent >= 0
                  and self.spans[s.parent].name == "delsarte.lp_bound"]
        accepted = sum(1 for s in repair if not s.raised)
        sv_ms = total("lattice.short_vectors")
        vectors = sum(s.count for s in run if s.name == "lattice.short_vectors" and s.count is not None)
        return {
            "polycore.nonpositivity_witness.ms": (total("polycore.nonpositivity_witness"), "ms"),
            "polycore.nonpositivity_witness.calls": (calls("polycore.nonpositivity_witness"), "count"),
            "simplex.simplex_max.ms": (total("simplex.simplex_max"), "ms"),
            "delsarte.lp_bound.self_ms": (self_ms("delsarte.lp_bound"), "ms"),
            "delsarte.verify_certificate.calls": (calls("delsarte.verify_certificate"), "count"),
            "delsarte.repair.accept_ratio": (accepted / len(repair) if repair else 0.0, "ratio"),
            "gegenbauer.gegenbauer.ms": (total("gegenbauer.gegenbauer"), "ms"),
            "gegenbauer.to_gegenbauer_basis.ms": (total("gegenbauer.to_gegenbauer_basis"), "ms"),
            "gegenbauer.expand_gegenbauer.ms": (total("gegenbauer.expand_gegenbauer"), "ms"),
            "lattice.short_vectors.ms": (sv_ms, "ms"),
            "lattice.short_vectors.vectors": (vectors, "count"),
            "lattice.short_vectors.vectors_per_s": (vectors / (sv_ms / 1e3) if sv_ms else 0.0, "1/s"),
            "lattice.lattice_invariants.ms": (total("lattice.lattice_invariants"), "ms"),
            "lattice.standard_lattice.ms": (total("lattice.standard_lattice", setup), "ms"),
            "schurdet.det_series_direct.ms": (total("schurdet.det_series_direct"), "ms"),
            "schurdet.det_series_formula.self_ms": (self_ms("schurdet.det_series_formula"), "ms"),
            "schurdet.schur_eval.ms": (total("schurdet.schur_eval"), "ms"),
            "schurdet.schur_eval.calls": (calls("schurdet.schur_eval"), "count"),
        }
