"""Outside-in tracing of the hilbk3 layers, and the per-layer metrics built from it.

`install` wraps the public functions of every package module after import
and rebinds every reference to them, including names imported by value into
other modules and the `cli._COMMANDS` table.  Stage functions become spans
(name, start, end, parent, report id); hot per-element functions only count
calls, and their time lands in the enclosing span.  Everything stays in
memory until `Tracer.dump`.

The stage names are `<module>.<function>`, and the per-layer metric names
use the same module prefixes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("cli", "partitions", "cohomology", "bb_lattice", "linalg", "frobenius",
          "invariant_ideals")
LIBRARY_LAYERS = LAYERS[1:]

# Timed as spans.  Every other public function of a layer is counted only.
SPANS = frozenset({
    "cli.main", "cli.cmd_betti", "cli.cmd_strata", "cli.cmd_certify", "cli.cmd_ideals",
    "cli.cmd_punctual", "cli.cmd_frobenius",
    "partitions.diagrams_of", "partitions.trianalytic_candidates",
    "partitions.surviving_candidates", "partitions.enumerate_universal_reldim0",
    "partitions.natural_shapes",
    "cohomology.hilbert_stratum_ledger", "cohomology.hilbert_poincare",
    "cohomology.diagonal_poincare", "cohomology.StratumLedger.total",
    "cohomology.StratumLedger.entries_in_degree",
    "bb_lattice.certify_no_trianalytic", "bb_lattice.random_period_triple",
    "bb_lattice.is_su2_invariant", "bb_lattice.h4_obstruction", "bb_lattice.su2_generators",
    "bb_lattice.orbit_dimension_d2", "bb_lattice.delta_module_dimension",
    "bb_lattice.k3_lattice", "bb_lattice.default_k3_gram", "bb_lattice.transported_bb_tensor",
    "bb_lattice.obstruction_coefficient_from_tensors",
    "linalg.identity", "linalg.transpose", "linalg.mat_mul", "linalg.mat_vec",
    "linalg.vec_mat", "linalg.mat_add", "linalg.mat_scale", "linalg.is_zero_matrix",
    "linalg.rank", "linalg.rref", "linalg.nullspace", "linalg.det", "linalg.inverse",
    "linalg.signature", "linalg.congruence_diagonalize",
    "linalg.Echelon.add", "linalg.Echelon.reduce", "linalg.Echelon.contains",
    "frobenius.build_algebra", "frobenius.harmonic_basis", "frobenius.laplacian_matrix",
    "frobenius.sym_power_matrix", "frobenius.restriction_functional",
    "frobenius.random_so_element", "frobenius.find_isotropic", "frobenius.random_isotropic",
    "frobenius.FrobeniusAlgebra.check_pairing_nondegenerate",
    "frobenius.FrobeniusAlgebra.check_associative",
    "frobenius.FrobeniusAlgebra.pairing_matrix", "frobenius.FrobeniusAlgebra.power_of_linear",
    "invariant_ideals.punctual_fixed_points", "invariant_ideals.classify_invariant_ideals",
    "invariant_ideals.irreducibility_certificate",
    "invariant_ideals.highest_weight_dimension",
})

# Public methods wrapped on their classes (module functions are found by scanning).
METHODS = (
    "cohomology.StratumLedger.total", "cohomology.StratumLedger.entries_in_degree",
    "linalg.Echelon.add", "linalg.Echelon.reduce", "linalg.Echelon.contains",
    "frobenius.FrobeniusAlgebra.multiply", "frobenius.FrobeniusAlgebra.reduce",
    "frobenius.FrobeniusAlgebra.check_pairing_nondegenerate",
    "frobenius.FrobeniusAlgebra.check_associative",
    "frobenius.FrobeniusAlgebra.pairing_matrix", "frobenius.FrobeniusAlgebra.power_of_linear",
    "invariant_ideals.MonomialIdeal.quotient_monomials",
)


def _square_cells(key):
    return lambda counts, result, args: counts.update({key: len(args[0]) ** 2})


# Work counters that depend on arguments or results: (counts, result, args) -> None.
EXTRA = {
    "partitions.diagrams_of":
        lambda c, r, a: c.update({"partitions.diagrams_listed": len(r)}),
    "partitions.trianalytic_candidates":
        lambda c, r, a: c.update({"partitions.audits": len(r)}),
    "cohomology.StratumLedger.total":
        lambda c, r, a: c.update({"cohomology.strata_summed": len(a[0].contributions)}),
    "linalg.Echelon.add":
        lambda c, r, a: c.update({"linalg.echelon_rows_kept": int(bool(r))}),
    "linalg.Echelon.reduce":
        lambda c, r, a: c.update({"linalg.computed_cells": a[0].ncols}),
    "linalg.rref":
        lambda c, r, a: c.update({"linalg.computed_cells": len(a[0]) * a[1]}),
    "linalg.det": _square_cells("linalg.computed_cells"),
    "linalg.inverse":
        lambda c, r, a: c.update({"linalg.computed_cells": 2 * len(a[0]) ** 2}),
    "linalg.congruence_diagonalize": _square_cells("linalg.computed_cells"),
    "frobenius.build_algebra":
        lambda c, r, a: c.update({"frobenius.quotient_dim":
                                  sum(r.dim(i) for i in range(2 * r.n + 1))}),
    "invariant_ideals.punctual_fixed_points":
        lambda c, r, a: c.update({"invariant_ideals.fixed_points_found": len(r)}),
    "invariant_ideals.classify_invariant_ideals":
        lambda c, r, a: c.update({"invariant_ideals.supports_swept": 2 ** a[0] - 1}),
}

# Generators whose yields are counted at the outermost call only.
OUTER_YIELDS = {"partitions.partitions_of": "partitions.partitions_yielded"}


class Tracer:
    """Spans and counters of one report, kept in memory."""

    def __init__(self, report: int):
        self.report = report
        # [name, start, end, parent index or -1, busy seconds or None]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def span(self, name, fn, extra=None):
        spans, counts, open_, clock = self.spans, self.counts, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(record)
            counts["calls." + name] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts["raised." + name] += 1
                raise
            finally:
                record[2] = clock()
                open_.pop()
            if extra is not None:
                extra(counts, result, args)
            return result
        return wrapper

    def count(self, name, fn, extra=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["calls." + name] += 1
            result = fn(*args, **kwargs)
            if extra is not None:
                extra(counts, result, args)
            return result
        return wrapper

    def outer_yields(self, name, fn, key):
        # a recursive generator calls itself through the wrapped global name;
        # only the outermost call counts, so each item is counted once.  Its
        # running time interleaves with the consumer's, so the span records
        # the time spent producing items as `busy` instead of an interval.
        spans, counts, open_, clock = self.spans, self.counts, self._open, time.perf_counter
        depth = [0]

        def producing(*args, **kwargs):
            depth[0] += 1
            record = [name, clock(), 0.0, open_[-1] if open_ else -1, 0.0]
            spans.append(record)
            items = fn(*args, **kwargs)
            try:
                while True:
                    start = clock()
                    try:
                        item = next(items)
                    finally:
                        record[4] += clock() - start
                    counts[key] += 1
                    yield item
            except StopIteration:
                return
            finally:
                record[2] = clock()
                depth[0] -= 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            counts["calls." + name] += 1
            return producing(*args, **kwargs)
        return wrapper

    def wrap(self, name, fn):
        if name in OUTER_YIELDS:
            return self.outer_yields(name, fn, OUTER_YIELDS[name])
        make = self.span if name in SPANS else self.count
        return make(name, fn, EXTRA.get(name))

    def dump(self) -> dict:
        return {
            "report": self.report,
            "spans": [s + [self.report] for s in self.spans],
            "counts": dict(self.counts),
        }


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and callable(obj) and not inspect.isclass(obj)
                and getattr(obj, "__module__", None) == module.__name__):
            yield attr, obj


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and rebind every reference to them."""
    package = importlib.import_module("hilbk3")
    modules = {layer: importlib.import_module("hilbk3." + layer) for layer in LAYERS}
    swaps: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
    for layer, module in modules.items():
        for attr, fn in list(_public_functions(module)):
            swaps[id(fn)] = (fn, tracer.wrap(f"{layer}.{attr}", fn))
    for full in METHODS:
        layer, cls_name, meth = full.split(".")
        cls = getattr(modules[layer], cls_name)
        setattr(cls, meth, tracer.wrap(full, cls.__dict__[meth]))

    namespaces = [vars(package)] + [vars(m) for m in modules.values()]
    namespaces.append(modules["cli"]._COMMANDS)
    for space in namespaces:
        for key, obj in list(space.items()):
            hit = swaps.get(id(obj))
            if hit is not None and hit[0] is obj:
                space[key] = hit[1]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    A span with `busy` set (a generator) took exactly `busy` seconds, spread
    over its interval, and that much is taken from its parent.
    """
    intervals: dict[int, list[tuple[float, float]]] = {}
    busy_below = [0.0] * len(spans)
    for name, start, end, parent, busy, *_ in spans:
        if parent >= 0:
            if busy is None:
                intervals.setdefault(parent, []).append((start, end))
            else:
                busy_below[parent] += busy
    out = []
    for index, (name, start, end, parent, busy, *_) in enumerate(spans):
        if busy is not None:
            out.append(busy)
            continue
        covered, reach = 0.0, start
        for c_start, c_end in sorted(intervals.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered - busy_below[index])
    return out


# stage metrics: self time summed over the spans named
STAGE_SECONDS = {
    "cohomology.ledger_s": ("cohomology.hilbert_stratum_ledger",),
    "bb_lattice.certify_s": ("bb_lattice.certify_no_trianalytic",),
    "bb_lattice.triple_s": ("bb_lattice.random_period_triple",),
    "bb_lattice.su2_check_s": ("bb_lattice.is_su2_invariant",),
    "linalg.echelon_s": ("linalg.Echelon.add", "linalg.Echelon.reduce"),
    "linalg.dense_s": ("linalg.det", "linalg.inverse", "linalg.rref", "linalg.nullspace",
                       "linalg.signature", "linalg.congruence_diagonalize"),
    "frobenius.build_s": ("frobenius.build_algebra",),
    "frobenius.harmonic_s": ("frobenius.harmonic_basis",),
    "frobenius.pairing_check_s": ("frobenius.FrobeniusAlgebra.check_pairing_nondegenerate",),
    "frobenius.assoc_check_s": ("frobenius.FrobeniusAlgebra.check_associative",),
    "invariant_ideals.punctual_s": ("invariant_ideals.punctual_fixed_points",),
    "invariant_ideals.classify_s": ("invariant_ideals.classify_invariant_ideals",),
}

# count metrics: counter name in the trace
COUNTS = {
    "partitions.diagrams_listed": "partitions.diagrams_listed",
    "partitions.partitions_yielded": "partitions.partitions_yielded",
    "partitions.audits": "partitions.audits",
    "cohomology.strata_summed": "cohomology.strata_summed",
    "cohomology.sym_power_calls": "calls.cohomology.symmetric_power_poincare",
    "bb_lattice.triples_drawn": "calls.bb_lattice.random_period_triple",
    "bb_lattice.triple_failures": "raised.bb_lattice.random_period_triple",
    "bb_lattice.bb_pair_calls": "calls.bb_lattice.bb_pair",
    "bb_lattice.h4_certificates": "calls.bb_lattice.h4_obstruction",
    "bb_lattice.pullback_certificates": "calls.bb_lattice.obstruction_coefficient",
    "linalg.echelon_rows_offered": "calls.linalg.Echelon.add",
    "linalg.echelon_rows_kept": "linalg.echelon_rows_kept",
    "linalg.computed_cells": "linalg.computed_cells",
    "frobenius.multiply_calls": "calls.frobenius.FrobeniusAlgebra.multiply",
    "frobenius.quotient_dim": "frobenius.quotient_dim",
    "invariant_ideals.staircases_checked":
        "calls.invariant_ideals.MonomialIdeal.quotient_monomials",
    "invariant_ideals.fixed_points_found": "invariant_ideals.fixed_points_found",
    "invariant_ideals.supports_swept": "invariant_ideals.supports_swept",
}

# ratio metrics: (numerator, denominator) among the metrics above
RATIOS = {
    "linalg.echelon_useful_ratio": ("linalg.echelon_rows_kept", "linalg.echelon_rows_offered"),
    "invariant_ideals.hit_ratio": ("invariant_ideals.fixed_points_found",
                                   "invariant_ideals.staircases_checked"),
}


def aggregate(traces) -> tuple[dict[str, float], Counter]:
    """Per-layer metrics over all reports' traces, and the summed raw counters."""
    layer_self = dict.fromkeys(LAYERS, 0.0)
    span_self: Counter = Counter()
    counts: Counter = Counter()
    for trace in traces:
        counts.update(trace["counts"])
        for span, own in zip(trace["spans"], self_times(trace["spans"])):
            layer_self[span[0].split(".", 1)[0]] += own
            span_self[span[0]] += own
    metrics: dict[str, float] = {f"{layer}.self_s": s for layer, s in layer_self.items()}
    for metric, names in STAGE_SECONDS.items():
        metrics[metric] = sum(span_self[n] for n in names)
    for metric, key in COUNTS.items():
        metrics[metric] = counts[key]
    for metric, (num, den) in RATIOS.items():
        metrics[metric] = metrics[num] / metrics[den] if metrics[den] else 0.0
    return metrics, counts


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_fraction")):
        return "ratio"
    return {"cli.output_bytes": "bytes", "linalg.computed_cells": "cells"}.get(name, "count")


# every metric of a traced run, in report order, with its unit
PER_LAYER_UNITS = {name: _unit(name) for name in (
    "cli.self_s", "cli.output_bytes", "cli.reports", "cli.failed",
    *(f"{layer}.self_s" for layer in LIBRARY_LAYERS),
    *STAGE_SECONDS, *COUNTS, *RATIOS, "failed_fraction", "trace.overhead_s",
)}
