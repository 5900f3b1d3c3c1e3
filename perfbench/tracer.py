"""Per-layer spans around the public names the step pipeline calls.

`dysonmpo.bench.evolve_state` and `build_step_mpo` look up `BracketCache`,
`BracketTable.compute`, `dyson_mpo`, `taylor_mpo`, `magnus_evolution`,
`row_compress`, `apply_mpo` and `exact_evolve` when they run, so wrapping
those names from outside times each layer without touching the library.
Every wrapper calls the original with the same arguments and returns its
result unchanged; `LayerTracer.installed()` puts the originals back on exit.
"""

import time
from contextlib import ExitStack, contextmanager
from unittest import mock

LAYERS = ("brackets", "build", "compression", "mps", "evolve")


class LayerTracer:
    """Spans and counters per layer for the runs made while installed."""

    def __init__(self, bench):
        self.bench = bench
        self.reset()

    def reset(self):
        self.spans = []      # (layer, name, start, end, parent span index)
        self._open = []
        self.counts = {}

    def _add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def _max(self, name, value):
        self.counts[name] = max(self.counts.get(name, 0), value)

    def _call(self, layer, name, fn, args, kwargs):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (layer, name, start, end, parent)

    def layer_seconds(self):
        """Time per layer, counting only spans that no other span encloses.

        Nested spans here always belong to the same layer as their parent
        (a table computed inside a cache lookup), so this is each layer's
        self time.
        """
        out = dict.fromkeys(LAYERS, 0.0)
        for layer, _, start, end, parent in self.spans:
            if parent is None:
                out[layer] += end - start
        return out

    def span_seconds(self, name):
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def _wrap_brackets(self):
        cache_cls = self.bench.BracketCache
        table_cls = self.bench.BracketTable
        table = cache_cls.table
        compute = table_cls.__dict__["compute"].__func__
        tracer = self

        def traced_table(cache, t0, t1, order):
            tracer._add("brackets.requests", 1)
            return tracer._call("brackets", "BracketCache.table", table,
                                (cache, t0, t1, order), {})

        def traced_compute(cls, channels, t0, t, max_order, *args, **kwargs):
            tracer._add("brackets.computed", 1)
            name = f"BracketTable.compute[{max_order}]"
            return tracer._call("brackets", name, compute,
                                (cls, channels, t0, t, max_order) + args,
                                kwargs)

        return [(cache_cls, "table", traced_table),
                (table_cls, "compute", classmethod(traced_compute))]

    def _wrap_build(self, name):
        fn = getattr(self.bench, name)

        def traced(*args, **kwargs):
            mpo = self._call("build", name, fn, args, kwargs)
            self._max("build.bond_max", mpo.bond_dimension)
            return mpo

        return (self.bench, name, traced)

    def _wrap_compression(self):
        fn = self.bench.row_compress

        def traced(*args, **kwargs):
            mpo, report = self._call("compression", "row_compress", fn, args,
                                     kwargs)
            self._max("compression.bond_max", report.bond_dimension_after)
            self._add("compression.levels_before", report.bond_dimension_before)
            self._add("compression.levels_after", report.bond_dimension_after)
            self._add("compression.removed_levels", len(report.removed_levels))
            return mpo, report

        return (self.bench, "row_compress", traced)

    def _wrap_apply(self):
        fn = self.bench.apply_mpo

        def traced(mpo, psi, *args, **kwargs):
            self._max("mps.raw_bond_max", mpo.bond_dimension * psi.max_bond)
            out, discarded = self._call("mps", "apply_mpo", fn,
                                        (mpo, psi) + args, kwargs)
            self._max("mps.bond_max", out.max_bond)
            self._add("mps.discarded_weight", discarded)
            return out, discarded

        return (self.bench, "apply_mpo", traced)

    def _wrap_oracle(self):
        fn = self.bench.exact_evolve

        def traced(*args, **kwargs):
            return self._call("evolve", "exact_evolve", fn, args, kwargs)

        return (self.bench, "exact_evolve", traced)

    @contextmanager
    def installed(self):
        patches = self._wrap_brackets() + [
            self._wrap_build("dyson_mpo"),
            self._wrap_build("taylor_mpo"),
            self._wrap_build("magnus_evolution"),
            self._wrap_compression(),
            self._wrap_apply(),
            self._wrap_oracle(),
        ]
        with ExitStack() as stack:
            for owner, name, wrapper in patches:
                stack.enter_context(mock.patch.object(owner, name, wrapper))
            yield self
