"""Spans around the calls into each adfs_lab module, recorded from outside it.

The package binds imported functions by name at import time (`adfs.py` holds
its own reference to `objective._tilde_coeff_batch`, `baselines.py` to
`topology.symmetric_eigensolve`, ...), so patching the defining module alone
would miss those calls.  `Tracer.installed` replaces every binding of each
traced function, in every loaded `adfs_lab` module, by one timing wrapper and
restores the originals on exit.

Each span records its self time (its duration minus that of the spans it
encloses) and its call count; a few spans also record exact work counts.
"""

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function, span); spans are named <module>.<layer>
SPANS = (
    ("harness", "build_instance", "harness.build_instance"),
    ("harness", "parse_libsvm", "harness.parse_libsvm"),
    ("topology", "build_topology", "topology.build_topology"),
    ("topology", "laplacian", "topology.laplacian"),
    ("topology", "symmetric_eigensolve", "topology.eigensolve"),
    ("objective", "condition_numbers", "objective.condition_numbers"),
    ("objective", "_tilde_coeff_batch", "objective.prox_batch"),
    ("objective", "_prox_1d_array", "objective.prox_1d"),
    ("objective", "prox_sample", "objective.prox_sample"),
    ("objective", "primal_value", "objective.primal_value"),
    ("objective", "loss_value", "objective.loss"),
    ("objective", "loss_grad", "objective.loss"),
    ("objective", "loss_conjugate", "objective.loss"),
    ("augmented", "build_augmented", "augmented.build"),
    ("augmented", "build_augmented_ns", "augmented.build"),
    ("augmented", "draw_block", "augmented.draw_block"),
    ("augmented", "apply_comm_step", "augmented.gossip"),
    ("augmented", "apply_wtilde", "augmented.gossip"),
    ("augmented", "virtual_gradient", "augmented.virtual_gradient"),
    ("augmented", "dual_objective", "augmented.dual_objective"),
    ("adfs", "run_adfs", "adfs.adfs"),
    ("adfs", "run_adfs_efficient", "adfs.adfs_efficient"),
    ("adfs", "run_ns_adfs", "adfs.ns_adfs"),
    ("baselines", "pool_objectives", "baselines.pool_objectives"),
    ("baselines", "reference_optimum", "baselines.reference_optimum"),
    ("baselines", "flat_value", "baselines.flat_value"),
    ("baselines", "flat_grad", "baselines.flat_grad"),
    ("baselines", "point_saga", "baselines.point_saga"),
)
MODULES = ("harness", "topology", "objective", "augmented", "adfs", "baselines")
PROX_SPANS = ("objective.prox_batch", "objective.prox_1d", "objective.prox_sample")
# the scalar Newton prox inside a batched or sample prox is part of that span
NESTED_IN = {"objective.prox_1d": ("objective.prox_batch", "objective.prox_sample")}
SOLVER_SPANS = ("adfs.adfs", "adfs.adfs_efficient", "adfs.ns_adfs")
PERCENTILES = (50, 90, 99)


class Tracer:
    """Span and count store for one traced pass; create one per pass."""

    def __init__(self):
        self.spans = {span: [0.0, 0] for _, _, span in SPANS}  # [self seconds, calls]
        self.counts = Counter()
        self.phase = "setup"  # set by the caller: "setup" or "solve"
        self._stack = []
        self._draws = []  # (start, kind) of each draw in the running solver
        self.runs = defaultdict(list)  # (phase, solver span) -> per-run draw lists

    # hooks: exact work counts, run after a span returns

    def _eigensolve(self, span, start, args, result):
        key = "topology.eigensolve.max_dim"
        self.counts[key] = max(self.counts[key], int(np.shape(args[0])[0]))

    def _prox(self, span, start, args, result):
        self.counts[span + ".elements"] += int(np.size(args[1]))

    def _draw(self, span, start, args, result):
        kind = "comm" if result.kind == "communication" else "comp"
        self.counts["augmented.draw_block." + kind] += 1
        self._draws.append((start, kind))

    def _parse(self, span, start, args, result):
        self.counts["harness.parse_libsvm.lines"] += len(result[0])

    def _solver(self, span, start, args, result):
        self.counts[span + ".iters"] += len(self._draws)
        self.runs[(self.phase, span)].append(self._draws)
        self._draws = []

    def _hook(self, span):
        if span in SOLVER_SPANS:
            return self._solver
        return {
            "topology.eigensolve": self._eigensolve,
            "objective.prox_batch": self._prox,
            "objective.prox_1d": self._prox,
            "augmented.draw_block": self._draw,
            "harness.parse_libsvm": self._parse,
        }.get(span)

    def wrap(self, span, fn):
        stack, clock, hook = self._stack, time.perf_counter, self._hook(span)
        owners = NESTED_IN.get(span, ())
        acc = self.spans[span]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if owners and stack and stack[-1][1] in owners:
                return fn(*args, **kwargs)
            frame = [0.0, span]  # time spent in enclosed spans, name
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                acc[0] += duration - frame[0]
                acc[1] += 1
                if stack:
                    stack[-1][0] += duration
            if hook is not None:
                hook(span, start, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Patch every binding of each traced function in `package`'s modules."""
        prefix = package.__name__
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == prefix or name.startswith(prefix + "."))]
        patched = []
        try:
            for module_name, func_name, span in SPANS:
                module = sys.modules.get(f"{prefix}.{module_name}")
                original = getattr(module, func_name, None)
                if original is None:
                    print(f"perfbench: {prefix}.{module_name}.{func_name} not found; "
                          f"span {span} stays empty", file=sys.stderr)
                    continue
                wrapper = self.wrap(span, original)
                for mod in loaded:
                    for attr in [k for k, v in vars(mod).items() if v is original]:
                        patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def module_self_s(self, module):
        return sum(v[0] for span, v in self.spans.items() if span.split(".", 1)[0] == module)

    def iteration_us(self, phase, solver_span):
        """Per-iteration wall (us) by block kind: the gaps between successive
        draws of one run, each attributed to the kind of the earlier draw."""
        out = {"comm": [], "comp": []}
        for draws in self.runs[(phase, solver_span)]:
            for (t0, kind), (t1, _) in zip(draws, draws[1:]):
                out[kind].append((t1 - t0) * 1e6)
        return out

    def metrics(self, phase, solver_span):
        """Per-layer metrics: (value, unit) by name."""
        s = {span: v[0] for span, v in self.spans.items()}
        calls = {span: v[1] for span, v in self.spans.items()}
        counts = self.counts
        out = {f"{m}.s": (self.module_self_s(m), "s") for m in MODULES}
        out.update({
            "harness.build_instance.s": (s["harness.build_instance"], "s"),
            "harness.parse_libsvm.lines": (counts["harness.parse_libsvm.lines"], "count"),
            "topology.eigensolve.s": (s["topology.eigensolve"], "s"),
            "topology.eigensolve.calls": (calls["topology.eigensolve"], "count"),
            "topology.eigensolve.max_dim": (counts["topology.eigensolve.max_dim"], "count"),
            "objective.prox.s": (sum(s[p] for p in PROX_SPANS), "s"),
            "objective.prox_batch.calls": (calls["objective.prox_batch"], "count"),
            "objective.prox_batch.elements": (counts["objective.prox_batch.elements"], "count"),
            "objective.prox_1d.calls": (calls["objective.prox_1d"], "count"),
            "objective.prox_1d.elements": (counts["objective.prox_1d.elements"], "count"),
            "objective.prox_sample.calls": (calls["objective.prox_sample"], "count"),
            "objective.primal_value.calls": (calls["objective.primal_value"], "count"),
            "augmented.build.s": (s["augmented.build"], "s"),
            "augmented.draw_block.s": (s["augmented.draw_block"], "s"),
            "augmented.draw_block.calls": (calls["augmented.draw_block"], "count"),
            "augmented.draw_block.comm": (counts["augmented.draw_block.comm"], "count"),
            "augmented.draw_block.comp": (counts["augmented.draw_block.comp"], "count"),
            "augmented.gossip.s": (s["augmented.gossip"], "s"),
            "augmented.virtual_gradient.s": (s["augmented.virtual_gradient"], "s"),
            "augmented.dual_objective.calls": (calls["augmented.dual_objective"], "count"),
            "adfs.adfs.iters": (counts["adfs.adfs.iters"], "count"),
            "adfs.adfs_efficient.iters": (counts["adfs.adfs_efficient.iters"], "count"),
            "adfs.ns_adfs.iters": (counts["adfs.ns_adfs.iters"], "count"),
            "baselines.reference_optimum.s": (s["baselines.reference_optimum"], "s"),
            "baselines.flat_grad.calls": (calls["baselines.flat_grad"], "count"),
            "baselines.flat_value.calls": (calls["baselines.flat_value"], "count"),
        })
        for kind, gaps in self.iteration_us(phase, solver_span).items():
            for q in PERCENTILES:
                value = float(np.percentile(gaps, q)) if gaps else 0.0
                out[f"adfs.iter_us.{kind}.p{q}"] = (value, "us")
            out[f"adfs.iter_us.{kind}.n"] = (len(gaps), "count")
        return out

    def span_table(self):
        """Self time and calls of every span, for the human-readable record."""
        return {span: {"self_s": seconds, "calls": calls}
                for span, (seconds, calls) in sorted(self.spans.items()) if calls}
