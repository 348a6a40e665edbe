"""Spans around the qlmass layer functions, recorded from outside the
program.

`Tracer.install()` replaces each layer function (and `OperatorSet`) on
every loaded `qlmass` module attribute that refers to it, so callers that
imported the name (`qlmass.search.energy`, `qlmass.embedding.OperatorSet`)
and callers inside the defining module (`admissibility_verdict` calling
`level_set_topology`) all reach the wrapper.  Spans are kept in memory;
counters are read from the objects the functions return.
"""

import functools
import importlib
import sys
import time

# (defining module, attribute, counters read from the returned object)
LAYERS = (
    ("initialdata", "extract_boundary_data", {}),
    ("initialdata", "adm_integrals", {}),
    ("operators", "OperatorSet", {}),
    ("embedding", "embed_metric",
     {"iterations": lambda emb: emb.iterations}),
    ("embedding", "align_embedding", {}),
    ("energy", "energy", {}),
    ("volume", "build_fill_in", {"tets": lambda vol: vol.n_tets}),
    ("volume", "solve_spacetime_harmonic", {
        "cg_iterations": lambda sol: sol.cg_iterations,
        "picard_iterations": lambda sol: sol.picard_iters,
        "splu_fallbacks": lambda sol: sol.splu_fallbacks,
    }),
    ("volume", "level_set_topology", {
        "levels": lambda topo: len(topo.levels),
        "nudged_levels": lambda topo: len({note.split()[1]
                                           for note in topo.notes}),
    }),
    ("volume", "admissibility_verdict", {}),
    ("volume", "integral_identity_check", {}),
    ("search", "mass_infimum", {}),
    ("search", "asymptotics_driver", {}),
)


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for module, attr, counters in LAYERS:
        base = f"{module}.{attr}"
        names += [(f"{base}.s", "s"), (f"{base}.self_s", "s"),
                  (f"{base}.calls", "count")]
        names += [(f"{base}.{c}", "count") for c in counters]
    # pass.s is the traced pass's wall time, pass.self_s the part of it
    # that no top-level span covers, pass.untraced_s the wall time of the
    # untraced pass of the same run
    names += [("pass.s", "s"), ("pass.self_s", "s"),
              ("pass.untraced_s", "s")]
    return names


class Tracer:
    """Records one span per wrapped call: name, start, end, parent index
    and pass id, plus the counters of the returned object."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.spans = []
        self._open = []
        self._replaced = []

    def _wrap(self, name, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "pass": self.pass_id,
                    "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter(), "end": None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            span["counts"] = {key: int(read(result))
                              for key, read in counters.items()}
            return result
        return traced

    def _wrap_class(self, name, cls):
        init = self._wrap(name, cls.__init__, {})
        return type(cls.__name__, (cls,), {
            "__init__": init,
            "__module__": cls.__module__, "__qualname__": cls.__qualname__,
        })

    def install(self):
        """Replace every qlmass module attribute that refers to a layer
        function by its traced wrapper; uninstall() puts them back."""
        for module, attr, counters in LAYERS:
            original = getattr(importlib.import_module(f"qlmass.{module}"),
                               attr)
            name = f"{module}.{attr}"
            if isinstance(original, type):
                wrapped = self._wrap_class(name, original)
            else:
                wrapped = self._wrap(name, original, counters)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("qlmass"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._replaced.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in self._replaced:
            setattr(mod, key, original)
        self._replaced = []


def layer_metrics(spans, wall_s):
    """Per-layer totals of one traced pass: inclusive time, self time
    (duration minus the time of its direct child spans), calls and the
    summed counters."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    values = {name: 0.0 if unit == "s" else 0
              for name, unit in metric_names()}
    top_level = 0.0
    for span, children in zip(spans, child_time):
        duration = span["end"] - span["start"]
        base = span["name"]
        values[f"{base}.s"] += duration
        values[f"{base}.self_s"] += duration - children
        values[f"{base}.calls"] += 1
        for key, count in span.get("counts", {}).items():
            values[f"{base}.{key}"] += count
        if span["parent"] is None:
            top_level += duration
    values["pass.s"] = wall_s
    values["pass.self_s"] = wall_s - top_level
    return values
