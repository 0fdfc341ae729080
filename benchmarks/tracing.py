"""Run one qcwaves CLI command with per-layer spans recorded.

Usage: python3 benchmarks/tracing.py SUMMARY.json CLI-ARG...

The command runs exactly as ``qcwaves CLI-ARG...`` would, except that every
public function of a layer (a module of the qcwaves package) is wrapped
wherever another layer looks it up. The package binds names with
``from .x import f``, so a wrapper is patched into each module namespace
holding that function, e.g. ``kernels.macdonald_k0_neg_i`` and
``verify.fundamental_traction``. The CLI's own entry point and the two
scenario stages that ``run_scenario`` calls are wrapped as well.

Each call records a span: name, parent span, start, end, and for the
cylinder functions how many of its arguments take the series branch. Spans
are kept in flat arrays and summarised once the command has finished:
self time = span duration - durations of its child spans. The summary (JSON)
holds per-layer and per-function counts and times, plus the time the
``import qcwaves.cli`` statement took. The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("specfun", "material", "kernels", "halfplane", "freefield", "scenario",
          "verify", "cli")

# Calls inside one module that are still stage boundaries worth a span.
INTRA_MODULE = {"scenario": ("validate_scenario", "sample_rows")}


def _branch_counts(x, cut: float) -> tuple[int, int]:
    """(arguments, arguments at or below cut) of a cylinder-function call."""
    if type(x) is float:
        return 1, int(x <= cut)
    import numpy as np

    a = np.asarray(x)
    return a.size, int(np.count_nonzero(a <= cut))


class Tracer:
    """Span recorder; one per traced process.

    ``series_cut`` is the largest cylinder-function argument that takes the
    series branch.
    """

    def __init__(self, series_cut: float):
        self.series_cut = series_cut
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.args = array("q")
        self.series = array("q")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        count_branches = name.startswith("specfun.")
        clock = time.perf_counter
        stack = self._stack
        cut = self.series_cut

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            n, s = _branch_counts(args[0], cut) if count_branches and args else (0, 0)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.args.append(n)
            self.series.append(s)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()

        return wrapper

    def install(self, package) -> None:
        """Patch a wrapper into every namespace that binds a layer function."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrappers: dict[int, object] = {}

        def wrapper_for(layer, fname, fn):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(f"{layer}.{fname}", fn)
            return wrappers[id(fn)]

        owner = {f"{package.__name__}.{layer}": layer for layer in LAYERS}
        for layer, module in modules.items():
            for fname, fn in list(vars(module).items()):
                home = owner.get(getattr(fn, "__module__", None))
                if inspect.isfunction(fn) and home is not None and home != layer:
                    setattr(module, fname, wrapper_for(home, fname, fn))
        for layer, fnames in INTRA_MODULE.items():
            for fname in fnames:
                module = modules[layer]
                setattr(module, fname, wrapper_for(layer, fname, getattr(module, fname)))

    def summary(self) -> dict:
        """Per-function and per-layer aggregates of the recorded spans."""
        import numpy as np

        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_time = duration - child
        layer_of_name = np.array([n.split(".")[0] for n in self.names] or [""])
        layer = layer_of_name[name_id] if len(name_id) else np.array([], dtype=str)
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], "")
        args = np.frombuffer(self.args, dtype=np.int64)
        series = np.frombuffer(self.series, dtype=np.int64)

        functions = {}
        for nid, name in enumerate(self.names):
            sel = name_id == nid
            functions[name] = {"calls": int(sel.sum()), "inclusive_s": float(duration[sel].sum()),
                               "self_s": float(self_time[sel].sum())}
        layers = {}
        for name in LAYERS:
            sel = layer == name
            layers[name] = {"calls": int((sel & (parent_layer != name)).sum()),
                            "self_s": float(self_time[sel].sum())}
        spec = layer == "specfun"
        all_series = spec & (series == args)
        all_asym = spec & (series == 0)
        branches = {
            "args": int(args[spec].sum()),
            "series_args": int(series[spec].sum()),
            "series_s": float(duration[all_series].sum()),
            "series_timed_args": int(args[all_series].sum()),
            "asym_s": float(duration[all_asym].sum()),
            "asym_timed_args": int(args[all_asym].sum()),
        }
        return {"functions": functions, "layers": layers, "specfun_branches": branches}


def main(argv) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import qcwaves
    import qcwaves.cli
    import_s = time.perf_counter() - t0
    from oracle import SERIES_CUT

    tracer = Tracer(SERIES_CUT)
    tracer.install(qcwaves)
    main_fn = tracer.wrap("cli.main", qcwaves.cli.main)
    code = main_fn(cli_args)
    summary = tracer.summary()
    summary["import_s"] = import_s
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
