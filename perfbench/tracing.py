"""Span tracing of dicap's public functions, installed from outside.

``Tracer.install`` replaces each traced function or method at every name a
caller looks it up by (``capest`` imports ``rollout`` and ``dv_value`` by
name, so those are wrapped in ``capest`` too). Each call records one span:
layer, start, end and the enclosing span. Spans stay in compact in-memory
arrays until ``save`` writes them out at the end of the run.

The span arrays are anonymous memory mappings of fixed capacity, outside
the malloc heap. Growing arrays on the heap changed how glibc returned the
traced program's numpy temporaries to the system: a traced ff_capacity
round took 110k minor page faults instead of 985k and ran faster than an
untraced one.
"""

import functools
import mmap
from time import perf_counter

CAPACITY = 1 << 22      # spans per round; ff_capacity records about 0.4M

# layer name -> [(module attribute path, attribute), ...]. A dotted first
# element names a class inside the module.
LAYERS = {
    "nn.lstm_step": [("nn.LstmCell", "step")],
    "nn.lstm_backward_step": [("nn.LstmCell", "backward_step")],
    "nn.dense_forward": [("nn.Dense", "forward")],
    "nn.dense_backward": [("nn.Dense", "backward")],
    "nn.adam_step": [("nn.Adam", "step")],
    "dine.potential_forward": [("dine.DinePotential", "forward")],
    "dine.potential_backward": [("dine.DinePotential", "backward")],
    "dine.dv_value": [("dine", "dv_value"), ("capest", "dv_value")],
    "dine.train_step": [("dine.DineModel", "train_step")],
    "dine.input_gradients": [("dine.DineModel", "input_gradients")],
    "dine.evaluate": [("dine.DineModel", "evaluate")],
    "channels.rollout": [("channels", "rollout"), ("capest", "rollout")],
    "channels.rollout_backward": [("channels.Rollout", "backward")],
    "channels.draw_noise": [("channels", "draw_noise")],
    "ndt.step": [("ndt.NdtModel", "step")],
    "ndt.backward_step": [("ndt.NdtModel", "backward_step")],
    "ndt.power_normalize": [("ndt", "power_normalize"),
                            ("channels", "power_normalize")],
    "capest.monte_carlo_eval": [("capest", "monte_carlo_eval")],
    "data.read_trajectory_csv": [("data", "read_trajectory_csv"),
                                 ("cli", "read_trajectory_csv")],
    "data.window_batch": [],   # the source closure made by window_batches
    "baselines.baseline_for": [("capest", "baseline_for")],
}

# Layers whose peak-RSS growth over the call is reported.
RSS_LAYERS = ("capest.monte_carlo_eval", "data.read_trajectory_csv")


def peak_rss_mb():
    """Peak resident set of this process image, from VmHWM. Unlike
    ``ru_maxrss`` it does not carry over the parent's size from before exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self._maps = [mmap.mmap(-1, CAPACITY * size) for size in (2, 4, 8, 8)]
        self.layer, self.parent, self.start, self.end = (
            memoryview(m).cast(code) for m, code in zip(self._maps, "hidd"))
        self.n = 0
        self.stack = [-1]
        self.lstm_rows = 0          # rows x steps through LstmCell.step
        self.rss_growth = {name: 0.0 for name in RSS_LAYERS}

    def wrap(self, name, fn):
        layer_id = self.ids[name]
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.n
            if idx == CAPACITY:
                raise RuntimeError(f"more than {CAPACITY} spans in one round")
            self.n = idx + 1
            layer[idx] = layer_id
            parent[idx] = stack[-1]
            stack.append(idx)
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t
                stack.pop()

        return traced

    def install(self, dicap_modules):
        """Wrap every traced layer; ``dicap_modules`` maps short module names
        ("nn", "capest", ...) to the imported modules; sites in modules
        that are not given (``cli`` on the capacity workloads) are skipped."""
        wrapped = {}
        for name, sites in LAYERS.items():
            for where, attr in sites:
                mod_name, _, cls_name = where.partition(".")
                if mod_name not in dicap_modules:
                    continue
                owner = dicap_modules[mod_name]
                if cls_name:
                    owner = getattr(owner, cls_name)
                orig = getattr(owner, attr)
                key = (name, id(orig))
                if key not in wrapped:
                    wrapped[key] = self._wrap_special(name, orig)
                setattr(owner, attr, wrapped[key])
        self._wrap_window_batches(dicap_modules)

    def _wrap_special(self, name, fn):
        traced = self.wrap(name, fn)
        if name == "nn.lstm_step":
            def counted(cell, x, h, c):
                self.lstm_rows += x.shape[0]
                return traced(cell, x, h, c)
            return functools.wraps(fn)(counted)
        if name in RSS_LAYERS:
            def measured(*args, **kwargs):
                before = peak_rss_mb()
                try:
                    return traced(*args, **kwargs)
                finally:
                    self.rss_growth[name] += peak_rss_mb() - before
            return functools.wraps(fn)(measured)
        return traced

    def _wrap_window_batches(self, mods):
        orig = mods["data"].window_batches

        @functools.wraps(orig)
        def window_batches(*args, **kwargs):
            return self.wrap("data.window_batch", orig(*args, **kwargs))

        mods["data"].window_batches = window_batches
        if "cli" in mods:
            mods["cli"].window_batches = window_batches

    def arrays(self):
        import numpy as np
        n = self.n
        return (np.frombuffer(self.layer, np.int16, n).astype(np.int64),
                np.frombuffer(self.parent, np.int32, n).astype(np.int64),
                np.frombuffer(self.start, np.float64, n),
                np.frombuffer(self.end, np.float64, n))

    def layer_metrics(self):
        """calls, total_s and self_s per layer, plus the derived rates.

        Self time is a span's duration minus the time its child spans cover;
        spans of one thread nest, so the children's durations are summed.
        """
        import numpy as np
        layer, parent, start, end = self.arrays()
        dur = end - start
        n_layers = len(self.names)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        calls = np.bincount(layer, minlength=n_layers)
        total = np.bincount(layer, weights=dur, minlength=n_layers)
        self_t = np.bincount(layer, weights=dur - covered, minlength=n_layers)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.total_s"] = float(total[i])
            out[f"{name}.self_s"] = float(self_t[i])
        lstm_total = out["nn.lstm_step.total_s"]
        out["nn.lstm_step.krow_steps_per_s"] = (
            self.lstm_rows / lstm_total / 1e3 if lstm_total > 0 else 0.0)
        for name in RSS_LAYERS:
            out[f"{name}.rss_growth_mb"] = self.rss_growth[name]
        return out

    def save(self, path):
        import numpy as np
        layer, parent, start, end = self.arrays()
        t0 = start.min() if start.size else 0.0
        np.savez_compressed(path, layers=np.array(self.names), layer=layer,
                            parent=parent, start=start - t0, end=end - t0)
