"""Spans around the package's public functions, as its callers look them up.

The tracer replaces module attributes (``poksvd.cli.stft``,
``poksvd.learning.update_atom``, ...) with wrappers that record a span per
call: name, start, end and parent.  Spans stay in memory until ``dump``.
Nothing inside the package is edited, so a span covers one call into a layer
and a layer's self time is its spans minus the spans of its children.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

# (module, attribute) -> span name.  ``cli`` itself is the root span, opened
# by the worker around ``poksvd.cli.main``.
TARGETS = {
    ("poksvd.cli", "read_wav"): "wavio.read",
    ("poksvd.cli", "write_wav"): "wavio.write",
    ("poksvd.cli", "load_dictionary"): "dictio.load",
    ("poksvd.cli", "save_dictionary"): "dictio.save",
    ("poksvd.cli", "stft"): "stft.analysis",
    ("poksvd.cli", "istft"): "stft.synthesis",
    ("poksvd.cli", "denoise"): "pipeline.denoise",
    ("poksvd.pipeline", "denoise"): "pipeline.denoise",
    ("poksvd.cli", "po_ksvd"): "learning.po_ksvd",
    ("poksvd.learning", "po_ksvd"): "learning.po_ksvd",
    ("poksvd.pipeline", "po_omp_batch"): "pursuit.code",
    ("poksvd.learning", "po_omp_batch"): "pursuit.code",
    ("poksvd.learning", "update_atom"): "learning.update_atom",
    ("poksvd.learning", "dominant_singular_triple"): "linalg.svd",
}

# per-layer metric -> unit, in BENCHMARK.json order
PER_LAYER = {
    "cli.self_s": "s",
    "wavio.read_s": "s",
    "wavio.write_s": "s",
    "dictio.load_s": "s",
    "dictio.save_s": "s",
    "stft.analysis_s": "s",
    "stft.synthesis_s": "s",
    "stft.frames": "count",
    "pipeline.denoise_self_s": "s",
    "pursuit.code_s": "s",
    "pursuit.calls": "count",
    "pursuit.frames": "count",
    "pursuit.us_per_frame": "us",
    "linalg.refine_cap_hits": "count",
    "linalg.ridge_fallbacks": "count",
    "linalg.svd_s": "s",
    "linalg.svd_calls": "count",
    "learning.update_atom_s": "s",
    "learning.update_atom_calls": "count",
    "learning.self_s": "s",
    "learning.outer_iters": "count",
    "learning.coding_passes": "count",
    "learning.atoms_replaced": "count",
}


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: id, name, start, end, parent, repeat, attrs
        self._stack = []
        self.repeat = -1
        self.t0 = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span; ``attrs`` of the span may be filled by
        the caller through the returned record."""
        span = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None,
                "repeat": self.repeat, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter() - self.t0
        try:
            span["result"] = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter() - self.t0
            self._stack.pop()
        return span

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "learning.po_ksvd":
                return self._po_ksvd(fn, *args, **kwargs)
            span = self.call(name, fn, *args, **kwargs)
            result = span.pop("result")
            if name == "pursuit.code":
                span["attrs"]["frames"] = len(result)
            elif name == "stft.analysis":
                span["attrs"]["frames"] = result.frames
            return result

        return traced

    def _po_ksvd(self, fn, *args, progress=None, **kwargs):
        replaced = []

        def counting(it, objective, atoms_replaced):
            replaced.append(atoms_replaced)
            if progress is not None:
                progress(it, objective, atoms_replaced)

        span = self.call("learning.po_ksvd", fn, *args, progress=counting, **kwargs)
        result = span.pop("result")
        span["attrs"].update(iters=len(result.objective_trace), replaced=sum(replaced))
        return result

    def install(self):
        for (module, attr), name in TARGETS.items():
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))

    def layer_metrics(self, repeat, diagnostics):
        """Per-layer metrics of one repeat; ``diagnostics`` is the package's
        (ridge_fallbacks, refine_cap_hits) after that repeat."""
        spans = [s for s in self.spans if s["repeat"] == repeat]
        by_id = {s["id"]: s for s in spans}
        dur = {s["id"]: s["end"] - s["start"] for s in spans}
        child = {i: 0.0 for i in dur}
        for s in spans:
            if s["parent"] in child:
                child[s["parent"]] += dur[s["id"]]

        def total(name):
            return sum(dur[s["id"]] for s in spans if s["name"] == name)

        def own(name):
            return sum(dur[s["id"]] - child[s["id"]] for s in spans if s["name"] == name)

        def count(name):
            return sum(1 for s in spans if s["name"] == name)

        def attr(name, key):
            return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

        code_s, frames = total("pursuit.code"), attr("pursuit.code", "frames")
        return {
            "cli.self_s": own("cli"),
            "wavio.read_s": total("wavio.read"),
            "wavio.write_s": total("wavio.write"),
            "dictio.load_s": total("dictio.load"),
            "dictio.save_s": total("dictio.save"),
            "stft.analysis_s": total("stft.analysis"),
            "stft.synthesis_s": total("stft.synthesis"),
            "stft.frames": attr("stft.analysis", "frames"),
            "pipeline.denoise_self_s": own("pipeline.denoise"),
            "pursuit.code_s": code_s,
            "pursuit.calls": count("pursuit.code"),
            "pursuit.frames": frames,
            "pursuit.us_per_frame": 1e6 * code_s / frames if frames else 0.0,
            "linalg.refine_cap_hits": diagnostics[1],
            "linalg.ridge_fallbacks": diagnostics[0],
            "linalg.svd_s": total("linalg.svd"),
            "linalg.svd_calls": count("linalg.svd"),
            "learning.update_atom_s": own("learning.update_atom"),
            "learning.update_atom_calls": count("learning.update_atom"),
            "learning.self_s": own("learning.po_ksvd"),
            "learning.outer_iters": attr("learning.po_ksvd", "iters"),
            "learning.coding_passes": sum(
                1 for s in spans
                if s["name"] == "pursuit.code" and by_id.get(s["parent"], {}).get("name") == "learning.po_ksvd"
            ),
            "learning.atoms_replaced": attr("learning.po_ksvd", "replaced"),
        }

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump([{k: v for k, v in s.items() if k != "result"} for s in self.spans], fh)


def median_metrics(per_repeat):
    """Median of each metric over the repeats."""
    return {k: statistics.median(m[k] for m in per_repeat) for k in per_repeat[0]}
