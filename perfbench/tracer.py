"""Traced child process: times the calls into each ogc module's public functions.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json cli --command verify-chain --n 0
    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json canon --seed 7

The first form runs ``ogc.cli.main`` on the given arguments, the second the
`canon` batch (perfbench/canon.py). Before that, every function in PROBES is
wrapped, and the wrapper is bound in place of the original in every loaded
``ogc`` module namespace: the modules import names directly (``from .graphs
import canonicalize``), so patching the defining module alone would miss
most calls.

Spans stay in memory and are written to SPANS.json at exit, one list
``[name, start, end, parent, counts]`` per call, where ``parent`` is the
index of the enclosing span or -1 and ``counts`` holds the work counts of
that call. The exit code is the target's.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


# (module, function) -> work counts of one call, from its arguments and result
PROBES = {
    ("graphs", "canonicalize"): lambda a, k, out: {
        "vfact": math.factorial(_first(a, k, "g").v),
        "zero": int(out.is_zero),
    },
    ("complexes", "enumerate_basis"): lambda a, k, out: {"basis_out": len(out)},
    ("complexes", "differential_matrix"): lambda a, k, out: {"cols": out.cols, "nnz": len(out.data)},
    ("linalg", "rank"): lambda a, k, out: {"nnz_in": len(_first(a, k, "m").data)},
    ("linalg", "kernel_basis"): None,
    ("skeleton", "skeleton_degree_slice"): lambda a, k, out: {"basis_out": len(out)},
    ("skeleton", "skeleton_differential_matrix"): lambda a, k, out: {"nnz": len(out.data)},
    ("skeleton", "expand_dotted"): lambda a, k, out: {"configs": 2 ** _first(a, k, "sg").n_dotted},
    ("skeleton", "canonicalize_skeleton"): None,
    ("treemap", "spanning_trees"): lambda a, k, out: {"trees_out": len(out)},
    ("treemap", "spanning_tree_map"): lambda a, k, out: {"terms_out": len(out)},
    ("treemap", "induced_matrix"): None,
    ("cache", "load"): lambda a, k, out: {"hits": int(out is not None)},
    ("cache", "store"): None,
    ("cli", "main"): None,
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if probe is not None:
                    span[4] = probe(args, kwargs, out)
                return out
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every PROBES function and rebind it in every ogc namespace.

        Returns {span name: number of namespaces rebound}; a zero would mean
        the function is missing from the package.
        """
        importlib.import_module("ogc.cli")
        modules = [m for n, m in list(sys.modules.items()) if n == "ogc" or n.startswith("ogc.")]
        bound = {}
        for (mod, fname), probe in PROBES.items():
            name = f"{mod}.{fname}"
            original = getattr(importlib.import_module(f"ogc.{mod}"), fname)
            wrapper = self.wrap(name, original, probe)
            bound[name] = 0
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        bound[name] += 1
        return bound

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh, separators=(",", ":"))


def main(argv):
    spans_path, target, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        if target == "cli":
            code = importlib.import_module("ogc.cli").main(rest)
        elif target == "canon":
            # imported after install, so its direct imports get the wrappers
            import canon

            code = canon.main(rest)
        else:
            raise SystemExit(f"unknown target {target!r}")
        sys.stdout.flush()
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
