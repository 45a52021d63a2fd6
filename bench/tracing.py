"""Span tracing installed from outside the package, for the traced run only.

install(tracer) rebinds the package's public functions, every
`from .x import y` copy of them included, to wrappers that record one span
(name, start, end, parent) per call in flat arrays. Self time is the span's
duration minus the time its child spans cover. Quandle.act is too hot for a
span per call and is counted only.
"""

import array
import gzip
import importlib
import sys
import time
from collections import defaultdict

TARGETS = [
    # (module, attribute, span name); "Class.method" wraps a method
    ("quandle", "Quandle.__init__", "quandle.construct"),
    ("quandle", "Quandle.act", "quandle.act"),
    ("chains", "Chain.__init__", "chains.chain_init"),
    ("chains", "boundary_rack", "chains.boundary_rack"),
    ("chains", "project_quandle", "chains.project_quandle"),
    ("chains", "boundary_quandle", "chains.boundary_quandle"),
    ("chains", "quandle_basis", "chains.quandle_basis"),
    ("chains", "matrix_of_boundary", "chains.matrix_of_boundary"),
    ("chains", "coordinates", "chains.coordinates"),
    ("intlinalg", "snf", "intlinalg.snf"),
    ("intlinalg", "solve_in_image", "intlinalg.solve_in_image"),
    ("intlinalg", "det", "intlinalg.det"),
    ("homology", "homology_group", "homology.homology_group"),
    ("homology", "is_null_homologous", "homology.is_null_homologous"),
    ("cocycles", "pair", "cocycles.pair"),
    ("cocycles", "is_quandle_3cocycle", "cocycles.is_quandle_3cocycle"),
    ("cocycles", "mochizuki_theta_p", "cocycles.mochizuki_theta_p"),
    ("cocycles", "mochizuki_theta", "cocycles.mochizuki_theta"),
    ("pseudocycles", "dataset_from_json", "pseudocycles.dataset_from_json"),
    ("pseudocycles", "quandle_from_json", "pseudocycles.quandle_from_json"),
    ("pseudocycles", "chain_of", "pseudocycles.chain_of"),
    ("pseudocycles", "is_pseudo_cycle", "pseudocycles.is_pseudo_cycle"),
    ("pseudocycles", "enumerate_pseudo_cycles", "pseudocycles.enumerate"),
    ("pseudocycles", "max_disjoint_packing", "pseudocycles.max_disjoint_packing"),
    ("pseudocycles", "pseudo_cycle_report", "pseudocycles.report"),
    ("cli", "main", "cli.main"),
]
COUNTED_ONLY = {"quandle.act"}


class Tracer:
    """Spans in flat arrays plus per-name call counts and self times."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array.array("H")
        self.span_parent = array.array("l")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack = []  # [span index, name id, time covered by children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.edge_calls = defaultdict(int)  # (name, parent name) -> calls
        self.stats = defaultdict(float)  # counters filled by result hooks
        self.matrices = {}  # id -> boundary matrix, for nnz at the end
        self.max_shape = (0, 0)
        self.t0 = time.perf_counter()

    def name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name, fn, hook=None):
        nid = self.name_id(name)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.span_name)
            parent = stack[-1] if stack else None
            self.span_name.append(nid)
            self.span_parent.append(parent[0] if parent else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.span_start[idx] = start - self.t0
                self.span_end[idx] = end - self.t0
                self.calls[nid] += 1
                self.self_s[nid] += duration - frame[2]
                self.edge_calls[nid, parent[1] if parent else -1] += 1
                if parent:
                    parent[2] += duration
            if hook:
                hook(self, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def counter(self, name, fn):
        nid = self.name_id(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path):
        """Spans as gzip'd TSV: index, name, start_s, end_s, parent index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\n")
            names = self.names
            for i, (nid, start, end, parent) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            ):
                fh.write(f"{i}\t{names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _snf_hook(tr, args, result):
    a = args[0]
    rows, cols = (a.rows, a.cols) if hasattr(a, "rows") else (len(a), len(a[0]) if a else 0)
    tr.stats["snf.entries"] += rows * cols
    if rows * cols > tr.max_shape[0] * tr.max_shape[1]:
        tr.max_shape = (rows, cols)


def _solve_hook(tr, args, result):
    tr.stats["solve.found"] += result is not None


def _null_hook(tr, args, result):
    tr.stats["null.true"] += bool(result)


def _matrix_hook(tr, args, result):
    tr.matrices[id(result)] = result


def _enumerate_hook(tr, args, result):
    tr.stats["enumerate.subsets"] += (1 << len(args[0].points)) - 1
    tr.stats["enumerate.found"] += len(result)


HOOKS = {
    "intlinalg.snf": _snf_hook,
    "intlinalg.solve_in_image": _solve_hook,
    "homology.is_null_homologous": _null_hook,
    "chains.matrix_of_boundary": _matrix_hook,
    "pseudocycles.enumerate": _enumerate_hook,
}


def install(tracer):
    """Rebind each target in every loaded quandlehom module that holds it
    (methods in the class that owns them)."""
    for module, _, _ in TARGETS:
        importlib.import_module(f"quandlehom.{module}")
    modules = [m for n, m in sys.modules.items() if n.partition(".")[0] == "quandlehom"]
    for module, attr, name in TARGETS:
        owner = sys.modules[f"quandlehom.{module}"]
        cls_name, _, method = attr.rpartition(".")
        holders = [getattr(owner, cls_name)] if cls_name else modules
        orig = getattr(holders[0] if cls_name else owner, method)
        if name in COUNTED_ONLY:
            wrapped = tracer.counter(name, orig)
        else:
            wrapped = tracer.span(name, orig, HOOKS.get(name))
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is orig:
                    setattr(holder, key, wrapped)


def layer_metrics(tracer):
    """Per-layer numbers from one traced sample, keyed by metric name."""
    ids = tracer.name_ids

    def calls(name):
        return tracer.calls.get(ids.get(name), 0)

    def self_s(name):
        return tracer.self_s.get(ids.get(name), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    s = tracer.stats
    nnz = sum(1 for m in tracer.matrices.values() for row in m.to_rows() for e in row if e)
    null_in_enum = tracer.edge_calls.get(
        (ids.get("homology.is_null_homologous"), ids.get("pseudocycles.enumerate")), 0
    )
    return {
        "intlinalg.snf.calls": calls("intlinalg.snf"),
        "intlinalg.snf.self_s": self_s("intlinalg.snf"),
        "intlinalg.snf.entries": int(s["snf.entries"]),
        "intlinalg.snf.max_shape": tracer.max_shape[0] * tracer.max_shape[1],
        "intlinalg.solve_in_image.calls": calls("intlinalg.solve_in_image"),
        "intlinalg.solve_in_image.self_s": self_s("intlinalg.solve_in_image"),
        "intlinalg.solve_in_image.found_ratio": ratio(s["solve.found"], calls("intlinalg.solve_in_image")),
        "homology.homology_group.self_s": self_s("homology.homology_group"),
        "homology.is_null_homologous.calls": calls("homology.is_null_homologous"),
        "homology.is_null_homologous.self_s": self_s("homology.is_null_homologous"),
        "homology.is_null_homologous.true_ratio": ratio(s["null.true"], calls("homology.is_null_homologous")),
        "chains.chain_init.calls": calls("chains.chain_init"),
        "chains.chain_init.self_s": self_s("chains.chain_init"),
        "chains.boundary_quandle.calls": calls("chains.boundary_quandle"),
        "chains.boundary_quandle.self_s": self_s("chains.boundary_quandle"),
        "chains.boundary_rack.self_s": self_s("chains.boundary_rack"),
        "chains.project_quandle.self_s": self_s("chains.project_quandle"),
        "chains.coordinates.calls": calls("chains.coordinates"),
        "chains.matrix_of_boundary.self_s": self_s("chains.matrix_of_boundary"),
        "chains.matrix_of_boundary.nnz": nnz,
        "quandle.act.calls": calls("quandle.act"),
        "quandle.construct.self_s": self_s("quandle.construct"),
        "cocycles.mochizuki_theta_p.self_s": self_s("cocycles.mochizuki_theta_p"),
        "cocycles.is_quandle_3cocycle.self_s": self_s("cocycles.is_quandle_3cocycle"),
        "cocycles.pair.calls": calls("cocycles.pair"),
        "cocycles.pair.self_s": self_s("cocycles.pair"),
        "pseudocycles.enumerate.self_s": self_s("pseudocycles.enumerate"),
        "pseudocycles.subsets": int(s["enumerate.subsets"]),
        "pseudocycles.found": int(s["enumerate.found"]),
        "pseudocycles.null_tests_per_subset": ratio(null_in_enum, s["enumerate.subsets"]),
        "pseudocycles.chain_of.self_s": self_s("pseudocycles.chain_of"),
        "pseudocycles.report.self_s": self_s("pseudocycles.report"),
        "pseudocycles.dataset_from_json.self_s": self_s("pseudocycles.dataset_from_json"),
        "trace.spans": len(tracer.span_name),
    }
