"""Spans at the package's layer boundaries, recorded from outside the package.

`Tracer` replaces each boundary function with a wrapper at every module
attribute (and class attribute) of `symilp` that refers to it, so each
caller reaches the wrapper under the name it looks the function up by:
`corepoint.verify_symmetric_group_invariance`, `layers.coordinate_bounds`,
`instances.kernel_basis`, `ILPInstance.is_feasible` and so on.  A wrapper
records one span (name, start, end, parent) per call and, for a few
boundaries, reads a count off the arguments or the result.  Spans stay in
memory until the run ends.  Per-row and per-pivot functions are never
wrapped; counts inside the program are left to the program.

A boundary whose function no longer exists is reported as missing: its
metrics read null, never 0, and the rest of the run goes on.
"""

import functools
import os
import statistics
import sys
import time

# span name -> (module, attribute path)
BOUNDARIES = {
    "instances.gen_wild": ("symilp.instances", "gen_wild"),
    "instances.gen_hypertruncated_cube": ("symilp.instances", "gen_hypertruncated_cube"),
    "instances.symmetrize": ("symilp.instances", "symmetrize"),
    "ratlin.kernel_basis": ("symilp.ratlin", "kernel_basis"),
    "model.read_instance": ("symilp.model", "read_instance"),
    "model.write_instance": ("symilp.model", "write_instance"),
    "model.normalize": ("symilp.model", "normalize"),
    "model.is_feasible": ("symilp.model", "ILPInstance.is_feasible"),
    "model.brute_force_ilp": ("symilp.model", "brute_force_ilp"),
    "symmetry.verify_symmetric_group_invariance": ("symilp.symmetry", "verify_symmetric_group_invariance"),
    "symmetry.is_symmetry": ("symilp.symmetry", "is_symmetry"),
    "symmetry.fixed_space": ("symilp.symmetry", "fixed_space"),
    "lpcore.solve_lp_on_line": ("symilp.lpcore", "solve_lp_on_line"),
    "lpcore.solve_lp": ("symilp.lpcore", "solve_lp"),
    "lpcore.coordinate_bounds": ("symilp.lpcore", "coordinate_bounds"),
    "reduction.solve_symmetric_lp": ("symilp.reduction", "solve_symmetric_lp"),
    "reduction.orbit_sum_rows": ("symilp.reduction", "orbit_sum_rows"),
    "layers.solve_by_layers": ("symilp.layers", "solve_by_layers"),
    "layers.enumeration_oracle": ("symilp.layers", "enumeration_oracle"),
    "corepoint.solve_core_point": ("symilp.corepoint", "solve_core_point"),
    "symdetect.detect": ("symilp.symdetect", "detect"),
    "symdetect.build_full_graph": ("symilp.symdetect", "build_full_graph"),
    "symdetect.build_reduced_graph": ("symilp.symdetect", "build_reduced_graph"),
    "symdetect.automorphism_group": ("symilp.symdetect", "automorphism_group"),
    "cli.main": ("symilp.cli", "main"),
}


def _read_bytes(args, kwargs, result):
    return {"read_bytes": os.path.getsize(args[0])}


def _graph_size(args, kwargs, result):
    return {"graph_nodes": result.n_nodes, "graph_edges": result.n_edges}


def _group_order(args, kwargs, result):
    return {"group_order": result.order}


def _orbit_sums(args, kwargs, result):
    return {"orbit_sums": len(result), "orbit_rows": args[0].m}


def _feasible_layer(args, kwargs, result):
    return {"feasible_layers": int(result is not None)}


# boundary -> counts read off its arguments and result
COUNTERS = {
    "model.read_instance": (("read_bytes",), _read_bytes),
    "symdetect.build_full_graph": (("graph_nodes", "graph_edges"), _graph_size),
    "symdetect.build_reduced_graph": (("graph_nodes", "graph_edges"), _graph_size),
    "symdetect.detect": (("group_order",), _group_order),
    "reduction.orbit_sum_rows": (("orbit_sums", "orbit_rows"), _orbit_sums),
    "layers.enumeration_oracle": (("feasible_layers",), _feasible_layer),
}

# Per-layer metrics: name -> (unit, better, how).  `how` is
#   ("time", span)   seconds inside the span, outermost calls only
#   ("self", span)   seconds inside the span minus its child spans
#   ("calls", span)  number of calls
#   ("count", key)   a count read by a COUNTERS hook
#   ("ratio", (kind, key), (kind, key), scale)  totals over the whole run
# Times, calls and counts are the median per traced setup plus the median
# per traced pass.
PER_LAYER = {
    "instances.gen_wild_s": ("s", "lower", ("time", "instances.gen_wild")),
    "instances.gen_hypertruncated_cube_s": ("s", "lower", ("time", "instances.gen_hypertruncated_cube")),
    "instances.symmetrize_s": ("s", "lower", ("time", "instances.symmetrize")),
    "ratlin.kernel_basis_s": ("s", "lower", ("time", "ratlin.kernel_basis")),
    "ratlin.kernel_basis_calls": ("count", "lower", ("calls", "ratlin.kernel_basis")),
    "model.read_instance_s": ("s", "lower", ("time", "model.read_instance")),
    "model.read_mb_per_s": (
        "MB/s", "higher", ("ratio", ("count", "read_bytes"), ("time", "model.read_instance"), 1e-6)),
    "model.write_instance_s": ("s", "lower", ("time", "model.write_instance")),
    "model.normalize_s": ("s", "lower", ("time", "model.normalize")),
    "model.is_feasible_s": ("s", "lower", ("time", "model.is_feasible")),
    "model.brute_force_ilp_s": ("s", "lower", ("time", "model.brute_force_ilp")),
    "symmetry.verify_symmetric_group_invariance_s": (
        "s", "lower", ("time", "symmetry.verify_symmetric_group_invariance")),
    "symmetry.is_symmetry_calls": ("count", "lower", ("calls", "symmetry.is_symmetry")),
    "symmetry.fixed_space_s": ("s", "lower", ("time", "symmetry.fixed_space")),
    "lpcore.solve_lp_on_line_s": ("s", "lower", ("time", "lpcore.solve_lp_on_line")),
    "lpcore.solve_lp_s": ("s", "lower", ("time", "lpcore.solve_lp")),
    "lpcore.solve_lp_calls": ("count", "lower", ("calls", "lpcore.solve_lp")),
    "lpcore.coordinate_bounds_s": ("s", "lower", ("time", "lpcore.coordinate_bounds")),
    "lpcore.coordinate_bounds_calls": ("count", "lower", ("calls", "lpcore.coordinate_bounds")),
    "reduction.solve_symmetric_lp_s": ("s", "lower", ("time", "reduction.solve_symmetric_lp")),
    "reduction.orbit_sum_rows_s": ("s", "lower", ("time", "reduction.orbit_sum_rows")),
    "reduction.orbit_rows_per_row": (
        "1", "lower", ("ratio", ("count", "orbit_sums"), ("count", "orbit_rows"), 1)),
    "layers.solve_by_layers_s": ("s", "lower", ("time", "layers.solve_by_layers")),
    "layers.enumeration_oracle_s": ("s", "lower", ("time", "layers.enumeration_oracle")),
    "layers.layers_scanned": ("count", "lower", ("calls", "layers.enumeration_oracle")),
    "layers.feasible_layer_ratio": (
        "1", "higher",
        ("ratio", ("count", "feasible_layers"), ("calls", "layers.enumeration_oracle"), 1)),
    "corepoint.solve_core_point_s": ("s", "lower", ("self", "corepoint.solve_core_point")),
    "symdetect.detect_s": ("s", "lower", ("time", "symdetect.detect")),
    "symdetect.build_full_graph_s": ("s", "lower", ("time", "symdetect.build_full_graph")),
    "symdetect.build_reduced_graph_s": ("s", "lower", ("time", "symdetect.build_reduced_graph")),
    "symdetect.automorphism_group_s": ("s", "lower", ("time", "symdetect.automorphism_group")),
    "symdetect.graph_nodes": ("count", "lower", ("count", "graph_nodes")),
    "symdetect.graph_edges": ("count", "lower", ("count", "graph_edges")),
    "symdetect.group_order": ("count", "higher", ("count", "group_order")),
    "cli.main_s": ("s", "lower", ("self", "cli.main")),
}


def _resolve(module_name, path):
    """The owner object, attribute name and function at `path`, or None."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, parts[-1], None)
    if owner is None or not callable(fn):
        return None
    return owner, parts[-1], fn


class Tracer:
    """Wrappers for every boundary, switched on and off between passes."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = []  # {count: value} per hooked call
        self.missing = set()
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "symilp" or name.startswith("symilp.")]
        for name, (module_name, path) in BOUNDARIES.items():
            found = _resolve(module_name, path)
            if found is None:
                self.missing.add(name)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(name, fn, COUNTERS.get(name, (None, None))[1])
            sites = {(id(owner), attr): (owner, attr)}
            for m in modules:
                for key, value in vars(m).items():
                    if value is fn:
                        sites[(id(m), key)] = (m, key)
            self._patches += [(o, a, fn, wrapper) for o, a in sites.values()]

    def _wrap(self, name, fn, counter):
        spans, stack, counts, missing = self.spans, self._stack, self.counts, self.missing

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                try:
                    counts.append(counter(args, kwargs, result))
                except (AttributeError, TypeError, OSError):
                    missing.update(COUNTERS[name][0])
            return result

        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)

    def mark(self):
        return len(self.spans), len(self.counts)

    def unit(self, since):
        """Per-boundary totals over the spans recorded after `since`."""
        first_span, first_count = since
        spans = self.spans
        time_in, self_in, calls, counts = {}, {}, {}, {}
        child = {}
        for i in range(first_span, len(spans)):
            name, start, end, parent = spans[i]
            calls[name] = calls.get(name, 0) + 1
            if parent >= first_span:
                child[parent] = child.get(parent, 0.0) + (end - start)
        for i in range(first_span, len(spans)):
            name, start, end, parent = spans[i]
            self_in[name] = self_in.get(name, 0.0) + (end - start) - child.get(i, 0.0)
            outer = parent
            while outer >= first_span and spans[outer][0] != name:
                outer = spans[outer][3]
            if outer < first_span:
                time_in[name] = time_in.get(name, 0.0) + (end - start)
        for got in self.counts[first_count:]:
            for key, value in got.items():
                counts[key] = counts.get(key, 0) + value
        return {"time": time_in, "self": self_in, "calls": calls, "count": counts}


def _source(kind, key):
    """The boundary a (kind, key) reading comes from."""
    if kind != "count":
        return key
    for name, (keys, _) in COUNTERS.items():
        if key in keys:
            return name
    raise KeyError(key)


def per_layer_metrics(missing, setups, passes):
    """Every PER_LAYER metric from the per-unit totals of a traced run.

    A metric whose boundary or count is missing reads None.  One that the
    workload never reaches reads 0.
    """
    units = setups + passes
    out = {}
    for metric, (unit, _, how) in PER_LAYER.items():
        parts = how[1:3] if how[0] == "ratio" else [how]
        if any(key in missing or _source(kind, key) in missing for kind, key in parts):
            out[metric] = (None, unit)
        elif how[0] == "ratio":
            (nk, num), (dk, den), scale = how[1:]
            num_total = sum(u[nk].get(num, 0) for u in units)
            den_total = sum(u[dk].get(den, 0) for u in units)
            out[metric] = (num_total * scale / den_total if den_total else 0.0, unit)
        else:
            kind, key = how
            value = 0.0
            for group in (setups, passes):
                if group:
                    value += statistics.median(u[kind].get(key, 0) for u in group)
            out[metric] = (value, unit)
    return out
