"""In-memory span recorder that wraps the solver's public functions.

Spans are recorded from the benchmark's side only: each public function is
replaced, in every module that calls it through a module-level name, by a
wrapper that records (name, start, end, parent, attrs). Python resolves
module globals at call time, so a function's calls from inside its own
module go through the wrapper too. Nothing in the solver package changes.

The wrappers stay installed for the life of the process; the benchmark runs
each workload in a fresh process.
"""

import functools
import importlib
import time

# span name -> (target object, attribute) pairs. A target string names a
# module; "module:Class" names a class whose method is wrapped. Every name a
# function is called through is listed, so each call records exactly one span.
TARGETS = {
    "cli.run_experiment": [("hdg_elastic.cli", "run_experiment")],
    "cases.make_case": [("hdg_elastic.cases", "make_case"),
                        ("hdg_elastic.cli", "make_case")],
    "mesh.build_structured_cube": [("hdg_elastic.mesh", "build_structured_cube"),
                                   ("hdg_elastic.cli", "build_structured_cube"),
                                   ("hdg_elastic.errors", "build_structured_cube")],
    "mesh.tag_boundary": [("hdg_elastic.mesh", "tag_boundary"),
                          ("hdg_elastic.cli", "tag_boundary"),
                          ("hdg_elastic.errors", "tag_boundary")],
    "discretization.init": [("hdg_elastic.discretization:Discretization", "__init__")],
    "global_system.solve_time_harmonic": [
        ("hdg_elastic.global_system", "solve_time_harmonic"),
        ("hdg_elastic.cli", "solve_time_harmonic"),
        ("hdg_elastic.errors", "solve_time_harmonic")],
    "global_system.assemble_hybrid": [("hdg_elastic.global_system", "assemble_hybrid")],
    "global_system.load_moments": [("hdg_elastic.global_system", "load_moments")],
    "global_system.solve_skeleton": [("hdg_elastic.global_system", "solve_skeleton")],
    "global_system.reconstruct": [("hdg_elastic.global_system", "reconstruct")],
    "global_system.assemble_monolithic": [
        ("hdg_elastic.global_system", "assemble_monolithic")],
    "global_system.solve_monolithic": [("hdg_elastic.global_system", "solve_monolithic"),
                                       ("hdg_elastic.cli", "solve_monolithic")],
    "global_system.flux_residual": [("hdg_elastic.global_system", "flux_residual")],
    "local_ops.assemble_local_blocks": [
        ("hdg_elastic.local_ops", "assemble_local_blocks"),
        ("hdg_elastic.global_system", "assemble_local_blocks"),
        ("hdg_elastic.errors", "assemble_local_blocks"),
        ("hdg_elastic.time_domain", "assemble_local_blocks")],
    "local_ops.factorize_local": [("hdg_elastic.local_ops", "factorize_local"),
                                  ("hdg_elastic.global_system", "factorize_local")],
    "local_ops.condense": [("hdg_elastic.local_ops", "condense"),
                           ("hdg_elastic.global_system", "condense")],
    "local_ops.recover": [("hdg_elastic.local_ops", "recover"),
                          ("hdg_elastic.global_system", "recover")],
    "errors.compute_errors": [("hdg_elastic.errors", "compute_errors"),
                              ("hdg_elastic.cli", "compute_errors")],
    "errors.energy_identity_sides": [("hdg_elastic.errors", "energy_identity_sides")],
    "errors.run_energy_identity_check": [
        ("hdg_elastic.errors", "run_energy_identity_check"),
        ("hdg_elastic.cli", "run_energy_identity_check")],
    "time_domain.system_build": [
        ("hdg_elastic.time_domain:SemidiscreteSystem", "__init__")],
    "time_domain.initial_state": [("hdg_elastic.time_domain", "initial_state")],
    "time_domain.effective_stiffness": [
        ("hdg_elastic.time_domain:SemidiscreteSystem", "effective_stiffness")],
    "time_domain.first_order_operator": [
        ("hdg_elastic.time_domain:SemidiscreteSystem", "_first_order_operator")],
    "time_domain.step": [("hdg_elastic.time_domain:SemidiscreteSystem", "step")],
    "time_domain.energy": [("hdg_elastic.time_domain:SemidiscreteSystem", "energy")],
    # time_domain imports these inside the step functions, at call time
    "time_domain.newmark_factor": [("scipy.linalg", "cho_factor")],
    "time_domain.trapezoid_factor": [("scipy.linalg", "lu_factor")],
}

# Set-up calls, which the untraced run records as well so that it can report
# set-up time and the finest solve; a handful of calls per workload.
SETUP_SPANS = ("cases.make_case", "mesh.build_structured_cube", "mesh.tag_boundary",
               "discretization.init", "time_domain.system_build",
               "time_domain.initial_state")
LIGHT_SPANS = SETUP_SPANS + ("global_system.solve_time_harmonic",)


def _solve_attrs(disc, *args, **kwargs):
    return {"elements": disc.mesh.num_elements}


def _skeleton_attrs(system, *args, **kwargs):
    return {"dofs": system.skeleton.ndof, "nnz": int(system.matrix.nnz)}


def _factor_attrs(blocks, *args, **kwargs):
    return {"n": blocks.nS + blocks.nW3}


# Sizes recorded with a span, computed from the call's arguments.
ATTRS = {
    "global_system.solve_time_harmonic": _solve_attrs,
    "global_system.solve_skeleton": _skeleton_attrs,
    "local_ops.factorize_local": _factor_attrs,
}


def _resolve(target):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Recorder:
    """Spans kept in memory: parallel lists indexed by span id."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.attrs = []
        self._stack = []

    def install(self, span_names):
        """Wrap every binding of the named functions."""
        for name in span_names:
            attr_fn = ATTRS.get(name)
            for target, attr in TARGETS[name]:
                owner = _resolve(target)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original, attr_fn,
                                                method=":" in target))

    def _wrap(self, name, fn, attr_fn, method):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else None)
            self.attrs.append(attr_fn(*args[method:], **kwargs) if attr_fn else None)
            self.ends.append(None)
            self._stack.append(sid)
            self.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[sid] = clock()
                self._stack.pop()

        return wrapper

    def durations(self, name):
        return [self.ends[i] - self.starts[i]
                for i, n in enumerate(self.names) if n == name]

    def total(self, name):
        return sum(self.durations(name))

    def count(self, name):
        return self.names.count(name)

    def self_times(self):
        """Per-name (self seconds, calls): duration minus direct children."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p is not None:
                child[p] += self.ends[i] - self.starts[i]
        out = {}
        for i, name in enumerate(self.names):
            s, c = out.get(name, (0.0, 0))
            out[name] = (s + self.ends[i] - self.starts[i] - child[i], c + 1)
        return out

    def spans(self, origin):
        """Span records with times in seconds since origin."""
        return [{"id": i, "name": n, "start": self.starts[i] - origin,
                 "end": self.ends[i] - origin, "parent": self.parents[i],
                 "attrs": self.attrs[i]}
                for i, n in enumerate(self.names)]
