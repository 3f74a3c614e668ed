"""Spans and counters recorded around the public functions of exitflow's layers.

``Tracer.install`` wraps every public function of the traced modules and
puts the wrapper at every module attribute of the package that refers to
the original, so a call from one layer into another passes through it:
``exitflow.elliptic.thomas_solve`` is replaced as well as
``exitflow.kernels.thomas_solve``.  Each wrapper keeps a span (name,
start, end, parent) in memory and adds the call and its self time, the
span's duration minus the durations of the wrapped calls it made.
Counters that need the arguments or the result (rows solved, path-steps
taken, bytes written) are recorded at the same wrappers.
"""

import array
import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

PACKAGE = "exitflow"
LAYERS = ("domain", "policy", "elliptic", "kernels", "hamiltonian", "hjb",
          "flow", "bounds", "montecarlo", "csvio")

# Called once per CSV cell: a wrapper would cost more than the call, so
# its time stays in the self time of write_csv.
NOT_WRAPPED = {"csvio.format_value"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _steps_before(args, kwargs):
    return int(np.sum(_arg(args, kwargs, 3, "steps")))


def _chunk_done(counts, args, kwargs, result, before):
    steps = int(np.sum(_arg(args, kwargs, 3, "steps")))
    counts["montecarlo.path_steps"] += steps - before
    counts["montecarlo.normals_drawn"] += _arg(args, kwargs, 6, "normals").size


def _add(counter, of_result):
    def post(counts, args, kwargs, result, token):
        counts[counter] += of_result(args, kwargs, result)
    return post


# name -> (pre(args, kwargs) -> token, post(counts, args, kwargs, result, token))
COUNTERS = {
    "kernels.thomas_solve": (None, _add(
        "kernels.thomas_rows",
        lambda a, k, r: len(_arg(a, k, 3, "rhs")))),
    "kernels.simulate_chunk": (_steps_before, _chunk_done),
    "hjb.solve_regularized_hjb": (None, _add(
        "hjb.pi_iterations", lambda a, k, r: r.iterations)),
    "hjb.solve_unregularized_hjb": (None, _add(
        "hjb.howard_iterations", lambda a, k, r: r.iterations)),
    "flow.integrate_flow": (None, _add(
        "flow.rk4_steps", lambda a, k, r: r.step_count)),
    "csvio.write_csv": (None, _add(
        "csvio.bytes_written", lambda a, k, r: os.path.getsize(r))),
}
COUNTER_NAMES = ("kernels.thomas_rows", "montecarlo.path_steps",
                 "montecarlo.normals_drawn", "hjb.pi_iterations",
                 "hjb.howard_iterations", "flow.rk4_steps",
                 "csvio.bytes_written")


class Stats:
    """Calls and self time per wrapped function, plus the counters."""

    def __init__(self, names=()):
        self.calls = {n: 0 for n in names}
        self.self_s = {n: 0.0 for n in names}
        self.counts = {n: 0 for n in COUNTER_NAMES}

    def copy(self):
        out = Stats()
        out.calls = dict(self.calls)
        out.self_s = dict(self.self_s)
        out.counts = dict(self.counts)
        return out

    def plus(self, other, scale=1.0):
        """self + scale*other, key by key."""
        out = self.copy()
        for mine, theirs in ((out.calls, other.calls),
                             (out.self_s, other.self_s),
                             (out.counts, other.counts)):
            for key, val in theirs.items():
                mine[key] = mine.get(key, 0) + scale * val
        return out


class Tracer:
    def __init__(self):
        self.names = []
        self.stats = Stats()
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack = []  # [span index, child time] per open span

    def install(self):
        """Wrap the public functions of LAYERS wherever the package refers
        to them.  Import every module that calls into them first."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in NOT_WRAPPED \
                        or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrappers[fn] = self._wrap(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])

    def take(self):
        """Return the stats gathered so far and start new ones."""
        out = self.stats
        self.stats = Stats(self.names)
        return out

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        self.stats.calls[name] = 0
        self.stats.self_s[name] = 0.0
        pre, post = COUNTERS.get(name, (None, None))
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre(args, kwargs) if pre is not None else None
            span = len(self.span_name)
            self.span_name.append(index)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[span] = end
                duration = end - start
                stats = self.stats
                stats.calls[name] += 1
                stats.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if post is not None:
                post(self.stats.counts, args, kwargs, result, token)
            return result

        return wrapper

    def write_spans(self, path, body_start):
        """Save every span; spans from ``body_start`` on belong to the
        timed body, the earlier ones to set-up."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 body_start=np.int64(body_start))


def _calls(*names):
    return lambda st: sum(st.calls.get(n, 0) for n in names)


def _self(*names):
    return lambda st: sum(st.self_s.get(n, 0.0) for n in names)


def _count(name):
    return lambda st: st.counts.get(name, 0)


def _ratio(num, den, scale=1.0):
    def fn(st):
        d = den(st)
        return scale * num(st) / d if d else 0.0
    return fn


# (metric, unit, better, value from Stats).  A layer a workload does not
# reach reads 0, and so does a ratio over a zero count.
PER_LAYER = [
    ("domain.make_problem_calls", "count", "lower", _calls("domain.make_problem")),
    ("domain.make_problem_s", "s", "lower", _self("domain.make_problem")),
    ("domain.make_action_space_calls", "count", "lower",
     _calls("domain.make_action_space")),
    ("domain.make_action_space_s", "s", "lower",
     _self("domain.make_action_space")),
    ("policy.gibbs_calls", "count", "lower", _calls("policy.gibbs_policy")),
    ("policy.gibbs_s", "s", "lower", _self("policy.gibbs_policy")),
    ("elliptic.value_solves", "count", "lower",
     _calls("elliptic.solve_on_policy_bellman")),
    ("elliptic.value_solve_s", "s", "lower",
     _self("elliptic.solve_on_policy_bellman",
           "elliptic.average_coefficients")),
    ("elliptic.linear_solves", "count", "lower", _calls("elliptic.solve_linear")),
    ("elliptic.linear_solve_s", "s", "lower",
     _self("elliptic.solve_linear", "elliptic.assemble_system")),
    ("kernels.thomas_calls", "count", "lower", _calls("kernels.thomas_solve")),
    ("kernels.thomas_rows", "count", "lower", _count("kernels.thomas_rows")),
    ("kernels.thomas_s", "s", "lower", _self("kernels.thomas_solve")),
    ("kernels.thomas_ns_per_row", "ns", "lower",
     _ratio(_self("kernels.thomas_solve"), _count("kernels.thomas_rows"), 1e9)),
    ("kernels.sim_chunk_calls", "count", "lower",
     _calls("kernels.simulate_chunk")),
    ("kernels.sim_chunk_s", "s", "lower", _self("kernels.simulate_chunk")),
    ("kernels.ns_per_path_step", "ns", "lower",
     _ratio(_self("kernels.simulate_chunk"), _count("montecarlo.path_steps"),
            1e9)),
    ("hamiltonian.soft_calls", "count", "lower",
     _calls("hamiltonian.soft_hamiltonian")),
    ("hamiltonian.soft_s", "s", "lower", _self("hamiltonian.soft_hamiltonian")),
    ("hamiltonian.hard_calls", "count", "lower",
     _calls("hamiltonian.hard_hamiltonian")),
    ("hamiltonian.hard_s", "s", "lower", _self("hamiltonian.hard_hamiltonian")),
    ("hamiltonian.softmin_table_calls", "count", "lower",
     _calls("hamiltonian.softmin_table")),
    ("hamiltonian.softmin_table_s", "s", "lower",
     _self("hamiltonian.softmin_table")),
    ("hjb.pi_solves", "count", "lower", _calls("hjb.solve_regularized_hjb")),
    ("hjb.pi_iterations", "count", "lower", _count("hjb.pi_iterations")),
    ("hjb.pi_s", "s", "lower", _self("hjb.solve_regularized_hjb")),
    ("hjb.howard_solves", "count", "lower",
     _calls("hjb.solve_unregularized_hjb")),
    ("hjb.howard_iterations", "count", "lower", _count("hjb.howard_iterations")),
    ("hjb.howard_s", "s", "lower", _self("hjb.solve_unregularized_hjb")),
    ("flow.rk4_steps", "count", "lower", _count("flow.rk4_steps")),
    ("flow.rhs_evals", "count", "lower", _calls("flow.mirror_rhs")),
    ("flow.integrate_s", "s", "lower",
     _self("flow.integrate_flow", "flow.mirror_rhs")),
    ("flow.lipschitz_s", "s", "lower", _self("flow.estimate_rhs_lipschitz")),
    ("flow.error_decomposition_s", "s", "lower",
     _self("flow.error_decomposition")),
    ("bounds.quadrature_calls", "count", "lower",
     _calls("bounds.growth_integrals_quadrature")),
    ("bounds.quadrature_s", "s", "lower",
     _self("bounds.growth_integrals_quadrature")),
    ("bounds.total_bound_s", "s", "lower",
     _self("bounds.total_bound", "bounds.optimization_bound",
           "bounds.growth_integrals", "bounds.reproduce_figure")),
    ("montecarlo.path_steps", "count", "lower", _count("montecarlo.path_steps")),
    ("montecarlo.normals_drawn", "count", "lower",
     _count("montecarlo.normals_drawn")),
    ("montecarlo.step_efficiency", "ratio", "higher",
     _ratio(_count("montecarlo.path_steps"),
            _count("montecarlo.normals_drawn"))),
    ("montecarlo.simulate_s", "s", "lower",
     _self("montecarlo.simulate_exit_value")),
    ("csvio.write_calls", "count", "lower", _calls("csvio.write_csv")),
    ("csvio.bytes_written", "B", "lower", _count("csvio.bytes_written")),
    ("csvio.write_s", "s", "lower",
     _self("csvio.write_csv", "csvio.write_matrix_csv")),
]
