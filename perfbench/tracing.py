"""Timing wrappers around the layers of ``greedyrecon``, installed from outside.

Every traced function or method is replaced by a wrapper that records one
span per call: a name, a start, an end, the span that caused it and the
thread it ran on.  Functions are replaced in every ``greedyrecon`` module
that holds them, so a caller that imported the name directly is traced as
well; methods are replaced on the class that defines them.

Self time is a span's duration minus the time its child spans on the same
thread cover, measured on the thread's CPU clock: with the candidate thread
pool, a thread that waits for the interpreter lock is not charged for the
wait, so self times summed over threads add up to the process's CPU time.
Inclusive times are wall-clock.  A span opened on a candidate pool thread
takes the innermost open span of the thread that started the pool as its
parent, so the trace keeps one tree.

Spans are kept in memory and written out by :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

from greedyrecon import (
    analysis,
    cli,
    config,
    forward,
    greedy,
    grid,
    nonlinearity,
    objectives,
    optimize,
)
from greedyrecon.exceptions import NumericalError

ORACLES = ("FittingObjective", "DiscriminationObjective", "IdentificationObjective")
GREEDY_STAGES = ("run_initialization", "run_fitting_sweep", "run_splitting")


class _Frame:
    __slots__ = ("span_id", "name", "start", "cpu_start", "child_cpu", "evals0")

    def __init__(self, span_id, name):
        self.span_id = span_id
        self.name = name
        self.child_cpu = 0.0
        self.evals0 = 0
        self.cpu_start = time.thread_time()
        self.start = time.perf_counter()


class Tracer:
    """Span recorder and per-name accumulators for one process."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, thread ident)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)  # thread CPU seconds
        self.incl_s = defaultdict(float)  # wall seconds
        self.incl_cpu_s = defaultdict(float)
        self.extra = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self._patches = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.evals = 0
        return stack

    def _enter(self, name):
        stack = self._stack()
        frame = _Frame(next(self._ids), name)
        stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        cpu = time.thread_time() - frame.cpu_start
        stack = self._local.stack
        stack.pop()
        if stack:
            parent = stack[-1].span_id
            stack[-1].child_cpu += cpu
        elif threading.get_ident() != self._main and self._main_stack:
            parent = self._main_stack[-1].span_id
        else:
            parent = None
        with self._lock:
            self.calls[frame.name] += 1
            self.self_s[frame.name] += cpu - frame.child_cpu
            self.incl_s[frame.name] += end - frame.start
            self.incl_cpu_s[frame.name] += cpu
        self.spans.append((frame.span_id, frame.name, frame.start, end, parent,
                           threading.get_ident()))

    def add(self, key, value):
        with self._lock:
            self.extra[key] += value

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, on_return=None, on_raise=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            if before is not None:
                before(frame, args, kwargs)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame)
                if on_raise is not None:
                    on_raise(frame, exc)
                raise
            tracer._exit(frame)
            if on_return is not None:
                on_return(frame, args, kwargs, out)
            return out

        return traced

    def _patch_function(self, module, attr, name, **hooks):
        """Replace ``module.attr`` wherever a greedyrecon module holds it."""
        original = getattr(module, attr)
        wrapped = self._wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "greedyrecon" or mod_name.startswith("greedyrecon."):
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def _patch_method(self, cls, attr, name, **hooks):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, **hooks))

    def install(self):
        """Wrap every traced layer; undone by :meth:`uninstall`."""
        self._main_stack = self._stack()
        add = self.add
        local = self._local

        self._patch_method(grid.NegLaplacian, "solve", "grid.NegLaplacian.solve")

        def fp_done(frame, args, kwargs, out):
            report = out[1]
            add("forward.solve_semilinear.iterations", report.iterations)
            if not report.converged:
                add("forward.solve_semilinear.stalled", 1)

        def fp_failed(frame, exc):
            if isinstance(exc, NumericalError):
                add("forward.solve_semilinear.blew_up", 1)

        self._patch_function(forward, "solve_semilinear", "forward.solve_semilinear",
                             on_return=fp_done, on_raise=fp_failed)
        self._patch_function(forward, "solve_adjoint", "forward.solve_adjoint")
        self._patch_function(forward, "coupled_linear_matrix",
                             "forward.coupled_linear_matrix")

        self._patch_method(nonlinearity.Nonlinearity, "g", "nonlinearity.g")
        self._patch_method(nonlinearity.Nonlinearity, "jacobian",
                           "nonlinearity.jacobian")

        def oracle_enter(frame, args, kwargs):
            local.evals += 1
            local.in_oracle = getattr(local, "in_oracle", 0) + 1
            need_grad = args[2] if len(args) > 2 else kwargs.get("need_grad", True)
            if need_grad:
                add(frame.name + ".grad_calls", 1)

        def oracle_leave(frame, *rest):
            local.in_oracle -= 1

        for cls_name in ORACLES:
            self._patch_method(getattr(objectives, cls_name), "__call__",
                               "objectives." + cls_name, before=oracle_enter,
                               on_return=oracle_leave, on_raise=oracle_leave)

        def ctx_solve_enter(frame, args, kwargs):
            if getattr(local, "in_oracle", 0) > 0:
                add("objectives.solves_in_eval", 1)

        self._patch_method(objectives.SolverContext, "solve",
                           "objectives.SolverContext.solve", before=ctx_solve_enter)

        def opt_enter(frame, args, kwargs):
            frame.evals0 = local.evals

        def opt_done(frame, args, kwargs, res):
            add("optimize.minimize_box.iterations", res.iterations)
            add("optimize.minimize_box.evals", local.evals - frame.evals0)
            add("optimize.minimize_box.converged", int(bool(res.converged)))

        self._patch_function(optimize, "minimize_box", "optimize.minimize_box",
                             before=opt_enter, on_return=opt_done)

        for stage in GREEDY_STAGES:
            self._patch_function(greedy, stage, "greedy." + stage)

        # one candidate's subproblem is one multistart call made by greedy;
        # its CPU time feeds the parallel efficiency
        for attr in ("multistart_minimize", "multistart_maximize"):
            original = getattr(greedy, attr)
            self._patches.append((greedy, attr, original))
            setattr(greedy, attr, self._wrap("greedy.subproblem", original))

        for fn_name in ("generate_data", "identify", "landscape_scan"):
            self._patch_function(analysis, fn_name, "analysis." + fn_name)

        def wrote(frame, args, kwargs, out):
            add("cli.artifact_bytes", os.path.getsize(args[0]))

        for fn_name in ("write_csv", "write_matrix_csv", "write_json"):
            self._patch_function(cli, fn_name, "cli.write", on_return=wrote)

        self._patch_function(config, "build_context", "config.build_context")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def totals(self) -> dict:
        """Flat copy of every accumulator: ``<span>.calls``, ``<span>.self_s``,
        ``<span>.incl_s`` and the extra counters."""
        with self._lock:
            out = dict(self.extra)
            for name, calls in self.calls.items():
                out[name + ".calls"] = calls
                out[name + ".self_s"] = self.self_s[name]
                out[name + ".incl_s"] = self.incl_s[name]
                out[name + ".incl_cpu_s"] = self.incl_cpu_s[name]
        return out

    def write_spans(self, path):
        """Write every recorded span as CSV, one line per span."""
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,thread\n")
            for sid, name, start, end, parent, thread in self.spans:
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},"
                         f"{'' if parent is None else parent},{thread}\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: dict, threads: int) -> dict:
    """Per-layer metrics from accumulator totals, as {name: (value, unit)}.

    ``.s`` is self CPU time for the solver layers.  For the greedy stages,
    the analysis entry points, artifact writes and context building it is the
    inclusive wall time, because those spans mostly wait for child spans and
    their self time would locate nothing.  The parallel efficiency is the
    CPU time of the candidate subproblems over ``threads`` times the wall
    time of the greedy stages.
    """

    def get(key):
        return float(t.get(key, 0.0))

    m = {}
    lap = "grid.NegLaplacian.solve"
    m[lap + ".calls"] = (get(lap + ".calls"), "count")
    m[lap + ".s"] = (get(lap + ".self_s"), "s")
    m[lap + ".ms_per_call"] = (1e3 * _ratio(get(lap + ".self_s"), get(lap + ".calls")), "ms")

    fp = "forward.solve_semilinear"
    m[fp + ".calls"] = (get(fp + ".calls"), "count")
    m[fp + ".s"] = (get(fp + ".self_s"), "s")
    m[fp + ".iterations"] = (get(fp + ".iterations"), "count")
    m[fp + ".iterations_per_solve"] = (_ratio(get(fp + ".iterations"), get(fp + ".calls")), "count")
    m[fp + ".stalled"] = (get(fp + ".stalled"), "count")
    m[fp + ".blew_up"] = (get(fp + ".blew_up"), "count")
    adj = "forward.solve_adjoint"
    m[adj + ".calls"] = (get(adj + ".calls"), "count")
    m[adj + ".s"] = (get(adj + ".self_s"), "s")
    m[adj + ".ms_per_call"] = (1e3 * _ratio(get(adj + ".self_s"), get(adj + ".calls")), "ms")
    m["forward.coupled_linear_matrix.s"] = (get("forward.coupled_linear_matrix.self_s"), "s")

    m["nonlinearity.g.calls"] = (get("nonlinearity.g.calls"), "count")
    m["nonlinearity.g.s"] = (get("nonlinearity.g.self_s"), "s")
    m["nonlinearity.jacobian.s"] = (get("nonlinearity.jacobian.self_s"), "s")

    evals = 0.0
    for cls_name in ORACLES:
        key = "objectives." + cls_name
        evals += get(key + ".calls")
        m[key + ".calls"] = (get(key + ".calls"), "count")
        m[key + ".grad_calls"] = (get(key + ".grad_calls"), "count")
        m[key + ".s"] = (get(key + ".self_s"), "s")
    m["objectives.SolverContext.solve.calls"] = (get("objectives.SolverContext.solve.calls"), "count")
    m["objectives.solves_per_eval"] = (_ratio(get("objectives.solves_in_eval"), evals), "ratio")

    opt = "optimize.minimize_box"
    m[opt + ".calls"] = (get(opt + ".calls"), "count")
    m[opt + ".s"] = (get(opt + ".self_s"), "s")
    m[opt + ".iterations"] = (get(opt + ".iterations"), "count")
    m[opt + ".evals"] = (get(opt + ".evals"), "count")
    m[opt + ".evals_per_run"] = (_ratio(get(opt + ".evals"), get(opt + ".calls")), "count")
    m[opt + ".converged_ratio"] = (_ratio(get(opt + ".converged"), get(opt + ".calls")), "ratio")

    stage_wall = 0.0
    for stage in GREEDY_STAGES:
        wall = get(f"greedy.{stage}.incl_s")
        stage_wall += wall
        m[f"greedy.{stage}.s"] = (wall, "s")
    m["greedy.parallel_efficiency"] = (
        _ratio(get("greedy.subproblem.incl_cpu_s"), threads * stage_wall), "ratio")

    for fn_name in ("generate_data", "identify", "landscape_scan"):
        m[f"analysis.{fn_name}.s"] = (get(f"analysis.{fn_name}.incl_s"), "s")
    m["cli.write.s"] = (get("cli.write.incl_s"), "s")
    m["cli.artifact_bytes"] = (get("cli.artifact_bytes"), "B")
    m["config.build_context.s"] = (get("config.build_context.incl_s"), "s")
    return m
