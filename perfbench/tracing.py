"""Spans and counters recorded around conewidth's layer boundaries.

The tracer never edits the package: it replaces module attributes at the
place where callers look them up (``solver`` imported ``project_l1_ball`` by
name, ``experiment`` imported ``stream`` by name, everything else is looked
up as ``module.function``).  Coarse calls (a solve, a trial, a width
estimate) become spans with a parent; hot calls (loss, gradient, l1
projections, stream construction) only bump counters, because a span per
oracle call would cost more than the call.

Pool workers are forked from the traced process, so they inherit the
wrappers.  Each worker starts with an empty trace and rewrites its own
``<prefix>.worker-<pid>.json`` after every task.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time


def now() -> float:
    """CLOCK_MONOTONIC seconds; one clock shared by every process on the host."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans ``[name, start, end, parent index or -1, attrs]`` and counters
    ``name -> [calls, seconds, extra]`` of one process."""

    def __init__(self, worker_prefix: str):
        self.worker_prefix = worker_prefix
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, list] = {}
        self.paused = False

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, now(), None, self.stack[-1] if self.stack else -1, {}]
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield record[4]
        finally:
            record[2] = now()
            self.stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def count(self, name: str) -> int:
        return self.counters.get(name, (0,))[0]

    def dump(self) -> dict:
        return {"pid": self.pid, "spans": self.spans, "counters": self.counters}

    def flush_worker(self) -> None:
        path = f"{self.worker_prefix}.worker-{self.pid}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)

    # -- wrappers, installed where callers look the function up -------------

    def span_calls(self, owner, attr: str, name: str) -> None:
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return orig(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, name: str, extra=None) -> None:
        """Count calls and their seconds; ``extra(*args)`` adds to the third field."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if self.paused:
                return orig(*args, **kwargs)
            start = now()
            out = orig(*args, **kwargs)
            counter = self.counters.setdefault(name, [0, 0.0, 0])
            counter[0] += 1
            counter[1] += now() - start
            if extra is not None:
                counter[2] += extra(*args)
            return out

        setattr(owner, attr, wrapper)


def install(worker_prefix: str) -> Tracer:
    """Wrap every traced boundary of conewidth and return the live tracer."""
    from conewidth import bounds, cli, experiment, geometry, glm, solver

    tracer = Tracer(worker_prefix)

    # cli: config parsing, and the sweep command around run_sweep (the gap
    # between those two spans is CSV rendering and writing)
    tracer.span_calls(cli, "load_config", "cli.load_config")
    tracer.span_calls(cli, "_cmd_sweep", "cli.cmd_sweep")
    tracer.span_calls(cli, "run_sweep", "cli.run_sweep")

    # experiment
    tracer.span_calls(experiment, "prepare_sweep", "experiment.prepare_sweep")
    tracer.span_calls(experiment, "run_trial", "experiment.trial")
    _wrap_pool_worker(tracer, experiment)

    # rng, seen through experiment's own name for it
    tracer.count_calls(experiment, "stream", "rng.stream")

    # glm: 2 n p flop per design matvec; loss does one, gradient two
    tracer.count_calls(glm, "loss", "glm.loss", lambda inst, *_: 2 * inst.n * inst.p)
    tracer.count_calls(glm, "gradient", "glm.gradient", lambda inst, *_: 4 * inst.n * inst.p)
    tracer.span_calls(glm, "sample_design", "glm.datagen")
    tracer.span_calls(glm, "sample_responses", "glm.datagen")

    # solver
    for attr in ("projected_gradient", "frank_wolfe"):
        _wrap_solve(tracer, solver, attr)
    tracer.count_calls(solver, "project_l1_ball", "solver.proj")

    # geometry
    tracer.span_calls(geometry, "gaussian_width_cone", "geometry.width_cone")
    tracer.span_calls(geometry, "global_width_l1", "geometry.width_global")
    tracer.span_calls(geometry, "localized_width", "geometry.width_localized")
    tracer.count_calls(geometry, "project_l1_ball_rows", "geometry.l1_proj_rows", lambda X, *_: len(X))
    for attr in ("project_onto_descent_cone", "_sup_localized_dual_rows"):
        _wrap_proj_grad(tracer, geometry, attr)

    # bounds
    tracer.span_calls(bounds, "rsc_estimate", "bounds.rsc")
    tracer.span_calls(bounds, "optimize_t", "bounds.optimize_t")
    tracer.span_calls(bounds, "bound_report", "bounds.bound")
    return tracer


def _wrap_solve(tracer: Tracer, solver, attr: str) -> None:
    """Span per solve with its iterations, loss evaluations and certificate."""
    orig = getattr(solver, attr)

    @functools.wraps(orig)
    def wrapper(instance, *args, **kwargs):
        loss_before = tracer.count("glm.loss")
        with tracer.span("solver.solve") as attrs:
            report = orig(instance, *args, **kwargs)
        attrs["loss_calls"] = tracer.count("glm.loss") - loss_before
        attrs["iters"] = int(report.iterations)
        tracer.paused = True  # the tolerance costs one loss call of its own
        try:
            attrs["certified"] = bool(report.final_gap <= solver.default_gap_tol(instance))
        finally:
            tracer.paused = False
        return report

    setattr(solver, attr, wrapper)


def _wrap_proj_grad(tracer: Tracer, geometry, attr: str) -> None:
    """Span the per-trial projected-gradient norm.  The dual routine also runs
    inside localized widths, which their own span already times."""
    orig = getattr(geometry, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if tracer.parent_name() != "experiment.trial":
            return orig(*args, **kwargs)
        with tracer.span("geometry.proj_grad"):
            return orig(*args, **kwargs)

    setattr(geometry, attr, wrapper)


def _wrap_pool_worker(tracer: Tracer, experiment) -> None:
    init, run = experiment._worker_init, experiment._worker_run

    @functools.wraps(init)
    def worker_init(*args, **kwargs):
        tracer.reset()  # drop what the fork copied from the parent
        with tracer.span("experiment.worker_init"):
            init(*args, **kwargs)
        tracer.flush_worker()

    @functools.wraps(run)
    def worker_run(*args, **kwargs):
        with tracer.span("experiment.worker_task"):
            out = run(*args, **kwargs)
        tracer.flush_worker()
        return out

    experiment._worker_init = worker_init
    experiment._worker_run = worker_run
