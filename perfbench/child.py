"""Run one ``conewidth sweep`` in this fresh process and record what happened.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/child.py RESULT.json TRACE(0|1) CONFIG OUT [KEY=VALUE ...]

The sweep goes through the user-facing entry point
``conewidth.cli.main(["sweep", ...])``.  Two wrappers are always installed,
each adding one call per run: one around ``experiment.prepare_sweep`` marks
when the main process finished set-up, and one around ``cli.run_sweep``
keeps the ``SweepResult`` so that failed trials, which both CSVs omit, can be
counted.  With TRACE=1 every layer boundary is traced as well.
"""

from __future__ import annotations

import json
import os
import platform
import sys

from tracing import install, now


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CONEWIDTH_THREADS")
        },
    }


def main(argv: list[str]) -> int:
    result_path, traced, config, out, *overrides = argv
    from conewidth import cli, experiment

    tracer = install(result_path) if traced == "1" else None
    marks: dict = {}
    main_pid = os.getpid()

    prepare = experiment.prepare_sweep

    def prepare_sweep(cfg):
        ctx = prepare(cfg)
        if os.getpid() == main_pid:
            marks.setdefault("setup_done", now())
        return ctx

    experiment.prepare_sweep = prepare_sweep

    run_sweep = cli.run_sweep

    def keep_result(cfg):
        marks["result"] = run_sweep(cfg)
        return marks["result"]

    cli.run_sweep = keep_result

    exit_code = cli.main(["sweep", "--config", config, "--out", out, *overrides])
    done = now()

    records = marks["result"].records if "result" in marks else ()
    payload = {
        "exit_code": exit_code,
        "setup_done": marks.get("setup_done"),
        "done": done,
        "trials_attempted": len(records),
        "failed_trials": [[r.n, r.trial, r.error_message] for r in records if r.failed],
        "machine": machine_facts(),
        "trace": tracer.dump() if tracer is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
