"""Traced CLI shim: ``python -m benchmarks.e2e.traced SPANS.jsonl <repro argv>``.

Runs ``repro.cli.main(<repro argv>)`` with the public entry point of each
simulator layer wrapped from outside the package.  When the command ends
it writes to ``SPANS.jsonl`` one span per wrapped call, plus the
``import``, ``cli`` and ``exit`` spans around them (see
:mod:`benchmarks.e2e.spans` for the record layout).  The program itself
is unchanged: every wrapper calls the original with the same arguments
and returns its result.

A name is patched where its callers look it up: a function imported
with ``from x import f`` is replaced in the importing module, a method
on its class.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys

from .spans import Recorder


def _stage1_layer(recorder: Recorder) -> str:
    # Calibration runs its probes through AppSimulator.run: that time is
    # calibration, not characterisation.
    return "calibrate" if recorder.inside("calibrate") else "stage1"


def _cell_id(recorder: Recorder, args, kwargs) -> str:
    workload, scheme = args[0], args[1]
    cells = sum(1 for s in recorder.spans if s.name == "reduce")
    return f"{workload.name}/{scheme}@{kwargs.get('n_instructions')}#{cells}"


#: (module, attribute, layer, work counts of one call, cell id of the call).
#: ``layer`` is a name, or a function of the recorder for entry points
#: shared by two layers.
PATCH_POINTS = (
    ("repro.cpu.core", "generate_trace", "trace",
     lambda args, kwargs, result: {"bundles": int(args[1])}, None),
    ("repro.cpu.kernel", "generate_trace", "trace",
     lambda args, kwargs, result: {"bundles": int(args[1])}, None),
    ("repro.sim.runner", "calibrated_base_cpi", "calibrate", None, None),
    ("repro.cpu.core", "AppSimulator.run", _stage1_layer,
     lambda args, kwargs, result: {"instructions": int(result.instructions)},
     None),
    ("repro.sim.stage1_store", "Stage1Store.get", "stage1_store",
     lambda args, kwargs, result: {"lookups": 1, "hits": int(result is not None)},
     None),
    ("repro.sim.stage1_store", "Stage1Store.put", "stage1_store",
     lambda args, kwargs, result: {"writes": 1}, None),
    ("repro.nuca.llc", "NucaLLC.prefill_many", "warmup",
     lambda args, kwargs, result: {"lines": len(args[2])}, None),
    ("repro.sim.runner", "prepare_replay", "prepare", None, None),
    ("repro.sim.runner", "kernel_replay", "replay",
     lambda args, kwargs, result: {
         "records": int(args[1].total), "kernel_records": int(args[1].total),
     }, None),
    ("repro.sim.runner", "_replay_reference", "replay",
     lambda args, kwargs, result: {"records": int(args[1].total)}, None),
    ("repro.jobs.scheduler", "run_workload", "reduce", None, _cell_id),
    ("repro.jobs.scheduler", "run_jobs", "jobs", None, None),
    ("repro.jobs.cache", "ResultCache.get", "result_cache", None, None),
    ("repro.jobs.cache", "ResultCache.put", "result_cache", None, None),
)


def _wrap(recorder: Recorder, fn, layer, op: str, count, cell):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer_cell = recorder.cell
        if cell is not None:
            recorder.cell = cell(recorder, args, kwargs)
        span = recorder.open(layer(recorder) if callable(layer) else layer, op)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
            recorder.cell = outer_cell
        if count is not None:
            span.counts = count(args, kwargs, result)
        return result

    return wrapper


def install(recorder: Recorder):
    """Patch every entry point in :data:`PATCH_POINTS`; returns the undo."""
    undo = []
    try:
        for module_name, attr, layer, count, cell in PATCH_POINTS:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[name]
            setattr(owner, name, _wrap(recorder, original, layer, name, count, cell))
            undo.append((owner, name, original))
    except BaseException:
        _restore(undo)
        raise
    return lambda: _restore(undo)


def _restore(undo) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
    undo.clear()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python -m benchmarks.e2e.traced SPANS.jsonl <repro argv>",
              file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    span = recorder.open("import", "repro.cli")
    from repro import cli

    restore = install(recorder)
    recorder.close(span)
    try:
        span = recorder.open("cli", "main")
        try:
            return cli.main(cli_argv)
        finally:
            recorder.close(span)
            # The last cell's object graph is cyclic garbage that the
            # interpreter would otherwise collect at exit, outside any span.
            span = recorder.open("exit", "gc.collect")
            gc.collect()
            recorder.close(span)
    finally:
        restore()
        recorder.write_jsonl(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
