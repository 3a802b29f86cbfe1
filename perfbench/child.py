"""One benchmark child process: set up masim, run the planned units, report.

Usage: ``python3 child.py PLAN_JSON REPORT_JSON`` from the repository root,
with ``src`` on ``PYTHONPATH``.  The plan lists the configs to validate
during set-up, the units to run (each a list of ``masim run`` argument
lists) and whether to trace.  Set-up ends at ``ready``; the report gives
that instant on the monotonic clock, so the parent can time set-up from the
moment it spawned this process.

The calibration kernel runs before the first unit and after every unit, so
each unit's time can be divided by the host speed measured on both sides
of it.  With tracing on, the spans go to ``<REPORT_JSON>.spans.npz``.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time

import numpy as np

_CAL_X = np.linspace(0.0, 1.0, 4096)
_CAL_SMALL = np.linspace(0.0, 1.0, 8)
_CAL_M = np.eye(4) + 0.1j
_CAL_ROWS = [[i, float(x), 3.7 * float(x), -float(x)] for i, x in enumerate(_CAL_X[:600])]


def calibrate() -> None:
    """A fixed mix of the kinds of work masim does, about 30 ms on a 2-vCPU Xeon.

    Interpreted code, both tight loops and object-heavy code (the per-trial
    Python, config handling); many calls on tiny arrays and small linear
    algebra (positioning, greedy MIMO scoring); complex exponentials over
    an array (the field kernels); repr-formatted rows written to a buffer
    (CSV writing).  It touches no masim code, so a change to masim cannot
    change its time.
    """
    s = 0
    for i in range(50_000):
        s += i * i % 7
    for _ in range(2):
        records = [{"k": i, "v": [i * 0.5, str(i)], "t": (i, -i)} for i in range(1000)]
        json.loads(json.dumps(records))
        sorted(records, key=lambda r: -r["k"])
    for _ in range(150):
        np.argmax(np.abs(np.exp(3j * _CAL_SMALL)) ** 2)
        np.linalg.slogdet(_CAL_M)
    for _ in range(24):
        np.abs(np.exp(40j * _CAL_X)).sum()
    buf = io.StringIO()
    for _ in range(3):
        for row in _CAL_ROWS:
            buf.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _timed(fn, *args):
    """``(result, wall seconds, cpu seconds)`` of ``fn(*args)``."""
    wall0, cpu0 = time.perf_counter(), _cpu_s()
    result = fn(*args)
    return result, time.perf_counter() - wall0, _cpu_s() - cpu0


def _call(main, argv) -> int:
    try:
        return int(main(argv))
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code if isinstance(exc.code, int) else 2


def _run_unit(main, unit) -> list:
    return [_call(main, argv) for argv in unit]


def main(plan_path: str, report_path: str) -> None:
    with open(plan_path) as fh:
        plan = json.load(fh)
    import masim
    import masim.cli

    validate_codes = [_call(masim.cli.main, ["validate", "-c", c]) for c in plan["validate"]]
    tracer = None
    if plan["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    _, cal_wall, cal_cpu = _timed(calibrate)
    cal = [[cal_wall, cal_cpu]]
    units = []
    for run, unit in enumerate(plan["units"]):
        if tracer is not None:
            tracer.run = run
        codes, wall_s, cpu_s = _timed(_run_unit, masim.cli.main, unit)
        units.append({"codes": codes, "wall_s": wall_s, "cpu_s": cpu_s})
        _, cal_wall, cal_cpu = _timed(calibrate)
        cal.append([cal_wall, cal_cpu])
    report = {
        "masim_file": masim.__file__,
        "validate_codes": validate_codes,
        "ready": ready,
        "units": units,
        "cal": cal,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.save(report_path + ".spans.npz")
        report["counts"] = tracer.counts
        report["absent"] = tracer.absent
    with open(report_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
