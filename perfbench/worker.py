"""Run one benchmark operation cold, in this fresh interpreter, and time it.

Usage: python3 perfbench/worker.py '<json spec>' <checkout root>

The spec names the operation, whether to trace, and where to write the
trace and this worker's result.  Only the call into the program is timed.
The CLOCK_MONOTONIC reading taken once ``hmt`` is imported lets the parent
measure interpreter start plus import.
"""

import sys
import time

sys.path.insert(0, f"{sys.argv[2]}/src")

import hmt  # noqa: E402
import hmt.cli  # noqa: E402

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
from fractions import Fraction  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402

PROBE_INTERVAL_S = 0.2


def probe_kernel() -> float:
    """Seconds taken by a fixed ~1 ms piece of Fraction arithmetic."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
    return time.perf_counter() - start


class SpeedProbe:
    """Runs probe_kernel every PROBE_INTERVAL_S during the operation.

    The kernel runs from a SIGALRM handler, so it samples the interpreter's
    speed between bytecodes of the operation itself; its own time is
    subtracted from the operation's.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _kernel(self, signum=None, frame=None) -> None:
        self.samples.append(probe_kernel())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._kernel)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._kernel()  # at least one sample, also for operations shorter than the interval


def _fractions(table: dict) -> dict[str, str]:
    return {str(order): str(value) for order, value in sorted(table.items())}


def cumulant_route(_inputs):
    return {"moments": hmt.cumulants_to_moments(hmt.free_cumulants("markov", 14), 14)}


def roundtrip(table):
    moments = hmt.cumulants_to_moments(table, 24)
    return {"moments": moments, "cumulants": hmt.moments_to_cumulants(moments, 24)}


# name -> (input preparation, untimed; the timed call into the program)
LIBRARY_OPS = {
    "cumulant_route": (lambda: None, cumulant_route),
    "roundtrip": (lambda: hmt.CumulantTable("markov", oracles.markov_cumulants(24)), roundtrip),
}


def run(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install(hmt)
    result: dict = {"ready": READY}
    probe = SpeedProbe() if spec["reference"] == "probe" else contextlib.nullcontext()
    if spec["cli"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), probe:
            start = time.perf_counter()
            rc = hmt.cli.main(list(spec["cli"]))
            elapsed = time.perf_counter() - start
        result.update(rc=rc, stdout=out.getvalue(), stderr=err.getvalue())
    else:
        prepare, call = LIBRARY_OPS[spec["lib"]]
        inputs = prepare()
        with probe:
            start = time.perf_counter()
            value = call(inputs)
            elapsed = time.perf_counter() - start
        result.update(rc=0, value={key: _fractions(table.entries) for key, table in value.items()})
    if spec["reference"] == "probe":
        # samples taken inside the timed interval; the last one ran after it
        elapsed -= sum(probe.samples[:-1])
        result["probe_s"] = probe.samples
    result["op_s"] = elapsed
    if tracer is not None:
        with open(spec["trace_file"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
        result["layers"] = tracing.summarize(tracer.spans)
        result["counters"] = dict(tracer.counters)
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    outcome = run(spec)
    with open(spec["result_file"], "w", encoding="utf-8") as fh:
        json.dump(outcome, fh)
