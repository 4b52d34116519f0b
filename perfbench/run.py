"""Benchmark of transdist's decision calls, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
``src/``.  One caller drives the public API in a closed loop, timing whole
passes over the workload's pool of calls until ``--seconds`` have passed
(and at least 100 calls are done).  Call times are scaled to the speed of a
fixed reference task timed between calls (``pace.py``), so that a shared
host's changing speed does not show as a change of the program.  Every
answer is checked after the timed region; a wrong answer exits with code 1
and prints no result.  The last line of standard output is one JSON object
with the metrics: the end-to-end ones with ``--trace 0``, the per-layer
ones with ``--trace 1``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ behind in the checkout

import argparse
import importlib
import json
import resource
import signal
import statistics
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from check import Checker, WrongAnswer, decided, summarize
from layers import PACKAGE, Tracer
from pace import REF_S, time_reference
from workloads import WORKLOADS

MIN_CALLS = 100
BLOCK_S = 0.02                # call time between two reference timings
SETUP_REPEATS = 5
MEMORY_CAP = 2 << 30          # address-space cap on this process, in bytes
TRACED_LIMIT_FACTOR = 4       # traced calls get this much more time each


class CallTimeout(BaseException):
    """Raised by SIGALRM inside a call that ran past its time limit.

    A BaseException, so no ``except Exception`` in the library swallows it.
    """


def _alarm(signum, frame):
    raise CallTimeout()


def import_library(src: Path):
    """A fresh import of the package from ``src``, compiled from source."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    td = importlib.import_module(PACKAGE)
    if src not in Path(td.__file__).resolve().parents:
        raise ImportError(f"{PACKAGE} was imported from {td.__file__}, "
                          f"not from {src}")
    return td


def setup(workload, seed: int, src: Path):
    """Import, generate and build SETUP_REPEATS times; keep the last build.

    Each set-up is scaled to the reference speed like a block of calls; the
    result is the median of the scaled times.
    """
    times = []
    ref_before = time_reference()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        td = import_library(src)
        rounds = workload.make_pool(td, seed)
        elapsed = time.perf_counter() - t0
        ref_after = time_reference()
        times.append(elapsed * 2 * REF_S / (ref_before + ref_after))
        ref_before = ref_after
    return td, rounds, statistics.median(times)


def invoke(td, call, limit: float):
    """(returned, result); a call past the limit or raising returns nothing."""
    fn = getattr(td, call.fn)
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            result = fn(*call.args, **call.kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except (CallTimeout, Exception):  # any failure leaves the call undecided
        return False, None
    return True, result


@dataclass
class Run:
    latencies: array = field(default_factory=lambda: array("d"))  # seconds
    scaled: array = field(default_factory=lambda: array("d"))  # at REF_S speed
    passes: int = 0
    answers: dict = field(default_factory=dict)  # (round, pos) -> (digest, result)
    changed: list = field(default_factory=list)  # repeats that answered otherwise
    decided: int = 0

    @property
    def calls_per_s(self) -> float:
        """Calls per second of one pass at the reference speed, with each
        call taking the median of its scaled times over the passes.

        A pass is the pool once, so a call's repeats are ``calls`` apart.
        """
        calls = len(self.scaled) // self.passes
        per_call = [statistics.median(self.scaled[i::calls])
                    for i in range(calls)]
        return calls / sum(per_call)


def measure(td, rounds, limit: float, seconds: float | None = None,
            replay: int | None = None, tracer: Tracer | None = None) -> Run:
    """Time whole passes over the pool, until ``seconds`` have passed and
    MIN_CALLS are done, or until ``replay`` passes are done.

    The calls are timed in blocks of at least BLOCK_S, with the reference
    task timed between blocks; a block's calls are scaled by REF_S over the
    mean of the reference times before and after it.  Only the first answer
    of each call is kept; a repeat that answers otherwise is recorded in
    ``changed``.
    """
    run = Run()
    clock = time.perf_counter
    start = clock()
    ref_before, block_start, block_s = time_reference(), 0, 0.0

    def close_block():
        nonlocal ref_before, block_start, block_s
        ref_after = time_reference()
        factor = 2 * REF_S / (ref_before + ref_after)
        run.scaled.extend(x * factor
                          for x in run.latencies[block_start:])
        ref_before, block_start, block_s = ref_after, len(run.latencies), 0.0

    while True:
        for ri, calls in enumerate(rounds):
            for pos, call in enumerate(calls):
                if tracer is not None:
                    tracer.begin(len(run.latencies))
                t0 = clock()
                ok, result = invoke(td, call, limit)
                elapsed = clock() - t0
                run.latencies.append(elapsed)
                block_s += elapsed
                if ok:
                    digest = summarize(td, result)
                    first = run.answers.setdefault((ri, pos), (digest, result))
                    if first[0] != digest:
                        run.changed.append(((ri, pos), first[0], digest))
                    run.decided += decided(digest)
                if block_s >= BLOCK_S:
                    close_block()
        run.passes += 1
        if replay is not None:
            if run.passes >= replay:
                break
        elif (clock() - start >= seconds
              and len(run.latencies) >= MIN_CALLS):
            break
    if block_start < len(run.latencies):
        close_block()
    return run


def check_run(td, workload, rounds, run: Run):
    """Checks the first answer of each decided call, after the timed region."""
    if run.changed:
        (ri, pos), first, later = run.changed[0]
        raise WrongAnswer(f"call {pos} of round {ri} answered {first} and "
                          f"later {later}")
    by_round: dict[int, dict] = {}
    for (ri, pos), (_, result) in run.answers.items():
        tag = rounds[ri][pos].tag
        if tag is not None:
            by_round.setdefault(ri, {})[tag] = result
    checker = Checker(td, workload.check_len)
    for (ri, pos), (digest, result) in run.answers.items():
        if decided(digest):
            rounds[ri][pos].check(checker, result, by_round.get(ri, {}))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, setup_s: float, rss: float):
    lat_ms = [1000.0 * x for x in run.scaled]
    return {
        "calls_per_s": (run.calls_per_s, "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10)[-1], "ms"),
        "decided_ratio": (run.decided / len(run.latencies), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {src}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_CAP:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, hard))
    signal.signal(signal.SIGALRM, _alarm)

    workload = WORKLOADS[args.workload]
    td, rounds, setup_s = setup(workload, args.seed, src)
    invoke(td, rounds[0][0], workload.limit_s)  # warm-up, not timed

    try:
        if args.trace:
            plain = measure(td, rounds, workload.limit_s,
                            seconds=args.seconds / 3)
            with Tracer() as tracer:
                traced = measure(td, rounds,
                                 workload.limit_s * TRACED_LIMIT_FACTOR,
                                 replay=plain.passes, tracer=tracer)
            for key, (digest, _) in traced.answers.items():
                if key in plain.answers and plain.answers[key][0] != digest:
                    raise WrongAnswer(f"call {key[1]} of round {key[0]}: "
                                      f"traced answer {digest} differs from "
                                      f"untraced {plain.answers[key][0]}")
            check_run(td, workload, rounds, plain)
            metrics = tracer.metrics(len(traced.latencies))
            metrics["trace_overhead_ratio"] = (
                traced.calls_per_s / plain.calls_per_s, "ratio")
            run = plain
        else:
            run = measure(td, rounds, workload.limit_s,
                          seconds=args.seconds)
            rss = peak_rss_mb()
            check_run(td, workload, rounds, run)
            metrics = end_to_end(run, setup_s, rss)
    except WrongAnswer as exc:
        print(f"error: wrong answer on {args.workload} seed {args.seed}: "
              f"{exc}", file=sys.stderr)
        return 1

    result = {
        "correct": True,
        "attempted": len(run.latencies),
        "failed": len(run.latencies) - run.decided,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(f"{args.workload} seed {args.seed}: {len(run.latencies)} calls in "
          f"{run.passes} passes of {len(rounds)} rounds, "
          f"{sum(run.latencies):.2f}s of calls ({sum(run.scaled):.2f}s at "
          f"the reference speed), {run.decided} decided")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
