"""Request-level benchmark of odofull.

Run one workload from the root of a source checkout::

    python3 bench/run.py --workload deep_tables --seed 1 --seconds 30 --trace 0

One client drives the workload's fixed request list in a closed loop, in
this single process: the next request starts when the previous one has
returned.  Whole passes over the list repeat until the timed phase (the
sum of request latencies) reaches ``--seconds``; each request counts at
the median of its latencies over the passes.  Every output is checked
exactly outside its timed span.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics ``setup_s`` (median of seven
  set-ups, three before the timed phase and four after it),
  ``throughput_req_s``, ``req_p50_ms``, ``req_tail_ms`` and ``peak_rss_mb``;
* ``--trace 1``: one untraced pass, then one traced pass of the same
  requests, and the per-layer metrics of the traced pass, together with
  ``trace.overhead`` (traced over untraced request time).

``fail_ratio`` is printed above the JSON line and stored in the result
file; the JSON line carries it as ``failed`` / ``attempted``.  Each run
writes ``bench/results/<workload>_s<seed>_t<trace>.json`` (and the spans
of a traced run as ``.spans.gz``), stamped with the Python version, the
usable core count, the load average at start and end, the git commit and
the seed.

``--workload all`` runs every workload in a fresh process of its own and
prints their metrics side by side.  ``--replay N`` re-runs request ``N``
of a seeded list once and reports its check, so any recorded failure can
be replayed from its seed and index.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Set-ups timed before and after the timed phase.  The machine's speed
# wanders in spells of seconds; spreading the set-ups over the run keeps
# one spell from setting their median.
SETUP_REPS_BEFORE = 3
SETUP_REPS_AFTER = 4
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_req_s": "1/s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _import_package():
    """Import ``odofull`` afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "odofull" or m.startswith("odofull.")]:
        del sys.modules[name]
    od = importlib.import_module("odofull")
    importlib.import_module("odofull.cli")
    if Path(od.__file__).resolve().parent != SRC / "odofull":
        raise ImportError(f"odofull imported from {od.__file__}, not from {SRC}")
    return od


def set_up(name: str, seed: int, size: str, workdir: str):
    """One set-up: a fresh import of the package and a build of the inputs.

    Returns the package, the workload and the seconds it took.
    """
    start = time.perf_counter()
    od = _import_package()
    workload = workloads.build(od, name, seed, size, workdir)
    return od, workload, time.perf_counter() - start


def run_pass(workload, failures: list, digests: list | None, tracer=None, pass_no=0):
    """One pass over the request list; returns per-request latencies (ns).

    ``digests`` collects the output fingerprints of the first pass; later
    passes must reproduce them.
    """
    latencies = []
    clock = time.perf_counter_ns
    for index, request in enumerate(workload.requests):
        if tracer is not None:
            tracer.begin(index)
        start = clock()
        try:
            output = workload.execute(request)
            error = None
        except (Exception, SystemExit) as exc:
            output, error = None, exc
        latencies.append(clock() - start)
        if tracer is not None:
            tracer.end()
            if error is not None:
                tracer.note_error(error)
        # A request's first output goes through the oracle; later passes
        # must reproduce that verified output exactly.
        first = digests is None or len(digests) <= index or digests[index] is None
        if error is None:
            try:
                fingerprint, reason = workload.check(request, output, verify=first)
            except Exception as exc:  # an oracle that cannot read the output
                fingerprint, reason = "", f"check raised {type(exc).__name__}: {exc}"
        else:
            fingerprint, reason = "", f"{type(error).__name__}: {error}"
        if digests is not None:
            if len(digests) <= index:
                digests.append(None)
            if first:
                digests[index] = fingerprint if reason is None else None
            elif reason is None and fingerprint != digests[index]:
                reason = "output differs from the verified first pass"
        if reason is not None:
            failures.append(
                {"seed": workload.seed, "pass": pass_no, "index": index,
                 "kind": request.kind, "depth": request.depth, "reason": reason}
            )
    return latencies


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-int(q * 1000) * len(sorted_values) // 1000))
    return sorted_values[rank - 1]


def _stamp() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
        "commit": _git_commit(),
    }


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@contextlib.contextmanager
def _workdir(workload: str):
    """Scratch directory for input and output files, removed afterwards."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"work-{workload}-{os.getpid()}"
    path.mkdir()
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run(args) -> int:
    stamp = _stamp()
    with _workdir(args.workload) as workdir:
        setup_times = []
        for _ in range(SETUP_REPS_BEFORE):
            od, workload, seconds = set_up(args.workload, args.seed, args.size, workdir)
            setup_times.append(seconds)
        failures: list = []
        digests: list = []
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "size": args.size,
            "trace": args.trace,
            "requests_per_pass": len(workload.requests),
            "depth_cap": od.depth_cap(),
        }
        if args.trace:
            metrics, passes, attempted, tracer = _traced(od, workload, failures, digests)
            tracer.write_spans(RESULTS / f"{args.workload}_s{args.seed}_t1.spans.gz")
            report["spans"] = tracer.span_count
        else:
            metrics, passes, attempted = _timed(workload, failures, digests, args.seconds)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = len({(f["pass"], f["index"]) for f in failures})
        request_list = "\n".join(workload.describe(i) for i in range(len(workload.requests)))
        report.update(
            passes=passes,
            attempted=attempted,
            failed=failed,
            fail_ratio=failed / attempted,
            requests_sha256=workloads.digest(request_list),
            outputs_sha256=workloads.digest("\n".join(d or "-" for d in digests)),
            failures=failures[:100],
        )
        if not args.trace:
            del workload
            for _ in range(SETUP_REPS_AFTER):
                setup_times.append(set_up(args.workload, args.seed, args.size, workdir)[2])
            metrics["setup_s"] = statistics.median(setup_times)
    units = _units(metrics)
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    report["stamp"] = dict(stamp, loadavg_end=_loadavg(), seed=args.seed)
    out = RESULTS / f"{args.workload}_s{args.seed}_t{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")

    print(
        f"{args.workload} seed {args.seed}: {attempted} requests in {passes} passes,"
        f" {failed} failed (fail_ratio {failed / attempted:g} ratio)"
    )
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {units[name]}")
    for failure in failures[:10]:
        print(f"  FAIL {json.dumps(failure)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


def _timed(workload, failures, digests, seconds):
    """Whole passes until the summed request latency reaches ``seconds``.

    Every metric is taken over the requests of the list, each at the median
    of its latencies over the passes: a shared machine's speed wanders by
    tens of percent over seconds, and the median keeps such a spell from
    moving the figures.  Throughput is the request count over the sum of
    those medians, i.e. the rate of a typical pass.
    """
    passes = []
    while not passes or sum(map(sum, passes)) < seconds * 1e9:
        passes.append(run_pass(workload, failures, digests, pass_no=len(passes)))
    per_request = sorted(statistics.median(samples) for samples in zip(*passes))
    metrics = {
        "throughput_req_s": len(per_request) / (sum(per_request) / 1e9),
        "req_p50_ms": percentile(per_request, 0.5) / 1e6,
        "req_tail_ms": percentile(per_request, workload.tail) / 1e6,
    }
    return metrics, len(passes), sum(map(len, passes))


def _traced(od, workload, failures, digests):
    plain = run_pass(workload, failures, digests, pass_no=0)
    tracer = Tracer(od)
    tracer.install()
    try:
        traced = run_pass(workload, failures, digests, tracer=tracer, pass_no=1)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(workload.depths)
    metrics["trace.overhead"] = sum(traced) / sum(plain)
    return metrics, 2, len(plain) + len(traced), tracer


def _units(metrics) -> dict:
    units = {}
    for name in metrics:
        if name in END_TO_END_UNITS:
            units[name] = END_TO_END_UNITS[name]
        elif name.endswith("_s"):
            units[name] = "s"
        elif name.endswith(("growth_per_level", "overhead")):
            units[name] = "ratio"
        elif name.startswith("serialize.bytes"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    return units


def replay(args) -> int:
    """Run request ``args.replay`` of the seeded list once and check it."""
    failures: list = []
    with _workdir(args.workload) as workdir:
        _, workload, _ = set_up(args.workload, args.seed, args.size, workdir)
        print(workload.describe(args.replay)[:2000])
        workload.requests = [workload.requests[args.replay]]
        run_pass(workload, failures, None)
    if failures:
        print(f"FAIL {failures[0]['reason']}")
        return 1
    print("ok")
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process of its own, one after the other."""
    results = {}
    for name in workloads.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        *report, last = done.stdout.splitlines()
        print("\n".join(report))
        results[name] = json.loads(last)
    print(f"{'metric':28s}" + "".join(f"{name:>16s}" for name in results))
    first = next(iter(results.values()))
    for metric, entry in first["metrics"].items():
        cells = "".join(f"{r['metrics'][metric]['value']:>16.6g}" for r in results.values())
        print(f"{metric:28s}{cells} {entry['unit']}")
    ratios = "".join(f"{r['failed'] / r['attempted']:>16.6g}" for r in results.values())
    print(f"{'fail_ratio':28s}{ratios} ratio")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'tiny' shrinks every request list, for the benchmark's tests")
    parser.add_argument("--replay", type=int, help="run only this request index, once")
    args = parser.parse_args(argv)
    if not (SRC / "odofull" / "__init__.py").is_file():
        print(f"error: no odofull sources under {SRC}", file=sys.stderr)
        return 2
    # The default depth cap applies; an inherited override would change the work.
    os.environ.pop("ERGO_DEPTH_CAP", None)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.replay is not None:
        return replay(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
