"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-cells --seed 1 --seconds 38 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, in
*reference-host seconds*: each host time is scaled by the speed that
:mod:`calibration` chunks timed on either side of it show, because the
shared host's speed drifts by tens of percent from minute to minute.

* ``setup_s`` — the median of three fresh interpreters importing what a
  run imports, plus the median of three repetitions of the workload's
  set-up (inputs, recorded trace, store population);
* ``wall_s`` — the time of one pass over the workload's fixed op list,
  summed from each op's median over the run's passes;
* ``peak_rss_mb`` — the peak resident memory of this process.

``--trace 1`` reports the per-layer metrics of :mod:`tracer` instead,
from three kinds of pass: untraced, *span* passes (spans only) and
*edge* passes (spans plus the per-edge wrappers).  It makes one of each
kind, in that order, and then whichever kind has had fewest.  Passes
repeat until the next one would overrun ``--seconds``; a ``--trace 0``
run makes at least two passes, a ``--trace 1`` run at least those
three, even when they overrun.  A ``--trace 0`` run then spends the
time left on the first ops of one more pass.

Every op's output is digested (:mod:`workloads`).  At the default seed
the digests must equal the committed ``expected_digests.json`` and the
exact counts of every traced pass those in ``expected_counts.json``; at
any seed every pass, traced or not, must reproduce the first pass's
digests, and every traced pass the exact counts that the run's first
pass to measure them found (span passes do not count per-edge calls).
Failures are counted in ``failed``, described on stderr, and make the
exit code 1; a usage error, or a checkout without ``src/repro``, exits
with 2.  ``--write-digests`` (default seed only) rewrites the committed
digests of the workload from this run, and with ``--trace 1`` its
committed counts too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "expected_digests.json"
COUNTS = HERE / "expected_counts.json"
SCRATCH = ROOT / ".perfbench"
WORKLOAD_NAMES = ("paper-cells", "fault-storm", "grid-store")
DEFAULT_SEED = 1
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.write_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--write-digests needs the default seed {DEFAULT_SEED}")
    return args


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it.

    Refuses to run against any other copy of the program.
    """
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        log(f"error: {package} not found; run from a checkout")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        log(f"error: imported repro from {repro.__file__}")
        raise SystemExit(2)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


#: Kinds of pass, in the order a traced run first makes them.
KINDS = ("untraced", "spans", "edges")


def settle() -> float:
    """Collect garbage, then time one calibration chunk.

    Called before the first op of a pass and after every op, so that no
    op pays for a cyclic collection that earlier ops' garbage triggers,
    which would land in different ops from pass to pass.
    """
    gc.collect()
    return calibration.chunk()


def run_pass(workload, tracer, kind: str, pass_no: int,
             deadline: float | None = None, expected=()):
    """One pass over the op list: ``(op seconds, digests, traced, chunks)``.

    *tracer* is installed unless *kind* is ``"untraced"``.  *chunks*
    are the calibration chunks of :func:`settle`, one before the first
    op and one after every op.  With a *deadline*, the pass stops before
    the first op that, taking its *expected* seconds, would end past it.
    """
    if kind == "untraced":
        tracer = None
    workload.reset()
    seconds: list[float] = []
    digests: list[str | None] = []
    chunks = [settle()]
    if tracer is not None:
        tracer.install(edges=kind == "edges")
    try:
        for index, op in enumerate(workload.ops):
            if deadline is not None and (
                time.perf_counter() + expected[index] + chunks[-1] > deadline
            ):
                break
            if tracer is not None:
                tracer.op_id = pass_no * 1000 + index
            start = time.perf_counter()
            try:
                digest, elapsed = op.run()
            except Exception:  # an op failure is reported, never fatal
                log(f"op {op.name} failed:\n{traceback.format_exc()}")
                digest, elapsed = None, time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            digests.append(digest)
            seconds.append(elapsed)
            chunks.append(settle())
    finally:
        if tracer is not None:
            tracer.uninstall()
    taken = tracer.take_pass() if tracer is not None else None
    return seconds, digests, taken, chunks


def scaled(seconds: list[float], chunks: list[float]) -> list[float]:
    """*seconds* in reference-host seconds.

    ``chunks[i]`` and ``chunks[i + 1]`` are the calibration chunks timed
    just before and just after ``seconds[i]``.  The host's slow spells
    that last seconds slow both chunks and the op between them; a spike
    shorter than a chunk slows one chunk a lot and a long op hardly at
    all, so the faster chunk of the two sets the op's speed factor.
    """
    return [
        elapsed * calibration.REFERENCE_S / min(before, after)
        for elapsed, before, after in zip(seconds, chunks, chunks[1:])
    ]


def pass_wall(op_seconds: list[list[float]]) -> float:
    """One pass's wall time, as the sum of each op's median over passes.

    Each op is timed in every pass that reached it (the first pass
    reaches all); taking its median before summing keeps a transient
    host slowdown during one op of one pass out of the figure.
    """
    return sum(
        statistics.median(times[index] for times in op_seconds
                          if index < len(times))
        for index in range(len(op_seconds[0]))
    )


def check_digests(names, passes, reference) -> int:
    """Count op outputs that differ from *reference*; log each."""
    failed = 0
    for pass_no, digests in enumerate(passes):
        for name, got, want in zip(names, digests, reference):
            if got is None:
                failed += 1
            elif got != want:
                failed += 1
                log(f"digest drift: pass {pass_no} op {name}: {got} != {want}")
    return failed


def check_counts(counts: list[dict], reference: dict,
                 edge_counts) -> int:
    """Count traced passes whose exact counts differ from *reference*.

    A pass is not held to the *edge_counts* it did not measure.
    """
    failed = 0
    for pass_no, taken in enumerate(counts):
        names = set(reference) | set(taken)
        names -= set(edge_counts) - set(taken)
        drift = {
            name: (reference.get(name), taken.get(name))
            for name in sorted(names)
            if reference.get(name) != taken.get(name)
        }
        if drift:
            failed += 1
            log(f"count drift in traced pass {pass_no} (want, got): {drift}")
    return failed


def load_committed(path: Path, name: str) -> dict | None:
    """Workload *name*'s entry in the committed JSON file *path*."""
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(name)


def load_reference(name: str, ops) -> list[str] | None:
    """The committed digests of workload *name*, in op order."""
    committed = load_committed(DIGESTS, name)
    if committed is None:
        return None
    names = [op.name for op in ops]
    if sorted(committed) != sorted(names):
        log(f"{DIGESTS.name} lists ops {sorted(committed)} for {name}, "
            f"the workload runs {names}")
    return [committed.get(op_name, "missing") for op_name in names]


def write_committed(path: Path, name: str, entry: dict) -> None:
    committed = {}
    if path.is_file():
        committed = json.loads(path.read_text(encoding="utf-8"))
    committed[name] = entry
    path.write_text(
        json.dumps(committed, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    log(f"wrote {len(entry)} entries for {name} to {path}")


def next_kind(walls: dict, minimum: dict) -> str:
    """The next pass's kind: first the kinds' minimums, in order, then
    whichever kind has had fewest passes."""
    for kind, count in minimum.items():
        if len(walls[kind]) < count:
            return kind
    return min(minimum, key=lambda kind: len(walls[kind]))


def time_imports() -> float:
    """Host seconds of a fresh interpreter importing what a run imports."""
    path = os.pathsep.join((str(HERE), str(SRC)))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import workloads"],
        check=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    return time.perf_counter() - start


def measure(args, workdir: Path) -> tuple[dict, int, int]:
    from tracer import EDGE_COUNTS, Tracer, exact_counts, layer_metrics
    from workloads import WORKLOADS

    # Set-up is the imports, in a fresh interpreter, and the workload's
    # set-up; each is repeated, scaled and its median taken.
    workload = WORKLOADS[args.workload](args.seed, workdir)
    imports, setups = [], []
    import_chunks, setup_chunks = [settle()], [settle()]
    for _ in range(SETUP_REPEATS):
        imports.append(time_imports())
        import_chunks.append(settle())
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
        setup_chunks.append(settle())
    setup_s = (statistics.median(scaled(imports, import_chunks))
               + statistics.median(scaled(setups, setup_chunks)))

    tracer = Tracer() if args.trace else None
    # A measured run takes every op's median over at least two passes.
    # A traced run needs a pass of each kind: the untraced one for the
    # trace overhead, a span pass for span times and an edge pass for
    # per-edge counts; the span and edge passes check each other's
    # exact counts.
    minimum = dict.fromkeys(KINDS, 1) if args.trace else {"untraced": 2}
    # Op host seconds by kind of pass, and untraced ones scaled to the
    # reference host.
    walls: dict[str, list[list[float]]] = {kind: [] for kind in KINDS}
    scaled_walls: list[list[float]] = []
    digests: list[list] = []
    traced: dict[str, list[dict]] = {kind: [] for kind in KINDS}
    counts: list[dict] = []
    began = time.perf_counter()
    while True:
        kind = next_kind(walls, minimum)
        seconds, pass_digests, taken, chunks = run_pass(
            workload, tracer, kind, len(digests)
        )
        walls[kind].append(seconds)
        if kind == "untraced":
            scaled_walls.append(scaled(seconds, chunks))
        digests.append(pass_digests)
        if taken is not None:
            traced[kind].append(taken)
            counts.append(exact_counts(taken))
        following = next_kind(walls, minimum)
        estimate = sum((walls[following] or [seconds])[-1]) + sum(chunks)
        enough = all(len(walls[k]) >= n for k, n in minimum.items())
        if enough and time.perf_counter() - began + estimate > args.seconds:
            break
    if not args.trace:
        # Less than a pass of time is left: spend it on the first ops of
        # one more pass.  (A traced pass must be whole: its counts are
        # checked against whole passes.)
        seconds, pass_digests, _, chunks = run_pass(
            workload, None, "untraced", len(digests),
            deadline=began + args.seconds, expected=walls["untraced"][-1],
        )
        if seconds:
            walls["untraced"].append(seconds)
            scaled_walls.append(scaled(seconds, chunks))
            digests.append(pass_digests)

    names = [op.name for op in workload.ops]
    reference = None
    if args.seed == DEFAULT_SEED and not args.write_digests:
        reference = load_reference(workload.name, workload.ops)
    if reference is None:
        reference = digests[0]
    failed = check_digests(names, digests, reference)
    if counts:
        committed = None
        if args.seed == DEFAULT_SEED and not args.write_digests:
            committed = load_committed(COUNTS, workload.name)
        first_seen: dict[str, int] = {}
        for taken in counts:
            for name, value in taken.items():
                first_seen.setdefault(name, value)
        failed += check_counts(counts, committed or first_seen, EDGE_COUNTS)
    if args.write_digests:
        if failed or None in digests[0]:
            log("not writing digests: the run failed")
        else:
            write_committed(DIGESTS, workload.name, {
                op.name: digest for op, digest in zip(workload.ops, digests[0])
            })
            if counts:
                write_committed(COUNTS, workload.name, first_seen)

    if args.trace:
        values = layer_metrics(
            traced["spans"], traced["edges"],
            {kind: pass_wall(walls[kind]) for kind in KINDS},
        )
        SCRATCH.mkdir(exist_ok=True)
        spans = SCRATCH / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
        tracer.write_spans(spans)
        log(f"{len(tracer.spans)} spans written to {spans}")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "setup_s": (setup_s, "s"),
            "wall_s": (pass_wall(scaled_walls), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    passes = ", ".join(
        f"{kind} {[round(sum(w), 3) for w in walls[kind]]}"
        for kind in minimum
    )
    passes += f" host s; untraced {[round(sum(w), 3) for w in scaled_walls]}"
    passes += " reference s"
    log(f"{workload.name} seed {args.seed}: {len(digests)} pass(es): "
        f"{passes}; imports {[round(s, 3) for s in imports]}, "
        f"setups {[round(s, 3) for s in setups]} host s")
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in values.items()
    }
    attempted = sum(len(pass_digests) for pass_digests in digests)
    return metrics, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    workdir = SCRATCH / f"{args.workload}-{os.getpid()}"
    try:
        metrics, attempted, failed = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
