"""Seeded benchmark of quadlin: the exact and float bound ladder and the
linearizability machinery.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload ladder_exact --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all            # every workload, a table

One run sets up the workload's corpus from the seed, then repeats the
corpus in rounds for --seconds (it starts no round that would end later,
but always runs one).  Every timing is put at a fixed machine speed by
``speed.Clock``: on a shared host the same work runs up to twice as slow
for seconds to minutes at a time.  ``corpus_s`` sums each operation's
median scaled time over the rounds.  Imports (in a fresh interpreter) and
set-up are sampled again before every round; ``setup_s`` is the median
scaled import time plus the median scaled set-up.  With --trace 1, traced
rounds alternate with untraced ones and the run reports per-layer self
times and counts from the median traced round instead; the difference
between the traced and untraced medians is the tracing overhead.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

Counts that must not depend on timing (pivots, LPs solved, LP sizes,
certificate bit-lengths, spanning-set dimensions, every bound value) must
repeat exactly from round to round and from run to run of the same code
and seed; a mismatch ends the run with exit code 3 and no result line.
Runs of the same code remember them in .bench_out/ under the working
directory, where traced runs also write the spans of their median traced
round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
NAMES = ("ladder_exact", "tournament_float", "span_decide")
SETUP_REPEATS = 5        # fewest import and set-up samples in a run
OUT_DIR = ".bench_out"

END_TO_END = (("setup_s", "s"), ("corpus_s", "s"), ("peak_rss_mb", "MB"),
              ("pass_ratio", "ratio"))


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=None,
                   help="default: the workload's documented default seed")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _source_digest() -> str:
    """Digest of the package and benchmark sources and of the Python and
    numpy versions: runs remember counts only for the code that produced
    them, since a new numpy may legitimately change float pivot paths."""
    import numpy
    h = hashlib.sha256(f"{sys.version}\0{numpy.__version__}\0".encode())
    for folder in (os.path.join(SRC, "quadlin"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


# the imports of a workload process, timed in a fresh interpreter
_IMPORTS = (
    "import time; t = time.perf_counter(); import sys; "
    "sys.path[:0] = [{here!r}, {src!r}]; "
    "import speed, tracing, workloads; from quadlin import cli, lpsolve; "
    "print(time.perf_counter() - t)")


def _fresh_import_seconds() -> float:
    """The workload process's imports, timed in a fresh interpreter."""
    code = _IMPORTS.format(here=HERE, src=SRC)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return float(out)


def _set_up(name: str, seed: int):
    """One import sample in a fresh interpreter, then the set-up: generate
    the corpus, parse every text once and warm both LP modes.  Returns
    (import seconds, set-up seconds, corpus), both times at the reference
    speed of one reference sample before and one after."""
    import speed
    import workloads
    from quadlin import cli, lpsolve
    before = speed.reference()
    import_s = _fresh_import_seconds()
    t = time.perf_counter()
    corpus = workloads.WORKLOADS[name](seed)
    for text in corpus.texts():
        cli.parse_instance(text)
    lpsolve.solve_lp(workloads.WARMUP_LP, mode="exact")
    lpsolve.solve_lp(workloads.WARMUP_LP, mode="float")
    setup_s = time.perf_counter() - t
    scale = 2 * speed.REFERENCE_S / (before + speed.reference())
    return import_s * scale, setup_s * scale, corpus


def _check_state(key: str, record: dict) -> list:
    """Compare with what an earlier run of the same code and seed saw."""
    path = os.path.join(OUT_DIR, f"counts-{key}.json")
    old = {}
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
    diffs = [k for k in record if k in old and old[k] != record[k]]
    if not diffs:
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**old, **record}, fh, sort_keys=True)
    return diffs


def _digest(signature) -> str:
    return hashlib.sha256(repr(signature).encode()).hexdigest()


def _write_spans(name: str, tracer) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"spans-{name}.json"), "w") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                   "spans": tracer.spans}, fh)


def _run_workload(args) -> int:
    # one process, one thread: keep numpy's BLAS from starting a pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import speed
    import tracing
    import workloads

    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None \
        else args.seed
    # Set-up and imports are sampled again before every round, so that the
    # samples spread over the whole run; each is reported as its median.
    import_s, setup_s, corpus = _set_up(args.workload, seed)
    imports, setups = [import_s], [setup_s]

    plain, traced = [], []       # ledgers; (seconds, ledger, tracer)
    start = time.perf_counter()
    while True:
        import_s, setup_s, _ = _set_up(args.workload, seed)
        imports.append(import_s)
        setups.append(setup_s)
        with speed.Clock() as clock:
            ledger = workloads.Ledger(clock)
            corpus.run(ledger)
        plain.append(ledger)
        if args.trace:
            ledger = workloads.Ledger()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                root = tracer.open(tracing.ROOT)
                corpus.run(ledger)
                tracer.close(root)
            finally:
                tracer.uninstall()
            traced.append((tracer.spans[root][2] - tracer.spans[root][1],
                           ledger, tracer))
        # stop before a round that would end after the measuring time
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
            break
    while len(setups) < SETUP_REPEATS:
        import_s, setup_s, _ = _set_up(args.workload, seed)
        imports.append(import_s)
        setups.append(setup_s)
    setup_s = statistics.median(imports) + statistics.median(setups)

    ledgers = plain + [entry[1] for entry in traced]
    problems = []
    if len({_digest(led.signature) for led in ledgers}) != 1:
        problems.append("operation results differ between rounds")
    counts = [entry[2].counts() for entry in traced]
    if any(c != counts[0] for c in counts):
        problems.append("traced counts differ between rounds")
    record = {"signature": _digest(ledgers[0].signature)}
    if counts:
        record["counts"] = counts[0]
    key = f"{_source_digest()}-{args.workload}-{seed}"
    problems += [f"{k} differs from an earlier run of this code and seed"
                 for k in _check_state(key, record)]
    if problems:
        for msg in problems:
            print(f"bench: determinism check failed: {msg}", file=sys.stderr)
        return 3

    attempted = sum(led.attempted for led in ledgers)
    failed = sum(led.failed for led in ledgers)
    wrong = sum(led.wrong for led in ledgers)
    plain_times = [sum(led.times.values()) for led in plain]
    if args.trace:
        metrics = _layer_metrics(traced, plain, counts[0])
        times = [t for t, *_ in traced]
        _write_spans(f"{args.workload}-{seed}",
                     traced[times.index(statistics.median_low(times))][2])
    else:
        values = {
            "setup_s": setup_s,
            "corpus_s": _scaled_round(plain),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(f"bench: {args.workload} seed {seed}: setup (s) "
          + " ".join(f"{s:.3f}" for s in setups) + "; imports (s) "
          + " ".join(f"{s:.3f}" for s in imports) + "; rounds (s) "
          + " ".join(f"{s:.3f}" for s in plain_times) + " (at reference "
          + " ".join(f"{sum(led.scaled.values()):.3f}" for led in plain)
          + ")"
          + (" traced " + " ".join(f"{s:.3f}" for s, *_ in traced)
             if traced else ""), file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _scaled_round(ledgers) -> float:
    """One round at the reference speed: each operation's median scaled
    time over the rounds, summed."""
    return sum(statistics.median(led.scaled[label] for led in ledgers)
               for label in ledgers[0].scaled)


def _layer_metrics(traced, plain, counts) -> dict:
    """Per-layer self times and calls from the median traced round, plus
    the counts, which are the same in every traced round."""
    import tracing
    times = [s for s, *_ in traced]
    median_round = statistics.median_low(times)
    selfs = traced[times.index(median_round)][2].self_times()
    out = {}
    for name in tracing.SPAN_NAMES:
        s, c = selfs.get(name, (0.0, 0))
        out[name + ".self_s"] = (s, "s")
        out[name + ".calls"] = (c, "count")
    for name in (tracing.ROOT, tracing.COUNTING):
        out[name + ".self_s"] = (selfs.get(name, (0.0, 0))[0], "s")
    units = {"lpsolve.max_rows": "rows", "lpsolve.max_cols": "cols",
             "lpsolve.cert_bits": "bits",
             "bounds.lbb_star.members_used_ratio": "ratio"}
    for name, value in counts.items():
        out[name] = (value, units.get(name, "count"))
    calls = counts["lpsolve.solve_lp.calls"]
    out["lpsolve.pivots_per_lp"] = (
        counts["lpsolve.pivots"] / calls if calls else 0.0, "count")
    untraced = statistics.median(sum(led.times.values()) for led in plain)
    out["speed.reference_s"] = (
        statistics.median(r for led in plain for r in led.clock.refs), "s")
    out["trace.corpus_s"] = (median_round, "s")
    out["trace.untraced_corpus_s"] = (untraced, "s")
    out["trace.overhead_s"] = (statistics.median(times) - untraced, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(out.items())}


def _run_all(args) -> int:
    """Each workload in its own fresh process; print a table of results."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:>14.6g} {entry['unit']}")
        if not result["correct"] or result["failed"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quadlin", "__init__.py")):
        print("bench: src/quadlin not found next to bench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
