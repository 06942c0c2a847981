"""Benchmark of certified rank queries: cold CLI, warm sweep, high degree.

    python3 perfbench/run.py --workload cli-cold|sweep-warm|high-degree
                             --seed N --seconds S --trace 0|1

Run from a checkout of the repository; shiftrank is imported from its
``src``.  One client, closed loop: one process, no threads, and on
cli-cold one ``python -m shiftrank rank --json`` child at a time.  A run
repeats the seeded round of queries (perfbench/queries.py) until S seconds
of rounds have passed, always finishing the round; the in-process workloads
first make one untimed round, so that caches the library fills lazily are
warm.  Before the first round and after each one, fresh processes time the
workload's set-up.  Every interval is checked against values the benchmark
computes itself (perfbench/reference.py); an operation that raises, exits
non-zero or fails a check counts as failed.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics, end to end with --trace 0 and per layer with --trace 1.
Raw results and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import reference
from queries import (MARKER, PROBS, SETUP_ENUMERATES, SETUP_PARSES, SYSTEM, WORKLOADS,
                     make_round)
from spans import Recorder, install, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
QUERY_TIMEOUT_S = 60
END_TO_END_UNITS = {
    "query_s.p50": "s", "queries_per_s": "1/s", "width.mean": "1",
    "certainty_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.start_s": "s", "expressions.parse_s": "s", "crossed.truncate_s": "s",
    "crossed.epsilon": "1", "towers.enumerate_s": "s", "towers.words": "count",
    "towers.words_per_s": "1/s", "towers.tail": "1", "towers.family_mb": "MB",
    "engine.rank_s.q": "s", "engine.rank_s.fp": "s", "engine.rank_s.matrix": "s",
    "engine.words_per_s": "1/s",
}


class QueryError(Exception):
    """The program gave no interval: it raised, exited non-zero or printed no JSON."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=child_env(), timeout=QUERY_TIMEOUT_S)
    return start, proc


class SetupTimer:
    """Wall time of a fresh process's set-up, sampled between the rounds.

    The speed of a shared machine drifts by several percent within seconds,
    so samples taken at one moment spread more between runs than the query
    times, which span the whole run.  A batch of samples is taken before the
    first round and after every round.  The first process started is not
    timed, so that byte-compiled modules exist before any sample.
    """

    BATCH = 3

    def __init__(self, workload: str, round_, recorder: Recorder | None):
        self.spec = json.dumps({
            "system": SYSTEM, "marker": MARKER,
            "parse": sorted({(c, q.field) for q in round_ for row in q.cells for c in row})
            if SETUP_PARSES[workload] else [],
            "families": sorted({(q.level, q.kmax) for q in round_})
            if SETUP_ENUMERATES[workload] else [],
        })
        self.recorder = recorder
        self.samples: list[float] = []
        run_child(["-c", "import shiftrank.cli"])

    def sample(self) -> None:
        for _ in range(self.BATCH):
            start, proc = run_child([str(CHILD), "setup", self.spec])
            if proc.returncode != 0:
                raise SystemExit(f"set-up failed:\n{proc.stderr}")
            stamps = json.loads(proc.stdout)
            self.samples.append(stamps["done"] - start)
            if self.recorder is not None:
                self.recorder.add("cli.start", start, stamps["ready"])


def interval_record(iv) -> dict:
    return {"lower": iv.lower, "upper": iv.upper, "partial": iv.partial,
            "epsilon": iv.epsilon, "tail": iv.tail, "words_used": iv.words_used,
            "dim": iv.dim}


class InProcess:
    """sweep-warm and high-degree: rank_interval in this process."""

    warm_up = True

    def __init__(self, workload: str, round_):
        import shiftrank

        self.lib = shiftrank
        self.config = shiftrank.parse_system(SYSTEM, MARKER)
        self.matrices = {}
        for q in round_:
            field = shiftrank.field_from_spec(q.field)
            self.matrices[q.name] = [[shiftrank.parse_expr(c, self.config, field)
                                      for c in row] for row in q.cells]
        if SETUP_ENUMERATES[workload]:
            for level, kmax in sorted({(q.level, q.kmax) for q in round_}):
                shiftrank.get_family(self.config, level, kmax)

    def run(self, q, recorder) -> tuple[dict, float]:
        start = time.perf_counter()
        iv = self.lib.rank_interval(self.matrices[q.name], q.level, q.kmax)
        elapsed = time.perf_counter() - start
        return interval_record(iv), elapsed

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Cli:
    """cli-cold: one ``shiftrank rank --json`` process per query."""

    warm_up = False

    def __init__(self, workload: str, round_, seed: int):
        self.files = {}
        for q in round_:
            if q.dim > 1:
                path = OUT / f"{workload}-seed{seed}-{q.name}.json"
                path.write_text(json.dumps([list(row) for row in q.cells]))
                self.files[q.name] = path

    def run(self, q, recorder) -> tuple[dict, float]:
        argv = ["--json", "--system", SYSTEM, "--marker", str(MARKER), "--field", q.field,
                "--level", str(q.level), "--kmax", str(q.kmax)]
        if q.dim > 1:
            argv += ["--matrix", str(self.files[q.name])]
        else:
            argv.append(f"--expr={q.cells[0][0]}")
        if recorder is None:
            start, proc = run_child(["-m", "shiftrank", "rank", *argv])
        else:
            start, proc = run_child([str(CHILD), "cli", recorder.query, *argv])
        elapsed = time.perf_counter() - start
        if recorder is not None:
            self._merge_spans(recorder, start, proc.stderr)
        if proc.returncode != 0:
            raise QueryError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        try:
            doc = json.loads(proc.stdout)
            record = {k: Fraction(doc[k]) for k in ("lower", "upper", "partial",
                                                      "epsilon", "tail")}
            record["words_used"] = int(doc["words_used"])
            record["dim"] = int(doc["dim"])
        except (ValueError, KeyError, TypeError) as exc:
            raise QueryError(f"stdout is not an interval: {exc!r}") from exc
        return record, elapsed

    @staticmethod
    def _merge_spans(recorder: Recorder, start: float, stderr: str) -> None:
        lines = [ln for ln in stderr.splitlines() if ln.startswith("SPANS ")]
        if not lines:
            return
        doc = json.loads(lines[-1][len("SPANS "):])
        recorder.add("cli.start", start, doc["ready"])
        offset = len(recorder.spans)
        for span in doc["spans"]:
            if span["parent"] is not None:
                span["parent"] += offset
            recorder.spans.append(span)

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def run_round(runner, round_, recorder, label, library_tails) -> list[dict]:
    """Run every query once, then check each answer and the round's relations."""
    done = {}
    outcomes = []
    for q in round_:
        if recorder is not None:
            recorder.query = None if label is None else f"{label}/{q.name}"
        outcome = {"query": q, "record": None, "seconds": None, "errors": [],
                   "wrong": False}
        try:
            outcome["record"], outcome["seconds"] = runner.run(q, recorder)
        except Exception as exc:  # any failure of one query is counted, not fatal
            outcome["errors"].append(f"{type(exc).__name__}: {exc}")
        outcomes.append(outcome)
        done[q.name] = outcome["record"]
    for outcome in outcomes:
        q, rec = outcome["query"], outcome["record"]
        if rec is None:
            continue
        errors = reference.check_interval(rec, q.dim, q.expect)
        errors += reference.check_towers(rec, PROBS, MARKER, q.level, q.kmax,
                                         library_tails[q.level, q.kmax])
        blocks = [done[b] for b in q.blocks]
        if blocks and all(b is not None for b in blocks):
            errors += reference.check_additive(rec, blocks)
        if q.over_q is not None and done[q.over_q] is not None:
            errors += reference.check_mod_p(rec, done[q.over_q])
        if errors:
            outcome["errors"] += errors
            outcome["wrong"] = True
    return outcomes


def family_mb(lib, round_) -> float:
    """tracemalloc peak while enumerating the largest family of the round."""
    config = lib.parse_system(SYSTEM, MARKER)
    peak = 0
    for level, kmax in sorted({(q.level, q.kmax) for q in round_}):
        tracemalloc.start()
        try:
            lib.enumerate_return_words(lib.LevelScheme(config, level), kmax)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "shiftrank" / "__init__.py").is_file():
        print(f"no shiftrank sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shiftrank

    OUT.mkdir(exist_ok=True)
    round_ = make_round(args.workload, args.seed)
    config = shiftrank.parse_system(SYSTEM, MARKER)
    library_tails = {(q.level, q.kmax): shiftrank.tower_tail(config, q.level, q.kmax)
                     for q in round_}
    recorder = Recorder() if args.trace else None
    if recorder is not None:
        install(recorder)

    setup = SetupTimer(args.workload, round_, recorder)
    setup.sample()
    if args.workload == "cli-cold":
        runner = Cli(args.workload, round_, args.seed)
    else:
        runner = InProcess(args.workload, round_)
    if runner.warm_up:
        run_round(runner, round_, recorder, None, library_tails)

    outcomes = []
    rounds = 0
    wall = 0.0  # timed seconds: the rounds, not the set-up samples between them
    while wall < args.seconds:
        start = time.perf_counter()
        outcomes += run_round(runner, round_, recorder, rounds, library_tails)
        wall += time.perf_counter() - start
        rounds += 1
        setup.sample()

    completed = [o for o in outcomes if o["record"] is not None]
    if not completed:
        print("no query returned an interval", file=sys.stderr)
        return 1
    failed = [o for o in outcomes if o["errors"]]
    shares = [(o["record"]["upper"] - o["record"]["lower"]) / o["query"].dim
              for o in completed]
    first = completed[:len(round_)]
    metrics = {
        "query_s.p50": statistics.median(o["seconds"] for o in completed),
        "queries_per_s": len(completed) / wall,
        "width.mean": float(sum(shares, Fraction(0)) / len(shares)),
        "certainty_per_s": float(sum(1 - s for s in shares)) / wall,
        "setup_s": statistics.median(setup.samples),
        "peak_rss_mb": runner.peak_rss_mb(),
        "crossed.epsilon": float(sum((o["record"]["epsilon"] for o in first), Fraction(0))),
        "towers.tail": float(sum((o["record"]["tail"] for o in first), Fraction(0))),
    }
    if recorder is not None:
        metrics.update(layer_metrics(recorder.spans))
        metrics["towers.family_mb"] = family_mb(shiftrank, round_)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(recorder.spans))

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": not any(o["wrong"] for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    raw = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "wall_s": wall, "metrics": metrics,
        "setup_samples_s": setup.samples,
        "queries": [{"name": o["query"].name, "seconds": o["seconds"],
                     "errors": o["errors"]} for o in outcomes],
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(raw, indent=1))
    for o in failed:
        print(f"FAILED {o['query'].name}: {'; '.join(o['errors'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
