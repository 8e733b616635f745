"""Benchmark for the algebroid library: one process, one thread, a closed
loop with one caller (each operation starts when the previous returns).

    python3 perfbench/run.py --workload two_branch --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the library from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics of an untraced run,
in calibrated time (see ``calibrate.py``).
With ``--trace 1`` it runs one untimed pass, then an untraced phase and a
traced phase, and reports the per-layer metrics from the traced phase.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit.  Per-operation records (and,
when traced, the spans) are written to ``perfbench/out/``.  NOTES.md
describes the workloads and what each metric is expected to show.
"""

import time

STARTED = time.perf_counter()

import calibrate  # noqa: E402

START_READING = calibrate.reading()
READING_S = time.perf_counter() - STARTED

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# setup_s is the median of this many cold set-ups: the run's own and the
# rest in fresh interpreters.
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
# The message of the known case-2 defect (see NOTES.md); a probe that
# raises anything else is a new failure.
KNOWN_DEFECT = ("AssertionError: a two-parameter verdict must raise both "
                "attached values")


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _load_library():
    """Import algebroid from this checkout's src/, or exit with code 2."""
    if not (SRC / "algebroid" / "__init__.py").is_file():
        _fail(f"no library at {SRC / 'algebroid'}; run from a checkout of "
              "the repository")
    if sys.flags.optimize:
        _fail("run without -O; the decider's invariants are plain asserts")
    sys.path.insert(0, str(SRC))
    import algebroid
    if Path(algebroid.__file__).resolve().parent != SRC / "algebroid":
        _fail(f"imported algebroid from {algebroid.__file__}")


_load_library()

import tracing  # noqa: E402
import workloads as W  # noqa: E402


# ------------------------------------------------------------------ plans

@dataclass
class Plan:
    """What one run executes: ``pass_ops(k)`` lists the operations of
    pass k; probes are attempted once, untimed, after the timed loop.
    With ``retrace`` a traced run traces the very passes its untraced
    phase ran; without it, the traced phase runs passes of its own, and
    ``distinct`` passes in a row share no input."""

    pass_ops: Callable[[int], List[W.Op]]
    probes: List[W.DecideInput] = field(default_factory=list)
    retrace: bool = True
    distinct: int = 0


# The warm-ups fill the one module-level cache a decision uses, the
# semigroup bases, as a user's long-running process would hold it.  The
# weights, and so the cache keys, do not depend on the scaling.


def setup_two_branch(seed) -> Plan:
    # These decisions call membership only with the input's base weights
    # (each ends in its first screening round), so the warm-up builds those
    # bases instead of deciding every curve.
    for inp in W.two_branch_inputs(seed):
        handle = W.algebroid.assert_preconditions(
            W.cli.parse_ideal_text(inp.text))
        W.algebroid.membership(1, W.algebroid.base_weights(handle))
    return Plan(lambda k: W.shuffled(
        [W.decide_op(i) for i in W.two_branch_inputs(seed, k)], seed,
        f"pass{k}"), W.case2_inputs(seed))


def setup_prime_tower(seed) -> Plan:
    # Adjunctions add weights beyond the base ones, so the warm-up decides
    # each curve once over F_7, the cheapest of its fields.
    for inp in W.prime_tower_inputs(seed):
        if inp.input_id.endswith(".F7"):
            W.decide_text(inp.text)
    return Plan(lambda k: W.shuffled(
        [W.decide_op(i) for i in W.prime_tower_inputs(seed, k)], seed,
        f"pass{k}"))


def setup_verify_json(seed) -> Plan:
    docs = W.verify_documents(seed)
    return Plan(lambda k: W.shuffled(
        [W.verify_op(inp) for inp in W.verify_inputs(docs, seed, k)], seed,
        f"pass{k}"))


def setup_semigroup_queries(seed) -> Plan:
    # Warm-up on a vector outside the groups: the timed vectors start with
    # cold bases, as new queries would.
    w = W.WARMUP_VECTOR
    for N in range(20):
        W.algebroid.membership(N, w)
    W.algebroid.prim_generators(w)
    W.algebroid.conductor(w)
    # The queries of all vectors are interleaved, so a change in machine
    # speed during a pass slows every vector's queries alike instead of
    # shifting one vector's latencies against the others'.
    def pass_ops(k):
        ops = [op for v in W.semigroup_vectors(seed, k)
               for op in W.semigroup_ops(v)]
        return W.shuffled(ops, seed, f"pass{k}")
    # Repeating a pass would find every basis cached; a traced phase of
    # its own builds bases as the untraced one does.
    return Plan(pass_ops, retrace=False,
                distinct=len(W.SEMIGROUP_GROUPS[0]))


SETUPS = {
    "two_branch": setup_two_branch,
    "prime_tower": setup_prime_tower,
    "verify_json": setup_verify_json,
    "semigroup_queries": setup_semigroup_queries,
}

# The share of --seconds each pass is given.  A run measures
# ceil(seconds / PASS_SECONDS) whole passes, so its work, and the number of
# samples behind each percentile, does not change with the machine's speed
# from one run to the next.  At --seconds 20 that is 3, 5, 4 and 4
# passes: enough for the tail rank to fall inside a cluster of similar
# operations.  NOTES.md gives the measured pass times.
PASS_SECONDS = {
    "two_branch": 7.0,
    "prime_tower": 4.0,
    "verify_json": 5.0,
    "semigroup_queries": 5.0,
}


# ---------------------------------------------------------------- running

@dataclass
class Record:
    input_id: str
    key: str
    latency: float
    ok: bool
    verdict: str = ""
    kind: str = ""
    digest: str = ""
    error: str = ""
    tags: tuple = ()
    # ``latency`` is calibrated once the phase ends; ``wall`` keeps the
    # wall time, and ``start`` when the operation began.
    wall: float = 0.0
    start: float = 0.0

    def as_json(self) -> dict:
        return {"input": self.input_id, "key": self.key,
                "latency_s": self.latency, "wall_s": self.wall,
                "start_s": self.start - STARTED,
                "ok": self.ok, "verdict": self.verdict, "kind": self.kind,
                "cert_hash": self.digest, "error": self.error,
                "tags": list(self.tags)}


@dataclass
class Phase:
    records: List[Record]
    passes: int
    busy_s: float
    wall_busy_s: float
    clock: calibrate.Clock

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.busy_s


def execute(op: W.Op) -> Record:
    """Run one operation, timing only the library call; a raised
    exception or a rejected answer is a failed operation, never an abort."""
    t = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # the loop must go on; the error is recorded
        return Record(op.input_id, op.key, time.perf_counter() - t, False,
                      error=f"{type(exc).__name__}: {exc}", tags=op.tags,
                      start=t)
    latency = time.perf_counter() - t
    try:
        ok, verdict, kind, dig = op.check(out)
    except Exception as exc:
        return Record(op.input_id, op.key, latency, False,
                      error=f"check raised {type(exc).__name__}: {exc}",
                      tags=op.tags, start=t)
    return Record(op.input_id, op.key, latency, ok, verdict, kind, dig,
                  "" if ok else "wrong answer", op.tags, start=t)


def run_phase(plan: Plan, passes: range,
              tracer: Optional[tracing.Tracer] = None) -> Phase:
    """Run the given whole passes.  A whole pass holds every input once, so
    the operation mix is the same in every run whatever order the seed
    gives."""
    records: List[Record] = []
    clock = calibrate.Clock()
    clock.read()
    for k in passes:
        for op in plan.pass_ops(k):
            if tracer is not None:
                tracer.begin_op(len(records))
            records.append(execute(op))
            clock.read_if_due()
    clock.read()
    for r in records:
        r.wall = r.latency
        r.latency = r.wall * clock.factor(r.start, r.start + r.wall)
    return Phase(records, len(passes), sum(r.latency for r in records),
                 sum(r.wall for r in records), clock)


def latency_stats(records: List[Record], attr: str = "latency") -> dict:
    """Median and tail latency; a failed operation ranks slower than every
    completed one.  The tail is the highest percentile with at least
    TAIL_BEYOND samples beyond it."""
    ranked = sorted(getattr(r, attr) if r.ok else math.inf for r in records)
    n = len(ranked)
    idx = max(n - 1 - TAIL_BEYOND, 0)
    # JSON has no infinity: a rank that falls on a failure reads as the
    # slowest completed operation.
    slowest = max((getattr(r, attr) for r in records if r.ok), default=0.0)
    return {"p50": min(statistics.median_low(ranked), slowest),
            "tail": min(ranked[idx], slowest),
            "tail_percentile": 100.0 * (idx + 1) / n,
            "samples": n,
            "beyond": n - 1 - idx}


def cold_setup_s(args) -> float:
    """One more cold set-up, in a fresh interpreter running this script
    with ``--setup-only``; it times the same span as the run's own."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def run_probes(plan: Plan) -> List[Record]:
    return [execute(W.decide_op(p)) for p in plan.probes]


def probe_ok(r: Record) -> bool:
    """A probe may raise only the known case-2 defect; one that answers
    must answer correctly."""
    return r.ok or r.error == KNOWN_DEFECT


# --------------------------------------------------------------- reporting

def _metric(metrics, name, value, unit, note=""):
    metrics[name] = {"value": value, "unit": unit}
    print(f"{name} = {value:.6g} {unit}{'  ' + note if note else ''}")


def mismatches(first: List[Record], second: List[Record]) -> List[str]:
    """Inputs run in both lists whose verdict, certificate kind or hash
    differ.  Records match on their exact input, not on the curve."""
    seen = {r.key: (r.verdict, r.kind, r.digest) for r in first}
    return sorted({r.input_id for r in second if r.key in seen
                   and seen[r.key] != (r.verdict, r.kind, r.digest)})


def write_records(workload, seed, trace, phases, probes, spans=None):
    OUT.mkdir(exist_ok=True)
    doc = {"workload": workload, "seed": seed, "trace": trace,
           "phases": [[r.as_json() for r in ph.records] for ph in phases],
           "readings": [[[t - STARTED, v] for t, v in
                         zip(ph.clock.times, ph.clock.values)]
                        for ph in phases],
           "probes": [r.as_json() for r in probes]}
    if spans is not None:
        doc["spans"] = spans
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)

    # Set-up runs from the first line of this script (before the library
    # import) to the first timed operation, from cold caches.  It is
    # calibrated by readings at its start and end, whose time it leaves out.
    plan = SETUPS[args.workload](args.seed)
    end = time.perf_counter()
    end_reading = calibrate.reading()
    own_setup_s = ((end - STARTED - READING_S) * calibrate.REFERENCE_S
                   / ((START_READING + end_reading) / 2))
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    metrics: Dict[str, dict] = {}
    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}: one process, one thread, closed loop, "
          f"one caller")
    pass_s = PASS_SECONDS[args.workload]
    if not args.trace:
        n = max(1, math.ceil(args.seconds / pass_s - 1e-9))
        phases = [run_phase(plan, range(n))]
        timed = phases[0]
    else:
        # An untimed pass first, so both phases start from the same cache
        # state; then the untraced phase, and the traced one on the same
        # passes (or on passes of its own, see Plan, none of which repeats
        # an earlier pass of the run).
        n = max(1, math.floor(args.seconds / 2 / pass_s))
        if not plan.retrace:
            n = max(1, min(n, (plan.distinct - 1) // 2))
        warm = run_phase(plan, range(1))
        untraced = run_phase(plan, range(1, 1 + n))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_phase(plan, range(1, 1 + n) if plan.retrace
                               else range(1 + n, 1 + 2 * n), tracer)
        finally:
            tracer.uninstall()
        phases = [warm, untraced, traced]
        timed = untraced
    probes = run_probes(plan)

    records = [r for ph in phases for r in ph.records]
    attempted = len(records)
    seen, repeated = set(), 0
    for r in timed.records:
        repeated += r.input_id in seen
        seen.add(r.input_id)
    mutants = sum(1 for r in timed.records if "mutant" in r.tags)
    n = len(timed.records)
    print(f"mix: {n} operations in {timed.passes} passes; input seen "
          f"earlier in the phase {repeated / n:.1%}; mutants {mutants / n:.1%}")
    failed = sum(1 for r in records if not r.ok)
    correct = failed == 0
    for r in records:
        if not r.ok:
            print(f"FAILED {r.input_id}: {r.error}")
    for r in probes:
        if r.error == KNOWN_DEFECT:
            print(f"known defect: {r.input_id} raised {r.error}")
        elif not probe_ok(r):
            correct = False
            print(f"FAILED probe {r.input_id}: {r.error}")
    probe_failed = sum(1 for r in probes if not r.ok)
    if probes:
        print(f"case-2 probes: {probe_failed} of {len(probes)} failed "
              "(untimed, one attempt each)")

    spans = None
    if not args.trace:
        ph = phases[0]
        lat = latency_stats(ph.records)
        wall = latency_stats(ph.records, "wall")
        print(f"wall time: ops_per_s {ph.completed / ph.wall_busy_s:.6g} "
              f"1/s, latency_p50_s {wall['p50']:.6g} s, latency_tail_s "
              f"{wall['tail']:.6g} s (wall over calibrated time "
              f"{ph.wall_busy_s / ph.busy_s:.3f})")
        print(f"passes {ph.passes}, busy {ph.busy_s:.3f} s, operations {attempted}, "
              f"error_rate {failed / attempted:.6g} ratio "
              f"({failed} of {attempted})")
        setups = [own_setup_s] + [cold_setup_s(args)
                                  for _ in range(SETUP_SAMPLES - 1)]
        _metric(metrics, "setup_s", statistics.median(setups), "s",
                f"(median of {SETUP_SAMPLES} cold set-ups: "
                f"{', '.join(f'{x:.3f}' for x in setups)})")
        _metric(metrics, "ops_per_s", ph.ops_per_s, "1/s",
                f"({ph.completed} completed in {ph.busy_s:.3f} s busy)")
        _metric(metrics, "latency_p50_s", lat["p50"], "s",
                f"({lat['samples']} samples)")
        _metric(metrics, "latency_tail_s", lat["tail"], "s",
                f"(p{lat['tail_percentile']:.2f} of {lat['samples']} "
                f"samples, {lat['beyond']} beyond)")
        _metric(metrics, "peak_rss_mb",
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB")
    else:
        spans = tracer.dump()
        plain_keys = {r.key for r in untraced.records}
        compared = sum(1 for r in traced.records if r.key in plain_keys)
        differ = mismatches(untraced.records, traced.records)
        print(f"traced vs untraced: {compared} operations on the same input "
              f"compared, {len(differ)} inputs differ")
        if differ:
            correct = False
            print("FAILED: traced and untraced runs differ in verdicts, "
                  f"certificate kinds or hashes: {', '.join(differ)}")
        if plan.retrace and compared != len(traced.records):
            correct = False
            print(f"FAILED: {len(traced.records) - compared} traced "
                  "operations have no untraced twin")
        sums = tracing.op_self_sums(spans)
        for i, r in enumerate(traced.records):
            if sums.get(i, 0.0) > r.wall + 1e-6:
                correct = False
                print(f"FAILED: layer self times of {r.input_id} exceed its "
                      "wall time")
        for name in tracer.missing:
            print(f"missing: {name} (binding no longer exists)")
        layer = tracing.layer_metrics(spans, len(traced.records),
                                      missing=tracer.missing)
        layer["trace.overhead_ratio"] = (
            1.0 - traced.ops_per_s / untraced.ops_per_s, "ratio")
        layer["decide.case2_probe.failed"] = (float(probe_failed), "count")
        print(f"traced {len(traced.records)} operations in {traced.passes} "
              f"passes, {len(spans)} spans")
        for name, (value, unit) in layer.items():
            _metric(metrics, name, value, unit)
    path = write_records(args.workload, args.seed, args.trace, phases,
                         probes, spans)
    print(f"records: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
