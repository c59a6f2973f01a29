"""End-to-end and per-layer benchmark of the integer lightmamba* W4A4 serving path.

One run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 benchmarks/e2e/run.py --workload wire_chat --seed 3 --seconds 24 --trace 0

prints a table and, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Every workload, untraced then traced, as one report::

    python3 benchmarks/e2e/run.py [--seed N] [--quick] [--output report.json]

Compare two sets of reports::

    python3 benchmarks/e2e/run.py compare A1.json A2.json A3.json -- B1.json B2.json B3.json

See ``README.md`` beside this file for the glossary of workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.stderr.write(f"benchmarks/e2e: nothing to measure, {ROOT / 'src' / 'repro'} is missing\n")
    sys.exit(2)
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import measures, wire  # noqa: E402
from benchmarks.e2e.stats import median  # noqa: E402
from benchmarks.e2e.workloads import SERVER_PROBE, WORKLOADS, Workload, script  # noqa: E402

#: Threads of every numeric library in the worker are pinned to one, so a
#: run's speed does not depend on how many cores the host happens to expose.
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
WARMUP_SPEC = {"id": "warmup", "cls": "chat", "prompt": list(range(1, 9)),
               "max_new_tokens": 8, "stream": True}
CHECK_SAMPLE = 16     # requests compared token-for-token against solo decode
SETUP_LAUNCHES = 3    # worker launches behind setup_s (their median)
#: Untimed head of every timed pass.  The callers of a closed loop all start
#: at once; until their first requests have finished at different iterations
#: the loop is not in the state it keeps for the rest of the run (on
#: ``engine_offline_b8`` that takes up to 40 decode steps, about 2.5 s).
WARMUP_S = 3.0


def declared() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# The worker process and one warmed session on it
# ----------------------------------------------------------------------
class Session:
    """A freshly launched worker, set up until it has answered one warm-up request.

    ``setup_s`` is interpreter start -> imports -> model build -> quantize ->
    engine (and listening server for ``wire``) -> warm-up request answered.
    """

    def __init__(self, load: Workload) -> None:
        env = dict(os.environ, **PINNED_THREADS)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        began = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "worker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        )
        self.address: Optional[tuple] = None
        try:
            self.parts = self._reply()["setup"]
            warm_began = time.perf_counter()
            if load.kind == "wire":
                self.serve(load.slots)
                answer = wire.generate(*self.address, WARMUP_SPEC, time.perf_counter())
                if answer.get("error") or len(answer["tokens"]) != 8:
                    raise RuntimeError(f"warm-up request failed: {answer}")
            else:
                if self.call("warmup", slots=load.slots)["n_tokens"] != 8:
                    raise RuntimeError("warm-up request failed")
            self.parts["warmup_s"] = time.perf_counter() - warm_began
            self.setup_s = time.perf_counter() - began
        except BaseException:
            self.close()
            raise

    def _reply(self) -> Dict[str, Any]:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited (code {self.process.poll()})")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"worker: {reply['error']}")
        return reply

    def call(self, op: str, **arguments) -> Dict[str, Any]:
        self.process.stdin.write(json.dumps({"op": op, **arguments}) + "\n")
        self.process.stdin.flush()
        return self._reply()

    def serve(self, slots: int) -> None:
        reply = self.call("serve_start", slots=slots)
        self.address = (reply["host"], reply["port"])

    def run_pass(
        self, load: Workload, seed: int, seconds: Optional[float] = None,
        limit: Optional[int] = None, probe_health: bool = False,
    ) -> Dict[str, Any]:
        """One pass of ``load``: callers start requests until ``seconds`` have
        elapsed or ``limit`` requests are sent, then the pass drains."""
        if load.kind == "engine":
            return self.call("engine_run", workload=load.name, seed=seed,
                             seconds=seconds, limit=limit)
        if self.address is None:
            self.serve(load.slots)
        scripts = [script(load, seed, i) for i in range(load.callers)]
        per_client = None if limit is None else max(1, limit // load.callers)
        result = wire.run_clients(*self.address, scripts, seconds, per_client, probe_health)
        stopped = self.call("serve_stop")
        self.address = None
        result["server"] = stopped["stats"]
        result["engine"] = stopped["stats"]["engine"]
        result["rss_mb"] = stopped["rss_mb"]
        return result

    def close(self) -> None:
        """Stop the worker and wait for it; kill it if it does not go quietly."""
        process = self.process
        try:
            if process.poll() is None:
                if self.address is not None:
                    self.call("serve_stop")
                self.call("exit")
            process.wait(timeout=30)
        except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired):
            process.kill()
            process.wait()
        finally:
            process.stdin.close()
            process.stdout.close()


def measure_setup(load: Workload, launches: int, first: Session) -> float:
    """Median ``setup_s`` over ``launches`` sessions, ``first`` being one of them."""
    values = [first.setup_s]
    for _ in range(launches - 1):
        extra = Session(load)
        values.append(extra.setup_s)
        extra.close()
    return median(values)


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def spec_table(load: Workload, seed: int, records: List[Dict[str, Any]]) -> Dict[str, Dict]:
    """Regenerate the specs the records answer, keyed by their ``stream.index`` id."""
    needed: Dict[int, int] = {}
    for record in records:
        stream, index = (int(part) for part in record["id"].split("."))
        needed[stream] = max(needed.get(stream, 0), index + 1)
    table = {}
    for stream, count in needed.items():
        specs = script(load, seed, stream)
        for _ in range(count):
            spec = next(specs)
            table[spec["id"]] = spec
    return table


def verify(
    session: Session, seed: int, records: List[Dict[str, Any]], specs: Dict[str, Dict],
    sample: int,
) -> List[str]:
    """Failures: errored or refused requests, wrong finish reason or token count,
    and any of a seeded sample that differs from the solo decode of its spec."""
    failures, sound = [], []
    for record in records:
        spec = specs[record["id"]]
        if "error" in record:
            failures.append(f"{record['id']}: {record['error']}")
        elif record["finish_reason"] != "length":
            failures.append(f"{record['id']}: finish_reason {record['finish_reason']!r}")
        elif len(record["tokens"]) != spec["max_new_tokens"]:
            failures.append(f"{record['id']}: {len(record['tokens'])} tokens, "
                            f"wanted {spec['max_new_tokens']}")
        else:
            sound.append(record)
    chosen = random.Random(f"check/{seed}").sample(sound, min(sample, len(sound)))
    reference = session.call("reference", specs=[specs[r["id"]] for r in chosen])["tokens"]
    for record, expected in zip(chosen, reference):
        if record["tokens"] != expected:
            failures.append(f"{record['id']}: tokens differ from the solo decode")
    return failures


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_untraced(load: Workload, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    """The timed pass: end-to-end metrics, measured with tracing off."""
    launches = 1 if quick else SETUP_LAUNCHES
    warm_s = 0.0 if quick else WARMUP_S
    session = Session(load)
    try:
        result = session.run_pass(load, seed, seconds=warm_s + seconds)
        records = result["records"]
        specs = spec_table(load, seed, records)
        failures = verify(session, seed, records, specs, 2 if quick else CHECK_SAMPLE)
        metrics, tails = measures.end_to_end(records, specs, load.latency_class, warm_s, seconds)
        metrics["peak_rss_mb"] = (result["rss_mb"], "MB", None)
    finally:
        session.close()
    metrics["setup_s"] = (measure_setup(load, launches, session), "s", launches)
    return {"metrics": metrics, "attempted": len(records), "failures": failures,
            "notes": [tails]}


def run_traced(
    load: Workload, seed: int, quick: bool, spans_path: Optional[str]
) -> Dict[str, Any]:
    """The per-layer pass: a fixed request count untraced, the micro-calls, then
    the same requests traced; the difference between the passes is the
    tracing overhead."""
    limit = max(2, load.trace_requests // 8) if quick else load.trace_requests
    session = Session(load)
    try:
        # Untimed: first-touch allocations at this workload's shapes would
        # otherwise be charged to the untraced pass only.
        session.run_pass(load, seed, limit=load.callers)
        plain = session.run_pass(load, seed, limit=limit)
        micro = session.call("micro", quick=quick)
        session.call("trace_on")
        traced = session.run_pass(load, seed, limit=limit, probe_health=True)
        records = traced["records"]
        layers = session.call(
            "trace_metrics", wall_s=traced["end_s"],
            prefilled_tokens=traced["engine"]["prefilled_tokens"], path=spans_path,
        )
        if load.kind == "wire":
            probe = traced
        else:
            probe_limit = 2 if quick else SERVER_PROBE.trace_requests
            probe = session.run_pass(SERVER_PROBE, seed, limit=probe_limit, probe_health=True)
        specs = spec_table(load, seed, plain["records"] + records)
        failures = verify(session, seed, plain["records"] + records, specs, 2)
    finally:
        session.close()

    metrics = {**micro["metrics"], **layers["metrics"]}
    metrics.update(measures.engine_counts(traced["engine"], records))
    metrics.update(measures.server_layer(probe["records"], probe["health_s"], probe["server"]))
    per_token = [run["end_s"] / max(measures.delivered_tokens(run["records"]), 1)
                 for run in (plain, traced)]
    metrics["trace.overhead_share"] = (per_token[1] / per_token[0] - 1.0, "share", None)
    metrics["setup.import_s"] = (session.parts["import_s"], "s", 1)
    metrics["qmodel.quantize_s"] = (session.parts["quantize_s"], "s", 1)
    metrics["setup.warmup_s"] = (session.parts["warmup_s"], "s", 1)
    notes = [f"{layers['spans']} spans; micro-calls took {micro['micro_s']:.1f} s"]
    return {"metrics": metrics, "attempted": len(plain["records"]) + len(records),
            "failures": failures, "notes": notes}


def run_once(
    name: str, seed: int, seconds: float, trace: int, quick: bool = False,
    spans_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one workload once; returns the report entry (metrics as name -> dict)."""
    load = WORKLOADS[name]
    began = time.perf_counter()
    if trace:
        result = run_traced(load, seed, quick, spans_path)
    else:
        result = run_untraced(load, seed, seconds, quick)
    wanted = [m["name"] for m in declared()["per_layer" if trace else "end_to_end"]]
    produced = result["metrics"]
    if set(wanted) != set(produced):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(wanted) - set(produced))}, "
            f"undeclared {sorted(set(produced) - set(wanted))}"
        )
    return {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds, "quick": quick,
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "failures": result["failures"][:20],
        "notes": result["notes"],
        "run_s": time.perf_counter() - began,
        "metrics": {
            metric: {"value": produced[metric][0], "unit": produced[metric][1],
                     "n": produced[metric][2]}
            for metric in wanted
        },
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_entry(entry: Dict[str, Any]) -> None:
    kind = "per-layer (traced)" if entry["trace"] else "end-to-end (untraced)"
    print(f"\n== {entry['workload']}  seed {entry['seed']}  {kind}"
          f"{'  QUICK' if entry['quick'] else ''}  [{entry['run_s']:.1f} s]")
    for name, metric in entry["metrics"].items():
        count = "" if metric["n"] is None else f"n={metric['n']}"
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']:<6} {count}")
    succeeded = entry["attempted"] - entry["failed"]
    print(f"  requests: sent {entry['attempted']}  succeeded {succeeded}  failed {entry['failed']}"
          f"  fail_share {entry['failed'] / max(entry['attempted'], 1):.4f}")
    for note in entry["notes"] + entry["failures"]:
        print(f"  note: {note}")


def contract_line(entry: Dict[str, Any]) -> str:
    """The one-line JSON result the benchmark driver reads."""
    return json.dumps({
        "correct": entry["correct"],
        "attempted": max(entry["attempted"], 1),
        "failed": entry["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in entry["metrics"].items()},
    })


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["worker"]:
        from benchmarks.e2e import worker

        return worker.main()
    if argv[:1] == ["compare"]:
        from benchmarks.e2e import compare

        return compare.main(argv[1:], declared())

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window of an untraced run (default: run_seconds)")
    parser.add_argument("--trace", default="both", choices=["0", "1", "both"])
    parser.add_argument("--quick", action="store_true",
                        help="smoke size: ~1/10 window, 20-rep micro-calls, one launch")
    parser.add_argument("--output", help="write the report (all entries) to this JSON file")
    parser.add_argument("--spans", help="write the traced pass's spans here (JSON lines)")
    args = parser.parse_args(argv)

    seconds = args.seconds if args.seconds is not None else float(declared()["run_seconds"])
    if args.quick:
        seconds = min(seconds, 1.0)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    entries = []
    for name in names:
        for trace in traces:
            entry = run_once(name, args.seed, seconds, trace, args.quick, args.spans)
            entries.append(entry)
            print_entry(entry)
    if args.output:
        report = {
            "quick": args.quick,
            "pinned_threads": PINNED_THREADS,
            "loop": "closed; wire: 2 client threads, <=2 open connections; "
                    "engine: as many in-process callers as slots",
            "entries": entries,
        }
        Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    print()
    for entry in entries:
        print(contract_line(entry))
    return 0 if all(entry["correct"] for entry in entries) else 1


if __name__ == "__main__":
    sys.exit(main())
