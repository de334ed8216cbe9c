#!/usr/bin/env python3
"""Self-tests of the repository benchmark, on tiny shapes of all workloads.

    python3 perfbench/selftest.py

Checks, in about a minute including the build:
  * each workload's tiny shape runs and reports correct results;
  * every metric BENCHMARK.json names is printed, with its unit, in the
    matching trace mode (end-to-end untraced, per-layer traced);
  * simulated metrics are identical across two runs of one seed, and the
    per-layer counts are identical between two traced runs;
  * a held-out seed runs clean with the same metric names;
  * a command the daemon rejects is counted in `failed` without failing
    the run;
  * the traced run's Chrome trace gives every span a name, start, end and
    parent, and each daemon dispatch shares its client request's id.
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_DIR = os.path.join(ROOT, ".bench_build", "selftest")

# Metrics that are pure functions of the seed: equal across runs.
SIMULATED_E2E = ["avg_jct_s"]
SIMULATED_LAYER_SUFFIXES = ("_calls",)
SIMULATED_LAYER = [
    "sim.pending_at_start", "sim.events", "sim.pending_peak", "core.sweeps",
    "core.sweep_visits", "core.sweep_offer_ratio", "core.supply_queries",
    "protocol.commits", "protocol.useful_response_ratio", "journal.records",
    "journal.bytes_per_cmd",
]


def fail(msg):
    sys.exit("selftest FAILED: " + msg)


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail("%s exited %d" % (" ".join(cmd), proc.returncode))
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True:
        fail("%s seed %d trace %d: checks failed:\n%s"
             % (workload, seed, trace, proc.stdout))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        fail("%s: bad attempted/failed %r" % (workload, result))
    return result


def check_names(workload, result, defs):
    want = {d["name"]: d["unit"] for d in defs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("%s: metrics %s, BENCHMARK.json wants %s" % (workload, got, want))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail("%s: %s is not a number" % (workload, name))


def check_trace(path, daemon):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    if not events:
        fail(path + ": no spans")
    ids = {}
    for e in events:
        for key in ("name", "ts", "dur"):
            if key not in e:
                fail("%s: span without %s: %r" % (path, key, e))
        if e["dur"] < 0 or "parent" not in e["args"]:
            fail("%s: bad span %r" % (path, e))
        ids[e["args"]["span"]] = e
    for e in events:
        parent = e["args"]["parent"]
        if parent != 0 and parent not in ids:
            fail("%s: span %r has an unknown parent" % (path, e))
    if daemon:
        dispatches = [e for e in events if e["name"] == "daemon.dispatch"]
        if not dispatches:
            fail(path + ": no daemon.dispatch spans")
        for e in dispatches:
            req = ids[e["args"]["parent"]]
            if (req["name"] != "client.request"
                    or req["args"]["request"] != e["args"]["request"]
                    or e["args"]["request"] == 0):
                fail("%s: dispatch %r not tied to its request" % (path, e))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.makedirs(TRACE_DIR, exist_ok=True)
    for w in (w["name"] for w in bench["workloads"]):
        daemon = w == "daemon-closed-loop"
        first = run(w, 3, 0)
        second = run(w, 3, 0)
        check_names(w, first, bench["end_to_end"])
        for name in SIMULATED_E2E:
            if first["metrics"][name] != second["metrics"][name]:
                fail("%s: %s differs between two runs" % (w, name))
        if (first["attempted"], first["failed"]) != (
                second["attempted"], second["failed"]):
            fail("%s: attempted/failed differ between two runs" % w)

        held_out = run(w, 11, 0)
        check_names(w, held_out, bench["end_to_end"])

        traces = [os.path.join(TRACE_DIR, "%s-%d.json" % (w, i))
                  for i in (0, 1)]
        layers = [run(w, 3, 1, "--trace-out", t) for t in traces]
        for result in layers:
            check_names(w, result, bench["per_layer"])
        for name, m in layers[0]["metrics"].items():
            simulated = (name in SIMULATED_LAYER
                         or name.endswith(SIMULATED_LAYER_SUFFIXES))
            if simulated and m != layers[1]["metrics"][name]:
                fail("%s: %s differs between two traced runs" % (w, name))
        check_trace(traces[0], daemon)

        if daemon:
            rejected = run(w, 3, 0, "--inject-reject")
            if rejected["failed"] != first["failed"] + 1 or (
                    rejected["attempted"] != first["attempted"] + 1):
                fail("rejected command not counted: %r" % rejected)
        print("selftest: %s ok" % w)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
