"""coopsim benchmark: end-to-end and per-layer metrics of four workloads.

Usage (from the root of a checkout of the repository):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round of a workload runs in a fresh process (bench/child.py) on the
coopsim sources under src/. With --trace 0 the rounds are untraced and the
last line of standard output is a JSON object with the end-to-end metrics
of BENCHMARK.json (medians over rounds). With --trace 1 untraced and traced
rounds alternate and the JSON object holds the per-layer metrics. Either
way the outputs are checked against computations of the benchmark's own
(bench/checks.py). Rounds start while they are expected to end within
S seconds (at least one round, or two traced pairs); set-up is sampled at
least SETUP_SAMPLES times.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
from inputs import WORKLOADS, make_spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 5
# Every child is killed by then, so that a run ends within 180 s.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not measure the workload; no result is printed."""


def _run_child(spec_path, round_dir, mode, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, CHILD, spec_path, round_dir, mode],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} round {round_dir} did not end in time") from None
    finally:
        # pool workers left behind by a failed round share the child's group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{mode} round exited with {proc.returncode}:\n"
                         f"{err.decode(errors='replace')[-3000:]}")
    with open(os.path.join(round_dir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _rounds(run_round, seconds, at_least):
    """Call run_round(i) while the next call is expected to end less than
    half a call past `seconds`, and at least `at_least` times."""
    start = time.monotonic()
    results, durations = [], []
    while True:
        t0 = time.monotonic()
        results.append(run_round(len(results)))
        durations.append(time.monotonic() - t0)
        if len(results) >= at_least and \
                time.monotonic() - start + 0.5 * statistics.median(durations) >= seconds:
            return results


def _outputs_agree(rounds):
    """Every round computed the same outputs (byte-identical files, or the
    same design figures)."""
    keys = {json.dumps(r.get("snrs", r.get("digest")), sort_keys=True) for r in rounds
            if not r["failed"]}
    return len(keys) <= 1


def _check(workload, spec, seed, rounds):
    """Failure messages of the correctness checks on the first round that
    has outputs, plus a determinism check over all rounds."""
    failures = [] if _outputs_agree(rounds) else ["rounds disagree on their outputs"]
    done = [r for r in rounds if not r["failed"]]
    if not done:
        return failures
    if workload == "outage_design":
        snrs = {int(k): v for k, v in done[0]["snrs"].items()}
        return failures + checks.check_outage_design(spec, snrs, seed)
    return failures + checks.CONFIG_CHECKS[workload](spec, done[0]["out_dir"], seed)


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def _per_layer_values(trace):
    """Flat per-layer metric values of one traced round."""
    stats, values = trace["stats"], {}
    for name, st in stats.items():
        values[f"{name}.calls"] = st["calls"]
        values[f"{name}.self_s"] = st["self_s"]
        if st["incl_s"] > 0:
            values[f"{name}.per_s"] = st["calls"] / st["incl_s"]
            if "packets" in st:
                values[f"{name}.packets_per_s"] = st["packets"] / st["incl_s"]
        for extra in ("draws", "frames"):
            if extra in st:
                values[f"{name}.{extra}"] = st[extra]
    run_policy = stats.get("selection.run_policy", {})
    values["selection.frames"] = run_policy.get("frames", 0)
    values["selection.learning_frames"] = run_policy.get("learning_frames", 0)
    values["experiments.output_bytes"] = stats.get(
        "experiments.run_config", {}).get("output_bytes", 0)
    searches = stats.get("outage.best_subnetwork", {}).get("calls", 0)
    if searches:
        values["outage.best_subnetwork.subsets_per_search"] = stats.get(
            "outage.outage_upper_bound", {}).get("calls", 0) / searches
    replay = stats.get("ensemble.evaluate_on_ensemble", {})
    for key in replay:
        if key.startswith("frames."):
            policy = key[len("frames."):]
            values[f"ensemble.replay_frames_per_s.{policy}"] = \
                replay[key] / replay[f"seconds.{policy}"]
    return values


def _load_metric_list():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["end_to_end"], doc["per_layer"]


def measure(workload, seed, seconds, trace):
    end_to_end, per_layer = _load_metric_list()
    deadline = time.monotonic() + RUN_LIMIT_S
    base = os.path.join(HERE, "out", workload)
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    spec = make_spec(workload, seed)
    spec_path = os.path.join(base, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)

    def one(mode, i):
        return _run_child(spec_path, os.path.join(base, f"{mode}-{i}"), mode, deadline)

    if trace:
        # two pairs at least, so that trace.overhead_s is not one sample's noise
        pairs = _rounds(lambda i: (one("run", i), one("trace", i)), seconds, 2)
        plain = [p[0] for p in pairs]
        traced = [p[1] for p in pairs]
    else:
        plain = _rounds(lambda i: one("run", i), seconds, 1)
        traced = []
    setups = [r["setup_s"] for r in plain]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(one("setup", len(setups))["setup_s"])

    rounds = plain + traced
    failures = _check(workload, spec, seed, rounds)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    for r in rounds:
        for message in r["errors"]:
            print(f"operation failed: {message}", file=sys.stderr)

    if trace:
        per_round = [_per_layer_values(r["trace"]) for r in traced]
        values = {m["name"]: statistics.median(v.get(m["name"], 0) for v in per_round)
                  for m in per_layer}
        values["experiments.cpu_s"] = _median(plain, "cpu_s")
        values["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
        for name in sorted({n for r in traced for n in r["trace"]["absent"]}):
            print(f"absent: {name} is not a function of this coopsim; its metrics read 0")
        metrics = per_layer
    else:
        values = {"wall_s": _median(plain, "wall_s"),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mib": _median(plain, "peak_rss_mib")}
        metrics = end_to_end
    print(f"{workload} seed {seed}: {len(plain)} untraced and {len(traced)} traced "
          f"rounds, {len(setups)} set-ups")
    for m in metrics:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    return {"correct": not failures,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in metrics}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "coopsim", "__init__.py")):
        print(f"bench: no coopsim sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
