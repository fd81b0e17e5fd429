"""Spans and counters around the calls into coopsim's public functions.

The tracer wraps each traced function at every binding site: the module
that defines it and every coopsim module that imported it by name
(`from .outage import approx_capacity`), so no call path escapes. A
traced name that no longer exists is recorded as absent, not an error.

A span's self time is its duration minus the time its traced child spans
cover. The tracer's own bookkeeping after a call is charged to the child,
never to the caller's self time.

Pool workers forked from a traced process inherit the wrapped functions;
each one starts with empty counters and writes them to the trace
directory when it exits, and `merge_worker_files` folds them back in.
"""
import functools
import glob
import importlib
import json
import os
import sys
import time
from multiprocessing import util

MODULES = ("topology", "outage", "netsim", "selection", "ensemble", "macemu",
           "experiments", "rng")

TRACED = (
    ("topology", "sample_channels"),
    ("topology", "sample_channel_batch"),
    ("outage", "cut_value"),
    ("outage", "approx_capacity"),
    ("outage", "cut_outage_analytic"),
    ("outage", "outage_upper_bound"),
    ("outage", "best_subnetwork"),
    ("outage", "required_snr_db"),
    ("netsim", "evaluate_frame"),
    ("selection", "weight_update"),
    ("selection", "learn"),
    ("selection", "run_policy"),
    ("ensemble", "record_dataset"),
    ("ensemble", "make_ensemble"),
    ("ensemble", "evaluate_on_ensemble"),
    ("macemu", "coop_mac_deliver"),
    ("macemu", "genie_route"),
    ("macemu", "compare_coop_vs_genie"),
    ("experiments", "validate_config"),
    ("experiments", "run_config"),
    ("rng", "named_rng"),
)


def _learning_frames(log):
    """Frames a run log spent learning, read from its documented CSV rows
    (frame_index, mode, category, phase, cumulative_switches)."""
    frames = getattr(log, "frames", None)
    if frames and hasattr(frames[0], "phase"):
        return sum(1 for f in frames if f.phase == "learning")
    return sum(1 for row in log.to_rows() if row[3] == "learning")


def _count_sample_channel_batch(stat, result, seconds):
    stat["draws"] = stat.get("draws", 0) + len(result[0])


def _count_run_policy(stat, log, seconds):
    stat["frames"] = stat.get("frames", 0) + log.n_frames
    stat["learning_frames"] = stat.get("learning_frames", 0) + _learning_frames(log)


def _count_record_dataset(stat, dataset, seconds):
    stat["frames"] = stat.get("frames", 0) + (
        len(dataset.topologies) * len(dataset.mode_keys)
        * dataset.frames_per_topology)


def _count_replay(stat, result, seconds):
    """Frames replayed and seconds spent, per policy."""
    policy = str(result.policy).replace(":", "-")
    stat[f"frames.{policy}"] = stat.get(f"frames.{policy}", 0) + sum(
        row[3] for row in result.rows)
    stat[f"seconds.{policy}"] = stat.get(f"seconds.{policy}", 0.0) + seconds


def _count_packets(stat, results, seconds):
    stat["packets"] = stat.get("packets", 0) + len(results)


def _count_run_config(stat, outputs, seconds):
    stat["output_bytes"] = stat.get("output_bytes", 0) + sum(
        os.path.getsize(p) for p in outputs)


HOOKS = {
    "topology.sample_channel_batch": _count_sample_channel_batch,
    "selection.run_policy": _count_run_policy,
    "ensemble.record_dataset": _count_record_dataset,
    "ensemble.evaluate_on_ensemble": _count_replay,
    "macemu.coop_mac_deliver": _count_packets,
    "macemu.genie_route": _count_packets,
    "experiments.run_config": _count_run_config,
}


def _new_stat():
    return {"calls": 0, "incl_s": 0.0, "self_s": 0.0}


class Tracer:
    """Per-function call counts, inclusive and self times, and the counts
    the HOOKS read from results."""

    def __init__(self, worker_dir=None):
        self.stats = {}
        self.absent = []
        self._stack = []
        self._worker_dir = worker_dir
        self._patched = []

    def install(self, traced=TRACED):
        """Wrap each (module, function) of `traced` at every binding site."""
        modules = {m: importlib.import_module(f"coopsim.{m}") for m in MODULES}
        sites = [m for name, m in sorted(sys.modules.items())
                 if m is not None and (name == "coopsim" or name.startswith("coopsim."))]
        for mod, func in traced:
            name = f"{mod}.{func}"
            original = getattr(modules[mod], func, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, attr, wrapper)
                        self._patched.append((site, attr, original))
        if self._worker_dir is not None:
            util.register_after_fork(self, Tracer._after_fork)

    def uninstall(self):
        """Put every wrapped binding back."""
        for site, attr, original in reversed(self._patched):
            setattr(site, attr, original)
        self._patched = []

    def _after_fork(self):
        self.stats, self._stack = {}, []
        util.Finalize(self, self._dump_worker, exitpriority=10)

    def _dump_worker(self):
        path = os.path.join(self._worker_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.stats, fh)

    def merge_worker_files(self):
        for path in sorted(glob.glob(os.path.join(self._worker_dir, "worker-*.json"))):
            with open(path, encoding="utf-8") as fh:
                worker_stats = json.load(fh)
            for name, stat in worker_stats.items():
                mine = self.stats.setdefault(name, _new_stat())
                for key, value in stat.items():
                    mine[key] = mine.get(key, 0) + value
            os.remove(path)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # self.stats/self._stack are replaced after a fork; look them up
            # per call rather than closing over the parent's objects.
            stack = self._stack
            stat = self.stats.setdefault(name, _new_stat())
            covered = [0.0]
            stack.append(covered)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                stat["calls"] += 1
                stat["incl_s"] += end - start
                stat["self_s"] += end - start - covered[0]
                if ok and hook is not None:
                    hook(stat, result, end - start)
                if stack:
                    stack[-1][0] += time.perf_counter() - start

        return wrapper
