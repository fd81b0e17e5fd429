"""One round of one workload in a fresh process.

Usage: python3 bench/child.py SPEC_JSON ROUND_DIR {setup|run|trace}

`setup` imports coopsim and builds the inputs, then stops; `run` also makes
the timed calls; `trace` makes them with the tracer installed. The result
goes to ROUND_DIR/result.json. A fresh process per round matters:
`outage._p_omega` keeps an lru_cache for the life of the process, and
set-up is the cost a user pays on every coopsim invocation.
"""
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _peak_rss_mib():
    """Largest peak resident set of this process and its waited-for
    children (the experiment's pool workers); Linux reports KiB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _cpu_s():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main(spec_path, round_dir, mode):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(round_dir, exist_ok=True)

    start = time.perf_counter()
    import yaml

    import coopsim
    from coopsim import experiments, outage, topology

    src = os.path.join(ROOT, "src", "coopsim")
    if os.path.dirname(os.path.abspath(coopsim.__file__)) != src:
        raise SystemExit(f"coopsim imported from {coopsim.__file__}, not {src}")

    if spec["workload"] == "outage_design":
        template = topology.topology_from_dict(spec["topology"])
        calls = [(k, lambda k=k: outage.required_snr_db(
            template, k, spec["rate"], spec["target"], lo_db=spec["lo_db"],
            hi_db=spec["hi_db"], iterations=spec["iterations"]))
            for k in spec["ks"]]
    else:
        config_path = os.path.join(round_dir, "config.yaml")
        with open(config_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(spec["config"], fh, sort_keys=False)
        out_dir = os.path.join(round_dir, "out")
        calls = [("run_config", lambda: experiments.run_config(
            config_path, out_dir=out_dir, threads=spec["threads"]))]
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}

    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer(worker_dir=round_dir)
            tracer.install()
        outputs, errors = {}, []
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        for name, call in calls:
            try:
                outputs[name] = call()
            except Exception as e:  # one failed operation; the round goes on
                errors.append(f"{name}: {type(e).__name__}: {e}")
        wall_s = time.perf_counter() - t0
        result.update(wall_s=wall_s, cpu_s=_cpu_s() - cpu0,
                      peak_rss_mib=_peak_rss_mib(), attempted=len(calls),
                      failed=len(errors), errors=errors)
        if spec["workload"] == "outage_design":
            result["snrs"] = {str(k): v for k, v in outputs.items()}
        elif outputs:
            result["out_dir"] = out_dir
            result["digest"] = _digest(outputs["run_config"])
        if tracer is not None:
            tracer.merge_worker_files()
            result["trace"] = {"stats": tracer.stats, "absent": tracer.absent}

    with open(os.path.join(round_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:4])
