"""coopsim command line: outage sweeps, policy runs, ensembles, MAC
emulation and config validation.

Every subcommand accepts --config FILE to run a full experiment document.
The outage, run and ensemble flags build the same kind of document and
run it the same way; the first output goes to --out, every other output
to <out>.<name>. Exit codes: 0 success, 2 config/validation error,
3 runtime error.
"""
import argparse
import os
import sys

import yaml

from . import __version__, experiments, macemu, netsim
from .experiments import ConfigParseError, ValidationError


def _add_common(p):
    p.add_argument("--config", help="experiment config file (overrides flags)")
    p.add_argument("--seed", type=int, default=None,
                   help="root seed (default: config's seed, else 0)")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out-dir", default=None)


def _build_parser():
    parser = argparse.ArgumentParser(prog="coopsim", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("outage", help="best-subnetwork outage sweep")
    _add_common(p)
    p.add_argument("--topology")
    p.add_argument("--rate", type=float)
    p.add_argument("--k", help="comma list of subnetwork sizes, e.g. 0,1,2")
    p.add_argument("--method", choices=["analytic", "montecarlo"], default="analytic")
    p.add_argument("--snr-grid", help="start:stop:step in dB, or comma list")
    p.add_argument("--normalization", choices=["per_node", "total_power"],
                   default="per_node")
    p.add_argument("--out", default="outage.csv")

    p = sub.add_parser("run", help="run one selection policy over a schedule")
    _add_common(p)
    p.add_argument("--policy")
    p.add_argument("--schedule")
    p.add_argument("--strategy", default="DIQIF")
    p.add_argument("--rate", type=float)
    p.add_argument("--params", help="YAML file with SPA/LEARN parameters")
    p.add_argument("--out", default="runlog.csv")

    p = sub.add_parser("ensemble", help="ensemble-average policy comparison")
    _add_common(p)
    p.add_argument("--topologies", help="comma list of topology files")
    p.add_argument("--policies", help="comma list of policies")
    p.add_argument("--strategy", default="DIQIF")
    p.add_argument("--rate", type=float)
    p.add_argument("--frames-per-topology", type=int, default=860)
    p.add_argument("--transitions", type=int, default=4)
    p.add_argument("--segment-len", type=int, default=172)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--params")
    p.add_argument("--out", default="ensemble.csv")

    p = sub.add_parser("mac", help="trace-driven MAC emulation")
    _add_common(p)
    p.add_argument("--coop-trace", help="PHY trace CSV to deliver packets over")
    p.add_argument("--path-traces", help="per-hop path trace CSV for genie routing")
    p.add_argument("--max-retx", type=int, default=2)
    p.add_argument("--max-retx-per-link", type=int, default=4)
    p.add_argument("--out", default="packets.csv")

    p = sub.add_parser("validate", help="validate an experiment config")
    p.add_argument("config", nargs="?")
    p.add_argument("--list", action="store_true", help="list experiment kinds")
    return parser


def _require(args, *flags):
    for flag in flags:
        if getattr(args, flag.replace("-", "_")) is None:
            raise ConfigParseError(
                f"{args.command}: --{flag} is required without --config")


def _out_path(args):
    return os.path.join(args.out_dir or "", args.out)


def _params_doc(args):
    """The SPA/LEARN parameter block of the --params YAML file, if any."""
    if args.params is None:
        return {}
    try:
        with open(args.params, "r", encoding="utf-8") as fh:
            return yaml.safe_load(fh) or {}
    except (OSError, yaml.YAMLError) as e:
        raise ConfigParseError(f"--params: {e}") from e


def _outage_doc(args):
    _require(args, "topology", "rate", "k", "snr-grid")
    try:
        if ":" in args.snr_grid:
            start, stop, step = (float(v) for v in args.snr_grid.split(":"))
            grid = {"start": start, "stop": stop, "step": step}
        else:
            grid = [float(v) for v in args.snr_grid.split(",")]
    except ValueError:
        raise ConfigParseError(f"--snr-grid must be start:stop:step or a list of "
                               f"numbers, got {args.snr_grid!r}") from None
    try:
        k_values = [int(v) for v in args.k.split(",")]
    except ValueError:
        raise ConfigParseError(f"--k must be a list of integers, got {args.k!r}") from None
    return {"kind": "outage_sweep", "topology": args.topology, "rate": args.rate,
            "k_values": k_values, "snr_grid": grid,
            "method": args.method, "normalization": args.normalization}


def _run_doc(args):
    _require(args, "policy", "schedule", "rate")
    return {"kind": "adaptive_compare", "schedule": args.schedule,
            "policies": [args.policy], "strategy": args.strategy,
            "rate": args.rate, "params": _params_doc(args)}


def _ensemble_doc(args):
    _require(args, "topologies", "policies", "rate")
    return {"kind": "ensemble", "topologies": args.topologies.split(","),
            "policies": args.policies.split(","), "strategy": args.strategy,
            "rate": args.rate, "frames_per_topology": args.frames_per_topology,
            "n_transitions": args.transitions, "segment_len": args.segment_len,
            "n_samples": args.samples, "params": _params_doc(args)}


def _flag_place(args):
    """Output placement of a flag run: the first output goes to --out,
    every later output `name` to <out>.<name>."""
    out = _out_path(args)
    placed = []

    def place(name):
        path = f"{out}.{name}" if placed else out
        placed.append(path)
        return path

    return place


def _cmd_mac(args):
    seed = 0 if args.seed is None else args.seed
    policy = macemu.MacPolicy(max_retx_coop=args.max_retx,
                              max_retx_per_link=args.max_retx_per_link)
    wrote = []
    if args.coop_trace:
        results = macemu.coop_mac_deliver(netsim.read_trace(args.coop_trace), policy)
        out = _out_path(args)
        macemu.write_packet_csv(out, results)
        wrote.append(out)
        print(f"coop: {len(results)} packets, drop_rate="
              f"{macemu.drop_rate(results):.6f}")
    if args.path_traces:
        traces = macemu.read_path_traces(args.path_traces)
        results = macemu.genie_route(traces, policy)
        stem, ext = os.path.splitext(_out_path(args))
        out = f"{stem}_genie{ext}" if args.coop_trace else _out_path(args)
        macemu.write_packet_csv(out, results)
        wrote.append(out)
        print(f"genie: {len(results)} packets, drop_rate="
              f"{macemu.drop_rate(results):.6f}")
    if not wrote:
        raise ConfigParseError(
            "mac: need --coop-trace and/or --path-traces (or --config)")
    doc = {"kind": "mac", "coop_trace": args.coop_trace,
           "path_traces": args.path_traces, "max_retx": args.max_retx,
           "max_retx_per_link": args.max_retx_per_link}
    wrote.append(experiments.write_manifest(f"{wrote[0]}.manifest.json", "mac",
                                            seed, doc, wrote))
    return wrote


_FLAG_DOCS = {
    "outage": _outage_doc,
    "run": _run_doc,
    "ensemble": _ensemble_doc,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            if args.list:
                for kind, desc in experiments.list_experiments():
                    print(f"{kind}: {desc}")
                return 0
            if not args.config:
                raise ConfigParseError("validate: config path required")
            print(experiments.validate_config(args.config))
            return 0
        if getattr(args, "config", None):
            files = experiments.run_config(args.config, out_dir=args.out_dir,
                                           seed=args.seed, threads=args.threads)
        elif args.command == "mac":
            files = _cmd_mac(args)
        else:
            files = experiments.run_experiment(
                _FLAG_DOCS[args.command](args), "<flags>", os.getcwd(),
                _flag_place(args), seed=args.seed, threads=args.threads)
        for f in files:
            print(f)
        return 0
    except (ConfigParseError, ValidationError, netsim.TraceFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
