"""coopsim command line: outage sweeps, policy runs, ensembles, MAC
trace replay and config validation.

Every subcommand accepts --config FILE to run a full experiment document.
The outage, run, ensemble and mac flags build the same kind of document
(outage_sweep, adaptive_compare, ensemble, mac_replay) and run it the
same way; the first output goes to --out, every other output to
<out>.<name>. Exit codes: 0 success, 2 config/validation error,
3 runtime error.
"""
import argparse
import os
import sys

from . import __version__, experiments
from .experiments import ValidationError


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
    p.add_argument("--method")
    p.add_argument("--snr-grid", help="start:stop:step in dB, or comma list")
    p.add_argument("--normalization")
    p.add_argument("--out", default="outage.csv")

    p = sub.add_parser("run", help="run one selection policy over a schedule")
    _add_common(p)
    p.add_argument("--policy")
    p.add_argument("--schedule")
    p.add_argument("--strategy")
    p.add_argument("--rate", type=float)
    p.add_argument("--params", help="YAML file with SPA/LEARN parameters")
    p.add_argument("--out", default="runlog.csv")

    p = sub.add_parser("ensemble", help="ensemble-average policy comparison")
    _add_common(p)
    p.add_argument("--topologies", help="comma list of topology files")
    p.add_argument("--policies", help="comma list of policies")
    p.add_argument("--strategy")
    p.add_argument("--rate", type=float)
    p.add_argument("--frames-per-topology", type=int)
    p.add_argument("--transitions", type=int)
    p.add_argument("--segment-len", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--params")
    p.add_argument("--out", default="ensemble.csv")

    p = sub.add_parser("mac", help="trace-driven MAC emulation")
    _add_common(p)
    p.add_argument("--coop-trace", help="PHY trace CSV to deliver packets over")
    p.add_argument("--path-traces", help="per-hop path trace CSV for genie routing")
    p.add_argument("--max-retx", type=int)
    p.add_argument("--max-retx-per-link", type=int)
    p.add_argument("--out", default="packets.csv")

    p = sub.add_parser("validate", help="validate an experiment config")
    p.add_argument("config", nargs="?")
    p.add_argument("--list", action="store_true", help="list experiment kinds")
    return parser


def _require(args, *flags):
    for flag in flags:
        if getattr(args, flag.replace("-", "_")) is None:
            raise ValidationError(
                f"{args.command}: --{flag} is required without --config")


def _params_doc(args):
    """The SPA/LEARN parameter block of the --params YAML file, if any."""
    return None if args.params is None else experiments.load_yaml(args.params)


def _given(**keys):
    """The keys whose flags were given: a key that is None, or an empty
    block, is left out, so that its kind's schema supplies the default."""
    return {key: value for key, value in keys.items() if value not in (None, {})}


def _outage_doc(args):
    _require(args, "topology", "rate", "k", "snr-grid")
    try:
        if ":" in args.snr_grid:
            start, stop, step = (float(v) for v in args.snr_grid.split(":"))
            grid = {"start": start, "stop": stop, "step": step}
        else:
            grid = [float(v) for v in args.snr_grid.split(",")]
    except ValueError:
        raise ValidationError(f"--snr-grid must be start:stop:step or a list of "
                              f"numbers, got {args.snr_grid!r}") from None
    try:
        k_values = [int(v) for v in args.k.split(",")]
    except ValueError:
        raise ValidationError(f"--k must be a list of integers, got {args.k!r}") from None
    return _given(kind="outage_sweep", topology=args.topology, rate=args.rate,
                  k_values=k_values, snr_grid=grid, method=args.method,
                  normalization=args.normalization)


def _run_doc(args):
    _require(args, "policy", "schedule", "rate")
    return _given(kind="adaptive_compare", schedule=args.schedule,
                  policies=[args.policy], strategy=args.strategy, rate=args.rate,
                  params=_params_doc(args))


def _ensemble_doc(args):
    _require(args, "topologies", "policies", "rate")
    return _given(kind="ensemble", topologies=args.topologies.split(","),
                  policies=args.policies.split(","), strategy=args.strategy,
                  rate=args.rate, frames_per_topology=args.frames_per_topology,
                  n_transitions=args.transitions, segment_len=args.segment_len,
                  n_samples=args.samples, params=_params_doc(args))


def _flag_place(args):
    """Output placement of a flag run: the first output goes to --out,
    every later output `name` to <out>.<name>."""
    out = os.path.join(args.out_dir or "", args.out)
    placed = []

    def place(name):
        path = f"{out}.{name}" if placed else out
        placed.append(path)
        return path

    return place


def _mac_doc(args):
    return _given(kind="mac_replay", coop_trace=args.coop_trace,
                  path_traces=args.path_traces,
                  mac=_given(max_retx_coop=args.max_retx,
                             max_retx_per_link=args.max_retx_per_link))


_FLAG_DOCS = {
    "outage": _outage_doc,
    "run": _run_doc,
    "ensemble": _ensemble_doc,
    "mac": _mac_doc,
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
                raise ValidationError("validate: config path required")
            print(experiments.validate_config(args.config))
            return 0
        if getattr(args, "config", None):
            files = experiments.run_config(args.config, out_dir=args.out_dir,
                                           seed=args.seed, threads=args.threads)
        else:
            files = experiments.run_experiment(
                _FLAG_DOCS[args.command](args), "<flags>", os.getcwd(),
                _flag_place(args), seed=args.seed, threads=args.threads)
        for f in files:
            print(f)
        return 0
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
