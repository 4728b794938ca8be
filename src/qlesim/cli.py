"""Command line interface: one subcommand per scenario plus config-file runs.

Failures exit nonzero and print a machine-readable error JSON on stderr.
"""

import argparse
import json
import sys

from . import __version__
from .config import default_config, load_config
from .errors import ConfigError, QleError
from .runner import DEFAULT_OUT_DIR_ENV, SCENARIOS, run_scenario


def _add_common_flags(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (overrides the config)")
    parser.add_argument("--out-dir", default=None,
                        help=f"output directory (default: config, then ${DEFAULT_OUT_DIR_ENV})")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; every run is serial (at least 1)")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="table output format (default: config, csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlesim",
        description="Quantum-logic-enhanced NV-ensemble sensing simulator")
    parser.add_argument("--version", action="version", version=f"qlesim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario from a config file")
    run.add_argument("config", help="path to a YAML/JSON config document")
    _add_common_flags(run)

    for name, scenario in SCENARIOS.items():
        each = sub.add_parser(name.replace("_", "-"), help=scenario.run.__doc__)
        _add_common_flags(each)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
        else:
            config = default_config(args.command.replace("-", "_"))
        if args.seed is not None:
            config.seed = args.seed
        if args.format is not None:
            config.file_format = args.format
        manifest = run_scenario(config, out_dir=args.out_dir, threads=args.threads)
    except ConfigError as exc:
        _emit_error(exc)
        return 2
    except (QleError, OSError) as exc:
        _emit_error(exc)
        return 1
    names = ", ".join(entry["name"] for entry in manifest.files)
    print(f"{manifest.scenario}: wrote {len(manifest.files)} file(s) [{names}] "
          f"in {manifest.wall_clock_s:.2f} s")
    return 0


def _emit_error(exc):
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
