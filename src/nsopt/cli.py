"""Command-line entry point for the experiment harness.

Subcommands:

* ``run <config>``: execute every configured run, writing per-run CSVs and
  the aggregate CSV.
* ``sweep <config>``: same as ``run``, then fit complexity slopes on every
  oracle metric and print the report.
* ``reference <config>``: compute the reference optimum of the configured
  problem and print it as JSON.
* ``slopes <aggregate.csv> --metric po|lmo|fo|sfo``: fit slopes from an
  existing aggregate file.

Exit code 0 on success; on failure, one machine-readable line
``error: <kind>: <message>`` goes to stderr and the exit code is nonzero.
The ``NSOPT_OUTPUT_DIR`` environment variable overrides the configured
output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import ConfigError, FormatError, NumericalError
from .harness import (
    METRIC_COLUMNS,
    build_problem,
    fit_slopes_from_csv,
    load_config,
    reference_optimum,
    run_experiment,
)


def _print_slope_report(metric: str, fits: dict) -> None:
    for label, entry in sorted(fits.items()):
        if entry.unused:
            print(f"{metric}\t{label}\tmetric unused")
        elif math.isnan(entry.slope):
            print(f"{metric}\t{label}\tslope=nan "
                  "(fewer than 3 accuracies reached at a positive count)")
        else:
            pts = ", ".join(f"{eps:g}:{calls:g}" for eps, calls in sorted(entry.points.items()))
            print(f"{metric}\t{label}\tslope={entry.slope:.4f}\t"
                  f"residual={entry.residual:.2e}\tcalls[{pts}]")
        for eps, count in entry.excluded.items():
            if count is None:  # what the run spent bounds the count to reach eps
                reason = f"never reached; ≥ {entry.spent[eps]:.15g} calls"
            else:
                reason = f"reached at {count:g} calls"
            print(f"{metric}\t{label}\texcluded eps={eps:g} ({reason})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="nsopt",
                                     description="Oracle-complexity experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute all configured runs")
    p_run.add_argument("config")
    p_sweep = sub.add_parser("sweep", help="run, then fit slopes for every metric")
    p_sweep.add_argument("config")
    p_ref = sub.add_parser("reference", help="compute the reference optimum")
    p_ref.add_argument("config")
    p_slopes = sub.add_parser("slopes", help="fit slopes from an aggregate CSV")
    p_slopes.add_argument("aggregate")
    p_slopes.add_argument("--metric", required=True, choices=sorted(METRIC_COLUMNS))
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            manifest = run_experiment(load_config(args.config))
            print(json.dumps(manifest))
        elif args.command == "sweep":
            manifest = run_experiment(load_config(args.config))
            agg = manifest["files"][-1]
            for metric, fits in fit_slopes_from_csv(agg, sorted(METRIC_COLUMNS)).items():
                _print_slope_report(metric, fits)
            print(json.dumps({"files": manifest["files"], "failed": manifest["failed"]}))
        elif args.command == "reference":
            cfg = load_config(args.config)
            problem, descriptor, _ = build_problem(cfg.problem)
            f_star, x_star = reference_optimum(problem, descriptor, cfg.reference_budget)
            print(json.dumps({"reference_value": f_star,
                              "point": [float(v) for v in x_star]}))
        else:
            fits = fit_slopes_from_csv(args.aggregate, [args.metric])[args.metric]
            _print_slope_report(args.metric, fits)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"error: format: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
