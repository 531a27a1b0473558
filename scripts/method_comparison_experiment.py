#!/usr/bin/env python3
"""Side-by-side method panels for one dataset, plus a censoring stress run.

Produces three comparison figures in the output directory:

  main_grid.svg       log-rank vs modest weighting vs milestone analyses
                      under KM, exponential and piecewise-exponential fits
  fh_grid.svg         Fleming-Harrington weights across (rho, gamma)
  censored_grid.svg   selected methods re-run after injecting uniform
                      censoring, to show how early censoring moves weight
                      onto late events for KM-anchored tests

Each SVG gets a sibling CSV of the plotted values.  Every grid is tried, so a
grid that fails (one error line) leaves the others drawn; the exit code is
the first nonzero one.
"""

import argparse
from pathlib import Path

from survscore.cli import main as survscore_main

MAIN_GRID = [
    "logrank",
    "mw:sstar=0.5",
    "rmst:tau=18",
    "milestone:kappa=18",
    "milestone:kappa=18,backend=exp",
    "milestone:kappa=18,backend=pwexp,breakpoints=2:4:6:8",
]
FH_GRID = [
    "fh:rho=0,gamma=1",
    "fh:rho=1,gamma=1",
    "fh:rho=0,gamma=2",
    "fh:rho=1,gamma=0",
]
CENSORED_GRID = [
    "logrank",
    "mw:sstar=0.5",
    "milestone:kappa=18",
    "milestone:kappa=18,backend=exp",
]


def compare(input_path, specs, output, columns=3):
    """Draw one grid; returns the CLI's exit code."""
    argv = ["compare", "--input", str(input_path), "--output", str(output),
            "--columns", str(columns)]
    for spec in specs:
        argv += ["--spec", spec]
    code = survscore_main(argv)
    if code == 0:
        print(f"wrote {output}")
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", required=True, help="time,arm,event CSV")
    parser.add_argument("--output-dir", default="comparison_output")
    parser.add_argument("--censor-max", type=float, default=26.0,
                        help="uniform censoring bound for the stress run (default: 26)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    censored_csv = out / "censored_input.csv"
    # every grid is tried, the censored one if its input was written; the first nonzero
    # code is returned
    codes = [
        compare(args.input, MAIN_GRID, out / "main_grid.svg"),
        compare(args.input, FH_GRID, out / "fh_grid.svg", columns=2),
        survscore_main([
            "censor", "--input", args.input, "--output", str(censored_csv),
            "--max", str(args.censor_max), "--seed", str(args.seed),
        ]) or compare(censored_csv, CENSORED_GRID, out / "censored_grid.svg", columns=2),
    ]
    return next((code for code in codes if code), 0)


if __name__ == "__main__":
    raise SystemExit(main())
