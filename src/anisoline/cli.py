"""Command line of the two adaptive loops.

    anisoline fit <model>       fit a generated test point set
    anisoline solve <problem>   solve a built-in Poisson problem

Each command runs one loop and prints its `AdaptiveReport.to_json_dict()`
as JSON on stdout.  Models are those of `fitting.generate_test_model`,
problems those of `problems.BUILTIN_PROBLEMS`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .fitting import FitConfig, fit_surface, generate_test_model
from .problems import make_problem
from .solver import SolveConfig, adaptive_solve

__all__ = ["main"]


def _parser():
    parser = argparse.ArgumentParser(prog="anisoline", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    fit = commands.add_parser("fit", help="fit a generated test point set")
    fit.add_argument("model", help="cone, paraboloid or bernstein_sum")
    fit.add_argument("--max-levels", type=int, default=FitConfig.max_levels)
    solve = commands.add_parser("solve", help="solve a built-in Poisson problem")
    solve.add_argument("problem", help="patch_linear, square_sin or lshape")
    solve.add_argument("--max-levels", type=int, default=SolveConfig.max_levels)
    return parser


def main(argv=None):
    """Runs one command; returns the exit status."""
    parser = _parser()
    args = parser.parse_args(argv)
    if args.max_levels < 0:
        parser.error("--max-levels must be nonnegative")
    try:                    # an unknown name is a usage error
        inputs = (generate_test_model(args.model) if args.command == "fit"
                  else make_problem(args.problem))
    except (KeyError, ValueError) as exc:
        parser.error(exc.args[0])
    if args.command == "fit":
        _, report = fit_surface(inputs, FitConfig(max_levels=args.max_levels))
    else:
        _, report = adaptive_solve(*inputs, SolveConfig(max_levels=args.max_levels))
    json.dump(report.to_json_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
