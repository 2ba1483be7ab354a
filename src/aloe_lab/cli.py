"""Command-line front end.

Parses an INI experiment config, runs the Monte Carlo harness, and writes a
self-describing output directory:

    manifest.json   config digest, version, seed, timestamps, file inventory
    constants.txt   derived theory constants (key = value)
    trials.csv      one row per trial (stopping time, flags, lemma verdicts)
    summary.csv     empirical tail vs theoretical bound per checkpoint
    trace.csv       iteration log of the harness's base-seed trial (its
                    row of `linesearch.Paths`)

Exit codes: 0 success, 1 statistical-criterion failure, 2 configuration or
admissibility failure, 3 runtime error.  All CSVs are deterministic given
the config, so a rerun into the same directory is byte-identical.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys
import time

from . import __version__
from .config import ConfigError, config_digest, parse_config
from .harness import (ExperimentConfig, InadmissibleConfigError, TrialSummary,
                      run_trials)
from .instrument import CENSORED
from .linesearch import Paths
from .theory import constants_report

EXIT_OK = 0
EXIT_STATISTICAL = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _write_csv(path: str, header, rows) -> None:
    # csv writes each cell as str(): a float as its shortest repr, which
    # round-trips exactly
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_trials_csv(path: str, summary: TrialSummary) -> None:
    # censored is written from T_eps; tolist() gives Python scalars
    s = summary
    _write_csv(path,
               ["seed", "T_eps", "censored", "frac_true", "frac_success",
                "lemma2_ok", "lemma3_ok", "lemma4_ok"],
               zip(s.seed.tolist(), s.T_eps.tolist(),
                   (s.T_eps == CENSORED).tolist(), s.frac_true.tolist(),
                   s.frac_success.tolist(), s.lemma2_ok.tolist(),
                   s.lemma3_ok.tolist(), s.lemma4_ok.tolist()))


def write_summary_csv(path: str, summary: TrialSummary) -> None:
    rows = [(t, tail, bound, lo, hi)
            for t, tail, bound, (lo, hi)
            in zip(summary.checkpoints, summary.empirical_tails,
                   summary.theory_bounds, summary.wilson_bounds)]
    _write_csv(path, ["t", "empirical_tail", "theory_bound",
                      "wilson_lo", "wilson_hi"], rows)


def write_trace_csv(path: str, paths: Paths) -> None:
    # the one trial of `paths`; tolist() gives Python floats and bools
    p, T = paths, paths.alpha.shape[1]
    _write_csv(path,
               ["k", "alpha", "f_curr", "f_plus", "success", "e_curr",
                "e_plus", "grad_true_norm", "phi_curr", "eps_f"],
               zip(range(T), *(column[0, :T].tolist() for column in (
                   p.alpha, p.f_curr, p.f_plus, p.success, p.e_curr, p.e_plus,
                   p.grad_norm, p.phi, p.eps_f))))


def statistical_failures(summary: TrialSummary) -> list[str]:
    """Hard invariants checked after every run."""
    failures = []
    bad = summary.seed[~summary.lemma_clean].tolist()
    if bad:
        failures.append(f"path lemma violation on seeds {bad}")
    if summary.t_min is not None:
        for t, tail, bound, (lo, hi) in zip(
                summary.checkpoints, summary.empirical_tails,
                summary.theory_bounds, summary.wilson_bounds):
            if t >= summary.t_min and hi < bound:
                failures.append(
                    f"empirical tail {tail} at t={t} below theory bound "
                    f"{bound} beyond the Wilson margin")
    return failures


def run(config_path: str, out_dir: str, seed: int | None = None,
        trials: int | None = None, quiet: bool = False, jobs: int = 1) -> int:
    """Execute one experiment end to end; returns the process exit code."""
    def say(msg):
        if not quiet:
            print(msg)

    try:
        config = parse_config(config_path)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    overrides = {name: value for name, value in
                 (("base_seed", seed), ("n_trials", trials)) if value is not None}
    if overrides:
        try:
            config = dataclasses.replace(config, **overrides)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return EXIT_CONFIG

    started = time.time()
    try:
        summary = run_trials(config, n_jobs=jobs)
    except InadmissibleConfigError as exc:
        print(f"inadmissible configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    try:
        os.makedirs(out_dir, exist_ok=True)
        files = _write_outputs(config, summary, out_dir, started)
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    say(f"{config.n_trials} trials, {summary.n_censored} censored, "
        f"{summary.lemma_pass_count}/{config.n_trials} lemma-clean")
    for t, tail, bound in zip(summary.checkpoints, summary.empirical_tails,
                              summary.theory_bounds):
        say(f"  t={t}: empirical {tail:.4f} vs bound {bound:.4f}")
    say(f"outputs: {', '.join(files)} in {out_dir}")
    if summary.t_min is not None and not summary.checkpoints:
        print(f"no checkpoint fits the budget: t_min = {summary.t_min} > "
              f"max_iters = {config.params.max_iters}; summary.csv has no rows",
              file=sys.stderr)

    failures = statistical_failures(summary)
    if failures:
        print(json.dumps({"failures": failures}), file=sys.stderr)
        return EXIT_STATISTICAL
    return EXIT_OK


def _write_outputs(config: ExperimentConfig, summary: TrialSummary,
                   out_dir: str, started: float) -> list[str]:
    files = ["constants.txt", "trials.csv", "summary.csv", "trace.csv",
             "manifest.json"]
    with open(os.path.join(out_dir, "constants.txt"), "w") as fh:
        fh.write(constants_report(summary.constants))
    write_trials_csv(os.path.join(out_dir, "trials.csv"), summary)
    write_summary_csv(os.path.join(out_dir, "summary.csv"), summary)
    write_trace_csv(os.path.join(out_dir, "trace.csv"), summary.trace)
    manifest = {
        "config_digest": config_digest(config),
        "version": __version__,
        "base_seed": config.base_seed,
        "started_at": started,
        "finished_at": time.time(),
        "files": files,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return files


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aloe-lab",
        description="Stochastic line-search experiment runner.")
    parser.add_argument("--config", required=True, help="INI experiment config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the base seed")
    parser.add_argument("--trials", type=int, default=None,
                        help="override the trial count")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: available parallelism)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    jobs = len(os.sched_getaffinity(0)) if args.jobs is None else args.jobs
    if jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    return run(args.config, args.out, seed=args.seed, trials=args.trials,
               quiet=args.quiet, jobs=jobs)


if __name__ == "__main__":
    sys.exit(main())
