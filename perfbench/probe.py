"""One fresh interpreter per sample: the child process of perfbench/run.py.

    python3 perfbench/probe.py MODE WORKLOAD SEED OUT_DIR [trial0]

MODE is one of
  setup    set the workload up, print READY, exit;
  trials   set up, print READY, then TRIAL_REPEATS times: time
           harness.run_trials(config, n_jobs=1) and write its trials.csv and
           summary.csv into OUT_DIR/rep<i>; with ``trial0`` also
           the trace of the harness's trial 0, untimed (the reference of a
           check of the CLI's trace.csv);
  certify  set up, print READY, time certify_oracles and write its results;
  traced   the traced run: import, set up and run the workload in this one
           process with span wrappers installed, then once more untraced.
The last stdout line is a JSON object with the mode's measurements.
Set-up means: import aloe_lab, parse_config, build_problem, and (trial
workloads) the theory constants and admissibility gate.
"""

import dataclasses
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

T_START = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def set_up(workload, seed):
    """Returns (config, problem, dataset); raises SystemExit if the
    workload's config fails the admissibility gate."""
    from aloe_lab import config as configmod
    from aloe_lab import harness
    config = configmod.parse_config(str(workload.ini))
    if workload.kind == "trials":
        config = dataclasses.replace(config, base_seed=seed)
    problem, dataset = harness.build_problem(config)
    if workload.kind == "trials":
        constants = harness.derive_experiment_constants(config, problem)
        if config.check_admissibility:
            ok, reasons = constants.admissible()
            if not ok:
                raise SystemExit(f"inadmissible workload: {reasons}")
    return config, problem, dataset


def run_trials_timed(config, out: Path) -> float:
    from aloe_lab import cli, harness
    out.mkdir(parents=True, exist_ok=True)
    t = perf_counter()
    summary = harness.run_trials(config, n_jobs=1)
    hot = perf_counter() - t
    cli.write_trials_csv(str(out / "trials.csv"), summary)
    cli.write_summary_csv(str(out / "summary.csv"), summary)
    return hot


def write_trial0_trace(config, problem, dataset, out: Path) -> None:
    """Trace of the harness's trial 0 (base seed), built the way the harness
    builds a trial, including the eps_f controller."""
    from aloe_lab import cli, harness
    from aloe_lab.estimation import EpochEpsFController, EstimatorConfig
    from aloe_lab.linesearch import aloe_run
    zeroth, first = harness.build_oracles(config, problem, dataset)
    controller = None
    if config.estimate_eps_f:
        controller = EpochEpsFController(zeroth, config.estimator or EstimatorConfig())
    trace = aloe_run(problem, zeroth, first, config.params, config.base_seed,
                     eps_f_controller=controller)
    cli.write_trace_csv(str(out / "trial0_trace.csv"), trace)


def probe_points(problem):
    import numpy as np
    c = workloads.CERTIFY
    rng = np.random.default_rng(c["probe_points_seed"])
    offsets = c["probe_radius"] * rng.standard_normal((c["n_probes"], problem.dim))
    return [problem.x0 + o for o in offsets]


def certify_timed(config, problem, dataset, seed, out: Path) -> float:
    from aloe_lab import harness
    c = workloads.CERTIFY
    drawn = dataclasses.replace(
        config, first=dataclasses.replace(config.first, delta=c["draw_delta"]))
    zeroth, first = harness.build_oracles(drawn, problem, dataset)
    points = probe_points(problem)
    t = perf_counter()
    report = harness.certify_oracles(
        problem, zeroth, first, config.zeroth, config.first, points,
        c["alphas"], n_queries=c["n_queries"], base_seed=seed)
    hot = perf_counter() - t
    (out / "certify.json").write_text(json.dumps(
        [[r.description, r.passed, repr(r.statistic), repr(r.threshold)]
         for r in report.results], indent=1) + "\n")
    return hot


def traced(workload, seed, out: Path) -> dict:
    import tracer
    rec = tracer.Recorder()
    rec.wrap("setup.import", importlib.import_module)("aloe_lab")
    import aloe_lab.cli  # noqa: F401  (the CLI module is part of the run)
    import hostspeed
    t = perf_counter()
    hostspeed.warm_up()
    refs = [hostspeed.reference_seconds()]
    own_s = perf_counter() - t  # the benchmark's own time, not the program's
    hooks = tracer.Hooks(rec).install()
    cli_out = out / "cli"
    try:
        if workload.kind == "trials":
            code = aloe_lab.cli.run(str(workload.ini), str(cli_out), seed=seed,
                                    quiet=True, jobs=1)
        else:
            config, problem, dataset = set_up(workload, seed)
            cli_out.mkdir(parents=True, exist_ok=True)
            certify_timed(config, problem, dataset, seed, cli_out)
            code = 0
    finally:
        hooks.uninstall()
    traced_wall = perf_counter() - T_START - own_s
    refs.append(hostspeed.reference_seconds())
    # untraced loop in the same process, fixture already built
    config, problem, dataset = set_up(workload, seed)
    untraced_out = out / "untraced"
    untraced_out.mkdir(parents=True, exist_ok=True)
    if workload.kind == "trials":
        untraced_loop = run_trials_timed(config, untraced_out)
    else:
        untraced_loop = certify_timed(config, problem, dataset, seed, untraced_out)
    refs.append(hostspeed.reference_seconds())
    # the untraced loop at the host speed of the traced section
    untraced_loop *= (hostspeed.slowdown(refs[0], refs[1])
                      / hostspeed.slowdown(refs[1], refs[2]))
    bytes_written = sum(p.stat().st_size for p in cli_out.iterdir())
    metrics, details = tracer.layer_metrics(
        rec, config, workload.kind, traced_wall_s=traced_wall,
        untraced_loop_s=untraced_loop, bytes_written=bytes_written)
    rec.write_csv(out / "spans.csv")
    details.update(exit_code=code, spans=len(rec), missing_hooks=hooks.missing)
    return {"metrics": metrics, "details": details}


def main(argv) -> int:
    mode, name, seed, out = argv[0], argv[1], int(argv[2]), Path(argv[3])
    workload = workloads.WORKLOADS[name]
    out.mkdir(parents=True, exist_ok=True)
    if mode == "traced":
        print(json.dumps(traced(workload, seed, out)))
        return 0
    config, problem, dataset = set_up(workload, seed)
    print("READY", flush=True)
    import hostspeed
    # host-speed references right after set-up and after each hot section,
    # so every timed section is bracketed in time
    hostspeed.warm_up()
    result = {"refs": [hostspeed.reference_seconds()], "hot_s": []}
    if mode == "trials":
        for rep in workloads.trial_repeat_dirs(out):
            result["hot_s"].append(run_trials_timed(config, rep))
            result["refs"].append(hostspeed.reference_seconds())
        result["queries"] = workloads.oracle_queries(config)
        result["iters"] = config.n_trials * config.params.max_iters
        if argv[4:] == ["trial0"]:
            write_trial0_trace(config, problem, dataset,
                               workloads.trial_repeat_dirs(out)[0])
    elif mode == "certify":
        result["hot_s"].append(certify_timed(config, problem, dataset, seed, out))
        result["refs"].append(hostspeed.reference_seconds())
        result["queries"] = workloads.certify_queries()
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    result["working_set_bytes"] = workloads.working_set_bytes(config, workload.kind)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
