"""Span tracing from outside the program.

The benchmark wraps public entry points of each aloe_lab module (nothing in
``src/`` changes).  Every wrapped call records one span: name, start, end,
parent span and trial id.  Spans stay in memory, in flat arrays, and are
written out once the traced run ends.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

import csv
import dataclasses
import statistics
from array import array
from collections import Counter
from time import perf_counter

# Per-layer metrics: (name, unit, better).  BENCHMARK.json lists the same.
PER_LAYER = [
    ("setup.import_s", "s", "lower"),
    ("config.parse_s", "s", "lower"),
    ("theory.constants_s", "s", "lower"),
    ("problems.fixture_build_s", "s", "lower"),
    ("rng.streams", "count", "lower"),
    ("rng.self_s", "s", "lower"),
    ("rng.us_per_iter", "us", "lower"),
    ("rng.loop_share", "ratio", "lower"),
    ("problems.value_calls", "count", "lower"),
    ("problems.value_calls.in_linesearch", "count", "lower"),
    ("problems.value_calls.in_oracles", "count", "lower"),
    ("problems.value_calls.in_estimation", "count", "lower"),
    ("problems.value_calls.in_instrument", "count", "lower"),
    ("problems.grad_calls", "count", "lower"),
    ("problems.grad_calls.in_linesearch", "count", "lower"),
    ("problems.grad_calls.in_oracles", "count", "lower"),
    ("problems.grad_calls.in_estimation", "count", "lower"),
    ("problems.grad_calls.in_instrument", "count", "lower"),
    ("problems.self_s", "s", "lower"),
    ("problems.rows_touched", "count", "lower"),
    ("problems.loop_share", "ratio", "lower"),
    ("oracles.zeroth_calls", "count", "lower"),
    ("oracles.first_calls", "count", "lower"),
    ("oracles.self_s", "s", "lower"),
    ("oracles.batch_rows", "count", "lower"),
    ("oracles.gsg_directions", "count", "lower"),
    ("oracles.loop_share", "ratio", "lower"),
    ("linesearch.iters", "count", "higher"),
    ("linesearch.self_s", "s", "lower"),
    ("linesearch.us_per_iter", "us", "lower"),
    ("linesearch.accept_ratio", "ratio", "higher"),
    ("linesearch.loop_share", "ratio", "lower"),
    ("estimation.refreshes", "count", "lower"),
    ("estimation.zeroth_calls", "count", "lower"),
    ("estimation.self_s", "s", "lower"),
    ("estimation.loop_share", "ratio", "lower"),
    ("instrument.paths", "count", "higher"),
    ("instrument.self_s", "s", "lower"),
    ("instrument.lemma_clean_ratio", "ratio", "higher"),
    ("instrument.loop_share", "ratio", "lower"),
    ("harness.trial_ms", "ms", "lower"),
    ("harness.aggregate_s", "s", "lower"),
    ("harness.certify_s", "s", "lower"),
    ("harness.certify_queries", "count", "higher"),
    ("harness.certify_pass_ratio", "ratio", "higher"),
    ("harness.mgf_s", "s", "lower"),
    ("cli.trace_rerun_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("unattributed_s", "s", "lower"),
]

# Spans that make up the measured loop: one trial is its line-search run
# plus its path report; certification is one certify_oracles call.
LOOP_ROOTS = ("linesearch.run", "instrument.path_report", "harness.certify")
LOOP_LAYERS = ("rng", "problems", "oracles", "linesearch", "estimation",
               "instrument")
# A ground-truth call is charged to the highest-ranked layer above it:
# estimation and instrument outrank oracles, because the oracle queries
# they make exist only to serve them.
CALLER_RANK = {"linesearch": 1, "oracles": 2, "instrument": 3, "estimation": 4}


class Recorder:
    """In-memory span store; one instance per traced run, single thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trial = array("q")
        self._stack = [-1]
        self.trial_id = -1
        self.counters: Counter = Counter()

    def __len__(self):
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_exit=None):
        """Return fn wrapped in a span; on_exit(result) may count."""
        nid = self._intern(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.trial.append(self.trial_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if on_exit is not None:
                on_exit(result)
            return result

        return traced

    def span_names(self) -> list[str]:
        return [self.names[i] for i in self.name_id]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start", "end", "parent", "trial"])
            for i, name in enumerate(self.span_names()):
                w.writerow([i, name, repr(self.start[i]), repr(self.end[i]),
                            self.parent[i], self.trial[i]])


def union_length(intervals) -> float:
    """Total length covered by a set of (lo, hi) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    each child clipped to the parent's interval.  Children may overlap."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        clipped = [(max(start[k], start[p]), min(end[k], end[p])) for k in kids]
        out[p] -= union_length((lo, hi) for lo, hi in clipped if hi > lo)
    return out


class Hooks:
    """Installs span wrappers on aloe_lab's public entry points and puts
    every patched attribute back on uninstall.  An entry point that no
    longer exists is listed in `missing` instead of failing the run."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._saved = []
        self.missing: list[str] = []
        self._problems = {}  # id(problem) -> (problem, traced copy)

    def _patch(self, owner, attr, name, on_exit=None, factory=None):
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        wrapped = self.rec.wrap(name, original, on_exit)
        setattr(owner, attr, factory(wrapped) if factory else wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap_problem(self, built):
        problem, dataset = built
        key = id(problem)
        if key not in self._problems:
            self._problems[key] = (problem, dataclasses.replace(
                problem,
                value_fn=self.rec.wrap("problems.value", problem.value_fn),
                grad_fn=self.rec.wrap("problems.grad", problem.grad_fn)))
        return self._problems[key][1], dataset

    def _wrap_oracles(self, built):
        zeroth, first = built
        traced_zeroth = self.rec.wrap("oracles.zeroth", zeroth)
        if hasattr(first, "zeroth_oracle"):
            # GSG builds its gradient from zeroth-order queries: route them
            # through the traced zeroth oracle so they are counted
            first.zeroth_oracle = traced_zeroth
        return traced_zeroth, self.rec.wrap("oracles.first", first)

    def install(self) -> "Hooks":
        from aloe_lab import (cli, config, estimation, harness, rng,
                              theory)
        rec = self.rec

        def build_problem_factory(wrapped):
            return lambda cfg: self._wrap_problem(wrapped(cfg))

        def build_oracles_factory(wrapped):
            return lambda *a: self._wrap_oracles(wrapped(*a))

        def in_trial(seed_of):
            """Spans inside the wrapped call carry the trial's seed."""
            def factory(wrapped):
                def call(*a, **kw):
                    rec.trial_id = seed_of(*a)
                    try:
                        return wrapped(*a, **kw)
                    finally:
                        rec.trial_id = -1
                return call
            return factory

        def count_trace(trace):
            rec.counters["linesearch.iters"] += len(trace.records)
            rec.counters["linesearch.accepts"] += int(trace.successes().sum())

        def count_report(report):
            rec.counters["instrument.paths"] += 1
            rec.counters["instrument.clean"] += int(report.all_lemmas_ok)

        def count_certify(report):
            rec.counters["certify.results"] += len(report.results)
            rec.counters["certify.passed"] += sum(r.passed for r in report.results)

        self._patch(rng.TrialStreams, "stream", "rng.stream")
        self._patch(rng, "probe_rng", "rng.probe")
        self._patch(cli, "parse_config", "config.parse")
        self._patch(config, "parse_config", "config.parse")
        for mod in (harness, cli):
            self._patch(mod, "build_problem", "problems.build",
                        factory=build_problem_factory)
            self._patch(mod, "build_oracles", "oracles.build",
                        factory=build_oracles_factory)
        self._patch(harness, "derive_experiment_constants", "theory.constants")
        self._patch(theory.TheoryConstants, "admissible", "theory.gate")
        # aloe_run(problem, zeroth, first, params, seed, ...)
        self._patch(harness, "aloe_run", "linesearch.run", count_trace,
                    factory=in_trial(lambda *a: a[4]))
        self._patch(harness, "compute_path_report", "instrument.path_report",
                    count_report, factory=in_trial(lambda trace, *a: trace.seed))
        self._patch(estimation.EpochEpsFController, "__call__",
                    "estimation.controller")
        self._patch(estimation, "estimate_eps_f", "estimation.estimate")
        self._patch(harness, "mgf_envelope_ok", "harness.mgf")
        self._patch(harness, "certify_oracles", "harness.certify",
                    count_certify)
        self._patch(cli, "run_trials", "harness.run_trials")
        self._patch(cli, "aloe_run", "cli.trace_rerun")
        for writer in ("write_trials_csv", "write_summary_csv",
                       "write_trace_csv"):
            self._patch(cli, writer, "cli.write_csv")
        self._patch(cli, "_write_outputs", "cli.write_outputs")
        self._patch(cli, "run", "cli.run")
        return self


def layer_metrics(rec: Recorder, config, kind: str, *, traced_wall_s: float,
                  untraced_loop_s: float, bytes_written: int = 0):
    """Derive every PER_LAYER metric from the recorded spans.  Returns the
    metrics and a dict of details (loop time, per-trial times, self time of
    every layer over the whole run)."""
    names = rec.span_names()
    layer = [nm.split(".", 1)[0] for nm in names]
    st, en, par, trial = rec.start, rec.end, rec.parent, rec.trial
    selfs = self_times(st, en, par)
    n = len(names)
    by_name: dict[str, list[int]] = {}
    for i, nm in enumerate(names):
        by_name.setdefault(nm, []).append(i)

    # one pass in index order: parents are recorded before their children
    in_loop = [False] * n
    caller = [None] * n
    for i in range(n):
        p = par[i]
        up_caller = caller[p] if p >= 0 else None
        in_loop[i] = (p >= 0 and in_loop[p]) or (
            names[i] in LOOP_ROOTS
            and (trial[i] >= 0 or names[i] == "harness.certify"))
        rank = CALLER_RANK.get(layer[i], 0)
        caller[i] = layer[i] if rank > CALLER_RANK.get(up_caller, 0) else up_caller

    def total(name):
        return sum(en[i] - st[i] for i in by_name.get(name, ()))

    def loop_count(name, who=None):
        return sum(1 for i in by_name.get(name, ())
                   if in_loop[i] and (who is None or caller[i] == who))

    loop_roots = [i for i in range(n)
                  if in_loop[i] and (par[i] < 0 or not in_loop[par[i]])]
    loop_s = sum(en[i] - st[i] for i in loop_roots)
    loop_self, all_self = Counter(), Counter()
    for i in range(n):
        all_self[layer[i]] += selfs[i]
        if in_loop[i]:
            loop_self[layer[i]] += selfs[i]

    c = rec.counters
    iters = c["linesearch.iters"]
    oracle_params = config.oracle_params
    m = {}
    m["setup.import_s"] = total("setup.import")
    m["config.parse_s"] = total("config.parse")
    m["theory.constants_s"] = total("theory.constants") + total("theory.gate")
    builds = [en[i] - st[i] for i in by_name.get("problems.build", ())]
    m["problems.fixture_build_s"] = max(builds, default=0.0)
    m["rng.streams"] = loop_count("rng.stream") + loop_count("rng.probe")
    m["rng.self_s"] = loop_self["rng"]
    for kind_, span in (("value", "problems.value"), ("grad", "problems.grad")):
        m[f"problems.{kind_}_calls"] = loop_count(span)
        for who in ("linesearch", "oracles", "estimation", "instrument"):
            m[f"problems.{kind_}_calls.in_{who}"] = loop_count(span, who)
    m["problems.self_s"] = loop_self["problems"]
    n_samples = (config.fixture_params["n_samples"]
                 if config.fixture == "logistic" else 0)
    m["problems.rows_touched"] = n_samples * (
        m["problems.value_calls"] + m["problems.grad_calls"])
    m["oracles.zeroth_calls"] = loop_count("oracles.zeroth")
    m["oracles.first_calls"] = loop_count("oracles.first")
    m["oracles.self_s"] = loop_self["oracles"]
    m["oracles.batch_rows"] = oracle_params.get("batch_size", 0) * (
        m["oracles.zeroth_calls"] + m["oracles.first_calls"])
    m["oracles.gsg_directions"] = (oracle_params.get("num_directions", 0)
                                   * m["oracles.first_calls"])
    m["linesearch.iters"] = iters
    m["linesearch.self_s"] = loop_self["linesearch"]
    m["linesearch.accept_ratio"] = c["linesearch.accepts"] / iters if iters else 0.0
    m["estimation.refreshes"] = loop_count("estimation.estimate")
    m["estimation.zeroth_calls"] = loop_count("oracles.zeroth", "estimation")
    m["estimation.self_s"] = loop_self["estimation"]
    paths = c["instrument.paths"]
    m["instrument.paths"] = paths
    m["instrument.self_s"] = loop_self["instrument"]
    m["instrument.lemma_clean_ratio"] = c["instrument.clean"] / paths if paths else 0.0
    for name in ("rng", "linesearch"):
        m[f"{name}.us_per_iter"] = 1e6 * loop_self[name] / iters if iters else 0.0
    for name in LOOP_LAYERS:
        m[f"{name}.loop_share"] = loop_self[name] / loop_s if loop_s else 0.0

    per_trial = Counter()
    for i in loop_roots:
        if trial[i] >= 0:
            per_trial[trial[i]] += en[i] - st[i]
    m["harness.trial_ms"] = (1e3 * statistics.median(per_trial.values())
                             if per_trial else 0.0)
    m["harness.aggregate_s"] = sum(selfs[i] for i in by_name.get("harness.run_trials", ()))
    m["harness.certify_s"] = total("harness.certify")
    m["harness.certify_queries"] = (
        loop_count("oracles.zeroth") + loop_count("oracles.first")
        if kind == "certify" else 0)
    results = c["certify.results"]
    m["harness.certify_pass_ratio"] = c["certify.passed"] / results if results else 0.0
    m["harness.mgf_s"] = total("harness.mgf")
    m["cli.trace_rerun_s"] = total("cli.trace_rerun")
    m["cli.write_s"] = total("cli.write_outputs") - m["cli.trace_rerun_s"]
    m["cli.bytes_written"] = bytes_written

    # traced loop without the fixture build, as in the untraced measurement
    traced_loop = (m["harness.certify_s"] if kind == "certify"
                   else total("harness.run_trials") - sum(builds))
    m["trace.overhead_frac"] = traced_loop / untraced_loop_s - 1.0
    roots = [(st[i], en[i]) for i in range(n) if par[i] < 0]
    m["unattributed_s"] = traced_wall_s - union_length(roots)
    details = {"loop_s": loop_s, "traced_loop_s": traced_loop,
               "untraced_loop_s": untraced_loop_s,
               "per_trial_ms": sorted(1e3 * v for v in per_trial.values()),
               "layer_self_s": dict(all_self)}
    return m, details
