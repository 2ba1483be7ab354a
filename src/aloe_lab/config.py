"""INI-style experiment configuration (grammar: README.md, "Config grammar").

Every semantic violation is collected and reported in a single error.
"""

import configparser
import hashlib

from .estimation import EstimatorConfig
from .harness import ExperimentConfig
from .instrument import StoppingSpec
from .linesearch import AloeParams
from .oracles import FirstOracleSpec, ZerothOracleSpec


class ConfigError(ValueError):
    """Parse or validation failure; the message lists every violation."""


_SECTIONS = {
    "problem": {"fixture", "dim", "lambda_min", "lambda_max", "x0_norm",
                "n_samples", "reg", "problem_seed"},
    "oracles": {"kind", "eps_f", "nu", "b", "mode", "mean_error", "eps_g",
                "kappa", "delta", "corruption_scale", "corruption_base",
                "batch_size", "sigma", "num_directions"},
    "algorithm": {"eps_f_input", "alpha0", "alpha_max", "theta", "gamma",
                  "max_iters", "estimate_eps_f", "estimator_n_calls",
                  "estimator_scale", "estimator_period"},
    "stopping": {"class", "eps", "eps1"},
    "experiment": {"trials", "seed", "checkpoints", "s", "p_hat", "eta",
                   "check_admissibility"},
}


def _read_ini(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    return parser


class _Section:
    """Typed accessor over one INI section that accumulates errors."""

    def __init__(self, parser, name, errors):
        self.name = name
        self.raw = dict(parser[name]) if parser.has_section(name) else {}
        self.errors = errors

    def _get(self, key, cast, default):
        if key not in self.raw:
            return default
        text = self.raw[key]
        try:
            return cast(text)
        except ValueError:
            self.errors.append(
                f"[{self.name}] {key} = {text!r}: not a valid {cast.__name__}")
            return default

    def get_float(self, key, default=None):
        return self._get(key, float, default)

    def get_int(self, key, default=None):
        return self._get(key, int, default)

    def get_str(self, key, default=None):
        return self.raw.get(key, default)

    def get_bool(self, key, default=None):
        if key not in self.raw:
            return default
        text = self.raw[key].strip().lower()
        if text in ("true", "yes", "1", "on"):
            return True
        if text in ("false", "no", "0", "off"):
            return False
        self.errors.append(f"[{self.name}] {key} = {self.raw[key]!r}: not a boolean")
        return default

    def get_int_list(self, key, default=()):
        if key not in self.raw:
            return tuple(default)
        try:
            return tuple(int(v) for v in self.raw[key].split(",") if v.strip())
        except ValueError:
            self.errors.append(
                f"[{self.name}] {key} = {self.raw[key]!r}: not a comma-separated int list")
            return tuple(default)


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate an experiment config; an empty file yields the
    documented defaults (exact-oracle quadratic, 100 trials)."""
    parser = _read_ini(path)
    errors: list[str] = []
    for section in parser.sections():
        if section not in _SECTIONS:
            errors.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                errors.append(f"unknown key {key!r} in [{section}]")

    prob = _Section(parser, "problem", errors)
    orac = _Section(parser, "oracles", errors)
    algo = _Section(parser, "algorithm", errors)
    stop = _Section(parser, "stopping", errors)
    expt = _Section(parser, "experiment", errors)

    fixture = prob.get_str("fixture", "quadratic")
    if fixture == "quadratic":
        fixture_params = {
            "dim": prob.get_int("dim", 10),
            "lambda_min": prob.get_float("lambda_min", 0.1),
            "lambda_max": prob.get_float("lambda_max", 10.0),
            "seed": prob.get_int("problem_seed", 0),
        }
        if "x0_norm" in prob.raw:
            fixture_params["x0_norm"] = prob.get_float("x0_norm")
    elif fixture == "logistic":
        fixture_params = {
            "n_samples": prob.get_int("n_samples", 512),
            "dim": prob.get_int("dim", 10),
            "seed": prob.get_int("problem_seed", 0),
            "reg": prob.get_float("reg", 1e-3),
        }
        if not fixture_params["reg"] > 0:
            errors.append("[problem] reg must be positive")
    else:
        errors.append(f"[problem] fixture must be quadratic or logistic, got {fixture!r}")
        fixture, fixture_params = "quadratic", {"dim": 10, "lambda_min": 0.1,
                                                "lambda_max": 10.0, "seed": 0}

    eps_f = orac.get_float("eps_f", 0.0)
    zeroth = _build(errors, "[oracles]", ZerothOracleSpec,
                    eps_f=eps_f, nu=orac.get_float("nu", 0.0),
                    b=orac.get_float("b", 0.0),
                    mode=orac.get_str("mode", "exact"),
                    mean_error=orac.get_float("mean_error"))
    first = _build(errors, "[oracles]", FirstOracleSpec,
                   eps_g=orac.get_float("eps_g", 0.0),
                   kappa=orac.get_float("kappa", 0.0),
                   delta=orac.get_float("delta", 0.0),
                   corruption_scale=orac.get_float("corruption_scale", 10.0),
                   corruption_base=orac.get_float("corruption_base", 10.0))
    kind = orac.get_str("kind", "synthetic")
    oracle_params = {}
    if kind == "minibatch":
        oracle_params["batch_size"] = orac.get_int("batch_size", 128)
    elif kind == "gsg":
        oracle_params["sigma"] = orac.get_float("sigma", 0.1)
        oracle_params["num_directions"] = orac.get_int("num_directions", 64)
    elif kind != "synthetic":
        errors.append(f"[oracles] kind must be synthetic, minibatch or gsg, got {kind!r}")
        kind = "synthetic"
    if kind == "minibatch" and fixture != "logistic":
        errors.append("[oracles] kind = minibatch requires the logistic fixture")

    algo_kwargs = dict(eps_f_input=algo.get_float("eps_f_input", eps_f),
                       alpha0=algo.get_float("alpha0", 1.0),
                       alpha_max=algo.get_float("alpha_max", 10.0),
                       theta=algo.get_float("theta", 0.2),
                       gamma=algo.get_float("gamma", 0.8),
                       max_iters=algo.get_int("max_iters", 1000))
    # pre-check each open-interval constraint so every violation is listed,
    # not just the first one the dataclass validator hits
    for key in ("theta", "gamma"):
        if not 0 < algo_kwargs[key] < 1:
            errors.append(f"[algorithm] {key} must lie in (0, 1)")
    if not 0 < algo_kwargs["alpha0"] < algo_kwargs["alpha_max"]:
        errors.append("[algorithm] need 0 < alpha0 < alpha_max")
    if algo_kwargs["eps_f_input"] < 0:
        errors.append("[algorithm] eps_f_input must be nonnegative")
    if algo_kwargs["max_iters"] < 1:
        errors.append("[algorithm] max_iters must lie in [1, inf)")
    params = None
    if not errors:
        params = _build(errors, "[algorithm]", AloeParams, **algo_kwargs)
    estimate = algo.get_bool("estimate_eps_f", False)
    estimator = _build(errors, "[algorithm]", EstimatorConfig,
                       n_calls=algo.get_int("estimator_n_calls", 30),
                       scale_factor=algo.get_float("estimator_scale", 0.2),
                       refresh_period=algo.get_int("estimator_period", 50))

    stopping = _build(errors, "[stopping]", StoppingSpec,
                      class_tag=stop.get_str("class", "nonconvex"),
                      eps=stop.get_float("eps", 1e-6),
                      eps1=stop.get_float("eps1"))

    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    try:
        return ExperimentConfig(
            fixture=fixture, fixture_params=fixture_params,
            zeroth=zeroth, first=first, params=params, stopping=stopping,
            n_trials=expt.get_int("trials", 100),
            base_seed=expt.get_int("seed", 0),
            oracle_kind=kind, oracle_params=oracle_params,
            t_checkpoints=expt.get_int_list("checkpoints"),
            s=expt.get_float("s", 0.0),
            p_hat=expt.get_float("p_hat"),
            eta=expt.get_float("eta"),
            check_admissibility=expt.get_bool("check_admissibility", True),
            estimate_eps_f=estimate, estimator=estimator,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid config:\n  {exc}") from exc


def _build(errors, where, cls, **kwargs):
    """Construct a validated spec, folding its complaint into the error list."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        errors.append(f"{where} {exc}")
        return None


def config_digest(config: ExperimentConfig) -> str:
    """sha256 over the semantic fields; stable across key ordering and
    formatting of the source file."""
    parts = []
    for name in sorted(config.__dataclass_fields__):
        value = getattr(config, name)
        if isinstance(value, dict):
            value = tuple(sorted(value.items()))
        parts.append(f"{name}={value!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()
