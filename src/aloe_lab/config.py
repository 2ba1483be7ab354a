"""INI-style experiment configuration (grammar: README.md, "Config grammar").

`_KEYS` maps each section's keys to a cast and the field they set: a field
of `ExperimentConfig`, or `part.name` for a field of one of its parts.  The
parser only reads and casts: it hands each part only the keys the file
sets, so the parts' defaults and checks are the only ones, and defaults
only `eps_f_input`, to `[oracles] eps_f`.  Every semantic violation is
collected and reported in a single error.
"""

import configparser
import hashlib
import math
from collections import defaultdict

from .estimation import EstimatorConfig
from .harness import ExperimentConfig, params_readers
from .instrument import StoppingSpec
from .linesearch import AloeParams
from .oracles import FirstOracleSpec, ZerothOracleSpec


class ConfigError(ValueError):
    """Parse or validation failure; the message lists every violation."""


def _float(text: str) -> float:
    """A finite float: nan and inf are refused here, once for every key."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _bool(text: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _ints(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip())


_EXPECTED = {_float: "a valid float", int: "a valid int", _bool: "a boolean",
             _ints: "a comma-separated int list"}

_KEYS = {
    "problem": {
        "fixture": (str, "fixture"), "dim": (int, "fixture_params.dim"),
        "lambda_min": (_float, "fixture_params.lambda_min"),
        "lambda_max": (_float, "fixture_params.lambda_max"),
        "x0_norm": (_float, "fixture_params.x0_norm"),
        "n_samples": (int, "fixture_params.n_samples"),
        "reg": (_float, "fixture_params.reg"),
        "problem_seed": (int, "fixture_params.seed"),
    },
    "oracles": {
        "kind": (str, "oracle_kind"), "eps_f": (_float, "zeroth.eps_f"),
        "nu": (_float, "zeroth.nu"), "b": (_float, "zeroth.b"),
        "mode": (str, "zeroth.mode"),
        "mean_error": (_float, "zeroth.mean_error"),
        "eps_g": (_float, "first.eps_g"), "kappa": (_float, "first.kappa"),
        "delta": (_float, "first.delta"),
        "corruption_scale": (_float, "first.corruption_scale"),
        "corruption_base": (_float, "first.corruption_base"),
        "batch_size": (int, "oracle_params.batch_size"),
        "sigma": (_float, "oracle_params.sigma"),
        "num_directions": (int, "oracle_params.num_directions"),
    },
    "algorithm": {
        "eps_f_input": (_float, "params.eps_f_input"),
        "alpha0": (_float, "params.alpha0"),
        "alpha_max": (_float, "params.alpha_max"),
        "theta": (_float, "params.theta"), "gamma": (_float, "params.gamma"),
        "max_iters": (int, "params.max_iters"),
        "estimate_eps_f": (_bool, "estimate_eps_f"),
        "estimator_n_calls": (int, "estimator.n_calls"),
        "estimator_scale": (_float, "estimator.scale_factor"),
        "estimator_period": (int, "estimator.refresh_period"),
    },
    "stopping": {"class": (str, "stopping.class_tag"),
                 "eps": (_float, "stopping.eps"),
                 "eps1": (_float, "stopping.eps1")},
    "experiment": {
        "trials": (int, "n_trials"), "seed": (int, "base_seed"),
        "checkpoints": (_ints, "t_checkpoints"), "s": (_float, "s"),
        "p_hat": (_float, "p_hat"), "eta": (_float, "eta"),
        "check_admissibility": (_bool, "check_admissibility"),
    },
}

# The parts of ExperimentConfig and their sections; a params dict is read by
# the spec its fixture or oracle kind names (`harness.params_readers`).
_PARTS = (("fixture_params", None, "[problem]"),
          ("oracle_params", None, "[oracles]"),
          ("zeroth", ZerothOracleSpec, "[oracles]"),
          ("first", FirstOracleSpec, "[oracles]"),
          ("params", AloeParams, "[algorithm]"),
          ("estimator", EstimatorConfig, "[algorithm]"),
          ("stopping", StoppingSpec, "[stopping]"))


def _read_ini(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)   # a value is its text
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    return parser


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate an experiment config; an empty file yields the
    documented defaults (exact-oracle quadratic, 100 trials)."""
    parser = _read_ini(path)
    errors: list[str] = []
    parts = defaultdict(dict)   # "" holds ExperimentConfig's own fields
    for section in parser.sections():
        if section not in _KEYS:
            errors.append(f"unknown section [{section}]")
            continue
        for key, text in parser[section].items():
            if key not in _KEYS[section]:
                errors.append(f"unknown key {key!r} in [{section}]")
                continue
            cast, field = _KEYS[section][key]
            try:
                value = cast(text)
            except (KeyError, ValueError):   # KeyError: not a boolean
                errors.append(f"[{section}] {key} = {text!r}: "
                              f"not {_EXPECTED[cast]}")
                continue
            part, _, name = field.rpartition(".")
            parts[part][name] = value

    top = parts[""]
    parts["params"].setdefault(
        "eps_f_input", parts["zeroth"].get("eps_f", ZerothOracleSpec.eps_f))
    readers = params_readers(
        top.get("fixture", ExperimentConfig.fixture),
        top.get("oracle_kind", ExperimentConfig.oracle_kind))
    for part, cls, where in _PARTS:
        try:
            top[part] = readers.get(part, cls)(**parts[part])
        except ValueError as exc:
            errors.append(f"{where} {exc}")
    if not errors:
        try:
            return ExperimentConfig(**top)
        except ValueError as exc:
            errors.append(str(exc))
    raise ConfigError("invalid config:\n  " + "\n  ".join(errors))


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
