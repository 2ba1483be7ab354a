"""INI-style experiment configuration (grammar: README.md, "Config grammar").

Each key is a field of `ExperimentConfig` or of one of its parts (the
fixture and oracle-kind specs for the params dicts) and takes the field's
name and type: `_KEYS` is derived from the dataclasses at import.  Only
each field's section and nine names are the parser's own (`_SECTIONS`,
`_RENAMED`: problem_seed, kind, class, trials, seed, checkpoints,
estimator_n_calls, estimator_scale, estimator_period).  The parser only
reads and casts: it hands each part only the keys the file sets, so the
parts' defaults and checks are the only ones, and defaults only
`eps_f_input`, to `[oracles] eps_f`.  Every semantic violation is
collected and reported in a single error.
"""

import configparser
import dataclasses
import hashlib
import math
import typing
from collections import defaultdict

from .harness import FIXTURES, ORACLE_KINDS, ExperimentConfig, params_readers
from .oracles import ZerothOracleSpec


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

# The section of each field of ExperimentConfig, its own or a part's, in the
# order the parts' errors are listed; any other field is in [experiment].
_SECTIONS = {"fixture": "problem", "fixture_params": "problem",
             "oracle_kind": "oracles", "oracle_params": "oracles",
             "zeroth": "oracles", "first": "oracles", "params": "algorithm",
             "estimate_eps_f": "algorithm", "estimator": "algorithm",
             "stopping": "stopping"}
# The keys not named after their field; a key is the field's name otherwise.
_RENAMED = {"fixture_params.seed": "problem_seed", "oracle_kind": "kind",
            "stopping.class_tag": "class", "n_trials": "trials",
            "base_seed": "seed", "t_checkpoints": "checkpoints",
            "estimator.n_calls": "estimator_n_calls",
            "estimator.scale_factor": "estimator_scale",
            "estimator.refresh_period": "estimator_period"}
# a params dict is read by the spec its fixture or oracle kind names
# (`harness.params_readers`), so it has the fields of every such spec
_SPECS = {"fixture_params": FIXTURES.values(),
          "oracle_params": ORACLE_KINDS.values()}
_CASTS = {float: _float, int: int, bool: _bool, str: str, tuple: _ints}


def _cast(annotation):
    """The cast of a field's type; `X | None` is read as X."""
    kinds = [t for t in typing.get_args(annotation) if t is not type(None)]
    return _CASTS[kinds[0] if kinds else annotation]


def _key_table() -> tuple[dict, tuple]:
    """`_KEYS`, {section: {ini_key: (cast, field)}}, where a field is one of
    ExperimentConfig or `part.name` for a field of one of its parts, and
    `_PARTS`, (part, its dataclass or None for a params dict, "[section]")."""
    keys, parts = {}, {}
    for top in dataclasses.fields(ExperimentConfig):
        section = _SECTIONS.get(top.name, "experiment")
        named = [(top.name, top)]
        if top.name in _SPECS or dataclasses.is_dataclass(top.type):
            cls = None if top.name in _SPECS else top.type
            parts[top.name] = (top.name, cls, f"[{section}]")
            named = [(f"{top.name}.{f.name}", f)
                     for spec in _SPECS.get(top.name, [cls])
                     for f in dataclasses.fields(spec)]
        for field, f in named:
            keys.setdefault(section, {})[_RENAMED.get(field, f.name)] = (
                _cast(f.type), field)
    return keys, tuple(parts[p] for p in _SECTIONS if p in parts)


_KEYS, _PARTS = _key_table()


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
