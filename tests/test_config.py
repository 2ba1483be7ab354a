"""The INI key table: what each file parses to, which configs it refuses,
that a config built in code takes the same defaults and checks, and that
the README grammar names exactly the keys the parser reads."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aloe_lab.cli import EXIT_CONFIG, run
from aloe_lab.config import (ConfigError, _bool, _float, _ints, _KEYS, _PARTS,
                             config_digest, parse_config)
from aloe_lab.harness import (FIXTURES, ORACLE_KINDS, ExperimentConfig,
                              run_trials)
from aloe_lab.linesearch import AloeParams
from aloe_lab.oracles import ZEROTH_MODES, ZerothOracleSpec
from aloe_lab.problems import CLASS_TAGS

ROOT = Path(__file__).resolve().parents[1]

MADE_UP = {
    "empty": "",
    "logistic": """
[problem]
fixture = logistic
n_samples = 64
dim = 3
reg = 0.05
problem_seed = 2

[oracles]
eps_f = 0.01
mode = bounded
eps_g = 0.1
kappa = 0.5
delta = 0.2

[stopping]
class = strongly_convex
eps = 0.01
""",
    "gsg": """
[oracles]
kind = gsg
sigma = 0.02
eps_f = 0.001
mode = bounded

[algorithm]
alpha_max = 1.25
max_iters = 30
""",
    "minibatch": """
[problem]
fixture = logistic
dim = 4

[oracles]
kind = minibatch
eps_f = 0.01
mode = bounded

[experiment]
trials = 9
""",
    "estimator": """
[oracles]
eps_f = 0.002
mode = bounded

[algorithm]
eps_f_input = 0.003
estimate_eps_f = yes
estimator_n_calls = 10
estimator_scale = 0.5
estimator_period = 7
""",
    "convex": """
[problem]
dim = 5
lambda_min = 0.5
lambda_max = 2.0
x0_norm = 3.0
problem_seed = 4

[oracles]
eps_f = 0.1
nu = 0.05
b = 0.02
mode = subexponential
mean_error = 0.04
eps_g = 0.01
kappa = 1.0
delta = 0.05
corruption_scale = 4.0
corruption_base = 2.5

[algorithm]
alpha0 = 0.5
alpha_max = 2.0
theta = 0.3
gamma = 0.7
max_iters = 60

[stopping]
class = convex
eps = 0.1
eps1 = 0.01

[experiment]
trials = 7
seed = 3
checkpoints = 10, 20
s = 0.25
p_hat = 0.7
eta = 0.3
check_admissibility = off
""",
}

# config_digest of each INI as the parser before the key table read it
# (tail_validation.ini, added later, as the parser reads it now)
DIGESTS = {
    "demos/configs/bounded_noise.ini": "12dfbf99bd16fa771e580f0f4b4fea07ecc4289a33c375f27d3aac9c556158c8",
    "demos/configs/smoke.ini": "bca00bf0e4cb9351c48e294b0e01e91dab4b526cd27ac23ccb59208ebb50a1bc",
    "demos/configs/tail_validation.ini": "b2daac64d804a712ff16da197367dd445bda1dcefa6f4e2ece51a959c8ba1943",
    "perfbench/workloads/certify_synthetic.ini": "326d496eae58e84aecc3077f2f5ccf9408cd05a61ccb20a9d4f99b6e2c3f851d",
    "perfbench/workloads/gsg_quadratic.ini": "bd7b7fbf103f0e650f88e49198258bff589a2f81a2050db0d588c1e8a6ef8b3f",
    "perfbench/workloads/logistic_minibatch.ini": "42ab273bfcec7b4c1329b674cb97c2233f7be65b1a14b83308895298057479ed",
    "perfbench/workloads/quad_synthetic.ini": "fcaf4fce0f0149b44c7e573f3a38532d9745ad36b1795839df51840846ce64ac",
    "empty": "f3851ec75db0fba471414bec02d91bfbad25f65daec433231b49bcfa907f5519",
    "logistic": "6e353b847428f6ba23c3774c11faddbb76af1a82895a486904bc2403041b3e6a",
    "gsg": "daf0afc9541d3d7a0380f0e0c0224bc6cf7ec7397c5069cb3033cd42ac7120e4",
    "minibatch": "11f68ead6ae91d95a959858cc1e945f1bba8203a816533dad115bd785d14acef",
    "estimator": "d4c67874d92468c8351808819d174576e357697494a29b3fbda26a877356f26c",
    "convex": "ac464343a125dfec6647f94f584a629b4ad0b70ff98cdb4365e6623d5cd4c035",
}

SMOKE = """
[stopping]
class = nonconvex
eps = 0.001

[experiment]
trials = 3
checkpoints = 200,400
"""

LOGISTIC = MADE_UP["logistic"] + """
[algorithm]
alpha_max = 1.25
max_iters = 20

[experiment]
check_admissibility = false
"""

# configs that parse but cannot be run, and the reason each is refused
UNRUNNABLE = {
    "lambda_min_above_max": ("[problem]\nlambda_min = 5\nlambda_max = 1\n" + SMOKE,
                             "need 0 < lambda_min <= lambda_max"),
    "lambda_min_zero": ("[problem]\nlambda_min = 0\n" + SMOKE,
                        "need 0 < lambda_min <= lambda_max"),
    "dim_zero": ("[problem]\ndim = 0\n" + SMOKE, "dim must be >= 1"),
    "n_samples_zero": (LOGISTIC.replace("n_samples = 64", "n_samples = 0"),
                       "n_samples and dim must be >= 1"),
    "batch_size_zero": (LOGISTIC.replace("[oracles]\n", "[oracles]\nkind = minibatch\n"
                                         "batch_size = 0\n"),
                        "batch_size must be >= 1"),
    "gsg_sigma_zero": ("[oracles]\nkind = gsg\nsigma = 0\n" + SMOKE,
                       "sigma must be positive"),
    "gsg_no_directions": ("[oracles]\nkind = gsg\nnum_directions = 0\n" + SMOKE,
                          "num_directions must be >= 1"),
    "eta_five": (SMOKE + "eta = 5\n", "eta must lie in (0, "),
    "alpha_max_inf": ("[algorithm]\nalpha_max = inf\n" + SMOKE,
                      "alpha_max = 'inf': not a valid float"),
    "problem_seed_negative": ("[problem]\nproblem_seed = -1\n" + SMOKE,
                              "[problem] seed must be >= 0"),
    "x0_norm_negative": ("[problem]\nx0_norm = -2\n" + SMOKE,
                         "[problem] x0_norm must be positive"),
    # a value is its text: no % interpolation
    "mode_with_percent": ("[oracles]\nmode = 50%\n" + SMOKE,
                          "[oracles] unknown mode '50%'"),
}

# keys that the chosen fixture or oracle kind does not read, and the error
# that names each
UNREAD = {
    "reg_on_quadratic": ("[problem]\nreg = -1\n",
                         "[problem] reg is not read by fixture 'quadratic'"),
    "n_samples_on_quadratic": (
        "[problem]\nn_samples = 5\n",
        "[problem] n_samples is not read by fixture 'quadratic'"),
    "lambda_min_on_logistic": (
        LOGISTIC.replace("[problem]\n", "[problem]\nlambda_min = 1\n"),
        "[problem] lambda_min is not read by fixture 'logistic'"),
    "x0_norm_on_logistic": (
        LOGISTIC.replace("[problem]\n", "[problem]\nx0_norm = 2\n"),
        "[problem] x0_norm is not read by fixture 'logistic'"),
    "batch_size_on_synthetic": (
        "[oracles]\nbatch_size = 0\n",
        "[oracles] batch_size is not read by oracle kind 'synthetic'"),
    "sigma_on_synthetic": (
        "[oracles]\nsigma = 0\n",
        "[oracles] sigma is not read by oracle kind 'synthetic'"),
    "sigma_on_minibatch": (
        LOGISTIC.replace("[oracles]\n", "[oracles]\nkind = minibatch\nsigma = 1\n"),
        "[oracles] sigma is not read by oracle kind 'minibatch'"),
    "batch_size_on_gsg": (
        "[oracles]\nkind = gsg\nbatch_size = 8\n",
        "[oracles] batch_size is not read by oracle kind 'gsg'"),
}


def ini_path(tmp_path, name):
    """A repo INI by its path, or a made-up one written to tmp_path."""
    if name not in MADE_UP:
        return str(ROOT / name)
    path = tmp_path / f"{name}.ini"
    path.write_text(MADE_UP[name])
    return str(path)


def parse_text(tmp_path, text):
    path = tmp_path / "config.ini"
    path.write_text(text)
    return parse_config(str(path))


class TestKeyTable:
    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_digest_pinned(self, tmp_path, name):
        assert config_digest(parse_config(ini_path(tmp_path, name))) == DIGESTS[name]

    def test_every_repo_ini_is_pinned(self):
        found = {str(p.relative_to(ROOT))
                 for folder in ("demos/configs", "perfbench/workloads")
                 for p in (ROOT / folder).glob("*.ini")}
        assert found == {name for name in DIGESTS if name.endswith(".ini")}

    def test_every_failed_check_of_every_part_is_listed(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_text(tmp_path, (
                "[oracles]\neps_f = -1\nkappa = -1\ndelta = 1\n"
                "[algorithm]\nalpha0 = 20\ngamma = 0\nmax_iters = 0\n"
                "estimator_n_calls = 1\nestimator_scale = 0\n"
                "[stopping]\nclass = convex\neps = 0\n"))
        message = str(err.value)
        for where in ("[oracles] ", "[algorithm] ", "[stopping] "):
            assert where in message
        for reason in ("eps_f, nu, b must be nonnegative",
                       "exact mode requires eps_f = nu = b = 0",
                       "eps_g and kappa must be nonnegative",
                       "delta must lie in [0, 1)",
                       "eps_f_input must be nonnegative",
                       "need 0 < alpha0 < alpha_max",
                       "gamma must lie in (0, 1)",
                       "max_iters must be >= 1",
                       "n_calls must be >= 2",
                       "scale_factor must be positive",
                       "eps must be positive",
                       "convex stopping requires eps1 > 0"):
            assert reason in message

    def test_every_failed_experiment_check_is_listed(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_text(tmp_path, "[oracles]\nkind = minibatch\n[experiment]\n"
                                 "trials = 0\nseed = -1\ns = -1\n")
        message = str(err.value)
        for reason in ("minibatch oracles need the logistic fixture",
                       "n_trials must be >= 1", "base_seed must be >= 0",
                       "s must be finite and >= 0"):
            assert reason in message

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_every_float_key_refuses_non_finite(self, tmp_path, value):
        float_keys = [(section, key) for section, keys in _KEYS.items()
                      for key, (cast, _) in keys.items()
                      if cast is _float]
        text = "".join(f"[{section}]\n" + "".join(
            f"{key} = {value}\n" for s, key in float_keys if s == section)
            for section in _KEYS)
        with pytest.raises(ConfigError) as err:
            parse_text(tmp_path, text)
        for section, key in float_keys:
            assert f"[{section}] {key} = '{value}': not a valid float" in str(err.value)


@pytest.mark.parametrize("name", list(UNRUNNABLE))
def test_unrunnable_config_exits_two_before_any_trial(tmp_path, monkeypatch,
                                                      capsys, name):
    import aloe_lab.harness as harness_mod

    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness_mod, "_run_trial_block", no_trials)
    text, reason = UNRUNNABLE[name]
    config = tmp_path / "bad.ini"
    config.write_text(text)
    out = tmp_path / "out"
    assert run(str(config), str(out), trials=2, quiet=True, jobs=1) == EXIT_CONFIG
    assert reason in capsys.readouterr().err
    assert not (out / "trials.csv").exists()


@pytest.mark.parametrize("name", list(UNREAD))
def test_unread_key_exits_two(tmp_path, capsys, name):
    # a key meant for another fixture or oracle kind is refused, not dropped
    text, reason = UNREAD[name]
    config = tmp_path / "bad.ini"
    config.write_text(text)
    assert run(str(config), str(tmp_path / "out"), trials=2, quiet=True,
               jobs=1) == EXIT_CONFIG
    assert reason in capsys.readouterr().err


def test_unknown_fixture_reads_no_key(tmp_path):
    # the unknown name is the one error, not every key set beside it
    for text, reason in (
            ("[problem]\nfixture = foo\ndim = 3\n", "unknown fixture 'foo'"),
            ("[oracles]\nkind = bar\nsigma = 1\n", "unknown oracle_kind 'bar'")):
        with pytest.raises(ConfigError) as err:
            parse_text(tmp_path, text)
        assert str(err.value) == "invalid config:\n  " + reason


class TestLibraryPath:
    """A config built in code takes the defaults and checks of a parsed one:
    its fixture's and oracle kind's specs read its params."""

    def test_empty_config_is_the_empty_file(self, tmp_path):
        config = ExperimentConfig(fixture_params={})
        assert config == parse_text(tmp_path, "")
        assert config_digest(config) == DIGESTS["empty"]

    def test_gsg_with_default_params_runs(self):
        config = ExperimentConfig(oracle_kind="gsg", oracle_params={}, n_trials=2,
                                  params=AloeParams(max_iters=5),
                                  check_admissibility=False)
        assert config.oracle_params == {"sigma": 0.1, "num_directions": 64}
        assert len(run_trials(config).T_eps) == 2

    @pytest.mark.parametrize("kwargs, reason", [
        ({"fixture_params": {"bogus": 1}}, "bogus is not read by fixture 'quadratic'"),
        ({"fixture": "logistic", "fixture_params": {"x0_norm": 1.0}},
         "x0_norm is not read by fixture 'logistic'"),
        ({"oracle_kind": "gsg", "oracle_params": {"batch_size": 3}},
         "batch_size is not read by oracle kind 'gsg'"),
        ({"oracle_params": {"sigma": 0.1}},
         "sigma is not read by oracle kind 'synthetic'"),
    ])
    def test_unread_key_is_refused_by_name(self, kwargs, reason):
        with pytest.raises(ValueError, match=re.escape(reason)):
            ExperimentConfig(**kwargs)

    def test_spec_checks_are_listed_with_the_configs_own(self):
        with pytest.raises(ValueError) as err:
            ExperimentConfig(fixture_params={"dim": 0, "seed": -1, "bogus": 1},
                             oracle_kind="gsg", oracle_params={"sigma": 0},
                             n_trials=0)
        for reason in ("bogus is not read", "dim must be >= 1", "seed must be >= 0",
                       "sigma must be positive", "n_trials must be >= 1"):
            assert reason in str(err.value)


# ---------------------------------------------------------------------------
# Configs drawn from the key table: every key, over valid and invalid text

def mostly(valid, invalid):
    """Text drawn from `invalid` one time in ten, else from `valid`."""
    return st.integers(0, 9).flatmap(lambda i: invalid if i == 9 else valid)


NAMES = {"fixture": sorted(FIXTURES), "oracle_kind": sorted(ORACLE_KINDS),
         "zeroth.mode": list(ZEROTH_MODES), "stopping.class_tag": list(CLASS_TAGS)}
# each cast's text; the valid side still draws values a check refuses
TEXT = {
    _float: mostly(st.one_of(st.floats(0.0, 1.0).map(repr),
                             st.sampled_from(["0", "1e-3", "2", "12"])),
                   st.sampled_from(["-1", "nan", "-inf", "x"])),
    int: mostly(st.integers(1, 40).map(str), st.sampled_from(["0", "-2", "1.5", "x"])),
    _bool: mostly(st.sampled_from(["yes", "off", "True", "0"]), st.just("maybe")),
    _ints: mostly(st.lists(st.integers(0, 40), max_size=3).map(
        lambda ts: ", ".join(map(str, ts))), st.sampled_from(["-1", "1, x"])),
}


def text_of(section, key):
    """The strategy of a key's text, by its cast; a name key draws its
    known names, or one it does not know."""
    cast, field = _KEYS[section][key]
    if cast is str:
        return mostly(st.sampled_from(NAMES[field]), st.sampled_from(["bogus", "50%"]))
    return TEXT[cast]


# a file is a few (section, key, text) entries
INI_FILES = st.lists(
    st.sampled_from([(s, k) for s, keys in _KEYS.items() for k in keys]),
    max_size=5, unique=True).flatmap(lambda keys: st.tuples(*(
        st.tuples(st.just(s), st.just(k), text_of(s, k)) for s, k in keys)))


def ini_text(entries) -> str:
    sections = {}
    for section, key, text in entries:
        sections.setdefault(section, []).append(f"{key} = {text}\n")
    return "".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items())


def built_in_code(entries) -> ExperimentConfig:
    """The config of `entries` built without the parser: each value cast,
    each part built from the values it sets, eps_f_input defaulting to the
    zeroth-order eps_f.  Raises ValueError (or KeyError, an unknown
    boolean) where the parser must refuse the file."""
    parts = {"": {}}
    for section, key, text in entries:
        cast, field = _KEYS[section][key]
        part, _, name = field.rpartition(".")
        parts.setdefault(part, {})[name] = cast(text)
    zeroth = parts.get("zeroth", {})
    parts.setdefault("params", {}).setdefault(
        "eps_f_input", zeroth.get("eps_f", ZerothOracleSpec.eps_f))
    top = parts.pop("")
    for part, cls, _ in _PARTS:
        if part in parts:
            top[part] = cls(**parts[part]) if cls else parts[part]
    return ExperimentConfig(**top)


def written_back(config) -> list:
    """The entries of an INI file that sets every key of `config` it has a
    value for."""
    entries = []
    for section, keys in _KEYS.items():
        for key, (cast, field) in keys.items():
            part, _, name = field.rpartition(".")
            owner = getattr(config, part) if part else config
            value = owner.get(name) if isinstance(owner, dict) else getattr(owner, name)
            if value is not None:
                text = (", ".join(map(str, value)) if cast is _ints
                        else repr(value) if cast is _float else str(value))
                entries.append((section, key, text))
    return entries


class TestDrawnConfigs:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(entries=INI_FILES)
    def test_parser_only_reads_and_casts(self, tmp_path_factory, entries):
        path = tmp_path_factory.getbasetemp() / "drawn.ini"
        path.write_text(ini_text(entries))
        try:
            expected = built_in_code(entries)
        except (KeyError, ValueError):
            with pytest.raises(ConfigError):
                parse_config(str(path))
            return
        config = parse_config(str(path))
        assert config == expected
        assert config_digest(config) == config_digest(expected)
        path.write_text(ini_text(written_back(config)))
        again = parse_config(str(path))
        assert again == config
        assert config_digest(again) == config_digest(config)


def readme_grammar() -> dict:
    """{section: set of keys} of the README's config grammar block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("### Config grammar", 1)[1]
    block = block.split("```ini\n", 1)[1].split("```", 1)[0]
    grammar = {}
    for line in block.splitlines():
        header = re.fullmatch(r"\[(\w+)\]", line.strip())
        if header:
            keys = grammar.setdefault(header[1], set())
        else:
            keys.update(re.findall(r"(?:^|, )([a-z][a-z0-9_]*) =", line))
    return grammar


def test_readme_grammar_names_the_parsers_keys():
    assert readme_grammar() == {section: set(keys)
                                for section, keys in _KEYS.items()}
