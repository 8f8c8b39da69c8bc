"""Declarative run configuration.

A run is described by one JSON document; the CLI never takes physics
parameters as positional flags. Example:

    {
      "bath": {"gamma": 1.0, "tau_c": 1.0},
      "state": {"p": 0.8},
      "schemes": ["zzz", "xzx"],
      "y": -1,
      "grid": {"t_max_gamma": 5.0, "points": 101, "equal_times": true},
      "noise": {"total_counts": 10000, "replicas": 200, "seed": 7}
    }

The bath block holds gamma and one form, a row of ``_FORMS`` named by its
key: Lorentzian ({"gamma", "tau_c"}) or tabulated ({"gamma", "kernel_csv"});
a new kernel family is one more row. Datasets write times as gamma*t; a
kernel file holds t in units of 1/gamma and f in their inverse square.

A key that no block declares is refused. "units" ("gamma_t"),
"bath.time_unit" ("seconds") and "noise.visibility" (in [0, 1]) are read
by no run and accepted for older configs only. Validation failures name
the offending field path. :meth:`RunConfig.echo`, the parsed config with
every default filled in, is the ``# config`` line of a dataset, and
``parse_config(cfg.echo()) == cfg``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .bath import LorentzianKernel, load_kernel_csv
from .cpf import InitialState, MeasurementScheme
from .errors import ValidationError
from .experiment import ExperimentConfig

# Reference equal-times curves of figure2: (scheme, gamma tau_c, excited
# population p), ordered from the strongest positive to the strongest
# negative correlation; a "combos" list in the config replaces them.
FIGURE2_COMBOS = (
    (MeasurementScheme.ZZZ, 1.0, 0.8),
    (MeasurementScheme.ZZZ, 0.5, 0.8),
    (MeasurementScheme.XZX, 0.5, 1.0),
    (MeasurementScheme.XZX, 1.0, 1.0),
)

# Visibility matrix of the coherent-scheme noise blocks of appendix-d; a
# "visibilities" list in the config replaces it.
DEFAULT_VISIBILITIES = (1.0, 0.9, 0.8)


def _fail(field: str, message: str):
    raise ValidationError(f"config: {field}: {message}")


def _block(value, field: str, keys: tuple[str, ...]) -> dict:
    """``value`` as the config object at ``field``, whose keys must be among
    ``keys``; field "" is the top level."""
    if not isinstance(value, dict):
        _fail(field, "expected an object")
    for key in value:
        if key not in keys:
            import difflib

            close = difflib.get_close_matches(key, keys, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            _fail(f"{field}.{key}" if field else key, f"unknown key{hint}")
    return value


def _require(mapping: dict, field: str, context: str):
    if field not in mapping:
        _fail(f"{context}.{field}" if context else field, "missing required field")
    return mapping[field]


def _number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(field, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):  # JSON admits NaN and Infinity
        _fail(field, f"must be a finite number, got {value!r}")
    return number


def _positive(value, field: str) -> float:
    number = _number(value, field)
    if number <= 0:
        _fail(field, "must be > 0")
    return number


def _fraction(value, field: str) -> float:
    number = _number(value, field)
    if not (0.0 <= number <= 1.0):
        _fail(field, "must lie in [0, 1]")
    return number


def _owned(field: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, the type that owns the facts of the value at
    ``field``; its :class:`ValidationError` is re-raised naming that field."""
    try:
        return make(*args, **kwargs)
    except ValidationError as exc:
        _fail(field, str(exc))


def _tau_c(value, field: str, gamma: float) -> float:
    return _owned(field, LorentzianKernel, gamma, _number(value, field)).tau_c


def _kernel_file(value, field: str, _gamma=None) -> str:
    if not isinstance(value, str):
        _fail(field, f"expected a file path, got {value!r}")
    path = Path(value)
    if not path.exists():
        _fail(field, f"file not found: {path}")
    return str(path)


# The bath forms by config key: (parser of the value at a field and gamma, the
# gamma tau_c label of its datasets and its kernel, both of gamma and the value).
_FORMS = {
    "tau_c": (_tau_c, lambda gamma, tau_c: gamma * tau_c, LorentzianKernel),
    "kernel_csv": (_kernel_file, lambda *_: None, lambda _, path: load_kernel_csv(path)),
}


@dataclass(frozen=True)
class BathConfig:
    """gamma and one bath form: its key in ``_FORMS`` and its parsed value."""

    gamma: float
    form: str
    value: Union[float, str]

    def make_kernel(self):
        return _FORMS[self.form][2](self.gamma, self.value)

    @property
    def gamma_tau_c(self) -> Optional[float]:
        """The gamma_tau_c cell of its datasets; None if the form has none."""
        return _FORMS[self.form][1](self.gamma, self.value)


@dataclass(frozen=True)
class RunConfig:
    bath: BathConfig
    state: InitialState
    schemes: tuple[MeasurementScheme, ...]
    y: int
    t_max_gamma: float
    points: int
    equal_times: bool
    noise: Optional[ExperimentConfig]
    combos: tuple[tuple[MeasurementScheme, float, float], ...]
    visibilities: tuple[float, ...]

    def echo(self) -> dict:
        """The run as a config document, every default filled in and the
        state as amplitudes [re, im]; the ``# config`` line of a dataset."""
        document = {
            "bath": {"gamma": self.bath.gamma, self.bath.form: self.bath.value},
            "state": {k: [v.real, v.imag] for k, v in (("a", self.state.a), ("b", self.state.b))},
            "schemes": [scheme.value for scheme in self.schemes],
            "y": self.y,
            "grid": {"t_max_gamma": self.t_max_gamma, "points": self.points,
                     "equal_times": self.equal_times},
            "combos": [{"scheme": s.value, "gamma_tau_c": r, "p": p} for s, r, p in self.combos],
            "visibilities": list(self.visibilities),
        }
        if self.noise is not None:
            noise = self.noise
            document["noise"] = {
                "total_counts": noise.total_counts, "replicas": noise.replicas, "seed": noise.seed
            }
        return document


def _parse_bath(block, field: str) -> BathConfig:
    block = _block(block, field, ("gamma", *_FORMS, "time_unit"))
    forms = [key for key in _FORMS if key in block]
    if len(forms) != 1:
        _fail(field, "exactly one bath form required: {gamma, tau_c} or {kernel_csv, ...}")
    if block.get("time_unit", "seconds") != "seconds":
        _fail(f"{field}.time_unit", f"must be 'seconds', got {block['time_unit']!r}")
    gamma = _positive(_require(block, "gamma", field), f"{field}.gamma")
    form = forms[0]
    return BathConfig(gamma, form, _FORMS[form][0](block[form], f"{field}.{form}", gamma))


def _parse_state(block, field: str) -> InitialState:
    keys = set(_block(block, field, ("p", "a", "b")))
    if keys == {"p"}:
        return _owned(f"{field}.p", InitialState.from_population, _number(block["p"], f"{field}.p"))
    if keys == {"a", "b"}:

        def as_complex(v, name):
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                return complex(_number(v, name))
            if isinstance(v, list) and len(v) == 2:
                return complex(_number(v[0], name), _number(v[1], name))
            _fail(name, f"expected a number or [re, im] pair, got {v!r}")

        a, b = as_complex(block["a"], f"{field}.a"), as_complex(block["b"], f"{field}.b")
        return _owned(field, InitialState, a, b)
    _fail(field, "expected either {'p': ...} or {'a': ..., 'b': ...}")


def _nonempty_list(value, field: str, items: str) -> list:
    if not isinstance(value, list):
        _fail(field, f"expected a list of {items}")
    if not value:
        _fail(field, "expected a non-empty list")
    return value


def _parse_schemes(value, field: str) -> tuple[MeasurementScheme, ...]:
    value = _nonempty_list(value, field, "scheme names")
    schemes = tuple(_scheme(name, f"{field}[{k}]") for k, name in enumerate(value))
    for k, scheme in enumerate(schemes):
        if scheme in schemes[:k]:
            _fail(f"{field}[{k}]", f"duplicate scheme {scheme.value!r}")
    return schemes


def _scheme(name, field: str) -> MeasurementScheme:
    try:
        return MeasurementScheme(str(name).lower())
    except ValueError:
        _fail(field, f"unknown scheme {name!r}; valid: zzz, xzx, yzy")


def _parse_combos(value, field: str) -> tuple[tuple[MeasurementScheme, float, float], ...]:
    if value is None:
        return FIGURE2_COMBOS
    combos = []
    for k, item in enumerate(_nonempty_list(value, field, "{scheme, gamma_tau_c, p} objects")):
        where = f"{field}[{k}]"
        _block(item, where, ("scheme", "gamma_tau_c", "p"))
        scheme = _scheme(_require(item, "scheme", where), f"{where}.scheme")
        ratio = _positive(_require(item, "gamma_tau_c", where), f"{where}.gamma_tau_c")
        _tau_c(1.0, f"{where}.gamma_tau_c", ratio)  # the tau_c = 1 bath of its preset
        p = _number(_require(item, "p", where), f"{where}.p")
        _owned(f"{where}.p", InitialState.from_population, p)  # the state of its preset
        combos.append((scheme, ratio, p))
    return tuple(combos)


def _parse_visibilities(value, field: str) -> tuple[float, ...]:
    if value is None:
        return DEFAULT_VISIBILITIES
    value = _nonempty_list(value, field, "numbers in [0, 1]")
    return tuple(_fraction(v, f"{field}[{k}]") for k, v in enumerate(value))


def _parse_noise(block, field: str) -> ExperimentConfig:
    block = _block(block, field, ("total_counts", "replicas", "seed", "visibility"))
    total = _number(_require(block, "total_counts", field), f"{field}.total_counts")
    _fraction(block.get("visibility", 1.0), f"{field}.visibility")  # read by no run
    return _owned(
        field, ExperimentConfig, total_counts=total, replicas=block.get("replicas", 1),
        seed=block.get("seed", 0),
    )


def parse_config(document: dict) -> RunConfig:
    if not isinstance(document, dict):
        raise ValidationError("config: top level must be a JSON object")
    keys = ("bath", "state", "schemes", "y", "grid", "noise", "combos", "visibilities", "units")
    _block(document, "", keys)
    bath = _parse_bath(_require(document, "bath", ""), "bath")
    state = _parse_state(document.get("state", {"p": 0.8}), "state")
    schemes = _parse_schemes(document.get("schemes", ["zzz", "xzx"]), "schemes")
    y = document.get("y", -1)
    if not isinstance(y, int) or isinstance(y, bool) or y not in (+1, -1):
        _fail("y", f"must be +1 or -1, got {y!r}")
    grid = _block(document.get("grid", {}), "grid", ("t_max_gamma", "points", "equal_times"))
    t_max_gamma = _positive(grid.get("t_max_gamma", 5.0), "grid.t_max_gamma")
    points = grid.get("points", 101)
    if not isinstance(points, int) or isinstance(points, bool) or points < 2:
        _fail("grid.points", f"must be an integer >= 2, got {points!r}")
    equal_times = grid.get("equal_times", True)
    if not isinstance(equal_times, bool):
        _fail("grid.equal_times", "must be true or false")
    noise = _parse_noise(document["noise"], "noise") if "noise" in document else None
    if document.get("units", "gamma_t") != "gamma_t":
        _fail("units", f"must be 'gamma_t', got {document['units']!r}")
    combos = _parse_combos(document.get("combos"), "combos")
    visibilities = _parse_visibilities(document.get("visibilities"), "visibilities")
    return RunConfig(
        bath=bath,
        state=state,
        schemes=schemes,
        y=y,
        t_max_gamma=t_max_gamma,
        points=points,
        equal_times=equal_times,
        noise=noise,
        combos=combos,
        visibilities=visibilities,
    )


def load_config(path: Union[str, Path]) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"config: cannot read {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config: {path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(document)

