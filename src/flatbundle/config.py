"""Run configuration: INI-style text with sections [chart], [grid],
[tolerances], [growth], [output].  Unknown keys are errors; every field
has a default so a minimal config only names a chart."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

from . import catalog, engines, exprchart
from .errors import ConfigError, read_text
from .flows import SPENT
from .verifiers import TOLERANCE_KEYS

MIN_RESOLUTION = 17
# the order-4 frame checks leave out two nodes at each end of a time axis,
# so a flow grid needs 5 samples per axis for one interior node
MIN_FLOW_RESOLUTION = 5


@dataclass
class RunConfig:
    chart_name: str = None
    chart_params: dict = field(default_factory=dict)
    expression_path: str = None
    resolution: tuple = (65,)          # broadcast to every axis if length 1
    engine: str = None                 # None: the chart's own engine
    tolerances: dict = field(default_factory=dict)
    x0: tuple = None                   # None: domain center
    radii: tuple = (0.5, 0.75, 1.0, 1.25, 1.5)
    window: tuple = None
    growth_resolution: int = None
    exploratory: bool = False
    flow_box: tuple = ((-0.3, 0.3),)   # broadcast to every axis if length 1
    flow_resolution: int = 9
    flow_step: float = 0.02
    t_range: tuple = (-0.3, 0.3)
    pairs: int = 100
    out_dir: str = "out"
    seed: int = 12345

    def make_chart(self):
        """The configured chart, differentiated by the configured engine
        (the chart's own when none is set; one it cannot use is a
        ConfigError)."""
        if self.expression_path is not None:
            chart = exprchart.load_chart(self.expression_path)
        else:
            try:
                chart = catalog.get(self.chart_name, **self.chart_params).chart
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad chart request: {exc}") from None
        if self.engine is not None:
            try:
                chart = replace(chart, engine=self.engine)
            except ValueError as exc:       # an engine the chart refuses
                raise ConfigError(str(exc)) from None
        return chart

    def grid_resolution(self, n):
        return _per_axis("resolution", self.resolution, n)

    def flow_box_for(self, n):
        return _per_axis("flow_box", self.flow_box, n)


def _per_axis(name, values, n):
    """The values for each of n axes; one value broadcasts to all n."""
    if len(values) == 1:
        values = values * n
    if len(values) != n:
        raise ConfigError(f"{name} has {len(values)} axes, chart has {n}")
    return values


def _ints(text):
    return tuple(int(x) for x in text.split(","))


def _floats(text):
    return tuple(float(x) for x in text.split(","))


def _interval(text):
    lo, hi = (float(x) for x in text.split(":"))
    return (lo, hi)


def _intervals(text):
    return tuple(_interval(p) for p in text.split(","))


def _bool(text):
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# [section] -> {key: (RunConfig field, parser)}.  [chart] keys are free
# (name or expression, then the chart's parameters), and [tolerances] keys
# are the verifiers' TOLERANCE_KEYS.
_KEYS = {
    "chart": None,
    "grid": {"resolution": ("resolution", _ints),
             "engine": ("engine", lambda text: text.strip().lower())},
    "tolerances": set(TOLERANCE_KEYS.values()),
    "growth": {"x0": ("x0", _floats),
               "radii": ("radii", _floats),
               "window": ("window", _interval),
               "resolution": ("growth_resolution", int),
               "exploratory": ("exploratory", _bool),
               "flow_box": ("flow_box", _intervals),
               "flow_resolution": ("flow_resolution", int),
               "flow_step": ("flow_step", float),
               "t_range": ("t_range", _interval),
               "pairs": ("pairs", int)},
    "output": {"dir": ("out_dir", str)},
}


def parse_config(text):
    """Parse configuration text into a validated RunConfig."""
    # no header names the empty section, so [DEFAULT] is an unknown one
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None, default_section="")
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    unknown_sections = set(cp.sections()) - set(_KEYS)
    if unknown_sections:
        raise ConfigError(f"unknown sections: {sorted(unknown_sections)}")
    for sec, keys in _KEYS.items():
        if keys is None or not cp.has_section(sec):
            continue
        bad = set(cp.options(sec)) - set(keys)
        if bad:
            raise ConfigError(f"unknown keys in [{sec}]: {sorted(bad)}")

    cfg = RunConfig()
    try:
        for sec, keys in _KEYS.items():
            if not cp.has_section(sec):
                continue
            items = dict(cp.items(sec))
            if sec == "chart":
                cfg.chart_name = items.pop("name", None)
                cfg.expression_path = items.pop("expression", None)
                cfg.chart_params = {k: float(v) for k, v in items.items()}
            elif sec == "tolerances":
                cfg.tolerances = {k: float(v) for k, v in items.items()}
            else:
                for key, (name, parse) in keys.items():
                    if key in items:
                        setattr(cfg, name, parse(items[key]))
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from None

    _validate(cfg)
    return cfg


def _validate(cfg):
    if cfg.chart_name is None and cfg.expression_path is None:
        raise ConfigError("[chart] must set 'name' or 'expression'")
    if cfg.chart_name is not None and cfg.expression_path is not None:
        raise ConfigError("[chart] sets both 'name' and 'expression'")
    if cfg.engine is not None and cfg.engine not in engines.ENGINES:
        raise ConfigError(f"unknown engine {cfg.engine!r}; "
                          f"choose from {engines.ENGINES}")
    for r in cfg.resolution:
        if r < MIN_RESOLUTION:
            raise ConfigError(
                f"resolution {r} below the minimum {MIN_RESOLUTION}")
    if cfg.growth_resolution is not None \
            and cfg.growth_resolution < MIN_RESOLUTION:
        raise ConfigError(
            f"growth resolution {cfg.growth_resolution} below the "
            f"minimum {MIN_RESOLUTION}")
    for k, v in cfg.tolerances.items():
        if not 0 < v < math.inf:
            raise ConfigError(
                f"tolerance {k} must be finite and positive, got {v}")
    radii = cfg.radii
    if not radii or not all(0 < r < math.inf for r in radii) \
            or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError(
            "radii must be finite, positive and strictly increasing")
    if cfg.window is not None and not cfg.window[0] < cfg.window[1]:
        raise ConfigError("fit window must be a non-empty interval")
    if not 0 < cfg.flow_step < math.inf:
        raise ConfigError("flow_step must be finite and positive")
    for lo, hi in cfg.flow_box:
        if not -math.inf < lo < hi < math.inf:
            raise ConfigError(
                "each flow_box interval must be finite and non-empty")
    if cfg.flow_resolution < MIN_FLOW_RESOLUTION:
        raise ConfigError(
            f"flow_resolution must be at least {MIN_FLOW_RESOLUTION}")
    if cfg.pairs < 1:
        raise ConfigError("pairs must be at least 1")
    if not -math.inf < cfg.t_range[0] < cfg.t_range[1] < math.inf:
        raise ConfigError("t_range must be a finite, non-empty interval")
    if max(abs(t) for t in cfg.t_range) <= SPENT * cfg.flow_step:
        raise ConfigError(
            "t_range %g : %g lies within %g * flow_step of 0, so no flow "
            "would take a step" % (*cfg.t_range, SPENT))


def load_config(path):
    return parse_config(read_text(path, "config file"))
