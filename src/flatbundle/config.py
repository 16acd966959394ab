"""Run configuration: INI-style text with sections [chart], [grid],
[tolerances], [growth], [output].  Unknown keys are errors; every field
has a default so a minimal config only names a chart."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

from . import catalog, engines, exprchart
from .errors import (ConfigError, boolean, choice, each, integer, interval,
                     naming, read_text, real)
from .fields import per_axis
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
        return per_axis("resolution", self.resolution, n)

    def flow_box_for(self, n):
        return per_axis("flow_box", self.flow_box, n)


# [section] -> {key: (RunConfig field, value type)}.  [chart] keys are
# free: name or expression, then the chart's parameters, which are floats.
# A [tolerances] value goes into the tolerances dict under its key.
_POSITIVE = real(finite=True, positive=True)
_KEYS = {
    "chart": None,
    "grid": {"resolution": ("resolution", each(integer(MIN_RESOLUTION))),
             "engine": ("engine", choice(*engines.ENGINES))},
    "tolerances": {key: ("tolerances", _POSITIVE)
                   for key in TOLERANCE_KEYS.values()},
    "growth": {"x0": ("x0", each(real())),
               "radii": ("radii", each(_POSITIVE, increasing=True)),
               "window": ("window", interval()),
               "resolution": ("growth_resolution", integer(MIN_RESOLUTION)),
               "exploratory": ("exploratory", boolean(("true", "yes", "1"),
                                                      ("false", "no", "0"))),
               "flow_box": ("flow_box", each(interval(finite=True))),
               "flow_resolution": ("flow_resolution",
                                   integer(MIN_FLOW_RESOLUTION)),
               "flow_step": ("flow_step", _POSITIVE),
               "t_range": ("t_range", interval(finite=True)),
               "pairs": ("pairs", integer(1))},
    "output": {"dir": ("out_dir", str)},
}
_CHART_KEYS = {"name": ("chart_name", str),
               "expression": ("expression_path", str)}
_CHART_PARAM = ("chart_params", real())


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
    cfg = RunConfig()
    for sec in cp.sections():
        keys = _KEYS[sec] or {**dict.fromkeys(cp.options(sec), _CHART_PARAM),
                              **_CHART_KEYS}
        bad = set(cp.options(sec)) - set(keys)
        if bad:
            raise ConfigError(f"unknown keys in [{sec}]: {sorted(bad)}")
        for key, value in cp.items(sec):
            name, parse = keys[key]
            with naming(f"[{sec}] {key}", value):
                value = parse(value)
            if name in ("chart_params", "tolerances"):
                getattr(cfg, name)[key] = value
            else:
                setattr(cfg, name, value)

    if (cfg.chart_name is None) == (cfg.expression_path is None):
        raise ConfigError("[chart] must set exactly one of 'name' and "
                          "'expression'")
    if max(abs(t) for t in cfg.t_range) <= SPENT * cfg.flow_step:
        raise ConfigError(
            "t_range %g : %g lies within %g * flow_step of 0, so no flow "
            "would take a step" % (*cfg.t_range, SPENT))
    return cfg


def load_config(path):
    return parse_config(read_text(path, "config file"))
