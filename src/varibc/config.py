"""Run configuration, in TOML.

The text is parsed with tomllib (the grammar is documented in the README)
and then walked against _SCHEMA: root keys, then one table per section.
Unknown sections and keys are rejected with their line number and the
nearest valid key, and TOML syntax errors carry line and column. Integers
are accepted for floats and integral floats for integers; list entries must
be numbers and become floats. The resolved configuration (all defaults
materialized) re-parses to an identical RunConfig.

Each section's defaults have one owner: ProjectionParams (then u_in and
k_out) for [parameters], SolverConfig for [solver], OptimizerConfig but its
solver for [optimizer], and CUSTOM_DEFAULTS for [custom].
"""

from __future__ import annotations

import difflib
import json
import os
import re
import tomllib
from dataclasses import dataclass, field, fields
from typing import get_type_hints

from .design_field import ProjectionParams
from .optimizer import OptimizerConfig
from .problems import CUSTOM_DEFAULTS, FAMILIES
from .solver import SolverConfig


class ConfigError(Exception):
    def __init__(self, message, line=None, col=None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col else "") + ")"
        super().__init__(message + where)


# [parameters] and [solver] keys whose default 0 takes the family's value
FAMILY_VALUED = frozenset({"t_s", "beta", "r", "r_min", "steps"})

# section -> keys that take no negative value (k_out's is its sentinel)
NON_NEGATIVE = {
    "mesh": ("element_size", "thickness"),
    "parameters": ("u_in", "t_s", "beta", "r", "r_min"),
    "solver": ("steps",),
    "output": ("dump_every",),
}


def _fields_of(cls, omit=None):
    """key -> (type, default) of each init field of dataclass cls but omit."""
    types = get_type_hints(cls)
    return {f.name: (types[f.name], types[f.name]() if f.name in FAMILY_VALUED
                     else f.default)
            for f in fields(cls) if f.init and f.name != omit}


# section -> key -> (type, default); the root keys are section "". A
# default of 0 (for k_out, a negative one) takes the problem's own value.
_SCHEMA = {
    "": {
        "problem": (str, "gripper"),
        "fixed_bcs": (bool, False),
        "output_dir": (str, "out"),
    },
    "mesh": {
        "source": (str, "generate"),
        "path": (str, ""),
        "element_size": (float, 0.0),   # 0 = family default
        "thickness": (float, 0.0),      # 0 = family default
    },
    "parameters": {
        **_fields_of(ProjectionParams),
        "u_in": (float, 0.0),
        "k_out": (float, -1.0),         # <0 = family default
    },
    "solver": _fields_of(SolverConfig),
    "optimizer": _fields_of(OptimizerConfig, omit="solver"),
    "output": {
        "dump_every": (int, 0),
    },
    "custom": {k: (type(v), v) for k, v in CUSTOM_DEFAULTS.items()},
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def get(self, section, key):
        return self.values[section][key]


def _defaults():
    return {sec: {k: (list(d) if isinstance(d, list) else d)
                  for k, (_, d) in keys.items()}
            for sec, keys in _SCHEMA.items()}


def _line_of(text, section, key=None):
    """Line of key in its own [section] (element_size is in two), or of
    the section header when key is None; None if not found."""
    current = ""
    pattern = rf"\s*{re.escape(key)}\s*=" if key else r"\s*\["
    for line_no, raw in enumerate(text.splitlines(), start=1):
        head = re.match(r"\s*\[\s*([\w-]+)\s*\]", raw)
        current = head[1] if head else current
        if current == section and re.match(pattern, raw):
            return line_no
    return None


def _checked(section, key, value, line):
    """value coerced to the schema type of [section] key."""
    schema = _SCHEMA[section]
    if key not in schema:
        near = difflib.get_close_matches(key, list(schema), n=1)
        hint = f"; did you mean {near[0]!r}?" if near else ""
        where = f"[{section}] " if section else ""
        raise ConfigError(f"unknown key {where}{key!r}{hint}", line, 1)
    want, _ = schema[key]
    if isinstance(value, list):
        for entry in value:
            if type(entry) not in (int, float):
                raise ConfigError(f"bad list entry {entry!r}", line)
        value = [float(entry) for entry in value]
    if want is float and type(value) is int:
        value = float(value)
    if want is int and type(value) is float and value.is_integer():
        value = int(value)
    if not isinstance(value, want) or (want is not bool
                                       and isinstance(value, bool)):
        raise ConfigError(f"key {key!r} expects {want.__name__}, got "
                          f"{type(value).__name__}", line)
    return value


def parse_config(source):
    """Parse a config file path, text, or file object into a RunConfig."""
    if hasattr(source, "read"):
        text = source.read()
    elif os.path.exists(str(source)):
        with open(source, "r", encoding="utf-8") as f:
            text = f.read()
    elif "\n" in str(source) or "=" in str(source):
        text = str(source)
    else:
        raise ConfigError(f"config file not found: {source}")

    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as err:
        message, _, where = str(err).rpartition(" (at ")
        at = re.fullmatch(r"line (\d+), column (\d+)\)", where)
        line, col = ((int(at[1]), int(at[2])) if at  # else end of document
                     else (text.count("\n") + 1, None))
        raise ConfigError(message, line, col) from None

    values = _defaults()
    for name, value in doc.items():
        if not isinstance(value, dict):
            name, value = "", {name: value}
        elif not name or name not in _SCHEMA:
            known = ", ".join(s for s in _SCHEMA if s)
            raise ConfigError(
                f"unknown section [{name}]; known sections: {known}",
                _line_of(text, name), 1)
        for key, entry in value.items():
            values[name][key] = _checked(name, key, entry,
                                         _line_of(text, name, key))

    for section, keys in NON_NEGATIVE.items():
        for key in keys:
            if values[section][key] < 0:
                raise ConfigError(f"[{section}] {key} must not be negative",
                                  _line_of(text, section, key))

    problem = values[""]["problem"]
    known = [*FAMILIES, "custom"]
    if problem not in known:
        near = difflib.get_close_matches(problem, known, n=1)
        hint = f"; did you mean {near[0]!r}?" if near else ""
        raise ConfigError(f"unknown problem {problem!r}{hint}")
    if problem == "custom":
        c = values["custom"]
        if values["mesh"]["source"] == "generate" and len(c["outline"]) < 6:
            raise ConfigError("custom problem needs an outline polygon "
                              "(or an imported mesh)")
        if len(c["load"]) != 2:
            raise ConfigError("custom problem needs load = [x, y]")
        if len(c["supports"]) % 2 or len(c["supports"]) == 0:
            raise ConfigError("custom supports must be [x1, y1, x2, y2, ...]")
    if values["mesh"]["source"] not in ("generate", "import"):
        raise ConfigError("mesh source must be \"generate\" or \"import\"")
    if values["mesh"]["source"] == "import" and not values["mesh"]["path"]:
        raise ConfigError("mesh source \"import\" requires mesh path")
    return RunConfig(values=values)


def _format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        # JSON's escapes are TOML's; TOML also wants DEL escaped
        return json.dumps(v, ensure_ascii=False).replace("\x7f", "\\u007f")
    if isinstance(v, list):
        return "[" + ", ".join(repr(float(x)) for x in v) + "]"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def dump_config(cfg):
    """The resolved configuration as text; re-parsing it reproduces cfg."""
    lines = []
    for section, entries in cfg.values.items():
        if section:
            lines += ["", f"[{section}]"]
        lines += [f"{key} = {_format_value(val)}"
                  for key, val in entries.items()]
    return "\n".join(lines) + "\n"
