"""Run configuration: a small sectioned key = value format.

Grammar (documented in the README): `#` starts a comment; `[section]` lines
open a section; entries are `key = value` with values being numbers
(including scientific notation), booleans true/false, double-quoted strings,
or flat lists `[v1, v2, ...]` of numbers. Unknown keys are rejected with
their line number and the nearest valid key; parse errors carry line and
column. The resolved configuration (all defaults materialized) re-parses to
an identical RunConfig.
"""

from __future__ import annotations

import difflib
import io
from dataclasses import dataclass, field

from .problems import FAMILIES


class ConfigError(Exception):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col else "") + ")"
        super().__init__(message + where)


# key -> (type, default); None default means "absent unless given"
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
        "E0": (float, 10e6),
        "nu": (float, 0.49),
        "E_s": (float, 2000e6),
        "nu_s": (float, 0.3),
        "t_s": (float, 0.0),            # 0 = family default
        "p_simp": (float, 3.0),
        "rho0": (float, 0.0),
        "b": (float, 2.0),
        "P": (float, 4.0),
        "Q": (float, 12.0),
        "beta": (float, 0.0),           # 0 = family default
        "r": (float, 0.0),
        "r_min": (float, 0.0),
        "u_in": (float, 0.0),
        "k_out": (float, -1.0),         # <0 = family default
    },
    "solver": {
        "steps": (int, 0),              # 0 = family default
        "tol_residual": (float, 1e-6),
        "max_corrector_iters": (int, 20),
        "max_bisections": (int, 6),
    },
    "optimizer": {
        "max_iterations": (int, 400),
        "feas_tol": (float, 1e-3),
        "density_change_tol": (float, 1e-4),
    },
    "output": {
        "dump_every": (int, 0),
    },
    "custom": {
        "outline": (list, []),
        "element_size": (float, 0.0),
        "thickness": (float, 0.01),
        "supports": (list, []),
        "load": (list, []),
        "theta_deg": (float, 0.0),
        "u_in": (float, 0.005),
        "steps": (int, 4),
        "objective": (str, "max_u_out"),
        "output_point": (list, []),
        "output_axis": (str, "y"),
        "output_sign": (float, 1.0),
        "output_k": (float, 0.0),
        "vf_bound": (float, 0.3),
        "f_in_bound": (float, 30.0),
        "f_p_bound": (float, 7.5),
        "precision_points": (list, []),
        "counter_forces": (list, []),
        "rho_init": (float, 0.0),
        "move_rho": (float, 0.2),
        "move_xy": (float, 2.5e-3),
        "move_theta_deg": (float, 5.0),
        "bc_margin": (float, 0.0),
    },
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    def get(self, section, key):
        return self.values[section][key]


def _defaults():
    return {sec: {k: (list(d) if isinstance(d, list) else d)
                  for k, (_, d) in keys.items()}
            for sec, keys in _SCHEMA.items()}


def _parse_value(text, line_no, col):
    text = text.strip()
    if not text:
        raise ConfigError("missing value", line_no, col)
    if text.startswith('"'):
        if not text.endswith('"') or len(text) < 2:
            raise ConfigError("unterminated string", line_no, col)
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    if text.startswith("["):
        if not text.endswith("]"):
            raise ConfigError("unterminated list", line_no, col)
        body = text[1:-1].strip()
        if not body:
            return []
        out = []
        for part in body.split(","):
            try:
                out.append(float(part))
            except ValueError:
                raise ConfigError(f"bad list entry {part.strip()!r}",
                                  line_no, col) from None
        return out
    try:
        if any(c in text for c in ".eE") and not text.lstrip("+-").isdigit():
            return float(text)
        return int(text)
    except ValueError:
        raise ConfigError(
            f"cannot parse value {text!r} (quote strings)", line_no,
            col) from None


def parse_config(source):
    """Parse a config file path, text, or file object into a RunConfig."""
    import os

    if hasattr(source, "read"):
        text = source.read()
    elif os.path.exists(str(source)):
        with open(source, "r", encoding="utf-8") as f:
            text = f.read()
    elif "\n" in str(source) or "=" in str(source):
        text = str(source)
    else:
        raise ConfigError(f"config file not found: {source}")

    values = _defaults()
    section = ""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header", line_no,
                                  len(line))
            section = stripped[1:-1].strip()
            if section not in _SCHEMA or section == "":
                known = ", ".join(s for s in _SCHEMA if s)
                raise ConfigError(
                    f"unknown section [{section}]; known sections: {known}",
                    line_no, 1)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line_no, 1)
        key, _, val = line.partition("=")
        col = line.index("=") + 2
        key = key.strip()
        schema = _SCHEMA[section]
        if key not in schema:
            pool = list(schema)
            near = difflib.get_close_matches(key, pool, n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            where = f"[{section}] " if section else ""
            raise ConfigError(f"unknown key {where}{key!r}{hint}", line_no, 1)
        parsed = _parse_value(val, line_no, col)
        want, _ = schema[key]
        if want is float and isinstance(parsed, int):
            parsed = float(parsed)
        if want is int and isinstance(parsed, float) and parsed.is_integer():
            parsed = int(parsed)
        if not isinstance(parsed, want) or (want is not bool
                                            and isinstance(parsed, bool)):
            raise ConfigError(
                f"key {key!r} expects {want.__name__}, got "
                f"{type(parsed).__name__}", line_no, col)
        values[section][key] = parsed

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
        return f'"{v}"'
    if isinstance(v, list):
        return "[" + ", ".join(repr(float(x)) for x in v) + "]"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def dump_config(cfg, file=None):
    """Write the resolved configuration; re-parsing reproduces cfg."""
    own = file is None
    out = io.StringIO() if own else file
    for key, val in cfg.values[""].items():
        out.write(f"{key} = {_format_value(val)}\n")
    for section in (s for s in _SCHEMA if s):
        out.write(f"\n[{section}]\n")
        for key, val in cfg.values[section].items():
            out.write(f"{key} = {_format_value(val)}\n")
    if own:
        return out.getvalue()
    return None
