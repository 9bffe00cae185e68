"""Config I/O derived from the dataclass fields.

`ConfigMixin` gives a config dataclass `to_dict` / `from_dict` (the JSON echo
in manifests and checkpoints) and `from_ini` / `to_ini`.  In an INI file a
field whose type is another config dataclass is a section named after the
field; every other field is a required key, cast from its annotation: `bool`
as an INI boolean, `tuple[T, ...]` as comma-separated values, a fixed-length
tuple with exactly that many.  `from_dict` takes the JSON-native form and
checks each value against its annotation: a `bool` is not an `int`, an `int`
is a `float`, a tuple is a list of its element types and a nested config is
a dict.  Missing or unknown keys and sections, a value of the wrong type, and
a non-finite float value, raise ConfigError.  `to_ini` writes a
field's `metadata["note"]` as an inline `; note` comment, so the config
templates are the dataclass defaults written out.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import typing

from .errors import ConfigError


def _fields(cls) -> dict[str, type]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _is_config(tp) -> bool:
    return isinstance(tp, type) and issubclass(tp, ConfigMixin)


def _fits(value, tp) -> bool:
    """Whether JSON-native `value` has the type annotation `tp` asks for."""
    if _is_config(tp):
        return isinstance(value, dict)
    if typing.get_origin(tp) is tuple:
        types = typing.get_args(tp)
        if not isinstance(value, list):
            return False
        if types[-1] is Ellipsis:
            types = types[:1] * len(value)
        return len(types) == len(value) and all(map(_fits, value, types))
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, (int, float) if tp is float else tp)


def _type_name(tp) -> str:
    """What a `from_dict` error says annotation `tp` asks for."""
    if _is_config(tp):
        return f"a {tp.__name__} dict"
    return f"a list ({tp})" if typing.get_origin(tp) is tuple else tp.__name__


def _non_finite(value) -> bool:
    """Whether a field value (a scalar, or a list of them) holds nan or inf."""
    values = value if isinstance(value, list) else (value,)
    return any(isinstance(v, float) and not math.isfinite(v) for v in values)


def _format(value) -> str:
    """INI text of a scalar or tuple value that `_parse` reads back exactly
    (`str` of a float is its shortest round-tripping repr)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(_format, value))
    return str(value)


def _parse(cp: configparser.ConfigParser, section: str, key: str, tp):
    raw = cp.get(section, key)
    try:
        if tp is bool:
            return cp.getboolean(section, key)
        if typing.get_origin(tp) is not tuple:
            return tp(raw)
        values = raw.split(",")
        types = typing.get_args(tp)
        if types[-1] is Ellipsis:
            types = types[:1] * len(values)
        if len(types) != len(values):
            raise ValueError(f"expected {len(types)} values")
        return [t(v) for t, v in zip(types, values)]
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


class ConfigMixin:
    def to_dict(self) -> dict:
        """JSON-native echo: nested configs as dicts, tuples as lists."""
        out = {}
        for name in _fields(type(self)):
            value = getattr(self, name)
            if _is_config(type(value)):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            out[name] = value
        return out

    @classmethod
    def from_dict(cls, d: dict):
        fields = _fields(cls)
        mismatched = sorted(set(d) ^ set(fields))
        if mismatched:
            key = mismatched[0]
            raise ConfigError(f"{'unknown' if key in d else 'missing'} config key '{key}'")
        kwargs = {}
        for name, tp in fields.items():
            value = d[name]
            if not _fits(value, tp):
                raise ConfigError(f"config key '{name}' must be {_type_name(tp)}, got {value!r}")
            if _non_finite(value):
                raise ConfigError(f"config key '{name}' must be finite, got {value!r}")
            if _is_config(tp):
                value = tp.from_dict(value)
            elif typing.get_origin(tp) is tuple:
                value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)

    @classmethod
    def from_ini(cls, path: str, section: str):
        """Read an INI file whose scalar fields sit in `section`."""
        cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
        if not cp.read(path):
            raise ConfigError(f"cannot read config file '{path}'")
        d = cls._take_section(cp, section)
        if cp.sections():
            raise ConfigError(f"unknown config section [{cp.sections()[0]}]")
        try:
            return cls.from_dict(d)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_ini(self, section: str) -> str:
        """INI text that `from_ini(path, section)` reads back as this config:
        scalar fields in `section`, then one section per nested config."""
        lines, nested = [f"[{section}]"], []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, ConfigMixin):
                nested.append(value.to_ini(f.name))
                continue
            line = f"{f.name} = {_format(value)}"
            note = f.metadata.get("note")
            lines.append(f"{line}  ; {note}" if note else line)
        return "\n".join(["\n".join(lines) + "\n", *nested])

    @classmethod
    def _take_section(cls, cp: configparser.ConfigParser, section: str) -> dict:
        """Parse `section` and the nested config sections into a dict, and
        remove them from `cp`, so that the sections left over are unknown."""
        if not cp.has_section(section):
            raise ConfigError(f"missing config section [{section}]")
        fields = _fields(cls)
        for key in cp[section]:
            if key not in fields or _is_config(fields[key]):
                raise ConfigError(f"unknown config key '{key}' in section [{section}]")
        d = {}
        for name, tp in fields.items():
            if _is_config(tp):
                d[name] = tp._take_section(cp, name)
            elif not cp.has_option(section, name):
                raise ConfigError(f"missing config key '{name}' in section [{section}]")
            else:
                d[name] = _parse(cp, section, name, tp)
        cp.remove_section(section)
        return d

    def first_difference(self, other) -> str | None:
        """Dotted name of the first field where `other` differs, or None."""
        for name in _fields(type(self)):
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                inner = mine.first_difference(theirs) if _is_config(type(mine)) else None
                return f"{name}.{inner}" if inner else name
        return None
