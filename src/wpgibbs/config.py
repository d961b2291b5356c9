"""JSON (de)serialization of profile specs, rate functions, and case params.

Every CLI artifact embeds the fully resolved configuration produced here, so
runs are reproducible from their own metadata.  Each of these is written as
its dataclass fields under a tag (``family``, ``kind`` or ``case``); profiles
and rate functions are read back with every field coerced to its declared
type.
"""
from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import MISSING, fields

import numpy as np

from . import beta as b
from . import kstar as k
from .cases import CASES
from .errors import InvalidSpecError

#: profile families by their ``family`` tag
FAMILIES = {
    "indicator": b.Indicator,
    "powerlaw": b.PowerLaw,
    "explogsquare": b.ExpLogSquare,
    "table": b.Table,
    "sum": b.Sum,
    "adjoint_shift": b.AdjointShift,
}

#: rate-function kinds by their ``kind`` tag
KINDS = {
    "linear": k.Linear,
    "power": k.Power,
    "explogsquare_conjugate": k.ExpLogSquareConjugate,
    "clamped": k.Clamped,
    "composite": k.Composite,
    "grid": k.GridKStar,
}

# the tag key and tag table of each spec base class
_TABLES = {b.BetaSpec: ("family", FAMILIES), k.KStarFn: ("kind", KINDS)}
# (tag key, tag) of every class ``to_dict`` writes
_TAG_OF = {
    cls: (key, tag)
    for key, table in (*_TABLES.values(), ("case", {n: c.params for n, c in CASES.items()}))
    for tag, cls in table.items()
}


def to_dict(v):
    """A JSON-ready copy of a profile, rate function or case params (its tag,
    then its fields in order), recursing into field values; tuples and arrays
    become lists."""
    tagged = _TAG_OF.get(type(v))
    if tagged is not None:
        return {tagged[0]: tagged[1], **{f.name: to_dict(getattr(v, f.name)) for f in fields(v)}}
    if isinstance(v, tuple(_TABLES)):
        raise InvalidSpecError(f"{type(v).__name__} has no JSON form")
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, tuple):
        # every declared tuple field is homogeneous: a float one, such as a
        # GridKStar's 200 knots, is copied without a call per element
        return list(v) if v and isinstance(v[0], float) else [to_dict(x) for x in v]
    return v


def beta_from_dict(d: dict) -> b.BetaSpec:
    return _decode(b.BetaSpec, d)


def kstar_from_dict(d: dict) -> k.KStarFn:
    return _decode(k.KStarFn, d)


def _decode(base, d):
    key, table = _TABLES[base]
    if not isinstance(d, dict):
        raise InvalidSpecError(f"a {key} spec must be a JSON object, got {d!r}")
    tag = d.get(key)
    if tag not in table:
        raise InvalidSpecError(f"unknown {key} {tag!r}; choose one of {', '.join(table)}")
    return _build(table[tag], tag, {n: v for n, v in d.items() if n != key})


def _missing(cls, d: dict) -> list:
    """The fields of ``cls`` without a default that ``d`` does not give."""
    return [
        f.name for f in fields(cls)
        if f.name not in d and f.default is MISSING and f.default_factory is MISSING
    ]


def _check_fields(cls, tag: str, values: dict) -> None:
    """Reject ``values`` that name a field ``cls`` lacks or leave out one it needs."""
    unknown = [n for n in values if n not in {f.name for f in fields(cls)}]
    if unknown:
        raise InvalidSpecError(f"{tag} has no field {', '.join(unknown)}")
    missing = _missing(cls, values)
    if missing:
        raise InvalidSpecError(f"{tag} needs {', '.join(missing)}")


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _build(cls, tag: str, values: dict):
    """``cls`` from its field values, each read as its declared type."""
    _check_fields(cls, tag, values)
    return cls(**{n: _coerce(_hints(cls)[n], v, f"{tag}.{n}") for n, v in values.items()})


def _coerce(tp, v, name: str):
    if tp in _TABLES:
        return _decode(tp, v)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:  # Optional[X]
        return None if v is None else _coerce(args[0], v, name)
    if origin is tuple:
        if not isinstance(v, (list, tuple)):
            raise InvalidSpecError(f"{name} must be a list, got {v!r}")
        if args[-1] is Ellipsis:
            return tuple(_coerce(args[0], x, name) for x in v)
        if len(v) != len(args):
            raise InvalidSpecError(f"{name} entries need {len(args)} values, got {v!r}")
        return tuple(_coerce(t, x, name) for t, x in zip(args, v))
    if tp is bool and type(v) is not bool:
        raise InvalidSpecError(f"{name} must be true or false, got {v!r}")
    # a JSON integer, or an integral float such as 1.0; never a boolean
    if tp is int and not (type(v) is int or type(v) is float and v.is_integer()):
        raise InvalidSpecError(f"{name} must be an integer, got {v!r}")
    # a JSON number; never a boolean or a string
    if tp is float and (type(v) is bool or not isinstance(v, (int, float))):
        raise InvalidSpecError(f"{name} must be a float, got {v!r}")
    try:
        x = tp(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if tp is float and not math.isfinite(x):
        raise InvalidSpecError(f"{name} must be a finite number, got {v!r}")
    return x


def parse_beta_shorthand(text: str) -> b.BetaSpec:
    """'family:x1,x2,...', the family's float fields in order; trailing
    fields with a default may be left out.  E.g. 'indicator:0.2',
    'powerlaw:1.0,1.0', 'explogsquare:0.25,1.0' (b = 0)."""
    tag, _, args = text.partition(":")
    cls = FAMILIES.get(tag)
    if cls is None:
        raise InvalidSpecError(
            f"unknown profile family {tag!r} in {text!r}; choose one of {', '.join(FAMILIES)}"
        )
    names = [f.name for f in fields(cls)]
    if any(_hints(cls)[n] is not float for n in names):
        raise InvalidSpecError(
            f"profile family {tag} has no shorthand: its fields are not numbers"
        )
    vals = args.split(",") if args else []
    need = len(_missing(cls, {}))
    if not need <= len(vals) <= len(names):
        count = need if need == len(names) else f"{need} to {len(names)}"
        raise InvalidSpecError(
            f"{tag} takes {count} value{'s' * (len(names) > 1)} ({', '.join(names)}),"
            f" got {len(vals)} in {text!r}"
        )
    values = {}
    for n, v in zip(names, vals):
        try:
            values[n] = float(v)
        except ValueError:
            raise InvalidSpecError(f"{tag}.{n} must be a float, got {v!r}") from None
    return _build(cls, tag, values)


def case_params_from_dict(d: dict):
    name = d.get("case")
    if name not in CASES:
        raise InvalidSpecError(f"unknown case {name!r}")
    values = {n: v for n, v in d.items() if n != "case"}
    _check_fields(CASES[name].params, f"case {name}", values)
    return CASES[name].params(**values)


def load_config(path: str) -> dict:
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise InvalidSpecError(f"config {path} must hold a JSON object")
    return d
