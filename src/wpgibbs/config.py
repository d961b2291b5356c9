"""JSON (de)serialization of profile specs, rate functions, and case params.

Every CLI artifact embeds the fully resolved configuration produced here, so
runs are reproducible from their own metadata.  Each of these is written as
its dataclass fields under a tag (``family``, ``kind`` or ``case``).
Profiles and case params are read back, every number through the one check
``cases._number``; nothing reads a rate function back.
"""
from __future__ import annotations

import functools
import json
import typing
from dataclasses import MISSING, fields

import numpy as np

from . import beta as b
from . import kstar as k
from .cases import CASES, _number
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

# (tag key, tag) of every class ``to_dict`` writes
_TAG_OF = {
    cls: (key, tag)
    for key, table in (("family", FAMILIES), ("kind", KINDS),
                       ("case", {n: c.params for n, c in CASES.items()}))
    for tag, cls in table.items()
}


def to_dict(v):
    """A JSON-ready copy of a profile, rate function or case params (its tag,
    then its fields in order), recursing into field values; tuples and arrays
    become lists."""
    tagged = _TAG_OF.get(type(v))
    if tagged is not None:
        return {tagged[0]: tagged[1], **{f.name: to_dict(getattr(v, f.name)) for f in fields(v)}}
    if isinstance(v, (b.BetaSpec, k.KStarFn)):
        raise InvalidSpecError(f"{type(v).__name__} has no JSON form")
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, tuple):
        # every declared tuple field is homogeneous: a float one, such as a
        # GridKStar's 200 knots, is copied without a call per element
        return list(v) if v and isinstance(v[0], float) else [to_dict(x) for x in v]
    return v


def beta_from_dict(d: dict) -> b.BetaSpec:
    if not isinstance(d, dict):
        raise InvalidSpecError(f"a family spec must be a JSON object, got {d!r}")
    tag = d.get("family")
    if tag not in FAMILIES:
        raise InvalidSpecError(f"unknown family {tag!r}; choose one of {', '.join(FAMILIES)}")
    return _build(FAMILIES[tag], tag, {n: v for n, v in d.items() if n != "family"})


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
    """``v`` read as a profile field of declared type ``tp``: a nested
    profile, a list of the tuple's shape, or a finite number."""
    if tp is b.BetaSpec:
        return beta_from_dict(v)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        if not isinstance(v, (list, tuple)):
            raise InvalidSpecError(f"{name} must be a list, got {v!r}")
        if args[-1] is Ellipsis:
            return tuple(_coerce(args[0], x, name) for x in v)
        if len(v) != len(args):
            raise InvalidSpecError(f"{name} entries need {len(args)} values, got {v!r}")
        return tuple(_coerce(t, x, name) for t, x in zip(args, v))
    return _number(name, v)


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
            raise InvalidSpecError(f"{tag}.{n} must be a number, got {v!r}") from None
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
