"""JSON (de)serialization of profile specs, rate functions, and case params.

Every CLI artifact embeds the fully resolved configuration produced here, so
runs are reproducible from their own metadata.
"""
from __future__ import annotations

import json
from dataclasses import MISSING, fields

import numpy as np

from . import beta as b
from . import kstar as k
from .cases import CASES
from .errors import InvalidSpecError


def beta_to_dict(spec: b.BetaSpec) -> dict:
    if isinstance(spec, b.Indicator):
        return {"family": "indicator", "gamma": spec.gamma}
    if isinstance(spec, b.PowerLaw):
        return {
            "family": "powerlaw",
            "coefficient": spec.coefficient,
            "exponent": spec.exponent,
        }
    if isinstance(spec, b.ExpLogSquare):
        return {"family": "explogsquare", "c": spec.c, "a": spec.a, "b": spec.b}
    if isinstance(spec, b.Table):
        return {"family": "table", "knots": [list(kn) for kn in spec.knots]}
    if isinstance(spec, b.Sum):
        return {
            "family": "sum",
            "children": [beta_to_dict(ch) for ch in spec.children],
        }
    if isinstance(spec, b.AdjointShift):
        return {"family": "adjoint_shift", "child": beta_to_dict(spec.child)}
    if isinstance(spec, b.MonteCarloMixture):
        raise InvalidSpecError(
            "Monte Carlo mixtures are defined by callables and cannot be "
            "serialized; persist the sampled Table approximation instead"
        )
    raise InvalidSpecError(f"unknown profile family {type(spec).__name__}")


def beta_from_dict(d: dict) -> b.BetaSpec:
    fam = d.get("family")
    if fam == "indicator":
        return b.Indicator(gamma=float(d["gamma"]))
    if fam == "powerlaw":
        return b.PowerLaw(
            coefficient=float(d["coefficient"]), exponent=float(d["exponent"])
        )
    if fam == "explogsquare":
        return b.ExpLogSquare(
            c=float(d["c"]), a=float(d["a"]), b=float(d.get("b", 0.0))
        )
    if fam == "table":
        return b.Table(knots=tuple(tuple(map(float, kn)) for kn in d["knots"]))
    if fam == "sum":
        return b.Sum(children=tuple(beta_from_dict(ch) for ch in d["children"]))
    if fam == "adjoint_shift":
        return b.AdjointShift(child=beta_from_dict(d["child"]))
    raise InvalidSpecError(f"unknown profile family {fam!r}")


def parse_beta_shorthand(text: str) -> b.BetaSpec:
    """Parse 'indicator:0.2', 'powerlaw:1.0,1.0', 'explogsquare:0.25,1.0,0'."""
    try:
        fam, _, args = text.partition(":")
        vals = [float(v) for v in args.split(",")] if args else []
        if fam == "indicator":
            return b.Indicator(gamma=vals[0])
        if fam == "powerlaw":
            return b.PowerLaw(coefficient=vals[0], exponent=vals[1])
        if fam == "explogsquare":
            bb = vals[2] if len(vals) > 2 else 0.0
            return b.ExpLogSquare(c=vals[0], a=vals[1], b=bb)
    except (IndexError, ValueError) as exc:
        raise InvalidSpecError(f"cannot parse profile {text!r}: {exc}")
    raise InvalidSpecError(f"unknown profile shorthand {text!r}")


def kstar_to_dict(fn: k.KStarFn) -> dict:
    if isinstance(fn, k.Linear):
        return {"kind": "linear", "slope": fn.slope}
    if isinstance(fn, k.Power):
        return {"kind": "power", "coefficient": fn.coefficient, "exponent": fn.exponent}
    if isinstance(fn, k.ExpLogSquareConjugate):
        return {"kind": "explogsquare_conjugate", "c": fn.c, "a": fn.a, "b": fn.b}
    if isinstance(fn, k.Clamped):
        return {"kind": "clamped", "child": kstar_to_dict(fn.child)}
    if isinstance(fn, k.Composite):
        return {
            "kind": "composite",
            "outer": kstar_to_dict(fn.outer),
            "inner": None if fn.inner is None else kstar_to_dict(fn.inner),
            "pre_scale": fn.pre_scale,
            "post_scale": fn.post_scale,
            "offset": fn.offset,
        }
    if isinstance(fn, k.GridKStar):
        return {
            "kind": "grid",
            "v_knots": list(fn.v_knots),
            "values": list(fn.values),
            "convexified": fn.convexified,
        }
    raise InvalidSpecError(f"unknown rate-function kind {type(fn).__name__}")


def kstar_from_dict(d: dict) -> k.KStarFn:
    kind = d.get("kind")
    if kind == "linear":
        return k.Linear(slope=float(d["slope"]))
    if kind == "power":
        return k.Power(coefficient=float(d["coefficient"]), exponent=float(d["exponent"]))
    if kind == "explogsquare_conjugate":
        return k.ExpLogSquareConjugate(c=float(d["c"]), a=float(d["a"]), b=float(d["b"]))
    if kind == "clamped":
        return k.Clamped(child=kstar_from_dict(d["child"]))
    if kind == "composite":
        inner = d.get("inner")
        return k.Composite(
            outer=kstar_from_dict(d["outer"]),
            inner=None if inner is None else kstar_from_dict(inner),
            pre_scale=float(d.get("pre_scale", 1.0)),
            post_scale=float(d.get("post_scale", 1.0)),
            offset=int(d.get("offset", 0)),
        )
    if kind == "grid":
        return k.GridKStar(
            v_knots=tuple(map(float, d["v_knots"])),
            values=tuple(map(float, d["values"])),
            convexified=bool(d.get("convexified", False)),
        )
    raise InvalidSpecError(f"unknown rate-function kind {kind!r}")


def _plain(v):
    """A JSON-ready copy of one params field."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    return list(v) if isinstance(v, tuple) else v


def case_params_to_dict(p) -> dict:
    for name, case in CASES.items():
        if type(p) is case.params:
            return {"case": name, **{f.name: _plain(getattr(p, f.name)) for f in fields(p)}}
    raise InvalidSpecError(f"unknown case parameters {type(p).__name__}")


def case_params_from_dict(d: dict):
    name = d.get("case")
    if name not in CASES:
        raise InvalidSpecError(f"unknown case {name!r}")
    params = fields(CASES[name].params)
    missing = [
        f.name for f in params
        if f.name not in d and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise InvalidSpecError(f"{name} params need {', '.join(missing)}")
    return CASES[name].params(**{f.name: d[f.name] for f in params if f.name in d})


def load_config(path: str) -> dict:
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise InvalidSpecError(f"config {path} must hold a JSON object")
    return d
