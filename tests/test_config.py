import dataclasses
import json

import numpy as np
import pytest

from wpgibbs import (
    AdjointShift,
    Clamped,
    Composite,
    ExpLogSquare,
    ExpLogSquareConjugate,
    GridKStar,
    Indicator,
    Linear,
    Power,
    PowerLaw,
    Sum,
    Table,
)
from wpgibbs.cases import BayesParams, NIGParams, OUParams
from wpgibbs.config import (
    FAMILIES,
    KINDS,
    beta_from_dict,
    case_params_from_dict,
    load_config,
    parse_beta_shorthand,
    to_dict,
)
from wpgibbs.errors import InvalidSpecError

# one example per registry entry: a family or kind added without one fails
BETAS = {
    Indicator: Indicator(gamma=0.3),
    PowerLaw: PowerLaw(coefficient=2.0, exponent=0.5),
    ExpLogSquare: ExpLogSquare(c=0.25, a=1.0, b=0.5),
    Table: Table(knots=((1.0, 0.2), (10.0, 0.05))),
    Sum: Sum(children=(Indicator(gamma=0.3), PowerLaw(coefficient=1.0, exponent=1.0))),
    AdjointShift: AdjointShift(child=PowerLaw(coefficient=1.0, exponent=1.0)),
}
KSTARS = {
    Linear: Linear(slope=0.4),
    ExpLogSquareConjugate: ExpLogSquareConjugate(c=0.25, a=1.0, b=0.5),
    Power: Power(coefficient=0.25, exponent=2.0),
    Clamped: Clamped(child=Linear(slope=2.0)),
    Composite: Composite(outer=Linear(slope=0.5), inner=Power(coefficient=0.3, exponent=1.5),
                         pre_scale=0.25, post_scale=2.0, offset=1),
    GridKStar: GridKStar(v_knots=(0.05, 0.1, 0.25), values=(0.005, 0.012, 0.04)),
}


def _json_round_trip(spec, from_dict):
    d = to_dict(spec)
    back = from_dict(json.loads(json.dumps(d)))
    assert back == spec
    assert to_dict(back) == d
    return back


@pytest.mark.parametrize("cls", FAMILIES.values(), ids=lambda c: c.__name__)
def test_beta_round_trip(cls):
    spec = BETAS[cls]
    back = _json_round_trip(spec, beta_from_dict)
    for s in (0.5, 1.0, 7.0, 123.0):
        assert back(s) == spec(s)


@pytest.mark.parametrize("cls", KINDS.values(), ids=lambda c: c.__name__)
def test_kstar_round_trip(cls):
    """A rate function is only written (into bound_meta.json), never read
    back: its dict holds only JSON values, so the text reads back as the
    same dict (a tuple left unconverted would read back as a list)."""
    d = to_dict(KSTARS[cls])
    assert json.loads(json.dumps(d, allow_nan=False)) == d


def test_tags_are_written_first_with_the_fields_in_order():
    assert list(to_dict(BETAS[ExpLogSquare])) == ["family", "c", "a", "b"]
    assert to_dict(BETAS[Table]) == {"family": "table", "knots": [[1.0, 0.2], [10.0, 0.05]]}
    assert list(to_dict(KSTARS[Composite])) == [
        "kind", "outer", "inner", "pre_scale", "post_scale", "offset"]
    assert to_dict(Composite(outer=Linear(1.0)))["inner"] is None
    # every registered class: its tag, then each field as to_dict writes it
    for key, table, examples in (("family", FAMILIES, BETAS), ("kind", KINDS, KSTARS)):
        for tag, cls in table.items():
            spec = examples[cls]
            d = to_dict(spec)
            assert list(d) == [key] + [f.name for f in dataclasses.fields(cls)]
            assert d[key] == tag
            assert all(d[f.name] == to_dict(getattr(spec, f.name))
                       for f in dataclasses.fields(cls))


def test_nested_specs_round_trip():
    beta = Sum(children=(
        AdjointShift(child=Sum(children=(Table(knots=((1.0, 0.2), (5.0, 0.0))),
                                         Indicator(gamma=2.0)))),
        AdjointShift(child=AdjointShift(child=ExpLogSquare(c=0.2, a=0.5))),
        PowerLaw(coefficient=1.0, exponent=2.0),
    ))
    _json_round_trip(beta, beta_from_dict)
    kstar = Composite(
        outer=Clamped(child=Composite(outer=GridKStar(v_knots=(0.1, 0.25), values=(0.01, 0.05)),
                                      inner=Clamped(child=Power(0.5, 2.0)), offset=1)),
        inner=Composite(outer=Linear(0.5), pre_scale=0.25, post_scale=0.5),
        post_scale=2.0,
    )
    assert to_dict(kstar) == {
        "kind": "composite",
        "outer": {"kind": "clamped", "child": {
            "kind": "composite",
            "outer": {"kind": "grid", "v_knots": [0.1, 0.25], "values": [0.01, 0.05],
                      "convexified": False},
            "inner": {"kind": "clamped", "child": {"kind": "power", "coefficient": 0.5,
                                                   "exponent": 2.0}},
            "pre_scale": 1.0, "post_scale": 1.0, "offset": 1}},
        "inner": {"kind": "composite", "outer": {"kind": "linear", "slope": 0.5},
                  "inner": None, "pre_scale": 0.25, "post_scale": 0.5, "offset": 0},
        "pre_scale": 1.0, "post_scale": 2.0, "offset": 0,
    }


def test_int_valued_spec_reads_back_as_floats():
    back = beta_from_dict({"family": "sum", "children": [
        {"family": "powerlaw", "coefficient": 2, "exponent": 1},
        {"family": "adjoint_shift", "child": {"family": "table", "knots": [[1, 1], [10, 0]]}},
    ]})
    power, shift = back.children
    assert type(power.coefficient) is float and type(power.exponent) is float
    assert all(type(x) is float for knot in shift.child.knots for x in knot)
    assert back == Sum(children=(PowerLaw(2.0, 1.0),
                                 AdjointShift(Table(knots=((1.0, 1.0), (10.0, 0.0))))))


@pytest.mark.parametrize("d,message", [
    ({"family": "explogsquare", "a": 1.0}, "explogsquare needs c"),
    ({"family": "powerlaw"}, "powerlaw needs coefficient, exponent"),
    ({"family": "sum", "children": [{"family": "adjoint_shift"}]}, "adjoint_shift needs child"),
    ({"family": "indicator", "gamma": 0.5, "cap": 0.25}, "indicator has no field cap"),
    ({"family": "mixture"}, "unknown family 'mixture'"),
    ({"gamma": 0.5}, "unknown family None"),
    ({"family": "indicator", "gamma": "fast"}, "indicator.gamma must be a number"),
    ({"family": "table", "knots": [[1.0, 0.2, 3.0]]}, "table.knots entries need 2 values"),
    ({"family": "table", "knots": 1.0}, "table.knots must be a list"),
    # a rate function is not read where a profile is expected
    ({"family": "adjoint_shift", "child": {"kind": "linear", "slope": 1.0}},
     "unknown family None"),
    # every nested profile is a JSON object
    ({"family": "sum", "children": [{"family": "indicator", "gamma": 0.5}, 0.5]},
     "a family spec must be a JSON object, got 0.5"),
    ({"family": "powerlaw", "coefficient": float("inf"), "exponent": 1.0},
     "powerlaw.coefficient must be a finite number"),
    ({"family": "indicator", "gamma": float("nan")}, "indicator.gamma must be a finite number"),
    # a number field takes only a JSON number: never a boolean or a numeric string
    ({"family": "indicator", "gamma": True}, "indicator.gamma must be a number, got True"),
    ({"family": "indicator", "gamma": "0.5"}, "indicator.gamma must be a number, got '0.5'"),
    ({"family": "table", "knots": [[1.0, False]]}, "table.knots must be a number, got False"),
])
def test_spec_errors_name_the_keys(d, message):
    with pytest.raises(InvalidSpecError, match=message):
        beta_from_dict(d)


def test_unregistered_spec_has_no_json_form():
    from wpgibbs.cases import NIGBeta1

    with pytest.raises(InvalidSpecError, match="NIGBeta1"):
        to_dict(NIGBeta1(NIGParams(beta_hyper=1.0)))


def test_shorthand_parsing():
    assert parse_beta_shorthand("indicator:0.2") == Indicator(gamma=0.2)
    assert parse_beta_shorthand("powerlaw:1.5,2.0") == PowerLaw(
        coefficient=1.5, exponent=2.0
    )
    e = parse_beta_shorthand("explogsquare:0.25,1.0,0.5")
    assert (e.c, e.a, e.b) == (0.25, 1.0, 0.5)
    assert parse_beta_shorthand("explogsquare:0.25,1.0") == ExpLogSquare(0.25, 1.0, 0.0)
    with pytest.raises(InvalidSpecError):
        parse_beta_shorthand("nosuchfamily:1.0")
    with pytest.raises(InvalidSpecError):
        parse_beta_shorthand("indicator")


@pytest.mark.parametrize("text,message", [
    ("indicator:0.2,9", "indicator takes 1 value \\(gamma\\), got 2"),
    ("powerlaw:1.0", "powerlaw takes 2 values \\(coefficient, exponent\\), got 1"),
    ("explogsquare:0.25", "explogsquare takes 2 to 3 values \\(c, a, b\\), got 1"),
    ("explogsquare:0.25,1,0,2", "got 4"),
    ("table:1", "table has no shorthand"),
    ("sum:1,2", "sum has no shorthand"),
    ("indicator:x", "indicator.gamma must be a number"),
])
def test_shorthand_errors(text, message):
    with pytest.raises(InvalidSpecError, match=message):
        parse_beta_shorthand(text)


@pytest.mark.parametrize("tag", FAMILIES)
def test_shorthand_is_the_float_fields_in_order(tag):
    d = to_dict(BETAS[FAMILIES[tag]])
    values = list(d.values())[1:]
    text = f"{tag}:" + ",".join(repr(v) for v in values)
    if all(type(v) is float for v in values):
        assert parse_beta_shorthand(text) == BETAS[FAMILIES[tag]]
    else:
        with pytest.raises(InvalidSpecError, match="no shorthand"):
            parse_beta_shorthand(text)


def test_case_params_round_trip():
    nig = NIGParams(beta_hyper=2.0)
    bayes = BayesParams(
        a=2.0,
        b=1.0,
        X=((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)),
        Y=(0.5, -0.2, 0.9),
        sigma0=0.1,
    )
    ou = OUParams(mu0=0.5, tau0=1.0, times=(0.0, 0.5, 1.0), obs=(0.2, 0.1, 0.3), M=8)
    for params in (nig, ou):
        d = to_dict(params)
        back = case_params_from_dict(json.loads(json.dumps(d)))
        assert back == params
    back = case_params_from_dict(json.loads(json.dumps(to_dict(bayes))))
    assert (back.a, back.b, back.sigma0) == (bayes.a, bayes.b, bayes.sigma0)
    assert np.array_equal(back.X, bayes.X)
    assert np.array_equal(back.Y, bayes.Y)


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    nig = NIGParams(beta_hyper=1.5, sigma0=0.2)
    path.write_text(json.dumps(to_dict(nig)))
    assert case_params_from_dict(load_config(path)) == nig


def test_int_valued_config_round_trips_to_floats(tmp_path):
    configs = [
        {"case": "nig", "beta_hyper": 2, "sigma0": 1, "gamma_dg": 1},
        {"case": "bayes", "a": 3, "b": 1, "X": [[1, 0], [0, 1], [1, 1]], "Y": [1, 0, 2],
         "sigma0": 1},
        {"case": "ou", "mu0": 0, "tau0": 1, "times": [0, 1, 2], "obs": [0, 1, 0], "M": 8.0,
         "envelope_K": 2},
    ]
    for cfg in configs:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        # the JSON text keeps the difference: 3 reads back as int, 3.0 as float
        d = json.loads(json.dumps(to_dict(case_params_from_dict(load_config(path)))))
        for key, value in cfg.items():
            if key == "M":
                assert type(d[key]) is int and d[key] == 8
            elif key not in ("case", "X", "Y", "times", "obs"):
                assert type(d[key]) is float and d[key] == value


def test_case_params_errors_name_the_keys():
    with pytest.raises(InvalidSpecError, match="b, X, Y, sigma0"):
        case_params_from_dict({"case": "bayes", "a": 2.0})
    with pytest.raises(InvalidSpecError, match="beta_hyper must be a number"):
        case_params_from_dict({"case": "nig", "beta_hyper": None})
    with pytest.raises(InvalidSpecError, match="unknown case"):
        case_params_from_dict({"case": "custom"})


@pytest.mark.parametrize("bad,wording", [
    (True, "must be a number, got True"),
    ("0.5", "must be a number, got '0.5'"),
    (float("inf"), "must be a finite number, got inf"),
    (float("nan"), "must be a finite number, got nan"),
])
def test_profiles_and_case_params_reject_a_bad_number_alike(bad, wording):
    """One check reads every JSON number, so a profile field and a case
    param reject the same value in the same words."""
    with pytest.raises(InvalidSpecError, match=f"^indicator.gamma {wording}$"):
        beta_from_dict({"family": "indicator", "gamma": bad})
    with pytest.raises(InvalidSpecError, match=f"^beta_hyper {wording}$"):
        case_params_from_dict({"case": "nig", "beta_hyper": bad})
