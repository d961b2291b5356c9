import json

import numpy as np
import pytest

from wpgibbs import (
    AdjointShift,
    Clamped,
    Composite,
    ExpLogSquare,
    GridKStar,
    Indicator,
    Linear,
    MonteCarloMixture,
    Power,
    PowerLaw,
    Sum,
    Table,
)
from wpgibbs.cases import BayesParams, NIGParams, OUParams
from wpgibbs.config import (
    beta_from_dict,
    beta_to_dict,
    case_params_from_dict,
    case_params_to_dict,
    kstar_from_dict,
    kstar_to_dict,
    load_config,
    parse_beta_shorthand,
)
from wpgibbs.errors import InvalidSpecError


BETAS = [
    Indicator(gamma=0.3),
    PowerLaw(coefficient=2.0, exponent=0.5),
    ExpLogSquare(c=0.25, a=1.0, b=0.5),
    Table(knots=((1.0, 0.2), (10.0, 0.05))),
    Sum(children=(Indicator(gamma=0.3), PowerLaw(coefficient=1.0, exponent=1.0))),
    AdjointShift(child=PowerLaw(coefficient=1.0, exponent=1.0)),
]


@pytest.mark.parametrize("spec", BETAS, ids=lambda b: type(b).__name__)
def test_beta_round_trip(spec):
    d = beta_to_dict(spec)
    back = beta_from_dict(json.loads(json.dumps(d)))
    for s in (0.5, 1.0, 7.0, 123.0):
        assert back(s) == spec(s)


def test_monte_carlo_mixture_not_serializable():
    mix = MonteCarloMixture(
        make_child=lambda g: Indicator(gamma=g),
        param_sampler=lambda rng: rng.uniform(0.1, 1.0),
        n_samples=16,
    )
    with pytest.raises(InvalidSpecError):
        beta_to_dict(mix)


def test_shorthand_parsing():
    assert parse_beta_shorthand("indicator:0.2") == Indicator(gamma=0.2)
    assert parse_beta_shorthand("powerlaw:1.5,2.0") == PowerLaw(
        coefficient=1.5, exponent=2.0
    )
    e = parse_beta_shorthand("explogsquare:0.25,1.0,0.5")
    assert (e.c, e.a, e.b) == (0.25, 1.0, 0.5)
    with pytest.raises(InvalidSpecError):
        parse_beta_shorthand("nosuchfamily:1.0")
    with pytest.raises(InvalidSpecError):
        parse_beta_shorthand("indicator")


from wpgibbs import ExpLogSquareConjugate

KSTARS = [
    Linear(slope=0.4),
    ExpLogSquareConjugate(c=0.25, a=1.0, b=0.5),
    Power(coefficient=0.25, exponent=2.0),
    Clamped(child=Linear(slope=2.0)),
    Composite(outer=Linear(slope=0.5), inner=Power(coefficient=0.3, exponent=1.5),
              pre_scale=0.25, post_scale=2.0, offset=1),
    GridKStar(v_knots=(0.05, 0.1, 0.25), values=(0.005, 0.012, 0.04)),
]


@pytest.mark.parametrize("k", KSTARS, ids=lambda k: type(k).__name__)
def test_kstar_round_trip(k):
    d = kstar_to_dict(k)
    back = kstar_from_dict(json.loads(json.dumps(d)))
    for v in (0.01, 0.1, 0.25):
        assert back(v) == pytest.approx(k(v), rel=1e-12)
    assert back.n_offset == k.n_offset


def test_case_params_round_trip():
    nig = NIGParams(beta_hyper=2.0, sigma_xi="scaled", sigma_tau="scaled")
    bayes = BayesParams(
        a=2.0,
        b=1.0,
        X=((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)),
        Y=(0.5, -0.2, 0.9),
        sigma0=0.1,
    )
    ou = OUParams(mu0=0.5, tau0=1.0, times=(0.0, 0.5, 1.0), obs=(0.2, 0.1, 0.3), M=8)
    for params in (nig, ou):
        d = case_params_to_dict(params)
        back = case_params_from_dict(json.loads(json.dumps(d)))
        assert back == params
    back = case_params_from_dict(json.loads(json.dumps(case_params_to_dict(bayes))))
    assert (back.a, back.b, back.sigma0) == (bayes.a, bayes.b, bayes.sigma0)
    assert np.array_equal(back.X, bayes.X)
    assert np.array_equal(back.Y, bayes.Y)


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    nig = NIGParams(beta_hyper=1.5, sigma_xi=0.2, sigma_tau=0.2)
    path.write_text(json.dumps(case_params_to_dict(nig)))
    assert case_params_from_dict(load_config(path)) == nig


def test_int_valued_config_round_trips_to_floats(tmp_path):
    configs = [
        {"case": "nig", "beta_hyper": 2, "sigma_xi": 1, "sigma_tau": 1, "gamma_dg": 1},
        {"case": "bayes", "a": 3, "b": 1, "X": [[1, 0], [0, 1], [1, 1]], "Y": [1, 0, 2],
         "sigma0": 1},
        {"case": "ou", "mu0": 0, "tau0": 1, "times": [0, 1, 2], "obs": [0, 1, 0], "M": 8.0,
         "envelope_K": 2},
    ]
    for cfg in configs:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        # the JSON text keeps the difference: 3 reads back as int, 3.0 as float
        d = json.loads(json.dumps(case_params_to_dict(case_params_from_dict(load_config(path)))))
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
