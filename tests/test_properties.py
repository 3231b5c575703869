"""Property tests of the solver's invariants on drawn weighted problems."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from kqreg.kernels import Gaussian
from kqreg.solver import DataSet, FitOptions, Model, duality_gap, fit, objective

SPEC = Gaussian(sigma=0.7)
TIGHT = FitOptions(gap_tol=1e-10)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)

coords = st.floats(0.0, 1.0, allow_subnormal=False)
values = st.floats(-2.0, 2.0, allow_subnormal=False)


@st.composite
def problems(draw):
    """(inputs, responses, integer multiplicities, lambda, tau)."""
    n = draw(st.integers(1, 10))
    d = draw(st.integers(1, 2))
    X = np.array(draw(st.lists(st.lists(coords, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    y = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    mult = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    lam = draw(st.floats(1e-2, 1.0))
    tau = draw(st.floats(0.05, 0.95))
    return X, y, mult, lam, tau


def weighted(X, y, mult) -> DataSet:
    return DataSet(inputs=X, responses=y, weights=mult / mult.sum())


@PROPERTY
@given(problems())
def test_dual_in_box_and_gap_nonnegative(problem):
    X, y, mult, lam, tau = problem
    data = weighted(X, y, mult)
    model = fit(SPEC, data, lam=lam, tau=tau)
    assert np.all(model.dual >= -tau) and np.all(model.dual <= 1.0 - tau)
    assert duality_gap(model, data) >= -1e-12


@PROPERTY
@given(problems())
def test_multiplicity_weights_match_replicated_points(problem):
    # weight m_i / sum(m) on x_i is the problem with x_i repeated m_i times;
    # lambda-strong convexity puts each fit within sqrt(gap / lambda) of the
    # common minimizer in the RKHS norm, which bounds Gaussian values too
    X, y, mult, lam, tau = problem
    data_w = weighted(X, y, mult)
    data_r = DataSet(inputs=np.repeat(X, mult, axis=0), responses=np.repeat(y, mult))
    mw = fit(SPEC, data_w, lam=lam, tau=tau, opts=TIGHT)
    mr = fit(SPEC, data_r, lam=lam, tau=tau, opts=TIGHT)
    _, ow = objective(mw, data_w)
    _, orr = objective(mr, data_r)
    assert abs(ow - orr) <= max(mw.gap, mr.gap) + 1e-12
    dist = math.sqrt(max(mw.gap, 0.0) / lam) + math.sqrt(max(mr.gap, 0.0) / lam)
    assert np.max(np.abs(mw.predict(X) - mr.predict(X))) <= dist + 1e-9


@PROPERTY
@given(problems())
def test_weighted_model_file_keeps_certificate(tmp_path_factory, problem):
    X, y, mult, lam, tau = problem
    data = weighted(X, y, mult)
    model = fit(SPEC, data, lam=lam, tau=tau)
    path = tmp_path_factory.mktemp("model") / "model.json"
    model.save(path)
    back = Model.load(path)
    assert np.array_equal(back.alpha, model.alpha)
    assert np.array_equal(back.dual, model.dual)
    f = back.predict(X)
    dual_obj = -float(np.sum(data.weights * back.dual * y)) - lam * float(back.alpha @ f)
    assert -1e-12 <= duality_gap(back, data) <= FitOptions().gap_tol * (1.0 + abs(dual_obj))
