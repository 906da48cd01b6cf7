import numpy as np
import pytest

from parma import PeriodicModel


def random_model(rng, p=None, q=None, l=None, coef_scale=1.0,
                 sigma_range=(0.2, 2.0), drift_scale=1.0) -> PeriodicModel:
    """Random valid model; orders/period drawn when not pinned."""
    if l is None:
        l = int(rng.integers(1, 7))
    if p is None:
        p = int(rng.integers(0, 5))
    if q is None:
        q = int(rng.integers(0, 4))
    return PeriodicModel(
        l=l, p=p, q=q,
        drift=rng.uniform(-drift_scale, drift_scale, l),
        ar=rng.uniform(-coef_scale, coef_scale, (p, l)),
        ma=rng.uniform(-coef_scale, coef_scale, (q, l)),
        sigma2=rng.uniform(*sigma_range, l),
    )


def same_bits(a, b):
    """Equal shape, dtype and every bit of every value."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_stationary_model(rng, max_tries=200, **kwargs) -> PeriodicModel:
    """Rejection-sample a model whose stacked AR companion radius is < 0.95."""
    from parma.vsform import build_vsform, stationarity

    for _ in range(max_tries):
        model = random_model(rng, **kwargs)
        if model.p == 0:
            return model
        verdict = stationarity(build_vsform(model))
        if verdict.max_root_modulus < 0.95:
            return model
    raise AssertionError("could not draw a stationary model")


def daily_model():
    """Daily-shaped stationary model: l=365, p=4, q=2."""
    rng = np.random.default_rng(365)
    l = 365
    ar = rng.uniform(-0.05, 0.05, (4, l))
    ar[0] = 0.75 + 0.12 * np.sin(2 * np.pi * np.arange(l) / l) \
        + rng.uniform(-0.03, 0.03, l)
    return PeriodicModel(l=l, p=4, q=2, drift=rng.uniform(-1, 1, l), ar=ar,
                         ma=rng.uniform(-0.6, 0.6, (2, l)),
                         sigma2=rng.uniform(0.5, 2.0, l))


@pytest.fixture
def rng():
    return np.random.default_rng(20240318)


def naive_error_weights(model, t, horizon) -> np.ndarray:
    """Per-lag loop over one Green table: the reference for ``error_weights``."""
    from parma import green_coefficients

    g = green_coefficients(model, t, horizon - 1).values
    out = g[:horizon].copy()
    if model.q == 0:
        return out
    s0 = model.clock.season0
    for r in range(horizon):
        acc = 0.0
        for j in range(1, min(model.q, r) + 1):
            acc += g[r - j] * model.ma[j - 1, s0(t - r + j)]
        out[r] += acc
    return out


def naive_known_weights(model, t, lead) -> np.ndarray:
    """Per-weight loop: the weights on the ``q`` innovations known ``lead`` steps
    before ``t``, on ``eps_{t-lead}, ..., eps_{t-lead-q+1}``, in ``y_t``'s predictor."""
    from parma import green_coefficients

    g = green_coefficients(model, t, lead - 1).values
    s0 = model.clock.season0
    out = np.zeros(model.q)
    for idx, r in enumerate(range(lead, lead + model.q)):
        acc = 0.0
        for j in range(r - lead + 1, model.q + 1):
            if 0 <= r - j:
                acc += g[r - j] * model.ma[j - 1, s0(t - r + j)]
        out[idx] = acc
    return out
