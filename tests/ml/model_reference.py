"""Reference NumPy implementations of the five learning algorithms.

These mirror the DSL gradient formulations with plain NumPy so tests can
cross-validate the whole CoSMIC pipeline (DSL -> DFG -> interpreter ->
distributed trainer) against independently-written math.
"""

from typing import Dict, Mapping

import numpy as np

Feeds = Mapping[str, np.ndarray]
Model = Dict[str, np.ndarray]


def _sigmoid(v: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(v, -30, 30)))


# -- per-sample/batch gradients ------------------------------------------------


def linreg_gradient(model: Model, feeds: Feeds) -> Model:
    """Mean squared-loss gradient over the batch."""
    x, y = feeds["x"], feeds["y"]
    err = x @ model["w"] - y
    return {"g": (err[:, None] * x).mean(axis=0)}


def logreg_gradient(model: Model, feeds: Feeds) -> Model:
    x, y = feeds["x"], feeds["y"]
    p = _sigmoid(x @ model["w"])
    return {"g": ((p - y)[:, None] * x).mean(axis=0)}


def svm_gradient(model: Model, feeds: Feeds) -> Model:
    x, y = feeds["x"], feeds["y"]
    margins = y * (x @ model["w"])
    active = (margins < 1).astype(float)
    return {"g": (-(active * y)[:, None] * x).mean(axis=0)}


def mlp_gradients(model: Model, feeds: Feeds) -> Model:
    """Backprop through one hidden sigmoid layer, squared loss."""
    x, y = feeds["x"], feeds["y"]
    hid = _sigmoid(x @ model["w1"])
    out = _sigmoid(hid @ model["w2"])
    d2 = (out - y) * out * (1 - out)
    g2 = np.einsum("bh,bc->bhc", hid, d2).mean(axis=0)
    d1 = (d2 @ model["w2"].T) * hid * (1 - hid)
    g1 = np.einsum("bn,bh->bnh", x, d1).mean(axis=0)
    return {"g1": g1, "g2": g2}


def cf_gradient(model: Model, feeds: Feeds) -> Model:
    """Latent-factor gradient over one-hot (user, item) pairs."""
    xu, xi, r = feeds["xu"], feeds["xi"], feeds["r"]
    p = xu @ model["m"]
    q = xi @ model["m"]
    err = np.einsum("sf,sf->s", p, q) - r
    grad = np.einsum(
        "s,se,sf->ef", err, xu, q
    ) + np.einsum("s,se,sf->ef", err, xi, p)
    return {"m": grad / len(r)}


GRADIENTS = {
    "linear_regression": linreg_gradient,
    "logistic_regression": logreg_gradient,
    "svm": svm_gradient,
    "backpropagation": mlp_gradients,
    "collaborative_filtering": cf_gradient,
}

#: gradient output name -> model variable it updates
UPDATE_PAIRS = {
    "linear_regression": {"g": "w"},
    "logistic_regression": {"g": "w"},
    "svm": {"g": "w"},
    "backpropagation": {"g1": "w1", "g2": "w2"},
    "collaborative_filtering": {"m": "m"},
}


def sgd_train(
    algorithm: str,
    model: Model,
    feeds: Feeds,
    learning_rate: float,
    epochs: int,
    batch: int,
    seed: int = 0,
) -> Model:
    """Plain mini-batch SGD with the reference gradients."""
    grad_fn = GRADIENTS[algorithm]
    pairs = UPDATE_PAIRS[algorithm]
    samples = next(iter(feeds.values())).shape[0]
    rng = np.random.default_rng(seed)
    model = {k: v.copy() for k, v in model.items()}
    for _ in range(epochs):
        order = rng.permutation(samples)
        for start in range(0, samples - batch + 1, batch):
            idx = order[start : start + batch]
            shard = {k: v[idx] for k, v in feeds.items()}
            grads = grad_fn(model, shard)
            for gname, mname in pairs.items():
                model[mname] = model[mname] - learning_rate * grads[gname]
    return model
