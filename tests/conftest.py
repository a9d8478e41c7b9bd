import numpy as np
import pytest

from qembed.models.linear import sigmoid
from qembed.pipeline import correlation_matrix


@pytest.fixture
def vif_inputs():
    """(C, names) of a FeatureMatrix: the leading arguments of compute_vif and
    iterative_vif_prune."""
    return lambda matrix: (correlation_matrix(matrix), matrix.column_names)


def _gbt_losses(model, X, y):
    """Training log-loss after every round of a fitted gbt model, replayed on
    its trees with `fit_gbt`'s arithmetic: the running log-odds, their
    sigmoid clipped to [1e-15, 1 - 1e-15], then the mean log-loss."""
    state = model.state
    scores = np.full(X.shape[0], state["offset"])
    losses = []
    for weight, leaf in zip(state["weights"], state["tree"].predict(X)):
        scores = scores + weight * leaf
        pc = np.clip(sigmoid(scores), 1e-15, 1 - 1e-15)
        losses.append(-float(np.mean(y * np.log(pc) + (1 - y) * np.log(1 - pc))))
    return np.array(losses)


@pytest.fixture
def gbt_losses():
    """gbt_losses(model, X, y): the training loss after every boosting round."""
    return _gbt_losses
