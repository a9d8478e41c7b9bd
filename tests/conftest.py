import pytest

from qembed.pipeline import correlation_matrix


@pytest.fixture
def vif_inputs():
    """(C, names) of a FeatureMatrix: the leading arguments of compute_vif and
    iterative_vif_prune."""
    return lambda matrix: (correlation_matrix(matrix), matrix.column_names)
