import pytest

from orbitmetric import cost_matrix, min_cost_assignment


def _assignment_ebar(system, x, y, n):
    seg_x, seg_y = system.orbit_segment(x, n), system.orbit_segment(y, n)
    return min_cost_assignment(cost_matrix(seg_x, seg_y))[1] / n


@pytest.fixture
def assignment_ebar():
    """ebar_n's independent oracle: exact assignment on the full cost matrix."""
    return _assignment_ebar
