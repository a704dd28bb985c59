import math

import numpy as np
import pytest

from winterdyn.quadrature import ray_cell_edges, refine_edges


def refine_edges_per_cell(edges, factor):
    """Reference form: one np.linspace per cell."""
    if factor <= 1:
        return edges
    out = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        out.extend(np.linspace(a, b, factor + 1)[1:])
    return np.array(out)


@pytest.mark.parametrize("t", [0.0, 1e-3, 0.5, 5.0, 300.0])
@pytest.mark.parametrize("x", [0.0, 1.0, math.pi - 0.01, math.pi])
def test_refine_edges_matches_per_cell_linspace(t, x):
    edges = ray_cell_edges(t, x)
    for factor in (1, 2, 3, 4, 8):
        fine = refine_edges(edges, factor)
        ref = refine_edges_per_cell(edges, factor)
        assert len(fine) == len(ref) == (len(edges) - 1) * factor + 1
        assert np.array_equal(fine[::factor], edges)
        np.testing.assert_allclose(fine, ref, rtol=4e-16, atol=0)
        assert np.all(np.diff(fine) > 0)
