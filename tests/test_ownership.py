"""How every frozen container owns its arrays: a read-only float64 input is
kept, anything else is held as a read-only float64 copy, so later writes to
the caller's arrays never reach the container."""

import numpy as np
import pytest

from ofpca import (
    EigenSystem,
    FpcaFit,
    KernelSurface,
    ObjectPoint,
    ObjectSample,
    ObjectTrajectory,
    SpaceKind,
)

SPACE = SpaceKind("quantile", 3)
GRID = np.array([0.0, 0.5, 1.0])
CURVE = np.array([[0.0, 1.0, 2.0], [1.0, 1.0, 3.0], [-1.0, 0.5, 0.5]])


def _fit(scores, distance_curves, object_components):
    surface = KernelSurface(GRID, np.eye(3))
    eigen = EigenSystem([1.0], [np.ones(3)], GRID)
    mean = ObjectTrajectory(SPACE, GRID, CURVE)
    return FpcaFit(surface, eigen, mean, scores, distance_curves, (object_components, None))


#: container -> (builder taking the arrays by keyword, the arrays it holds)
CONTAINERS = {
    "ObjectPoint": (lambda data: ObjectPoint(SPACE, data), dict(data=CURVE[0])),
    "ObjectTrajectory": (lambda time_grid, values: ObjectTrajectory(SPACE, time_grid, values),
                         dict(time_grid=GRID, values=CURVE)),
    "ObjectSample": (lambda time_grid, stacked_values:
                     ObjectSample(SPACE, time_grid, stacked_values),
                     dict(time_grid=GRID, stacked_values=np.stack([CURVE, CURVE + 1.0]))),
    "KernelSurface": (KernelSurface, dict(time_grid=GRID,
                                          values=[[2.0, 1.0, 0.0], [1.0, 3.0, 0.5],
                                                  [0.0, 0.5, 1.0]])),
    # quadrature-orthonormal under the trapezoid weights (1/4, 1/2, 1/4)
    "EigenSystem": (EigenSystem, dict(eigenvalues=[2.0, 1.0],
                                      eigenfunctions=[[1.0, 1.0, 1.0],
                                                      [np.sqrt(2.0), 0.0, -np.sqrt(2.0)]],
                                      time_grid=GRID)),
    "FpcaFit": (_fit, dict(scores=[[0.5], [-0.5]], distance_curves=[[1.0, 2.0, 0.0]] * 2,
                           object_components=CURVE[:2])),
}


def held(container, name):
    got = getattr(container, name)
    return got[0] if name == "object_components" else got


@pytest.mark.parametrize("name", CONTAINERS)
def test_read_only_float64_is_kept(name):
    build, arrays = CONTAINERS[name]
    given = {}
    for key, value in arrays.items():
        given[key] = np.array(value, dtype=float)
        given[key].flags.writeable = False
    container = build(**given)
    for key, value in given.items():
        assert np.shares_memory(held(container, key), value), key


@pytest.mark.parametrize("kind", ["writable", "list"])
@pytest.mark.parametrize("name", CONTAINERS)
def test_anything_else_is_copied(name, kind):
    build, arrays = CONTAINERS[name]
    want = {key: np.array(value, dtype=float) for key, value in arrays.items()}
    given = {key: value.copy() if kind == "writable" else value.tolist()
             for key, value in want.items()}
    container = build(**given)
    for key, value in given.items():
        got = held(container, key)
        assert got.dtype == np.float64 and not got.flags.writeable, key
        if kind == "writable":
            assert not np.shares_memory(got, value), key
            value[...] = -7.0  # a later write to the caller's array
        else:
            value[0] = -7.0
        assert np.array_equal(got, want[key]), key


@pytest.mark.parametrize("name", CONTAINERS)
def test_identity_equality_and_hash(name):
    # a container over arrays is equal only to itself and hashes by identity,
    # so two equal builds compare unequal without asking an array for a truth value
    build, arrays = CONTAINERS[name]
    x, y = build(**arrays), build(**arrays)
    assert x == x and not x != x
    assert x != y and not x == y
    assert len({x, y, x}) == 2
