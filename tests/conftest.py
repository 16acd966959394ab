"""Shared fixtures: catalog entries and grids reused across test modules."""

import numpy as np
import pytest

from flatbundle import catalog
from flatbundle.fields import make_grid, principal_field
from flatbundle.fundamental import fundamental_batch


@pytest.fixture(scope="session")
def pseudosphere():
    return catalog.get("pseudosphere")


@pytest.fixture(scope="session")
def dini():
    return catalog.get("dini")


@pytest.fixture(scope="session")
def clifford():
    return catalog.get("clifford_torus_s3")


@pytest.fixture(scope="session")
def sphere_control():
    return catalog.get("sphere_negative_control")


@pytest.fixture(scope="session")
def ps_field_33(pseudosphere):
    chart = pseudosphere.chart
    grid = make_grid(chart, 33)
    return principal_field(fundamental_batch(chart, grid.points), grid)


@pytest.fixture(scope="session")
def dini_field_65(dini):
    chart = dini.chart
    grid = make_grid(chart, 65)
    return principal_field(fundamental_batch(chart, grid.points), grid)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)
