import numpy as np
import pytest

from wavecore import CoreGeometry, default_catalog


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def core_144x256():
    return CoreGeometry(144, 256)


@pytest.fixture(scope="session")
def core_9x8():
    return CoreGeometry(9, 8)


def assert_same_bits(got, expected):
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
