"""Shared fixtures: the small instance suite used across the test modules.

Everything is deterministic; session scope keeps the orbit enumerations from
being recomputed per test.
"""
import pytest

from mschemes.instances import (
    c11_c5_scheme,
    c31_c5_scheme,
    gl_orbit_scheme,
    singer_scheme,
    trivial_scheme,
)


@pytest.fixture(scope="session")
def gl2_m3():
    return gl_orbit_scheme(2, 2, 3)


@pytest.fixture(scope="session")
def gl3_m2():
    return gl_orbit_scheme(2, 3, 2)


@pytest.fixture(scope="session")
def singer7_m3():
    return singer_scheme(2, 3, 3)


@pytest.fixture(scope="session")
def trivial_m3():
    return trivial_scheme(2, 2, 3)


@pytest.fixture(scope="session")
def axiom_suite(gl2_m3, gl3_m2, singer7_m3, trivial_m3):
    """The four schemes of the axiom-soundness sweep, with labels."""
    return [
        ("gl2-m3", gl2_m3),
        ("gl3-m2", gl3_m2),
        ("singer7-m3", singer7_m3),
        ("trivial-m3", trivial_m3),
    ]


@pytest.fixture(scope="session")
def c11_m2():
    return c11_c5_scheme(2)


@pytest.fixture(scope="session")
def c31_m2():
    return c31_c5_scheme(2)


def records_hold(records):
    """All inequality/property records in a trace claim to hold."""
    return all(r.get("holds", False) for r in records)
