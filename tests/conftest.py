import json
import os
import sys
import tempfile

import pytest
from hypothesis import settings

import _fraction_ref as ref
import zetafix.algebra
import zetafix.invariants
import zetafix.manifolds
from zetafix import RationalMatrix, load_fixture, serialize_spec

# Property tests draw the same examples on every run and keep no example
# database.
settings.register_profile("zetafix", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("zetafix")

_HYPOTHESIS_STORAGE = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # Hypothesis still caches the constants it reads from source files;
    # keep that cache out of the working tree.
    storage = tempfile.TemporaryDirectory(prefix="zetafix-hypothesis-")
    config.stash[_HYPOTHESIS_STORAGE] = storage
    os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", storage.name)


def pytest_unconfigure(config):
    config.stash[_HYPOTHESIS_STORAGE].cleanup()


@pytest.fixture(autouse=True)
def _fresh_problem_memos():
    # The per-problem memos (one context, one averaging kernel) and the
    # spectral memo shared across problems would otherwise carry work
    # from one test into the next, and tests that count kernels,
    # determinants, classifications or characteristic polynomials would
    # depend on the test order.
    zetafix.invariants.map_context.cache_clear()
    zetafix.manifolds.averaging_kernel.cache_clear()
    zetafix.algebra._classify.cache_clear()


def _record_calls(monkeypatch, home, name) -> list:
    """Replace every binding of home.<name> in the zetafix modules with a
    wrapper that records the positional arguments of each call; returns
    the live record."""
    calls = []
    orig = getattr(home, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod in [m for k, m in sys.modules.items()
                if k.startswith("zetafix") and m is not None]:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                monkeypatch.setattr(mod, attr, recorded)
    return calls


def write_spec(parsed, path) -> None:
    """Write parsed to path as a spec file, in serialize_spec's form."""
    path.write_text(json.dumps(serialize_spec(parsed), indent=2) + "\n")


def scalar_matrix(dim: int, c) -> RationalMatrix:
    """c * I of size dim."""
    return RationalMatrix([[c if i == j else 0 for j in range(dim)]
                           for i in range(dim)])


def log_sums(f, upto: int) -> list:
    """a_1..a_upto with the rational function f = exp(sum a_n z^n / n),
    from the plain-Fraction reference."""
    return ref.log_derivative_sums(f.num.coeffs, f.den.coeffs, upto)


FIXED_POINT_NAMES = (
    "klein_bottle_ex1",
    "heisenberg_ex3",
    "torus_cat_map",
    "identity_torus",
    "klein_type_3_5",
    "klein_type_3_0",
    "quarter_rotation",
)


@pytest.fixture(scope="session")
def ex1():
    return load_fixture("klein_bottle_ex1")


@pytest.fixture(scope="session")
def ex3():
    return load_fixture("heisenberg_ex3")


@pytest.fixture(scope="session")
def cat():
    return load_fixture("torus_cat_map")


@pytest.fixture(scope="session")
def identity_torus():
    return load_fixture("identity_torus")


@pytest.fixture(scope="session")
def halfturn():
    return load_fixture("halfturn_coincidence")


@pytest.fixture(scope="session")
def quarter():
    return load_fixture("quarter_rotation")
