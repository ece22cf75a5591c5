import numpy as np
import pytest

from channellab import flux_carrier as fc
from channellab import geometry as geo
from channellab import ns_solver as ns


@pytest.fixture(scope="session")
def straight():
    return geo.straight(d0=1.0)


@pytest.fixture(scope="session")
def power_half():
    return geo.power_law(d0=1.0, alpha=0.5)


@pytest.fixture(scope="session")
def carrier_unit():
    return fc.CarrierParams(1.0, 0.5)


@pytest.fixture(scope="session")
def poiseuille_state(straight, carrier_unit):
    """Converged small solve on the straight channel, shared across tests."""
    cfg = ns.SolverConfig(tol=1e-10)
    return ns.solve_steady(straight, carrier_unit, -8.0, 8.0, 257, 33, cfg)


@pytest.fixture(scope="session")
def power_state(power_half, carrier_unit):
    """Converged small solve on the widening channel."""
    cfg = ns.SolverConfig(tol=1e-10)
    return ns.solve_steady(power_half, carrier_unit, -8.0, 8.0, 257, 33, cfg)


@pytest.fixture
def splu_calls(monkeypatch):
    """Every SuperLU factorization the flow solver makes, as a list."""
    calls = []
    splu = ns.splu

    def counted(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(ns, "splu", counted)
    return calls


@pytest.fixture
def solve_calls(monkeypatch):
    """The arguments of every ``solve_steady`` call, as a list; calls through."""
    calls = []
    solve = ns.solve_steady

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ns, "solve_steady", counted)
    return calls


def poiseuille_u1(x2, phi=1.0):
    return 0.75 * phi * (1.0 - np.asarray(x2) ** 2)


def poiseuille_psi(x2, phi=1.0):
    x2 = np.asarray(x2)
    return phi * (0.75 * (x2 - x2**3 / 3.0) + 0.5)
