"""Acceptance gates, one test per quantitative contract.

Each test prints the gate's verdict line so a plain pytest run doubles as
the acceptance report.
"""

import math

import pytest

from eulerlab import acceptance


@pytest.mark.slow
@pytest.mark.parametrize("gate", acceptance.GATES, ids=lambda g: g.__name__)
def test_gate(gate, capsys):
    result = gate()
    with capsys.disabled():
        print(f"\n{result.line()}")
    assert result.passed, result.details


def test_one_sided_lipschitz_builds_the_basis_once(monkeypatch):
    from eulerlab import conditions

    built = []
    real = conditions.make_bump_basis
    monkeypatch.setattr(conditions, "make_bump_basis",
                        lambda *a, **k: built.append(a) or real(*a, **k))
    assert acceptance.gate_one_sided_lipschitz().passed
    assert len(built) == 1


def test_shock_tube_drifts_use_exact_totals(monkeypatch):
    """Conservation to 1e-10 is judged on correctly rounded totals."""
    runs = []
    real = acceptance.run
    monkeypatch.setattr(acceptance, "run", lambda cfg: runs.append(real(cfg)) or runs[-1])
    result = acceptance.gate_solver_shock_tube()
    first, last = runs[0].snapshots[0], runs[0].snapshots[-1]
    vol = runs[0].grid.cell_volume

    def drift(a, b):
        return abs(vol * math.fsum(b) - vol * math.fsum(a)) / (vol * math.fsum(a))

    assert result.metrics["mass_drift"] == drift(first.rho, last.rho)
    assert result.metrics["energy_drift"] == drift(first.energy, last.energy)
