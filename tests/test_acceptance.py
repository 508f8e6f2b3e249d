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


def test_product_gate_fail_names_the_first_failing_eps(monkeypatch):
    from eulerlab import commutator

    monkeypatch.setattr(commutator, "C0_PRODUCT", 0.01)
    result = acceptance.gate_product_commutators()
    assert not result.passed
    assert "at every eps" not in result.line()
    assert "bilinear modulus bound with C0=0.01 first fails at eps 2^-10: norm / bound " \
        in result.details
    ratio = float(result.details.rsplit(" ", 1)[1])
    assert ratio > 1.0


def test_product_gate_pass_line_is_unchanged():
    assert acceptance.gate_product_commutators().details.endswith(
        "modulus bound with C0=0.25 at every eps")


def test_a_wrong_split_term_fails_the_chain_gate(monkeypatch):
    """The split gap is a check: term_b mollified at twice the gate's eps breaks it."""
    import dataclasses

    from eulerlab import commutator

    real = commutator.chain_commutator

    def wrong(probe, eps):
        res = real(probe, eps)
        if eps != 2.0**-6:
            return res
        return dataclasses.replace(res, term_b=real(probe, 2.0**-5).term_b)

    monkeypatch.setattr(commutator, "chain_commutator", wrong)
    result = acceptance.gate_chain_commutator()
    assert not result.passed
    assert result.metrics["split_gap"] > 1e-12
