"""Acceptance gates, one test per quantitative contract.

Each test prints the gate's verdict line so a plain pytest run doubles as
the acceptance report.
"""

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
