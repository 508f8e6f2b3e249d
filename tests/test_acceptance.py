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


@pytest.mark.parametrize("gate", [acceptance.gate_besov_machinery,
                                  acceptance.gate_chain_commutator,
                                  acceptance.gate_product_commutators],
                         ids=lambda g: g.__name__)
def test_scan_gates_build_each_mollifier_once(monkeypatch, gate):
    """Each gate scans EPS_SCAN once: one kernel per eps, shared by its probes."""
    from eulerlab import grid

    built = []
    real = grid.Mollifier.__post_init__
    monkeypatch.setattr(grid.Mollifier, "__post_init__",
                        lambda mol: built.append((mol.grid, mol.epsilon)) or real(mol))
    assert gate().passed
    assert len(built) == len(set(built)) == len(acceptance.EPS_SCAN) == 7


def test_chain_gate_evaluates_each_probe_and_eps_once(monkeypatch):
    """The split gap comes from the rate fit: 2 probes x 7 eps, no eighth pass."""
    from eulerlab import commutator

    calls = []
    real = commutator.chain_commutator

    def counted(probe, mol):
        calls.append((id(probe), mol.epsilon))
        return real(probe, mol)

    monkeypatch.setattr(commutator, "chain_commutator", counted)
    assert acceptance.gate_chain_commutator().passed
    assert len(calls) == len(set(calls)) == 2 * len(acceptance.EPS_SCAN) == 14


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
    from eulerlab.grid import build_mollifier

    real = commutator.chain_commutator

    def wrong(probe, mol):
        res = real(probe, mol)
        if mol.epsilon != 2.0**-6:
            return res
        twice = build_mollifier(probe.grid, 2.0**-5)
        return dataclasses.replace(res, term_b=real(probe, twice).term_b)

    monkeypatch.setattr(commutator, "chain_commutator", wrong)
    result = acceptance.gate_chain_commutator()
    assert not result.passed
    assert result.metrics["split_gap"] > 1e-12


def test_chain_gate_fail_names_the_first_failing_bound(monkeypatch):
    from eulerlab import commutator

    monkeypatch.setattr(commutator, "CHAIN_BOUND_SLACK", -0.9)
    result = acceptance.gate_chain_commutator()
    assert not result.passed
    assert "at every eps" not in result.line()
    head, ratio = result.details.rsplit(": norm / bound ", 1)
    assert head.endswith("; square one-sided bound with slack -0.9 first fails at eps 2^-10")
    assert float(ratio) > 1.0


def test_chain_gate_fail_takes_the_first_failing_probe(monkeypatch):
    """Probes are searched square first, then eps upward."""
    import dataclasses

    from eulerlab import commutator

    real = commutator.chain_rate_fit

    def broken(probe):
        fit = real(probe)
        if len(probe.components) == 1:   # the square probe holds
            return fit
        bound_ok = fit.bound_ok.copy()
        bound_ok[4:] = False
        return dataclasses.replace(fit, passed=False, bound_ok=bound_ok)

    monkeypatch.setattr(commutator, "chain_rate_fit", broken)
    result = acceptance.gate_chain_commutator()
    assert not result.passed
    assert "; product one-sided bound with slack 0.1 first fails at eps 2^-6: " \
        "norm / bound " in result.details


def test_chain_gate_pass_line_is_unchanged():
    result = acceptance.gate_chain_commutator()
    assert result.passed
    assert result.details == ("square a=0.6: slope 0.189 (>= 0.10); product a=(0.4,0.8): "
                              "slope 0.180 (>= 0.10); split gap 1.3e-14")


#: The relative-entropy gate's corner states after its 1e5 uniform samples:
#: rho = 2 against r = 2 - d, both at theta 0.5, at rest.
CORNER_D = (0.1, 0.01, 0.001)


def _relative_entropy_sample_unblocked():
    """The relative-entropy gate's sample check before it ran in blocks, and
    with the candidate taken through (rho, m, S) as it once was:
    (min E, min coercivity gap, min E / quad, candidate densities) over all
    1e5 pairs and the corner states at once."""
    import numpy as np

    from eulerlab import relentropy
    from eulerlab.thermo import GasParams, entropy

    params = GasParams(1.4)
    rng = np.random.default_rng(31337)
    n, top, cold, rest = 100_000, [2.0] * 3, [0.5] * 3, [0.0] * 3
    rho, theta, vel, r_ref, u_ref, t_ref = (
        np.concatenate([rng.uniform(lo, hi, n), corner]) for lo, hi, corner in (
            (0.5, 2.0, top), (0.5, 2.0, cold), (-1, 1, rest),
            (0.5, 2.0, np.subtract(2.0, CORNER_D)), (-1, 1, rest), (0.5, 2.0, cold)))
    # S = rho s(rho, Theta), then Theta = rho^(gamma - 1) exp((gamma - 1) S / rho), then m / rho
    mom, s_tot = rho * vel, rho * entropy(rho, theta, params)
    detour = (rho, mom / rho, np.exp((params.gamma - 1.0) * (np.log(rho) + s_tot / rho)))
    gap = relentropy.coercivity_gap(detour, (r_ref, u_ref, t_ref),
                                    relentropy.StateBox(0.5, 2.0, 0.5, 2.0), params)
    return (float(np.min(gap.density)), float(np.min(gap.gap)),
            float(np.min(gap.density / gap.lower_form)), rho)


class TestRelativeEntropySample:
    @pytest.fixture(scope="class")
    def run(self):
        """The gate and the candidate densities of each block."""
        from eulerlab import relentropy

        blocks = []
        real = relentropy.coercivity_gap
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(relentropy, "coercivity_gap",
                       lambda cand, *a: blocks.append(cand[0]) or real(cand, *a))
            result = acceptance.gate_relative_entropy()
        return result, blocks

    @pytest.fixture
    def calls(self, monkeypatch):
        """The (cand, ref) pair of every block the gate checks."""
        from eulerlab import relentropy

        pairs = []
        real = relentropy.coercivity_gap
        monkeypatch.setattr(relentropy, "coercivity_gap",
                            lambda cand, ref, *a: pairs.append((cand, ref))
                            or real(cand, ref, *a))
        assert acceptance.gate_relative_entropy().passed
        return pairs

    def test_the_gate_holds_the_proven_constant(self, run):
        # the Sobol calibration gave C = 0.145, which the corner states break
        result, _ = run
        assert result.passed
        assert result.metrics["c_hat"] == 0.125
        assert result.metrics["min_gap"] >= 0.0
        assert 0.125 <= result.metrics["min_ratio"] < 0.12505
        assert "with C=0.125 (min E/quad 0.12504) on 1e5 samples and 3 corner states" in (
            result.details)

    def test_blocked_check_matches_the_unblocked_one(self, run):
        result, _ = run
        min_density, min_gap, min_ratio, _ = _relative_entropy_sample_unblocked()
        assert result.metrics["min_density"].hex() == min_density.hex()
        assert result.metrics["min_gap"].hex() == min_gap.hex()
        assert result.metrics["min_ratio"].hex() == min_ratio.hex()

    def test_every_sample_is_checked_once_in_order(self, run):
        import numpy as np

        _, blocks = run
        assert [len(b) for b in blocks] == [acceptance.CALIBRATION_BLOCK] * 12 + [1696, 3]
        all_rho = _relative_entropy_sample_unblocked()[3]
        assert np.concatenate(blocks).tobytes() == all_rho.tobytes()

    def test_block_draws_are_the_sequential_draws(self, calls):
        # the six uniform(1e5) arrays that default_rng(31337) drew in turn,
        # against what each block drew, the short last block included; then
        # the corner states
        import numpy as np

        rng = np.random.default_rng(31337)
        n = 100_000
        rho, theta, vel = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n), rng.uniform(-1, 1, n)
        r_ref, u_ref, t_ref = (rng.uniform(0.5, 2.0, n), rng.uniform(-1, 1, n),
                               rng.uniform(0.5, 2.0, n))
        want = (rho, vel, theta, r_ref, u_ref, t_ref)
        start = 0
        for cand, ref in calls[:-1]:
            blk = slice(start, start + len(cand[0]))
            assert [g.tobytes() for g in cand + ref] == [w[blk].tobytes() for w in want]
            start = blk.stop
        assert start == n and len(cand[0]) == 1696
        (rho, vel, theta), (r_ref, u_ref, t_ref) = (np.asarray(s).tolist() for s in calls[-1])
        assert rho == [2.0] * 3 and vel == [0.0] * 3 and theta == [0.5] * 3
        assert r_ref == [2.0 - d for d in CORNER_D]
        assert u_ref == [0.0] * 3 and t_ref == [0.5] * 3

    def test_gate_peak_memory_is_bounded(self):
        # the six whole arrays and the 2**17-word Sobol table peaked at 5.4 MiB
        import tracemalloc

        tracemalloc.start()
        try:
            assert acceptance.gate_relative_entropy().passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_each_block_evaluates_E_once(self, monkeypatch):
        import numpy as np

        from eulerlab import relentropy

        sizes = []
        real = relentropy.rel_entropy_terms
        monkeypatch.setattr(relentropy, "rel_entropy_terms",
                            lambda cand, *a: sizes.append(np.size(cand[0])) or real(cand, *a))
        assert acceptance.gate_relative_entropy().passed
        # the equality check, then one evaluation per sample block: the gap's own E
        assert sizes == [1] + [acceptance.CALIBRATION_BLOCK] * 12 + [1696, 3]

    @pytest.mark.parametrize("field,value", [("gap", -1e-300), ("gap", math.nan),
                                             ("density", math.nan)])
    @pytest.mark.parametrize("block", [0, 6, 12, 13])
    def test_a_bad_value_in_any_block_fails_the_gate(self, monkeypatch, block, field, value):
        # the first, a middle, the short last sample block and the corner block:
        # each block's minimum reaches the verdict, a NaN included
        import dataclasses

        from eulerlab import relentropy

        real = relentropy.coercivity_gap
        calls = []

        def planted(*args):
            res = real(*args)
            calls.append(None)
            if len(calls) - 1 != block:
                return res
            bad = getattr(res, field).copy()
            bad[-1] = value
            return dataclasses.replace(res, **{field: bad})

        monkeypatch.setattr(relentropy, "coercivity_gap", planted)
        result = acceptance.gate_relative_entropy()
        assert len(calls) == 14
        assert not result.passed
        assert not result.metrics[f"min_{field}"] >= 0.0

    def test_the_sampled_constant_fails_the_gate(self, monkeypatch):
        # the Sobol calibration's C = 0.145 is above E / quad at the corner states
        from eulerlab import relentropy

        monkeypatch.setattr(relentropy, "calibrate_coercivity",
                            lambda box, params: float.fromhex("0x1.28b3025f4585fp-3"))
        result = acceptance.gate_relative_entropy()
        assert not result.passed
        assert result.metrics["min_gap"] < 0.0 and result.metrics["min_ratio"] >= 0.125


def test_besov_gate_fail_names_the_estimate_and_eps(monkeypatch):
    from eulerlab import besov

    monkeypatch.setattr(besov, "ESTIMATE_SLACK", -0.5)
    result = acceptance.gate_besov_machinery()
    assert not result.passed
    assert "bounds False" not in result.line()
    parts = result.details.split("; ")
    assert len(parts) == 3
    for part in parts:
        head, ratio = part.rsplit(": norm / bound ", 1)
        assert head.endswith("shift modulus bound first fails at eps 2^-10")
        assert float(ratio) > 1.0


def test_besov_gate_fail_takes_the_first_failing_estimate(monkeypatch):
    """Rows are searched in ESTIMATES order, then eps upward."""
    import dataclasses

    from eulerlab import besov

    real = besov.verify_mollifier_rates

    def broken(*args):
        rep = real(*args)
        bounds = rep.bounds.copy()
        bounds[2, 3:] = 0.5 * rep.estimates[2, 3:]    # gradient, from the fourth eps on
        bounds[1, 5] = 0.8 * rep.estimates[1, 5]      # shift modulus, sixth eps
        return dataclasses.replace(rep, bounds=bounds)

    monkeypatch.setattr(besov, "verify_mollifier_rates", broken)
    result = acceptance.gate_besov_machinery()
    assert not result.passed
    assert result.details.count("shift modulus bound first fails at eps 2^-5: "
                                "norm / bound 1.250") == 3
    assert [v for k, v in result.metrics.items() if k.startswith("bounds_ok")] == [False] * 3


def test_besov_gate_pass_line_is_unchanged():
    details = acceptance.gate_besov_machinery().details
    assert details.count("bounds True") == 3 and "first fails" not in details


def test_gronwall_gate_fail_names_when_the_envelope_broke(monkeypatch):
    from eulerlab import relentropy

    monkeypatch.setattr(relentropy, "KAPPA_STRUCT", 0.5)
    result = acceptance.gate_gronwall_refinement()
    assert not result.passed
    assert "at every eps" not in result.line()
    assert result.details.startswith(
        "envelope holds on [0.1,1]: False (utilization 1.03, first broken at t = 0.15 "
        "with E/envelope 1.03), terminal integral shrink x1.78")


def test_gronwall_gate_pass_line_is_unchanged():
    assert acceptance.gate_gronwall_refinement().details == (
        "envelope holds on [0.1,1]: True (utilization 0.92), "
        "terminal integral shrink x1.78 (>=1.5)")
