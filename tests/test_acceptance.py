"""One test per named end-to-end check, each printed with its timing."""
import pytest

from liftcalc import acceptance
from liftcalc.acceptance import REGISTRY, run_check


@pytest.mark.parametrize("check_id,budget", [(cid, b) for cid, b, _ in REGISTRY])
def test_acceptance(check_id, budget, capsys):
    result = run_check(check_id, seed=0)
    status = "PASS" if result.ok else "FAIL"
    with capsys.disabled():
        print(f"{status} {check_id} ({result.elapsed:.2f}s / budget {budget:.0f}s)")
    assert result.ok, f"{check_id}: {result.error}"
    assert result.elapsed <= budget, f"{check_id} exceeded its {budget}s budget"


@pytest.mark.parametrize("check_id,name", [("hasse-product-formula", "invariants"),
                                           ("k3-clifford-splitness", "even_clifford_split")])
def test_sampling_loops_fail_on_unexpected_errors(check_id, name, monkeypatch):
    # the sampling loops skip degenerate forms (InputError) and bounds
    # (BoundError) only; a kernel that raises anything else fails the check
    # at its first sampled form instead of being retried forever
    calls = []
    real = getattr(acceptance, name)

    def broken(q):
        if q.rank == 21:
            return real(q)  # the fixed K3 form checked before the loop
        calls.append(q)
        raise TypeError("broken kernel")

    monkeypatch.setattr(acceptance, name, broken)
    result = run_check(check_id, seed=0)
    assert not result.ok
    assert result.error == "TypeError: broken kernel"
    assert len(calls) == 1
