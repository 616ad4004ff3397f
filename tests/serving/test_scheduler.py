"""Stride-scheduler fairness properties (deterministic, no threads)."""

from __future__ import annotations

import pytest

from repro.errors import ServingError
from repro.serving.scheduler import StrideScheduler


def drive(scheduler: StrideScheduler, tenants, dispatches: int):
    """Run the scheduler with everyone always eligible; count dispatches."""
    counts = {tenant: 0 for tenant in tenants}
    for _ in range(dispatches):
        choice = scheduler.pick(tenants)
        counts[choice] += 1
        scheduler.on_dispatch(choice)
    return counts


def test_equal_weights_alternate():
    scheduler = StrideScheduler()
    scheduler.register("a", 1.0)
    scheduler.register("b", 1.0)
    counts = drive(scheduler, ["a", "b"], 100)
    assert counts == {"a": 50, "b": 50}


def test_weights_yield_proportional_dispatches():
    """Weights 4:2:1 → dispatch counts 4:2:1 over any full period."""
    scheduler = StrideScheduler()
    scheduler.register("heavy", 4.0)
    scheduler.register("medium", 2.0)
    scheduler.register("light", 1.0)
    counts = drive(scheduler, ["heavy", "medium", "light"], 700)
    assert counts["heavy"] == 400
    assert counts["medium"] == 200
    assert counts["light"] == 100


def test_pick_ignores_ineligible_tenants():
    scheduler = StrideScheduler()
    scheduler.register("a", 1.0)
    scheduler.register("b", 1.0)
    assert scheduler.pick(["b"]) == "b"
    assert scheduler.pick([]) is None


def test_reactivation_forfeits_idle_credit():
    """A tenant that sat idle gets no catch-up burst on return."""
    scheduler = StrideScheduler()
    scheduler.register("busy", 1.0)
    scheduler.register("idler", 1.0)
    # The idler goes away; busy accumulates pass.
    for _ in range(50):
        scheduler.on_dispatch("busy")
    scheduler.reactivate("idler", busy=["busy"])
    # On return the idler's pass is raised to busy's: dispatches now
    # alternate instead of the idler monopolising 50 turns.
    counts = drive(scheduler, ["busy", "idler"], 20)
    assert counts == {"busy": 10, "idler": 10}


def test_late_registration_joins_at_the_floor():
    scheduler = StrideScheduler()
    scheduler.register("early", 1.0)
    for _ in range(30):
        scheduler.on_dispatch("early")
    scheduler.register("late", 1.0)
    counts = drive(scheduler, ["early", "late"], 20)
    # The newcomer joins at the minimum pass (its own), then shares.
    assert counts["late"] >= counts["early"]
    assert counts["late"] - counts["early"] <= 2


def test_register_rejects_bad_input():
    scheduler = StrideScheduler()
    scheduler.register("a", 1.0)
    with pytest.raises(ServingError):
        scheduler.register("a", 2.0)
    with pytest.raises(ServingError):
        scheduler.register("b", 0.0)


def settled_pass(scheduler, tenant):
    """A tenant's pass with any deferred solo dispatches landed."""
    scheduler._flush_solo()
    return scheduler._passes[tenant]


class TestSoloFastPath:
    """Deferred pass accumulation while one tenant is alone must be
    invisible: every observable (the settled pass, fairness after a
    second tenant appears, reactivation floors) matches the always-eager
    behavior."""

    def test_solo_dispatches_settle_into_pass(self):
        scheduler = StrideScheduler()
        scheduler.register("solo", 2.0)
        for _ in range(10):
            assert scheduler.pick(["solo"]) == "solo"
            scheduler.on_dispatch("solo")
        from repro.serving.scheduler import STRIDE_UNIT

        assert settled_pass(scheduler, "solo") == pytest.approx(
            10 * STRIDE_UNIT / 2.0
        )

    def test_empty_pick_does_not_break_the_fast_path(self):
        scheduler = StrideScheduler()
        scheduler.register("solo", 1.0)
        scheduler.pick(["solo"])
        scheduler.on_dispatch("solo")
        assert scheduler.pick([]) is None  # queue momentarily drained
        scheduler.pick(["solo"])
        scheduler.on_dispatch("solo")
        assert settled_pass(scheduler, "solo") > 0

    def test_fairness_preserved_after_solo_burst(self):
        """A long solo run, then a second tenant arrives: the newcomer
        joins at the floor and the pair shares — identical to a
        scheduler that never deferred."""
        fast = StrideScheduler()
        fast.register("a", 1.0)
        for _ in range(1000):
            fast.pick(["a"])
            fast.on_dispatch("a")
        fast.register("b", 1.0)
        counts = drive(fast, ["a", "b"], 40)
        assert counts["b"] >= counts["a"]
        assert counts["b"] - counts["a"] <= 2

    def test_reactivation_flushes_solo_credit(self):
        scheduler = StrideScheduler()
        scheduler.register("busy", 1.0)
        scheduler.register("idler", 1.0)
        for _ in range(50):
            scheduler.pick(["busy"])  # solo mode: idler has nothing queued
            scheduler.on_dispatch("busy")
        scheduler.reactivate("idler", busy=["busy"])
        counts = drive(scheduler, ["busy", "idler"], 20)
        assert counts == {"busy": 10, "idler": 10}

    def test_pick_of_unknown_solo_tenant_raises(self):
        scheduler = StrideScheduler()
        scheduler.register("a", 1.0)
        with pytest.raises(KeyError):
            scheduler.pick(["ghost"])

    def test_switching_solo_tenants_settles_the_first(self):
        scheduler = StrideScheduler()
        scheduler.register("a", 1.0)
        scheduler.register("b", 1.0)
        scheduler.pick(["a"])
        scheduler.on_dispatch("a")
        scheduler.pick(["b"])  # different solo tenant: a's deferral lands
        scheduler.on_dispatch("b")
        assert settled_pass(scheduler, "a") == settled_pass(scheduler, "b")
