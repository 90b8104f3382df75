"""ChaosPolicy: spec grammar, determinism, and the switchboard."""

import pytest

from repro import telemetry
from repro.errors import ChaosFault
from repro.resilience import chaos
from repro.resilience.chaos import (FAULT_POINTS, ChaosPolicy,
                                    ChaosSpecError)


class TestSpecGrammar:
    def test_bare_seed(self):
        policy = ChaosPolicy.parse("42")
        assert policy.seed == 42
        assert policy.rates == {}

    def test_point_rates(self):
        policy = ChaosPolicy.parse(
            "7:worker_crash=0.25,disk_full=0.5")
        assert policy.seed == 7
        assert policy.rates == {"worker_crash": 0.25,
                                "disk_full": 0.5}

    def test_all_arms_every_point(self):
        policy = ChaosPolicy.parse("1:all=0.1")
        assert set(policy.rates) == set(FAULT_POINTS)
        assert all(rate == 0.1 for rate in policy.rates.values())

    def test_all_then_specific_override(self):
        policy = ChaosPolicy.parse("1:all=0.1,worker_hang=0")
        assert policy.rates["worker_hang"] == 0.0
        assert policy.rates["worker_crash"] == 0.1

    def test_hang_seconds(self):
        policy = ChaosPolicy.parse("3:worker_hang=1,hang_s=0.25")
        assert policy.hang_seconds == 0.25
        assert "hang_s" not in policy.rates

    def test_whitespace_tolerated(self):
        policy = ChaosPolicy.parse(" 5 : disk_full = 1.0 ")
        assert policy.seed == 5
        assert policy.rates == {"disk_full": 1.0}

    @pytest.mark.parametrize("spec", [
        "", "nope", "x:disk_full=1", "1:disk_full",
        "1:disk_full=lots", "1:made_up_point=0.5",
        "1:disk_full=1.5", "1:disk_full=-0.1",
    ])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ChaosSpecError):
            ChaosPolicy.parse(spec)

    def test_spec_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            ChaosPolicy.parse("broken")


class TestDeterminism:
    def test_decision_is_a_pure_function(self):
        a = ChaosPolicy.parse("9:all=0.3")
        b = ChaosPolicy.parse("9:all=0.3")
        keys = [f"key-{i}" for i in range(200)]
        for point in FAULT_POINTS:
            assert [a.should_fire(point, k) for k in keys] == \
                [b.should_fire(point, k) for k in keys]

    def test_seed_changes_the_plan(self):
        keys = [f"key-{i}" for i in range(200)]
        plans = {
            seed: tuple(ChaosPolicy(seed=seed,
                                    rates={"disk_full": 0.3})
                        .should_fire("disk_full", k) for k in keys)
            for seed in (1, 2)
        }
        assert plans[1] != plans[2]

    def test_points_are_independent(self):
        policy = ChaosPolicy.parse("11:all=0.3")
        keys = [f"key-{i}" for i in range(200)]
        crash = [policy.should_fire("worker_crash", k) for k in keys]
        hang = [policy.should_fire("worker_hang", k) for k in keys]
        assert crash != hang

    def test_rate_edges(self):
        policy = ChaosPolicy(seed=1, rates={"disk_full": 0.0,
                                            "block_poison": 1.0})
        assert not any(policy.should_fire("disk_full", f"k{i}")
                       for i in range(50))
        assert all(policy.should_fire("block_poison", f"k{i}")
                   for i in range(50))
        assert not policy.should_fire("write_oserror", "unarmed")

    def test_attempt_feeds_the_hash(self):
        policy = ChaosPolicy(seed=3, rates={"write_oserror": 0.5})
        decisions = {policy.should_fire("write_oserror", f"k{i}", 0) !=
                     policy.should_fire("write_oserror", f"k{i}", 1)
                     for i in range(100)}
        assert True in decisions  # transient semantics possible

    def test_rate_roughly_respected(self):
        policy = ChaosPolicy(seed=5, rates={"disk_full": 0.2})
        fired = sum(policy.should_fire("disk_full", f"key-{i}")
                    for i in range(2000))
        assert 250 < fired < 550  # ~400 expected


class TestSwitchboard:
    def test_off_by_default(self):
        assert chaos.active() is None
        assert not chaos.should_fire("disk_full", "k")

    def test_env_arms(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "4:disk_full=1")
        policy = chaos.active()
        assert policy is not None
        assert policy.seed == 4
        assert chaos.should_fire("disk_full", "anything")

    def test_env_cache_tracks_changes(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "4:disk_full=1")
        assert chaos.active().seed == 4
        monkeypatch.setenv("REPRO_CHAOS", "5:disk_full=1")
        assert chaos.active().seed == 5

    def test_forced_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "4:disk_full=1")
        with chaos.forced(ChaosPolicy(seed=8)):
            assert chaos.active().seed == 8
        with chaos.forced(None):  # forces chaos OFF despite env
            assert chaos.active() is None
        assert chaos.active().seed == 4

    def test_fire_accounts_in_telemetry(self):
        telemetry.enable()
        with chaos.forced(ChaosPolicy(seed=1,
                                      rates={"disk_full": 1.0})):
            assert chaos.fire("disk_full", "key")
            assert not chaos.fire("write_oserror", "key")
        counters = telemetry.registry().snapshot()["counters"]
        assert counters["resilience.fault_injected.disk_full"] == 1
        assert "resilience.fault_injected.write_oserror" not in counters

    def test_poison_raises_chaos_fault_without_counting(self):
        telemetry.enable()
        with chaos.forced(ChaosPolicy(seed=1,
                                      rates={"block_poison": 1.0})):
            with pytest.raises(ChaosFault) as err:
                chaos.poison("mov %rax, %rbx")
        assert err.value.point == "block_poison"
        counters = telemetry.registry().snapshot()["counters"]
        assert "resilience.fault_injected.block_poison" not in counters
