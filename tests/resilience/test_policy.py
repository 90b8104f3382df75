"""RetryPolicy, strict/salvage, and the executor step budget."""

import pytest

from repro import envvars, telemetry
from repro.errors import StepBudgetExceeded, StrictModeViolation
from repro.isa.parser import parse_block
from repro.profiler import BasicBlockProfiler
from repro.profiler.result import FailureReason
from repro.resilience import policy
from repro.resilience.policy import RetryPolicy
from repro.runtime.executor import Executor
from repro.uarch import Machine


class TestBackoff:
    def test_deterministic_across_instances(self):
        a, b = RetryPolicy(seed=3), RetryPolicy(seed=3)
        for attempt in (1, 2, 3):
            assert a.backoff_ms("key", attempt) == \
                b.backoff_ms("key", attempt)

    def test_jitter_bounds_and_growth(self):
        retry = RetryPolicy(base_ms=10.0, multiplier=2.0,
                            max_ms=1000.0)
        for attempt, base in ((1, 10.0), (2, 20.0), (3, 40.0)):
            for key in ("a", "b", "c"):
                delay = retry.backoff_ms(key, attempt)
                assert base * 0.5 <= delay < base * 1.5

    def test_backoff_capped_at_max(self):
        retry = RetryPolicy(base_ms=10.0, multiplier=10.0, max_ms=50.0)
        assert retry.backoff_ms("k", 9) < 50.0 * 1.5

    def test_keys_desynchronise(self):
        retry = RetryPolicy()
        delays = {retry.backoff_ms(f"key-{i}", 1) for i in range(20)}
        assert len(delays) > 1

    def test_seed_changes_jitter(self):
        assert RetryPolicy(seed=1).backoff_ms("k", 1) != \
            RetryPolicy(seed=2).backoff_ms("k", 1)


class TestRetryRun:
    def test_succeeds_after_transient_failures(self):
        telemetry.enable()
        slept = []
        calls = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 2:
                raise OSError("transient")
            return "ok"

        result = RetryPolicy(max_attempts=3).run(
            flaky, key="shard-1", sleep=slept.append)
        assert result == "ok"
        assert calls == [0, 1, 2]
        assert len(slept) == 2
        counters = telemetry.registry().snapshot()["counters"]
        assert counters["resilience.retries"] == 2
        backoff = telemetry.registry() \
            .histogram("resilience.backoff_ms").summary()
        assert backoff["count"] == 2

    def test_final_exception_propagates(self):
        def always_fails(attempt):
            raise OSError(f"attempt {attempt}")

        with pytest.raises(OSError, match="attempt 2"):
            RetryPolicy(max_attempts=3).run(
                always_fails, key="k", sleep=lambda s: None)

    def test_only_retry_on_listed_exceptions(self):
        calls = []

        def fails(attempt):
            calls.append(attempt)
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=3).run(
                fails, key="k", sleep=lambda s: None)
        assert calls == [0]

    def test_no_sleep_on_first_attempt(self):
        slept = []
        RetryPolicy().run(lambda attempt: "ok", key="k",
                          sleep=slept.append)
        assert slept == []


class TestStrictSalvage:
    def test_salvage_is_the_default(self):
        assert not policy.strict_mode()
        policy.quarantine_or_raise("anything")  # no raise

    def test_env_arms_strict(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT", "1")
        assert policy.strict_mode()
        with pytest.raises(StrictModeViolation):
            policy.quarantine_or_raise("corrupt file", "detail")

    def test_env_zero_is_salvage(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT", "0")
        assert not policy.strict_mode()

    def test_forced_strict_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT", "1")
        with envvars.forced("REPRO_STRICT", False):
            policy.quarantine_or_raise("ok in salvage")
        with pytest.raises(StrictModeViolation):
            policy.quarantine_or_raise("strict again")

    def test_violation_carries_what_and_detail(self):
        with envvars.forced("REPRO_STRICT", True):
            with pytest.raises(StrictModeViolation) as err:
                policy.quarantine_or_raise("the what", "the detail")
        assert err.value.what == "the what"
        assert err.value.detail == "the detail"


class TestStepBudget:
    def test_default(self):
        assert policy.step_budget() == 8_000_000

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_STEP_BUDGET", "1234")
        assert policy.step_budget() == 1234
        monkeypatch.setenv("REPRO_STEP_BUDGET", "99")
        assert policy.step_budget() == 99

    def test_forced_budget_restores(self):
        with envvars.forced("REPRO_STEP_BUDGET", 10):
            assert policy.step_budget() == 10
        assert policy.step_budget() == 8_000_000

    def test_executor_trips_the_watchdog(self, haswell):
        from repro.profiler.environment import Environment
        block = parse_block("add $1, %rax\nadd $1, %rbx")
        env = Environment()
        env.reset()
        executor = Executor(env.state, env.memory)
        with envvars.forced("REPRO_STEP_BUDGET", 5):
            with pytest.raises(StepBudgetExceeded) as err:
                executor.execute_block(block, unroll=100)
        assert err.value.budget == 5
        assert err.value.steps > 5
        # Honest work under the budget is untouched.
        trace = executor.execute_block(block, unroll=100)
        assert len(trace.events) == 200

    def test_harness_quarantines_a_tripped_block(self):
        profiler = BasicBlockProfiler(Machine("haswell"))
        with envvars.forced("REPRO_STEP_BUDGET", 1):
            result = profiler.profile("add $1, %rax\nadd $1, %rbx")
        assert result.failure is FailureReason.QUARANTINED
        assert "StepBudgetExceeded" in result.detail
        assert result.extra.get("step_budget_exceeded") == 1.0

    def test_harness_raises_in_strict_mode(self):
        profiler = BasicBlockProfiler(Machine("haswell"))
        with envvars.forced("REPRO_STEP_BUDGET", 1), \
                envvars.forced("REPRO_STRICT", True):
            with pytest.raises(StrictModeViolation):
                profiler.profile("add $1, %rax\nadd $1, %rbx")
