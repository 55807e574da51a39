"""Cross-cutting guarantees: full determinism (including threads and
timer triggers) and the harness's misbehaviour tripwires."""

import pytest

from repro.errors import HarnessError
from repro.harness import ExperimentRunner, RunSpec
from repro.instrument import FieldAccessInstrumentation, Instrumentation
from repro.instrument.base import InstrumentationAction
from repro.sampling import SamplingFramework, Strategy, TimerTrigger
from repro.vm import run_program
from repro.workloads import get_workload


class TestDeterminism:
    @pytest.mark.parametrize("name", ["volano", "pbob", "mtrt"])
    def test_threaded_workload_with_timer_trigger(self, name):
        """Threads + virtual timer + timer-triggered sampling: two runs
        must agree bit for bit (value, output, cycles, samples, and the
        entire sampled profile)."""
        program = get_workload(name).compile()

        def run_once():
            instr = FieldAccessInstrumentation()
            transformed = SamplingFramework(
                Strategy.FULL_DUPLICATION
            ).transform(program, instr)
            result = run_program(
                transformed, trigger=TimerTrigger(), timer_period=2500
            )
            return (
                result.value,
                tuple(result.output),
                result.stats.cycles,
                result.stats.samples_taken,
                tuple(sorted(instr.profile.counts.items())),
            )

        assert run_once() == run_once()

    def test_thread_switch_counts_stable(self):
        program = get_workload("mtrt").compile()
        a = run_program(program, timer_period=3000).stats
        b = run_program(program, timer_period=3000).stats
        assert a.thread_switches == b.thread_switches
        assert a.timer_ticks == b.timer_ticks


class _CorruptingAction(InstrumentationAction):
    """An action that (incorrectly) mutates program state: it zeroes
    the first element of the first array argument it sees."""

    cost = 1

    def execute(self, vm, frame):
        from repro.vm import RArray

        for value in frame.locals:
            if isinstance(value, RArray) and len(value):
                value.slots[0] = 0
                return


class _CorruptingInstrumentation(Instrumentation):
    kind = "corrupting"

    def instrument_cfg(self, cfg, program):
        self.insert_at_entry(cfg, _CorruptingAction())


class _ChattyAction(InstrumentationAction):
    """An action that (incorrectly) prints: the program's value is
    untouched, only its output changes."""

    cost = 1

    def execute(self, vm, frame):
        vm.output.append(7)


class _ChattyInstrumentation(Instrumentation):
    kind = "chatty"

    def instrument_cfg(self, cfg, program):
        self.insert_at_entry(cfg, _ChattyAction())


class TestTripwires:
    def test_harness_detects_semantic_divergence(self):
        """If an instrumentation (or a transform bug) changes program
        behaviour, the runner's semantic tripwire must fire rather than
        silently reporting garbage overheads."""
        from repro.harness import experiment as exp

        runner = ExperimentRunner()
        exp._INSTRUMENTATION_FACTORIES["corrupting"] = (
            _CorruptingInstrumentation
        )
        try:
            with pytest.raises(HarnessError, match="diverged") as err:
                runner.run(
                    RunSpec(
                        "db",
                        Strategy.EXHAUSTIVE,
                        ("corrupting",),
                    )
                )
            assert err.value.stage == "verify"
        finally:
            del exp._INSTRUMENTATION_FACTORIES["corrupting"]

    def test_corruption_invisible_when_checks_disabled(self):
        """Sanity for the tripwire test: run on a bare VM, outside the
        harness's checks, the same corrupt transform completes (and
        computes something different)."""
        program = get_workload("db").compile()
        transformed = SamplingFramework(Strategy.EXHAUSTIVE).transform(
            program, _CorruptingInstrumentation()
        )
        assert run_program(transformed).value != run_program(program).value

    def test_profile_command_checks_output(self, monkeypatch, capsys):
        """``repro profile`` runs the harness's verify stage: an
        instrumentation that only adds output is caught, not just one
        that changes the value."""
        from repro.cli import main
        from repro.harness import experiment as exp

        monkeypatch.setitem(
            exp._INSTRUMENTATION_FACTORIES, "chatty", _ChattyInstrumentation
        )
        assert main([
            "profile", "--workload", "db", "--strategy", "exhaustive",
            "--instrument", "chatty", "--no-self-profile",
        ]) == 1
        assert "[verify] db: transformed program diverged" in (
            capsys.readouterr().err
        )
