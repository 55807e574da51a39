"""Tests for the static instrumentation auditor (repro.analysis).

Four layers, mirroring the package:

* rule framework — registry, suppressions, findings serialization;
* invariant certifier — every workload x strategy certifies clean, and
  deliberately broken transforms are rejected with the *specific* rule
  id that names the broken clause;
* cost certificates — derivation, serialization round-trips, and the
  bound formula evaluated against doctored counters;
* static<->dynamic reconciliation — ok and violation paths, offline
  re-validation of manifests, and the harness wiring that turns a
  violation into a hard error.
"""

import json

import pytest

from repro.analysis import (
    AuditReport,
    CostCertificate,
    Finding,
    ReconcileVerdict,
    Severity,
    Suppressions,
    all_rules,
    audit_function,
    audit_program,
    build_certificate,
    get_rule,
    reconcile,
    reconcile_manifest,
)
from repro.analysis.context import (
    CHECKS_ONLY_BACKEDGE,
    CHECKS_ONLY_ENTRY,
    EXHAUSTIVE,
    FULL_DUPLICATION,
    NO_DUPLICATION,
    PARTIAL_DUPLICATION,
    AuditContext,
    CheckKind,
)
from repro.bytecode import BytecodeBuilder, Op
from repro.errors import AnalysisError, HarnessError
from repro.frontend import compile_baseline
from repro.harness import ExperimentRunner, RunSpec
from repro.instrument import CallEdgeInstrumentation
from repro.sampling import CounterTrigger, SamplingFramework, Strategy
from repro.telemetry import RunManifest, load_manifest
from repro.vm import run_program
from repro.workloads import get_workload, workload_names

SOURCE = """
class S { field sval; }

func leafy(x) {
    return x * 2 + 1;
}

func heavy(s, n) {
    var acc = 0;
    for (var i = 0; i < n; i = i + 1) {
        s.sval = s.sval + leafy(i);
        acc = acc + s.sval % 7;
    }
    return acc;
}

func main() {
    var s = new S;
    var total = 0;
    for (var r = 0; r < 8; r = r + 1) {
        total = (total + heavy(s, r + 2)) % 100003;
    }
    print(total);
    return total;
}
"""


@pytest.fixture(scope="module")
def baseline():
    return compile_baseline(SOURCE)


def transform(baseline, strategy):
    fw = SamplingFramework(strategy)
    return fw.transform(baseline, CallEdgeInstrumentation())


def ids(findings):
    return {f.rule_id for f in findings}


# ---------------------------------------------------------------------------
# rule framework


class TestRuleFramework:
    def test_registry_contains_the_documented_rules(self):
        registered = {r.rule_id for r in all_rules()}
        assert {
            "AUD001", "AUD002", "AUD003", "AUD004",
            "AUD005", "AUD006", "AUD007", "AUD008",
            "LNT001", "LNT002", "LNT003",
        } <= registered

    def test_rules_are_ordered_and_titled(self):
        rules = all_rules()
        assert [r.rule_id for r in rules] == sorted(
            r.rule_id for r in rules
        )
        assert all(r.title for r in rules)

    def test_invariants_are_errors_lints_are_warnings(self):
        for r in all_rules():
            if r.rule_id.startswith("LNT"):
                assert r.severity == Severity.WARNING
        assert get_rule("AUD001").severity == Severity.ERROR
        # AUD007 is advisory: retained-but-prunable code costs space,
        # not correctness.
        assert get_rule("AUD007").severity == Severity.WARNING

    def test_unknown_rule_id_is_a_clean_error(self):
        with pytest.raises(AnalysisError, match="unknown rule id"):
            get_rule("AUD999")

    def test_strategy_gating(self):
        assert get_rule("AUD008").applies_to(NO_DUPLICATION)
        assert not get_rule("AUD008").applies_to(FULL_DUPLICATION)
        assert get_rule("LNT001").applies_to(EXHAUSTIVE)

    def test_finding_format_and_roundtrip(self):
        f = Finding(
            rule_id="AUD004",
            severity=Severity.ERROR,
            function="fib",
            message="check is uncharged",
            block=12,
        )
        assert f.format() == "AUD004 error fib: check is uncharged (B12)"
        assert Finding.from_dict(f.as_dict()) == f
        assert f.as_dict()["severity"] == "error"

    def test_suppressions_parse_and_apply(self):
        sup = Suppressions.parse("AUD001, LNT002@main")
        hit = Finding("AUD001", Severity.ERROR, "any", "m")
        scoped = Finding("LNT002", Severity.WARNING, "main", "m")
        other = Finding("LNT002", Severity.WARNING, "other", "m")
        assert sup.matches(hit)
        assert sup.matches(scoped)
        assert not sup.matches(other)
        kept, dropped = sup.apply([hit, scoped, other])
        assert kept == [other]
        assert dropped == 2

    def test_suppressions_reject_bad_tokens(self):
        with pytest.raises(AnalysisError, match="bad suppression"):
            Suppressions.parse("AUD001@")
        with pytest.raises(AnalysisError, match="bad suppression"):
            Suppressions.parse("@main")

    def test_empty_suppressions(self):
        sup = Suppressions.parse("")
        f = Finding("AUD001", Severity.ERROR, "f", "m")
        assert not sup.matches(f)


# ---------------------------------------------------------------------------
# acceptance: the whole suite certifies clean


STRATEGIES_UNDER_AUDIT = [
    Strategy.FULL_DUPLICATION,
    Strategy.PARTIAL_DUPLICATION,
    Strategy.NO_DUPLICATION,
]


@pytest.mark.parametrize("workload_name", workload_names())
@pytest.mark.parametrize(
    "strategy",
    STRATEGIES_UNDER_AUDIT,
    ids=[s.value for s in STRATEGIES_UNDER_AUDIT],
)
def test_every_workload_certifies_clean(workload_name, strategy):
    """Acceptance bar: all ten workloads x three strategies audit with
    zero findings of any severity — the transforms leave no artifact
    the certifier must be taught to forgive."""
    program = get_workload(workload_name).compile()
    transformed = transform(program, strategy)
    report = audit_program(
        transformed, strategy=strategy.value, label=workload_name
    )
    assert report.ok, report.render()
    assert not report.findings, report.render()
    assert report.certificate is not None


def test_checks_only_strategies_certify_clean(baseline):
    for strategy in (
        Strategy.CHECKS_ONLY_ENTRY,
        Strategy.CHECKS_ONLY_BACKEDGE,
    ):
        transformed = transform(baseline, strategy)
        report = audit_program(transformed, strategy=strategy.value)
        assert report.ok, report.render()
        assert not report.findings, report.render()


# ---------------------------------------------------------------------------
# broken transforms are rejected with the specific rule id


class TestBrokenTransforms:
    """Each fixture hand-builds a function violating exactly one clause
    of the §2/§3 argument and asserts the matching rule id fires."""

    def test_instrumentation_in_checking_code_is_aud001(self):
        # entry CHECK -> dup; the checking continuation runs an INSTR.
        b = BytecodeBuilder("bad001")
        dup = b.new_label("dup")
        b.emit(Op.CHECK, dup)
        b.emit(Op.INSTR, ("block", 0))
        b.ret_const(0)
        b.label(dup)
        b.ret_const(1)
        findings = audit_function(b.build(), strategy=FULL_DUPLICATION)
        assert "AUD001" in ids(findings)

    def test_check_into_checking_code_is_aud002(self):
        # The check's taken edge lands on a block the not-taken path
        # also reaches — it samples nothing.
        b = BytecodeBuilder("bad002")
        join = b.new_label("join")
        b.emit(Op.CHECK, join)
        b.push(1).emit(Op.POP)
        b.label(join)
        b.ret_const(0)
        findings = audit_function(b.build(), strategy=FULL_DUPLICATION)
        assert "AUD002" in ids(findings)

    def test_unredirected_dup_backedge_is_aud003(self):
        # Duplicated code keeps its loop: the dup backedge was never
        # redirected to a checking-code trampoline.
        b = BytecodeBuilder("bad003", num_locals=1)
        dup = b.new_label("dup")
        b.emit(Op.CHECK, dup)
        b.ret_const(0)
        b.label(dup)
        b.load(0).push(1).emit(Op.SUB).store(0)
        b.load(0).jnz(dup)
        b.ret_const(1)
        findings = audit_function(b.build(), strategy=FULL_DUPLICATION)
        assert "AUD003" in ids(findings)

    def test_counted_backedges_exempt_aud003(self):
        # Same shape, but the function is stamped sample_iterations>1:
        # the burst counter deliberately closes bounded dup cycles.
        b = BytecodeBuilder("counted003", num_locals=1)
        dup = b.new_label("dup")
        b.emit(Op.CHECK, dup)
        b.ret_const(0)
        b.label(dup)
        b.load(0).push(1).emit(Op.SUB).store(0)
        b.load(0).jnz(dup)
        b.ret_const(1)
        fn = b.build()
        fn.notes["sample_iterations"] = 8
        findings = audit_function(fn, strategy=FULL_DUPLICATION)
        assert "AUD003" not in ids(findings)

    def test_uncharged_check_is_aud004(self):
        # A mid-function check whose continuation only moves forward:
        # no entry, no backward jump — nothing pays for its executions.
        b = BytecodeBuilder("bad004", num_locals=1)
        dup = b.new_label("dup")
        b.load(0).push(1).emit(Op.ADD).store(0)
        b.emit(Op.CHECK, dup)
        b.ret_const(0)
        b.label(dup)
        b.ret_const(1)
        findings = audit_function(b.build(), strategy=FULL_DUPLICATION)
        assert "AUD004" in ids(findings)

    def test_unguarded_backedge_is_aud005(self):
        # A checking-code loop whose backedge carries no check, under a
        # strategy that promises one on every backedge.
        b = BytecodeBuilder("bad005", num_params=1)
        loop = b.new_label("loop")
        b.label(loop)
        b.load(0).push(1).emit(Op.SUB).store(0)
        b.load(0).jnz(loop)
        b.ret_const(0)
        findings = audit_function(b.build(), strategy=CHECKS_ONLY_BACKEDGE)
        assert "AUD005" in ids(findings)
        assert any("backedge" in f.message for f in findings)

    def test_missing_entry_check_is_aud005(self):
        b = BytecodeBuilder("bad005e")
        b.ret_const(0)
        findings = audit_function(b.build(), strategy=CHECKS_ONLY_ENTRY)
        assert "AUD005" in ids(findings)
        assert any("entry" in f.message for f in findings)

    def test_nonempty_dup_entered_trampoline_is_aud006(self):
        # Duplicated code jumps back into a check block that carries a
        # body: the body re-executes on every sample's return.
        b = BytecodeBuilder("bad006")
        dup, dup2, tramp = (
            b.new_label("dup"), b.new_label("dup2"), b.new_label("tramp")
        )
        b.emit(Op.CHECK, dup)
        b.label(tramp)
        b.push(3).emit(Op.POP)          # the illegal trampoline body
        b.emit(Op.CHECK, dup2)
        b.ret_const(0)
        b.label(dup)
        b.jump(tramp)                    # dup code enters the trampoline
        b.label(dup2)
        b.ret_const(1)
        findings = audit_function(b.build(), strategy=FULL_DUPLICATION)
        assert "AUD006" in ids(findings)

    def test_prunable_bottom_node_is_aud007_warning(self):
        # Partial duplication kept a dup block with a body that cannot
        # reach any instrumentation — §3.1 says it could be deleted.
        b = BytecodeBuilder("warn007")
        dup = b.new_label("dup")
        b.emit(Op.CHECK, dup)
        b.ret_const(0)
        b.label(dup)
        b.push(5).emit(Op.POP)
        b.ret_const(1)
        findings = audit_function(b.build(), strategy=PARTIAL_DUPLICATION)
        assert "AUD007" in ids(findings)
        assert all(
            f.severity == Severity.WARNING
            for f in findings
            if f.rule_id == "AUD007"
        )

    def test_check_under_no_duplication_is_aud008(self):
        b = BytecodeBuilder("bad008")
        t = b.new_label("t")
        b.emit(Op.CHECK, t)
        b.label(t)
        b.ret_const(0)
        findings = audit_function(b.build(), strategy=NO_DUPLICATION)
        assert "AUD008" in ids(findings)

    def test_raw_instr_under_no_duplication_is_aud008(self):
        b = BytecodeBuilder("bad008i")
        b.emit(Op.INSTR, ("block", 0))
        b.ret_const(0)
        findings = audit_function(b.build(), strategy=NO_DUPLICATION)
        assert "AUD008" in ids(findings)
        assert any("INSTR" in f.message for f in findings)

    def test_strategy_mismatch_is_aud009(self, baseline):
        transformed = transform(baseline, Strategy.FULL_DUPLICATION)
        report = audit_program(
            transformed, strategy=PARTIAL_DUPLICATION
        )
        assert not report.ok
        assert "AUD009" in ids(report.findings)

    def test_untransformed_program_gets_no_invariant_findings(
        self, baseline
    ):
        # No sampling stamp -> lints and cost accounting only; the
        # placement invariants never fire on code that was never
        # transformed.
        report = audit_program(baseline)
        assert not any(
            f.rule_id.startswith("AUD") for f in report.findings
        ), report.render()

    def test_broken_program_fails_audit_program_end_to_end(self, baseline):
        # The program-level path: corrupt one transformed function by
        # injecting an INSTR into its entry (checking) block and watch
        # the full audit fail with AUD001 against that function.
        from repro.bytecode import Instruction

        transformed = transform(baseline, Strategy.FULL_DUPLICATION)
        victim = transformed.function("heavy")
        victim.code.insert(1, Instruction(Op.INSTR, ("block", 99)))
        # pcs shifted by one: rewrite branch targets past the insert
        for ins in victim.code:
            if ins.op in (Op.JUMP, Op.JZ, Op.JNZ, Op.CHECK):
                if isinstance(ins.arg, int) and ins.arg >= 1:
                    ins.arg += 1
        report = audit_program(
            transformed, strategy=FULL_DUPLICATION
        )
        assert not report.ok
        assert any(
            f.rule_id == "AUD001" and f.function == "heavy"
            for f in report.findings
        ), report.render()


class TestLints:
    def test_unreachable_block_is_lnt001(self):
        b = BytecodeBuilder("deadcode")
        b.ret_const(0)
        b.push(1).ret()                  # falls after a return, no preds
        findings = audit_function(b.build(), strategy=EXHAUSTIVE)
        assert "LNT001" in ids(findings)

    def test_degenerate_check_is_lnt003(self):
        b = BytecodeBuilder("degen")
        t = b.new_label("t")
        b.emit(Op.CHECK, t)
        b.label(t)
        b.ret_const(0)
        findings = audit_function(b.build(), strategy=FULL_DUPLICATION)
        assert "LNT003" in ids(findings)

    def test_checks_only_strategies_exempt_from_lnt003(self):
        b = BytecodeBuilder("degen_ok")
        t = b.new_label("t")
        b.emit(Op.CHECK, t)
        b.label(t)
        b.ret_const(0)
        findings = audit_function(b.build(), strategy=CHECKS_ONLY_ENTRY)
        assert "LNT003" not in ids(findings)

    def test_suppression_drops_findings_and_counts(self):
        b = BytecodeBuilder("deadcode2")
        b.ret_const(0)
        b.push(1).ret()
        sup = Suppressions.parse("LNT001")
        findings = audit_function(
            b.build(), strategy=EXHAUSTIVE, suppressions=sup
        )
        assert "LNT001" not in ids(findings)


# ---------------------------------------------------------------------------
# check classification


class TestClassification:
    def test_full_duplication_checks_classify_entry_or_backedge(
        self, baseline
    ):
        transformed = transform(baseline, Strategy.FULL_DUPLICATION)
        fn = transformed.function("heavy")
        ctx = AuditContext(fn)
        kinds = set(ctx.classification.values())
        assert CheckKind.ENTRY in kinds
        assert CheckKind.BACKEDGE in kinds
        assert CheckKind.RESIDUAL not in kinds

    def test_charged_edges_are_backward(self, baseline):
        transformed = transform(baseline, Strategy.FULL_DUPLICATION)
        fn = transformed.function("heavy")
        ctx = AuditContext(fn)
        for src, dst in ctx.charged_edges.values():
            assert dst <= src


# ---------------------------------------------------------------------------
# cost certificates


class TestCostCertificate:
    def test_full_duplication_certificate_shape(self, baseline):
        transformed = transform(baseline, Strategy.FULL_DUPLICATION)
        report = audit_program(transformed, strategy=FULL_DUPLICATION)
        cert = report.certificate
        assert cert.checks_per_entry == 1
        assert cert.checks_per_backedge == 1
        assert cert.static_checks > 0
        assert cert.guarded_sites == 0
        by_name = {f.function: f for f in cert.functions}
        heavy = by_name["heavy"]
        assert heavy.entry_checks == 1
        assert heavy.backedge_checks >= 1
        assert heavy.residual_checks == 0
        assert heavy.dup_blocks > 0
        # The duplicate is acyclic, so its per-sample residency is a
        # finite instruction count.
        assert heavy.dup_residency is not None
        assert heavy.dup_residency > 0
        assert heavy.loops >= 1
        assert heavy.max_checks_per_iteration >= 1

    def test_no_duplication_certificate_asserts_zero_checks(
        self, baseline
    ):
        transformed = transform(baseline, Strategy.NO_DUPLICATION)
        cert = audit_program(
            transformed, strategy=NO_DUPLICATION
        ).certificate
        assert cert.checks_per_entry == 0
        assert cert.checks_per_backedge == 0
        assert cert.static_checks == 0
        assert cert.guarded_sites > 0
        assert cert.bound_against(
            {"calls": 10_000, "backward_jumps": 10_000}
        ) == 0

    def test_partial_duplication_residuals_force_both_coefficients(
        self, baseline
    ):
        transformed = transform(baseline, Strategy.PARTIAL_DUPLICATION)
        cert = audit_program(
            transformed, strategy=PARTIAL_DUPLICATION
        ).certificate
        if any(f.residual_checks for f in cert.functions):
            assert cert.checks_per_entry == 1
            assert cert.checks_per_backedge == 1

    def test_bound_formula_evaluates_opportunities(self, baseline):
        transformed = transform(baseline, Strategy.FULL_DUPLICATION)
        cert = audit_program(
            transformed, strategy=FULL_DUPLICATION
        ).certificate
        stats = {
            "calls": 2,
            "threads_spawned": 0,
            "backward_jumps": 3,
            "checks_taken": 1,
        }
        # 1*(2 + 0 + 1) + 1*(3 + 1)
        assert cert.bound_against(stats) == 7
        assert "checks_executed <= 1*" in cert.formula

    def test_violations_flag_exceeded_bound_and_phantom_guards(
        self, baseline
    ):
        transformed = transform(baseline, Strategy.FULL_DUPLICATION)
        cert = audit_program(
            transformed, strategy=FULL_DUPLICATION
        ).certificate
        bad = {
            "calls": 1,
            "backward_jumps": 1,
            "checks_taken": 0,
            "checks_executed": 1_000_000,
        }
        problems = cert.violations(bad)
        assert len(problems) == 1
        assert "exceeds the static bound" in problems[0]
        # A full-duplication certificate records no GUARDED_INSTR sites,
        # so observed guarded polls are also a violation.
        bad2 = {"guarded_checks_executed": 5}
        assert any(
            "no GUARDED_INSTR sites" in p for p in cert.violations(bad2)
        )

    def test_certificate_roundtrip(self, baseline):
        transformed = transform(baseline, Strategy.PARTIAL_DUPLICATION)
        cert = audit_program(
            transformed, strategy=PARTIAL_DUPLICATION
        ).certificate
        again = CostCertificate.from_dict(cert.as_dict())
        assert again == cert
        assert again.as_dict() == cert.as_dict()

    def test_malformed_certificate_is_a_clean_error(self):
        with pytest.raises(AnalysisError, match="malformed"):
            CostCertificate.from_dict({"label": "x"})

    def test_dynamic_bound_holds_on_a_real_run(self, baseline):
        transformed = transform(baseline, Strategy.FULL_DUPLICATION)
        cert = audit_program(
            transformed, strategy=FULL_DUPLICATION
        ).certificate
        for interval in (1, 7, 50):
            stats = run_program(
                transformed, trigger=CounterTrigger(interval)
            ).stats
            assert stats.checks_executed <= cert.bound_against(stats)

    def test_build_certificate_from_contexts(self, baseline):
        transformed = transform(baseline, Strategy.FULL_DUPLICATION)
        contexts = [
            AuditContext(transformed.function(name))
            for name in transformed.function_names()
        ]
        cert = build_certificate("toy", FULL_DUPLICATION, contexts)
        assert len(cert.functions) == len(transformed.function_names())
        assert cert.label == "toy"


# ---------------------------------------------------------------------------
# reconciliation


class TestReconcile:
    @pytest.fixture(scope="class")
    def cert(self, baseline):
        transformed = transform(baseline, Strategy.FULL_DUPLICATION)
        return audit_program(
            transformed, strategy=FULL_DUPLICATION
        ).certificate

    def test_ok_verdict(self, baseline, cert):
        transformed = transform(baseline, Strategy.FULL_DUPLICATION)
        stats = run_program(transformed, trigger=CounterTrigger(5)).stats
        verdict = reconcile(cert, stats)
        assert verdict.ok
        assert verdict.observed == stats.checks_executed
        assert verdict.observed <= verdict.bound
        assert "ok" in verdict.summary()

    def test_violation_verdict_never_raises(self, cert):
        doctored = {
            "calls": 0,
            "backward_jumps": 0,
            "checks_taken": 0,
            "checks_executed": 99,
        }
        verdict = reconcile(cert, doctored)
        assert not verdict.ok
        assert verdict.violations
        assert "VIOLATED" in verdict.summary()

    def test_verdict_roundtrip(self, cert):
        verdict = reconcile(cert, {"checks_executed": 99})
        again = ReconcileVerdict.from_dict(verdict.as_dict())
        assert again == verdict

    def test_reconcile_manifest_offline(self, cert):
        manifest = RunManifest(
            spec={"workload": "toy", "strategy": "full-duplication",
                  "trigger": "counter", "interval": 5},
            engine="fast",
            trigger={},
            seed=None,
            cycles=1,
            value=0,
            wall_seconds=0.0,
            stats={"checks_executed": 1, "calls": 3,
                   "backward_jumps": 2, "checks_taken": 0},
            analysis={"certificate": cert.as_dict()},
        )
        verdict = reconcile_manifest(manifest)
        assert verdict.ok
        manifest.stats["checks_executed"] = 10**9
        assert not reconcile_manifest(manifest).ok

    def test_unaudited_manifest_is_a_clean_error(self):
        manifest = RunManifest(
            spec={}, engine="fast", trigger={}, seed=None,
            cycles=0, value=0, wall_seconds=0.0, stats={},
        )
        with pytest.raises(AnalysisError, match="no cost certificate"):
            reconcile_manifest(manifest)


# ---------------------------------------------------------------------------
# harness integration


class TestHarnessIntegration:
    def test_runner_attaches_audit_and_reconciles(self):
        runner = ExperimentRunner(telemetry=True)
        result = runner.run(
            RunSpec("compress", Strategy.FULL_DUPLICATION,
                    ("call-edge",), trigger="counter", interval=37)
        )
        assert isinstance(result.audit, AuditReport)
        assert result.audit.ok
        assert result.audit.certificate is not None
        analysis = result.manifest.analysis
        assert analysis["ok"] is True
        assert analysis["errors"] == 0
        assert analysis["verdict"]["ok"] is True
        assert (
            analysis["verdict"]["observed"]
            <= analysis["verdict"]["bound"]
        )
        assert analysis["certificate"]["strategy"] == "full-duplication"
        assert (
            runner.metrics.counter("harness.audit.reconciled").value >= 1
        )

    def test_manifest_with_analysis_roundtrips(self, tmp_path):
        runner = ExperimentRunner(telemetry=True)
        result = runner.run(
            RunSpec("compress", Strategy.PARTIAL_DUPLICATION,
                    ("call-edge",), trigger="counter", interval=37)
        )
        path = tmp_path / "cell.json"
        result.manifest.write(path)
        loaded = load_manifest(path)
        assert loaded == result.manifest
        assert loaded.analysis == result.manifest.analysis
        # The archived manifest re-validates offline.
        assert reconcile_manifest(loaded).ok

    def test_failed_audit_is_a_harness_error(self, monkeypatch):
        import repro.harness.experiment as exp

        def broken_audit(program, strategy=None, label=None, **kw):
            report = AuditReport(label=label or "x", strategy=strategy)
            report.findings = [
                Finding("AUD003", Severity.ERROR, "main",
                        "duplicated code contains a cycle")
            ]
            return report

        monkeypatch.setattr(exp, "audit_program", broken_audit)
        runner = ExperimentRunner()
        with pytest.raises(HarnessError, match="static audit failed") as err:
            runner.run(
                RunSpec("compress", Strategy.FULL_DUPLICATION,
                        ("call-edge",), trigger="counter", interval=37)
            )
        assert err.value.stage == "audit"

    def test_reconcile_violation_is_a_harness_error(self, monkeypatch):
        import repro.harness.experiment as exp

        def impossible_reconcile(certificate, stats):
            return ReconcileVerdict(
                ok=False, bound=0, observed=1, formula="",
                violations=["injected"],
            )

        monkeypatch.setattr(exp, "reconcile", impossible_reconcile)
        runner = ExperimentRunner()
        with pytest.raises(HarnessError) as err:
            runner.run(
                RunSpec("compress", Strategy.FULL_DUPLICATION,
                        ("call-edge",), trigger="counter", interval=37)
            )
        assert err.value.stage == "reconcile"
        assert (
            runner.metrics.counter(
                "harness.audit.reconcile_violations"
            ).value >= 1
        )


# ---------------------------------------------------------------------------
# CLI


class TestCliLint:
    def test_lint_workload_passes(self, capsys):
        from repro.cli import main

        rc = main(["lint", "--workload", "compress",
                   "--strategy", "full"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "compress/full-duplication" in out
        assert "0 error(s)" in out

    def test_lint_file_across_strategies(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "toy.mj"
        src.write_text(SOURCE, encoding="utf-8")
        rc = main(["lint", str(src),
                   "--strategy", "full,partial,none"])
        assert rc == 0
        out = capsys.readouterr().out
        for strategy in ("full-duplication", "partial-duplication",
                         "no-duplication"):
            assert f"/{strategy}:" in out

    def test_lint_json_findings_document(self, capsys):
        from repro.cli import main

        rc = main(["lint", "--workload", "db", "--strategy",
                   "full,partial", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["tool"] == "lint"
        assert doc["ok"] is True
        assert doc["errors"] == 0
        assert doc["findings"] == []
        assert len(doc["reports"]) == 2
        for r in doc["reports"]:
            assert r["ok"] is True
            assert r["findings"] == []
            assert r["certificate"]["formula"].startswith(
                "checks_executed <="
            )

    def test_lint_format_json_matches_alias(self, capsys):
        from repro.cli import main

        rc = main(["lint", "--workload", "db", "--strategy", "full",
                   "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "lint" and doc["ok"] is True

    def test_lint_strict_passes_when_clean(self, capsys):
        from repro.cli import main

        rc = main(["lint", "--workload", "db",
                   "--strategy", "full", "--strict"])
        assert rc == 0

    def test_lint_strict_flags_unreachable_instrumentation(self, capsys):
        # compress carries a statically dead function (lcgNext); the
        # LNT004 program rule warns, which --strict turns into a
        # nonzero exit — unless suppressed.
        from repro.cli import main

        rc = main(["lint", "--workload", "compress",
                   "--strategy", "full", "--strict"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "LNT004" in out
        rc = main(["lint", "--workload", "compress",
                   "--strategy", "full", "--strict",
                   "--suppress", "LNT004"])
        assert rc == 0

    def test_lint_bad_suppression_is_a_clean_error(self, capsys):
        from repro.cli import main

        rc = main(["lint", "--workload", "compress",
                   "--strategy", "full", "--suppress", "@main"])
        assert rc == 1
        assert "bad suppression" in capsys.readouterr().err

    def test_lint_needs_a_target(self, capsys):
        from repro.cli import main

        assert main(["lint"]) == 1
        assert "FILE or --workload" in capsys.readouterr().err


class TestCliAudit:
    def test_audit_text_and_exit_code(self, capsys):
        from repro.cli import main

        rc = main(["audit", "--workload", "compress",
                   "--strategy", "full", "--interval", "100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
        assert "certificate:" in out
        assert "reconcile: checks" in out
        assert "ok" in out

    def test_audit_document_out(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "audit.json"
        rc = main(["audit", "--workload", "compress",
                   "--strategy", "partial", "--interval", "50",
                   "--out", str(out_path)])
        assert rc == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["schema"] == 1
        assert doc["tool"] == "audit"
        assert doc["ok"] is True
        payload = doc["reports"][0]
        assert payload["report"]["ok"] is True
        assert payload["verdict"]["ok"] is True
        assert (
            payload["stats"]["checks_executed"]
            <= payload["verdict"]["bound"]
        )

    def test_audit_document_agrees_with_runner_manifest(self, tmp_path):
        """``repro audit`` and the harness run the same cell stages, so
        for one spec they reach the same verdict and incremental
        certificate; only the label each names its cell by differs."""
        from repro.cli import main

        out_path = tmp_path / "audit.json"
        assert main(["audit", "--workload", "dynload", "--strategy", "full",
                     "--interval", "100", "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        payload = payload["reports"][0]
        result = ExperimentRunner(telemetry=True).run(
            RunSpec("dynload", Strategy.FULL_DUPLICATION, ("call-edge",),
                    trigger="counter", interval=100)
        )
        analysis = json.loads(json.dumps(result.manifest.analysis))

        def unlabeled(incremental):
            for key in ("certificate", "dynamic_certificate"):
                assert incremental[key].pop("label")
            return incremental

        assert payload["verdict"] == analysis["verdict"]
        assert payload["incremental"]["events"]
        assert unlabeled(payload["incremental"]) == (
            unlabeled(analysis["incremental"])
        )

    def test_audit_json_stdout(self, capsys):
        from repro.cli import main

        rc = main(["audit", "--workload", "db",
                   "--strategy", "full", "--interval", "100", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "audit" and doc["ok"] is True
        report = doc["reports"][0]["report"]
        assert report["certificate"]["checks_per_entry"] == 1


class TestCliMetrics:
    def test_metrics_surfaces_audit_and_reconcile(self, capsys):
        from repro.cli import main

        rc = main(["metrics", "--workload", "compress",
                   "--strategy", "full", "--interval", "100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "audit: " in out
        assert "certificate: " in out
        assert "reconcile: checks" in out
