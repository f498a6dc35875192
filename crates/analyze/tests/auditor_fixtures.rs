//! Golden-fixture suite for the concurrency auditor.
//!
//! Each fixture under `tests/fixtures/` seeds exactly one class of
//! defect (or none, for `clean.rs`); the tests pin the auditor's exact
//! findings — rule, function, and line number — so any behaviour drift
//! in the token pass shows up as a diff here, not as silent laxity.

use wsq_analyze::conc::{audit_sources, AuditConfig, ConcFinding, ConcRule};

fn audit(name: &str, src: &str) -> Vec<ConcFinding> {
    audit_sources(
        &[(name.to_string(), src.to_string())],
        &AuditConfig::default(),
    )
}

#[test]
fn seeded_lock_order_cycle_is_reported_with_both_chains() {
    let got = audit("lock_cycle.rs", include_str!("fixtures/lock_cycle.rs"));
    assert_eq!(got.len(), 1, "exactly the seeded cycle: {got:#?}");
    let f = &got[0];
    assert_eq!(f.rule, ConcRule::LockOrderCycle);
    assert_eq!(f.function, "submit");
    assert_eq!(f.line, 10, "anchored at the call that closes the chain");
    // The report names both directions and the mediating call chain.
    assert!(
        f.detail.contains("`queue`") && f.detail.contains("`stats`"),
        "{f}"
    );
    assert!(f.detail.contains("flush_inner"), "witness chain named: {f}");
    assert!(
        f.detail.contains("report"),
        "reverse edge's function named: {f}"
    );
}

#[test]
fn seeded_naked_condvar_wait_is_reported() {
    let got = audit("naked_wait.rs", include_str!("fixtures/naked_wait.rs"));
    assert_eq!(got.len(), 1, "only the un-looped wait: {got:#?}");
    let f = &got[0];
    assert_eq!(f.rule, ConcRule::NakedCondvarWait);
    assert_eq!((f.function.as_str(), f.line), ("sleep_bad", 16));
}

#[test]
fn seeded_blocking_call_under_if_let_guard_is_reported() {
    let got = audit(
        "blocking_if_let.rs",
        include_str!("fixtures/blocking_if_let.rs"),
    );
    assert_eq!(got.len(), 1, "only the guarded call: {got:#?}");
    let f = &got[0];
    assert_eq!(f.rule, ConcRule::BlockingUnderGuard);
    assert_eq!((f.function.as_str(), f.line), ("dispatch", 10));
    assert!(f.detail.contains("`state`"), "{f}");
}

#[test]
fn seeded_helper_returned_guard_is_reported() {
    let got = audit("helper_guard.rs", include_str!("fixtures/helper_guard.rs"));
    assert_eq!(got.len(), 1, "only the pump wait under the guard: {got:#?}");
    let f = &got[0];
    assert_eq!(f.rule, ConcRule::BlockingUnderGuard);
    assert_eq!((f.function.as_str(), f.line), ("drain", 15));
    assert!(
        f.detail.contains("wait_drain") && f.detail.contains("`buf`"),
        "{f}"
    );
}

#[test]
fn seeded_inbox_wait_under_guard_is_reported() {
    let got = audit("inbox_guard.rs", include_str!("fixtures/inbox_guard.rs"));
    assert_eq!(got.len(), 1, "only the wait under the guard: {got:#?}");
    let f = &got[0];
    assert_eq!(f.rule, ConcRule::BlockingUnderGuard);
    assert_eq!((f.function.as_str(), f.line), ("await_completions", 12));
    assert!(
        f.detail.contains("wait_drain") && f.detail.contains("`buffered`"),
        "{f}"
    );
}

#[test]
fn clean_fixture_has_zero_findings() {
    let got = audit("clean.rs", include_str!("fixtures/clean.rs"));
    assert!(got.is_empty(), "false positives on clean idioms: {got:#?}");
}

#[test]
fn findings_are_stable_across_a_combined_scan() {
    // Auditing all fixtures as one unit (shared call graph) must not
    // invent cross-file findings or lose per-file ones.
    let files: Vec<(String, String)> = vec![
        (
            "lock_cycle.rs".into(),
            include_str!("fixtures/lock_cycle.rs").into(),
        ),
        (
            "naked_wait.rs".into(),
            include_str!("fixtures/naked_wait.rs").into(),
        ),
        (
            "blocking_if_let.rs".into(),
            include_str!("fixtures/blocking_if_let.rs").into(),
        ),
        (
            "helper_guard.rs".into(),
            include_str!("fixtures/helper_guard.rs").into(),
        ),
        (
            "inbox_guard.rs".into(),
            include_str!("fixtures/inbox_guard.rs").into(),
        ),
        ("clean.rs".into(), include_str!("fixtures/clean.rs").into()),
    ];
    let got = audit_sources(&files, &AuditConfig::default());
    assert_eq!(got.len(), 5, "{got:#?}");
    let mut rules: Vec<&str> = got.iter().map(|f| f.rule.name()).collect();
    rules.sort();
    assert_eq!(
        rules,
        [
            "blocking-under-guard",
            "blocking-under-guard",
            "blocking-under-guard",
            "lock-order-cycle",
            "naked-condvar-wait",
        ]
    );
}
