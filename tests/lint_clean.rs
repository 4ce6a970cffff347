//! The workspace must be `locality-lint`-clean: zero unsuppressed
//! violations *and* zero stale allowlist entries. This is the same
//! gate `scripts/verify.sh` runs, wired into `cargo test` so the
//! invariants cannot regress between verify runs.

use std::path::Path;

#[test]
fn workspace_has_no_lint_violations() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = locality_lint::walk::find_workspace_root(here)
        .expect("the integration crate lives inside the workspace");
    let report = locality_lint::lint_workspace(&root).expect("the source tree is readable");
    assert!(
        report.violations.is_empty(),
        "unsuppressed locality-lint violations:\n{}",
        report.render(),
    );
    assert!(
        report.stale_allows.is_empty(),
        "lint.allow entries that no longer match anything (delete them):\n{}",
        report.render(),
    );
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}): did the walker break?",
        report.files_scanned,
    );
}
