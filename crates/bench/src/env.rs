//! Canonical bench sizing environment variables.
//!
//! Every bench binary sizes itself from the `AT_BENCH_*` family; the
//! pre-unification names (`AT_KERNELS_DIM`, `AT_FLEET_REQUESTS`, …) keep
//! working as aliases. Lookup order is canonical name first, then aliases
//! in declaration order; the first *set* variable wins even if it fails to
//! parse (a typo'd canonical value falls back to the default, never to a
//! stale alias).
//!
//! | Canonical            | Legacy alias        | Meaning                          |
//! |----------------------|---------------------|----------------------------------|
//! | `AT_BENCH_DIM`       | `AT_KERNELS_DIM`    | Largest kernel matmul dimension  |
//! | `AT_BENCH_REPS`      | `AT_KERNELS_REPS`   | Repetitions per measurement      |
//! | `AT_BENCH_REQUESTS`  | `AT_FLEET_REQUESTS` | Fleet total arrival target       |
//! | `AT_BENCH_REPLICAS`  | `AT_FLEET_REPLICAS` | Fleet replica count              |
//! | `AT_BENCH_SEED`      | `AT_FLEET_SEED`     | Fleet / chaos simulation seed    |

/// Whether any `AT_*` variable is set — every sizing, selection and seed
/// knob of the harness lives in that family, so this is "the run was not
/// sized by the defaults". The report writers use it to keep a down-sized
/// smoke run from overwriting the committed full-scale artifacts.
pub(crate) fn overridden() -> bool {
    std::env::vars_os().any(|(k, _)| k.to_string_lossy().starts_with("AT_"))
}

/// The first set variable among `canonical` and `aliases`, if any.
fn lookup(canonical: &str, aliases: &[&str]) -> Option<String> {
    std::iter::once(canonical)
        .chain(aliases.iter().copied())
        .find_map(|k| std::env::var(k).ok())
}

/// Reads a `usize` sizing variable: canonical name first, then aliases.
pub(crate) fn usize_var(canonical: &str, aliases: &[&str], default: usize) -> usize {
    lookup(canonical, aliases)
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Reads a `u64` sizing variable (seeds), same lookup order.
pub(crate) fn u64_var(canonical: &str, aliases: &[&str], default: u64) -> u64 {
    lookup(canonical, aliases)
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Reads an `f64` sizing variable, same lookup order.
pub(crate) fn f64_var(canonical: &str, aliases: &[&str], default: f64) -> f64 {
    lookup(canonical, aliases)
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses its own variable names: the process environment is
    // shared across the parallel test runner.

    #[test]
    fn canonical_wins_over_alias() {
        std::env::set_var("AT_TEST_CANON_A", "7");
        std::env::set_var("AT_TEST_ALIAS_A", "9");
        assert_eq!(usize_var("AT_TEST_CANON_A", &["AT_TEST_ALIAS_A"], 1), 7);
        std::env::remove_var("AT_TEST_CANON_A");
        std::env::remove_var("AT_TEST_ALIAS_A");
    }

    #[test]
    fn any_at_variable_marks_the_run_as_overridden() {
        std::env::set_var("AT_TEST_OVERRIDE_E", "");
        assert!(overridden(), "even an empty AT_* variable counts");
        std::env::remove_var("AT_TEST_OVERRIDE_E");
    }

    #[test]
    fn alias_applies_when_canonical_is_unset() {
        std::env::set_var("AT_TEST_ALIAS_B", "42");
        assert_eq!(u64_var("AT_TEST_CANON_B", &["AT_TEST_ALIAS_B"], 1), 42);
        std::env::remove_var("AT_TEST_ALIAS_B");
    }

    #[test]
    fn unset_and_unparseable_fall_back_to_default() {
        assert_eq!(f64_var("AT_TEST_CANON_C", &["AT_TEST_ALIAS_C"], 2.5), 2.5);
        std::env::set_var("AT_TEST_CANON_D", "not-a-number");
        std::env::set_var("AT_TEST_ALIAS_D", "3");
        // A set-but-broken canonical value must not fall through to the
        // alias: the canonical variable was the user's intent.
        assert_eq!(usize_var("AT_TEST_CANON_D", &["AT_TEST_ALIAS_D"], 5), 5);
        std::env::remove_var("AT_TEST_CANON_D");
        std::env::remove_var("AT_TEST_ALIAS_D");
    }
}
