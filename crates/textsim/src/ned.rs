//! Normalised edit distance (Definition 7 of the paper).
//!
//! `ned(s_i, s_j)` is "the edit distance between two strings s_i and s_j
//! normalized by the maximum of the two strings' length". Values lie in
//! `[0, 1]`, where 0 means identical and 1 means maximally different.
//!
//! Both entry points are thin wrappers over the default
//! [`crate::kernel::BitParallelKernel`], so every caller — the filter's
//! q-gram verification, the probe path, the baseline measures — gets the
//! bit-parallel speedup without code changes. Kernels are exact, so the
//! values are identical to the scalar DP's.

use crate::bounds::{bag_distance_lower_bound_with, length_lower_bound};
use crate::kernel::{with_thread_scratch, BitParallelKernel, EditDistanceKernel};
use crate::levenshtein::char_count;

/// Normalised edit distance: `levenshtein(a, b) / max(|a|, |b|)`.
///
/// By convention two empty strings have distance 0 (they are identical).
///
/// # Examples
/// ```
/// use dogmatix_textsim::ned;
/// assert_eq!(ned("", ""), 0.0);
/// assert_eq!(ned("abc", "abc"), 0.0);
/// assert_eq!(ned("abc", ""), 1.0);
/// // Paper Section 5.1: ned("Boston", "Los Angeles") = 8/11.
/// assert!((ned("Boston", "Los Angeles") - 8.0 / 11.0).abs() < 1e-12);
/// // ned("Boston", "New York") = 7/8.
/// assert!((ned("Boston", "New York") - 7.0 / 8.0).abs() < 1e-12);
/// ```
pub fn ned(a: &str, b: &str) -> f64 {
    if a == b {
        return 0.0; // also covers the two-empty-strings convention
    }
    let la = char_count(a);
    let lb = char_count(b);
    let max_len = la.max(lb); // > 0: a != b rules out both being empty
    let d = with_thread_scratch(|s| {
        BitParallelKernel
            .bounded_counted(s, a, la, b, lb, max_len)
            .unwrap_or(max_len) // unreachable: any distance is <= max_len
    });
    d as f64 / max_len as f64
}

/// Normalised edit distance if it is strictly below `threshold`, else `None`.
///
/// This is the pruned comparison the paper's Equation 4 needs: a pair of OD
/// tuples is *similar* iff `odtDist < θ_tuple`, so the absolute edit
/// distance must be `< θ_tuple · max(|a|,|b|)`. The implementation applies,
/// in order of increasing cost:
///
/// 1. the length-difference lower bound,
/// 2. the bag-distance lower bound (multiset difference, from \[18\]),
/// 3. the banded early-exit edit distance through the bit-parallel kernel.
///
/// # Examples
/// ```
/// use dogmatix_textsim::ned_within;
/// assert_eq!(ned_within("abc", "abc", 0.15), Some(0.0));
/// assert_eq!(ned_within("abc", "xyz", 0.15), None);
/// // 1 edit over 10 chars = 0.1 < 0.15.
/// let d = ned_within("The Matrix", "The Motrix", 0.15).unwrap();
/// assert!((d - 0.1).abs() < 1e-12);
/// ```
pub fn ned_within(a: &str, b: &str, threshold: f64) -> Option<f64> {
    debug_assert!((0.0..=1.0).contains(&threshold));
    let la = char_count(a);
    let lb = char_count(b);
    let max_len = la.max(lb);
    if max_len == 0 {
        // Identical empty strings: distance 0, below any positive threshold.
        return (threshold > 0.0).then_some(0.0);
    }
    let max_edits = strict_cap(threshold, max_len)?;
    if length_lower_bound(la, lb) > max_edits {
        return None;
    }
    let d = with_thread_scratch(|s| {
        if bag_distance_lower_bound_with(a, b, &mut s.bounds) > max_edits {
            return None;
        }
        BitParallelKernel.bounded_counted(s, a, la, b, lb, max_edits)
    })?;
    Some(d as f64 / max_len as f64)
}

/// Largest integer `d` with `d / max_len < threshold`, or `None` if no
/// distance (not even 0) satisfies the strict bound.
///
/// This is the band the paper's strict `odtDist < θ_tuple` comparison
/// admits; kernel callers use it to bound the DP before any character is
/// looked at. The predicate is the float comparison
/// `(d as f64 / max_len as f64) < threshold` itself — the one the scoring
/// loop applies to exact distances — so `d <= strict_cap(θ, m)` holds
/// exactly when that comparison does. Flooring the product `θ · m`
/// instead would disagree wherever the product rounds across an integer
/// (`0.55 · 100` is `55.000000000000007`, yet `55 / 100 < 0.55` is false).
/// Two empty strings (`max_len == 0`) are identical, so their cap is 0.
///
/// # Examples
/// ```
/// use dogmatix_textsim::strict_cap;
/// assert_eq!(strict_cap(0.15, 10), Some(1)); // d <= 1: 1/10 < 0.15 < 2/10
/// assert_eq!(strict_cap(0.5, 2), Some(0));   // d < 1 means d = 0
/// assert_eq!(strict_cap(0.55, 100), Some(54)); // 55/100 < 0.55 is false
/// assert_eq!(strict_cap(0.15, 0), Some(0));  // empty strings are identical
/// assert_eq!(strict_cap(0.0, 7), None);      // nothing is < 0
/// ```
pub fn strict_cap(threshold: f64, max_len: usize) -> Option<usize> {
    if threshold.is_nan() || threshold <= 0.0 {
        return None;
    }
    if max_len == 0 {
        return Some(0);
    }
    let m = max_len as f64;
    let below = |d: usize| (d as f64 / m) < threshold;
    // The floored product is within one of the answer; step to it.
    let mut cap = ((threshold * m).floor() as usize).min(max_len);
    while cap > 0 && !below(cap) {
        cap -= 1;
    }
    while cap < max_len && below(cap + 1) {
        cap += 1;
    }
    Some(cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levenshtein::levenshtein;

    #[test]
    fn ned_is_in_unit_interval() {
        let words = ["", "a", "abc", "abcdef", "xyz", "The Matrix"];
        for a in words {
            for b in words {
                let d = ned(a, b);
                assert!((0.0..=1.0).contains(&d), "ned({a:?},{b:?})={d}");
            }
        }
    }

    #[test]
    fn ned_symmetric() {
        assert_eq!(ned("abc", "abcd"), ned("abcd", "abc"));
    }

    #[test]
    fn ned_identity_of_indiscernibles() {
        assert_eq!(ned("hello", "hello"), 0.0);
        assert!(ned("hello", "hellp") > 0.0);
    }

    #[test]
    fn ned_within_matches_unpruned_ned() {
        let words = ["disc01", "disc02", "The Matrix", "Matrix", "Signs", ""];
        for a in words {
            for b in words {
                for theta in [0.05, 0.15, 0.5, 0.99] {
                    let full = ned(a, b);
                    let pruned = ned_within(a, b, theta);
                    if full < theta {
                        let got = pruned.unwrap_or_else(|| {
                            panic!("ned_within({a:?},{b:?},{theta}) pruned but ned={full}")
                        });
                        assert!((got - full).abs() < 1e-12);
                    } else {
                        assert_eq!(pruned, None, "({a:?},{b:?},{theta}) full={full}");
                    }
                }
            }
        }
    }

    #[test]
    fn strict_threshold_boundary() {
        // distance exactly equal to threshold is NOT similar (Eq. 4 uses <).
        // "ab" vs "ax": d=1, max_len=2, ned=0.5.
        assert_eq!(ned_within("ab", "ax", 0.5), None);
        assert!(ned_within("ab", "ax", 0.51).is_some());
    }

    #[test]
    fn strict_cap_agrees_with_the_float_quotient_at_product_rounding() {
        // 0.55 · 100 rounds to 55.000000000000007, but 55/100 < 0.55 is
        // false: the cap is 54, not 55.
        assert_eq!(strict_cap(0.55, 100), Some(54));
        let a = "a".repeat(100);
        let mut b = "b".repeat(55);
        b.push_str(&"a".repeat(45));
        assert_eq!(levenshtein(&a, &b), 55);
        assert_eq!(ned(&a, &b), 0.55);
        assert_eq!(ned_within(&a, &b, 0.55), None, "55/100 < 0.55 is false");
        let mut c = "b".repeat(54);
        c.push_str(&"a".repeat(46));
        assert_eq!(ned_within(&a, &c, 0.55), Some(0.54));
    }

    #[test]
    fn strict_cap_is_exact_on_a_threshold_grid() {
        for step in 1..20 {
            let theta = step as f64 * 0.05;
            for m in 1..=2000usize {
                let cap = strict_cap(theta, m).unwrap();
                assert!((cap as f64 / m as f64) < theta, "θ={theta} m={m} cap={cap}");
                if cap < m {
                    assert!(
                        ((cap + 1) as f64 / m as f64) >= theta,
                        "θ={theta} m={m} cap={cap} is not the largest"
                    );
                }
            }
        }
        assert_eq!(strict_cap(f64::NAN, 10), None);
        assert_eq!(strict_cap(1.5, 10), Some(10));
    }

    #[test]
    fn zero_threshold_never_matches() {
        assert_eq!(ned_within("abc", "abc", 0.0), None);
    }

    #[test]
    fn empty_pair_matches_any_positive_threshold() {
        assert_eq!(ned_within("", "", 0.15), Some(0.0));
        assert_eq!(ned_within("", "", 0.0), None);
    }

    #[test]
    fn non_ascii_pairs_go_through_the_scratch_bounds() {
        // Forces the unicode bag-distance path inside the thread scratch.
        let d = ned_within("naïve café", "naïve cafe", 0.3).unwrap();
        assert!((d - 0.1).abs() < 1e-12);
        assert_eq!(ned_within("ααββγγ", "xxyyzz", 0.5), None);
    }

    #[test]
    fn paper_city_distances() {
        // Section 5.1: (Boston, Los Angeles) 8/11 ≈ 0.72 vs (Boston, New York) 7/8.
        assert!(ned("Boston", "Los Angeles") < ned("Boston", "New York"));
    }
}
