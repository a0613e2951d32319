//! Property-based tests for the string-similarity substrate.
//!
//! These check metric axioms and bound soundness over randomly generated
//! strings — the invariants the DogmatiX pipeline's pruning correctness
//! rests on (a violated lower bound would silently drop true duplicates).

use dogmatix_textsim::{
    bag_distance_lower_bound, jaro, jaro_winkler, length_lower_bound, levenshtein,
    levenshtein_bounded, ned, ned_within, strict_cap,
};
use proptest::prelude::*;

fn small_string() -> impl Strategy<Value = String> {
    // Mixed ASCII + a few multibyte chars to exercise char-vs-byte handling.
    proptest::string::string_regex("[a-zA-Z0-9 äöüß]{0,24}").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lev_symmetric(a in small_string(), b in small_string()) {
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
    }

    #[test]
    fn lev_identity(a in small_string()) {
        prop_assert_eq!(levenshtein(&a, &a), 0);
    }

    #[test]
    fn lev_triangle(a in small_string(), b in small_string(), c in small_string()) {
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    #[test]
    fn lev_bounded_by_max_len(a in small_string(), b in small_string()) {
        let d = levenshtein(&a, &b);
        prop_assert!(d <= a.chars().count().max(b.chars().count()));
    }

    #[test]
    fn bounds_are_sound(a in small_string(), b in small_string()) {
        let d = levenshtein(&a, &b);
        prop_assert!(length_lower_bound(a.chars().count(), b.chars().count()) <= d);
        prop_assert!(bag_distance_lower_bound(&a, &b) <= d);
    }

    #[test]
    fn banded_agrees_with_exact(a in small_string(), b in small_string(), max in 0usize..30) {
        let d = levenshtein(&a, &b);
        match levenshtein_bounded(&a, &b, max) {
            Some(got) => {
                prop_assert_eq!(got, d);
                prop_assert!(d <= max);
            }
            None => prop_assert!(d > max),
        }
    }

    #[test]
    fn ned_in_unit_interval(a in small_string(), b in small_string()) {
        let d = ned(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn ned_within_agrees_with_ned(a in small_string(), b in small_string(),
                                  theta in 0.0f64..1.0) {
        let full = ned(&a, &b);
        match ned_within(&a, &b, theta) {
            Some(got) => {
                prop_assert!((got - full).abs() < 1e-9);
                prop_assert!(full < theta);
            }
            None => prop_assert!(full >= theta - 1e-12),
        }
    }

    #[test]
    fn jaro_unit_interval_and_symmetric(a in small_string(), b in small_string()) {
        let j = jaro(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&j));
        prop_assert!((j - jaro(&b, &a)).abs() < 1e-12);
        let jw = jaro_winkler(&a, &b);
        prop_assert!(jw + 1e-12 >= j, "winkler must not decrease jaro");
        prop_assert!(jw <= 1.0 + 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The buffer-emitting normaliser must produce byte-identical output
    /// to the allocating options-based path — the equality the columnar
    /// term store's bit-identity to the String-per-tuple build rests on.
    #[test]
    fn normalize_into_matches_options_path(
        s in proptest::string::string_regex("[a-zA-Z0-9 \\t äöüßΣσς]{0,32}").unwrap()
    ) {
        use dogmatix_textsim::normalize::{normalize_value_with, NormalizeOptions};
        let mut buf = String::from("stale contents");
        dogmatix_textsim::normalize_value_into(&s, &mut buf);
        prop_assert_eq!(&buf, &normalize_value_with(&s, NormalizeOptions::default()));
        prop_assert_eq!(&buf, &dogmatix_textsim::normalize_value(&s));
    }

    /// Buffer-emitting q-gram / word-token hashing agrees with hashing
    /// the materialised grams and tokens.
    #[test]
    fn buffer_hashers_match_materialised(
        s in proptest::string::string_regex("[a-zA-Z0-9 äöüß()\\-]{0,24}").unwrap(),
        q in 1usize..4,
    ) {
        let mut grams = Vec::new();
        dogmatix_textsim::positional_qgram_hashes_into(&s, q, &mut grams);
        let direct: Vec<(u64, u32)> = dogmatix_textsim::positional_qgrams(&s, q)
            .into_iter()
            .map(|(g, p)| (dogmatix_textsim::token_hash(&g), p as u32))
            .collect();
        prop_assert_eq!(grams, direct);

        let mut tokens = Vec::new();
        dogmatix_textsim::word_token_hashes_into(&s, &mut tokens);
        let direct: Vec<u64> = dogmatix_textsim::word_tokens(&s)
            .iter()
            .map(|t| dogmatix_textsim::token_hash(t))
            .collect();
        prop_assert_eq!(tokens, direct);
    }

    /// `strict_cap` is the strict `odtDist < θ` predicate itself: an
    /// edit count `e` over `m` chars is within the cap exactly when the
    /// float quotient `e / m` is below θ — the comparison the scoring
    /// loop applies to exact distances, so the bounded 1×1 path, the
    /// filter's `ned_within` and the multi-tuple path agree.
    #[test]
    fn strict_cap_is_the_strict_quotient_predicate(
        theta in 0.0f64..1.0,
        m in 1usize..4097,
        e in 0usize..4097,
    ) {
        let e = e % (m + 1);
        let below = (e as f64 / m as f64) < theta;
        match strict_cap(theta, m) {
            Some(cap) => {
                prop_assert_eq!(e <= cap, below, "θ={} m={} e={} cap={}", theta, m, e, cap);
                prop_assert!(cap <= m);
            }
            None => prop_assert!(theta <= 0.0 && !below, "θ={} m={}", theta, m),
        }
    }
}
