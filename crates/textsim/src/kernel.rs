//! Pluggable edit-distance kernels.
//!
//! The comparison phase spends its time computing bounded Levenshtein
//! distances between normalised term values. This module puts that
//! computation behind one seam — [`EditDistanceKernel`] — so the scalar
//! banded DP ([`ScalarKernel`]), Myers' bit-parallel algorithm
//! ([`BitParallelKernel`], the default) and future wide implementations
//! (a GPU-shaped batch kernel) are swappable without touching callers.
//!
//! Every kernel is **exact**: for the same inputs all kernels return the
//! same integer distance as the scalar dynamic program, so swapping
//! kernels never changes detection output — only wall-clock time.
//!
//! The batch shape mirrors how the scoring loop consumes distances: one
//! *pattern* (the left term of a posting group) is prepared once via
//! [`EditDistanceKernel::prepare`], then compared against many *texts*
//! via [`EditDistanceKernel::bounded_prepared`]. All working state lives
//! in a caller-owned [`KernelScratch`], so a resident scratch (one per
//! worker) amortises every allocation to zero on the hot path.
//!
//! # Examples
//! ```
//! use dogmatix_textsim::kernel::{
//!     BitParallelKernel, EditDistanceKernel, KernelScratch, ScalarKernel,
//! };
//!
//! let mut scratch = KernelScratch::new();
//! let kernel = BitParallelKernel;
//! // Prepare "kitten" once, probe it against a whole posting group.
//! kernel.prepare(&mut scratch, "kitten", 6);
//! assert_eq!(kernel.bounded_prepared(&mut scratch, "sitting", 7, 3), Some(3));
//! assert_eq!(kernel.bounded_prepared(&mut scratch, "mitten", 6, 3), Some(1));
//! assert_eq!(kernel.bounded_prepared(&mut scratch, "sitting", 7, 2), None);
//! // Kernels are interchangeable and bit-identical.
//! assert_eq!(
//!     ScalarKernel.bounded(&mut scratch, "kitten", "sitting", 3),
//!     BitParallelKernel.bounded(&mut scratch, "kitten", "sitting", 3),
//! );
//! ```

use std::cell::RefCell;
use std::fmt;

use crate::bounds::BoundsScratch;
use crate::levenshtein;
use crate::myers;

/// Reusable working state for every kernel: decoded pattern buffers,
/// the bit-parallel `Peq` table and column state, the scalar DP rows,
/// and the [`BoundsScratch`] shared with the lower-bound pruning.
///
/// One scratch per thread (or per worker) is enough; preparing a new
/// pattern resets exactly the state that pattern owns.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// `Peq` bitmasks of the prepared pattern (bit-parallel kernel).
    pub(crate) masks: myers::PatternMasks,
    /// Multi-block column state (VP words).
    pub(crate) vp: Vec<u64>,
    /// Multi-block column state (VN words).
    pub(crate) vn: Vec<u64>,
    /// Scalar-value length of the prepared pattern.
    pub(crate) pat_len: usize,
    /// Whether the prepared pattern is pure ASCII.
    pub(crate) pat_ascii: bool,
    /// Prepared pattern bytes (ASCII patterns, scalar kernel).
    pub(crate) pat_bytes: Vec<u8>,
    /// Prepared pattern decoded to chars (filled lazily when needed).
    pub(crate) pat_chars: Vec<char>,
    /// Whether `pat_chars` currently matches the prepared pattern.
    pub(crate) pat_chars_ready: bool,
    /// Decoded-text scratch for the scalar kernel's non-ASCII path.
    pub(crate) text_chars: Vec<char>,
    /// Scalar DP row (previous).
    pub(crate) prev_row: Vec<usize>,
    /// Scalar DP row (current).
    pub(crate) curr_row: Vec<usize>,
    /// Scratch table for [`crate::bounds::bag_distance_lower_bound_with`].
    pub bounds: BoundsScratch,
}

impl KernelScratch {
    /// Creates an empty scratch; buffers grow on first use and are
    /// reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `pattern` for the scalar kernel: ASCII patterns keep a
    /// byte copy, others decode to chars on demand.
    pub(crate) fn set_scalar_pattern(&mut self, pattern: &str, pattern_chars: usize) {
        self.pat_len = pattern_chars;
        self.pat_ascii = pattern.is_ascii();
        self.pat_bytes.clear();
        self.pat_bytes.extend_from_slice(pattern.as_bytes());
        self.pat_chars_ready = false;
    }

    /// Ensures `pat_chars` holds the prepared pattern decoded to chars.
    pub(crate) fn ensure_pat_chars(&mut self) {
        if !self.pat_chars_ready {
            self.pat_chars.clear();
            // `pat_bytes` always holds the raw pattern bytes; for ASCII
            // patterns the bytes are the chars.
            if self.pat_ascii {
                self.pat_chars
                    .extend(self.pat_bytes.iter().map(|&b| b as char));
            } else if let Ok(s) = std::str::from_utf8(&self.pat_bytes) {
                self.pat_chars.extend(s.chars());
            }
            self.pat_chars_ready = true;
        }
    }
}

/// A bounded edit-distance implementation, swappable behind the
/// comparison phase.
///
/// The contract every implementation must uphold: `bounded*` returns
/// `Some(d)` iff the exact Levenshtein distance `d` (over Unicode
/// scalar values) satisfies `d <= max`, and `None` otherwise — the same
/// integers the scalar DP produces, so kernels are interchangeable
/// without changing any detection result.
///
/// The two-phase API ([`prepare`](Self::prepare) +
/// [`bounded_prepared`](Self::bounded_prepared)) lets batch callers pay
/// per-pattern preprocessing (e.g. the bit-parallel `Peq` masks) once
/// per posting group instead of once per pair. Character counts are
/// passed in because the store already has them as columns; wrappers
/// without cached counts use [`bounded`](Self::bounded).
///
/// # Examples
/// ```
/// use dogmatix_textsim::kernel::{EditDistanceKernel, KernelScratch, ScalarKernel};
/// let mut scratch = KernelScratch::new();
/// assert_eq!(ScalarKernel.name(), "scalar");
/// assert_eq!(ScalarKernel.bounded(&mut scratch, "Boston", "New York", 7), Some(7));
/// assert_eq!(ScalarKernel.bounded(&mut scratch, "Boston", "New York", 6), None);
/// ```
pub trait EditDistanceKernel: fmt::Debug + Send + Sync {
    /// Kernel name as used in diagnostics and bench reports.
    fn name(&self) -> &'static str;

    /// Preprocesses `pattern` (`pattern_chars` scalar values) into
    /// `scratch` so that repeated [`bounded_prepared`](Self::bounded_prepared)
    /// calls against many texts amortise the per-pattern work.
    fn prepare(&self, scratch: &mut KernelScratch, pattern: &str, pattern_chars: usize);

    /// Bounded distance of the prepared pattern against `text`
    /// (`text_chars` scalar values): `Some(d)` iff `d <= max`.
    fn bounded_prepared(
        &self,
        scratch: &mut KernelScratch,
        text: &str,
        text_chars: usize,
        max: usize,
    ) -> Option<usize>;

    /// One-shot bounded distance with caller-cached character counts.
    fn bounded_counted(
        &self,
        scratch: &mut KernelScratch,
        a: &str,
        a_chars: usize,
        b: &str,
        b_chars: usize,
        max: usize,
    ) -> Option<usize> {
        let max = max.min(a_chars.max(b_chars));
        if a_chars.abs_diff(b_chars) > max {
            return None;
        }
        if a_chars == 0 || b_chars == 0 {
            return Some(a_chars.max(b_chars)); // within max by the length guard
        }
        self.prepare(scratch, a, a_chars);
        self.bounded_prepared(scratch, b, b_chars, max)
    }

    /// One-shot bounded distance; counts the characters itself.
    fn bounded(&self, scratch: &mut KernelScratch, a: &str, b: &str, max: usize) -> Option<usize> {
        if a == b {
            return Some(0);
        }
        let a_chars = levenshtein::char_count(a);
        let b_chars = levenshtein::char_count(b);
        self.bounded_counted(scratch, a, a_chars, b, b_chars, max)
    }
}

/// The banded two-row scalar dynamic program (Ukkonen's band plus a
/// row-minimum early exit) — the reference kernel every other
/// implementation must match bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScalarKernel;

impl EditDistanceKernel for ScalarKernel {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn prepare(&self, scratch: &mut KernelScratch, pattern: &str, pattern_chars: usize) {
        scratch.set_scalar_pattern(pattern, pattern_chars);
    }

    fn bounded_prepared(
        &self,
        scratch: &mut KernelScratch,
        text: &str,
        text_chars: usize,
        max: usize,
    ) -> Option<usize> {
        let m = scratch.pat_len;
        let max = max.min(m.max(text_chars));
        if m.abs_diff(text_chars) > max {
            return None;
        }
        if m == 0 || text_chars == 0 {
            return Some(m.max(text_chars));
        }
        if scratch.pat_ascii && text.is_ascii() {
            let (short, long) = if m <= text_chars {
                (scratch.pat_bytes.as_slice(), text.as_bytes())
            } else {
                (text.as_bytes(), scratch.pat_bytes.as_slice())
            };
            return levenshtein::banded(
                short,
                long,
                max,
                &mut scratch.prev_row,
                &mut scratch.curr_row,
            );
        }
        scratch.ensure_pat_chars();
        scratch.text_chars.clear();
        scratch.text_chars.extend(text.chars());
        let (short, long) = if m <= text_chars {
            (&scratch.pat_chars, &scratch.text_chars)
        } else {
            (&scratch.text_chars, &scratch.pat_chars)
        };
        levenshtein::banded(
            short,
            long,
            max,
            &mut scratch.prev_row,
            &mut scratch.curr_row,
        )
    }
}

/// Myers' bit-parallel kernel (see [`crate::myers`]): `O(⌈m/64⌉ · n)`
/// word operations per pair, with the pattern's `Peq` bitmask table
/// built once per [`prepare`](EditDistanceKernel::prepare). The default
/// kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitParallelKernel;

impl EditDistanceKernel for BitParallelKernel {
    fn name(&self) -> &'static str {
        "bitpar"
    }

    fn prepare(&self, scratch: &mut KernelScratch, pattern: &str, pattern_chars: usize) {
        scratch.pat_len = pattern_chars;
        if pattern_chars > 0 {
            scratch.masks.set_pattern(pattern, pattern_chars);
        }
    }

    fn bounded_prepared(
        &self,
        scratch: &mut KernelScratch,
        text: &str,
        text_chars: usize,
        max: usize,
    ) -> Option<usize> {
        let m = scratch.pat_len;
        let max = max.min(m.max(text_chars));
        if m.abs_diff(text_chars) > max {
            return None;
        }
        if m == 0 || text_chars == 0 {
            return Some(m.max(text_chars));
        }
        myers::bounded_prepared(
            &scratch.masks,
            text,
            text_chars,
            max,
            &mut scratch.vp,
            &mut scratch.vn,
        )
    }
}

/// Which [`EditDistanceKernel`] a softIDF measure scores through;
/// selected per measure with `SoftIdfMeasure::with_kernel`.
///
/// Kernels are exact, so the choice never changes detection results —
/// only throughput. [`EditKernelChoice::BitParallel`] is the default;
/// [`EditKernelChoice::Scalar`] serves as the test oracle and the bench
/// reference.
///
/// # Examples
/// ```
/// use dogmatix_textsim::kernel::EditKernelChoice;
/// assert_eq!(EditKernelChoice::default(), EditKernelChoice::BitParallel);
/// assert_eq!(EditKernelChoice::Scalar.kernel().name(), "scalar");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EditKernelChoice {
    /// The banded two-row scalar DP ([`ScalarKernel`]).
    Scalar,
    /// Myers' bit-parallel algorithm ([`BitParallelKernel`]).
    #[default]
    BitParallel,
}

impl EditKernelChoice {
    /// The selected kernel as a shared trait object.
    pub fn kernel(self) -> &'static dyn EditDistanceKernel {
        match self {
            EditKernelChoice::Scalar => &ScalarKernel,
            EditKernelChoice::BitParallel => &BitParallelKernel,
        }
    }

    /// The short name of this choice, as reports print it.
    pub fn as_str(self) -> &'static str {
        match self {
            EditKernelChoice::Scalar => "scalar",
            EditKernelChoice::BitParallel => "bitpar",
        }
    }
}

impl fmt::Display for EditKernelChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

thread_local! {
    /// Shared scratch behind the thin free-function wrappers
    /// (`ned`, `ned_within`, `levenshtein*`, `bag_distance_lower_bound`).
    static THREAD_SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::new());
}

/// Runs `f` with this thread's resident [`KernelScratch`].
///
/// The wrappers in this crate use it so one-off calls still pay zero
/// allocations after warm-up. Do not call the wrappers from inside `f`
/// — the scratch is exclusively borrowed for its duration (batch code
/// holds its own scratch instead).
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut KernelScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levenshtein::{levenshtein, levenshtein_bounded};

    fn kernels() -> [&'static dyn EditDistanceKernel; 2] {
        [&ScalarKernel, &BitParallelKernel]
    }

    #[test]
    fn kernels_agree_with_scalar_reference() {
        let words = [
            "",
            "a",
            "kitten",
            "sitting",
            "The Matrix",
            "The Motrix",
            "Boston",
            "Los Angeles",
            "naïve café",
            "日本語",
        ];
        let mut scratch = KernelScratch::new();
        for kernel in kernels() {
            for a in words {
                for b in words {
                    for max in [0, 1, 2, 5, 100] {
                        assert_eq!(
                            kernel.bounded(&mut scratch, a, b, max),
                            levenshtein_bounded(a, b, max),
                            "{} {a:?} vs {b:?} max={max}",
                            kernel.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prepared_pattern_serves_many_texts() {
        let mut scratch = KernelScratch::new();
        for kernel in kernels() {
            kernel.prepare(&mut scratch, "discovery", 9);
            for (text, n) in [
                ("discovery", 9),
                ("discoverie", 10),
                ("recovery", 8),
                ("", 0),
            ] {
                let expect = levenshtein("discovery", text);
                assert_eq!(
                    kernel.bounded_prepared(&mut scratch, text, n, 9),
                    Some(expect),
                    "{} vs {text:?}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn choice_round_trips_and_selects() {
        for choice in [EditKernelChoice::Scalar, EditKernelChoice::BitParallel] {
            assert_eq!(choice.kernel().name(), choice.as_str());
            assert_eq!(choice.to_string(), choice.as_str());
        }
    }

    #[test]
    fn thread_scratch_is_reusable() {
        let d1 = with_thread_scratch(|s| BitParallelKernel.bounded(s, "abc", "abd", 2));
        let d2 = with_thread_scratch(|s| BitParallelKernel.bounded(s, "abc", "abd", 2));
        assert_eq!(d1, Some(1));
        assert_eq!(d1, d2);
    }
}
