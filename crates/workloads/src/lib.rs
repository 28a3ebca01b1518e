//! Workload traces for the RAID-6 evaluation — the exact traces of the HV
//! paper's Section V plus seeded generators for new ones.
//!
//! * [`table2_trace`] — the random write trace of Table II, reproduced
//!   triple-for-triple;
//! * [`uniform_write_trace`] — the paper's `uniform_w_L` traces (fixed
//!   length, uniformly random start, 1000 patterns);
//! * [`random_write_trace`] — a seeded generator in the same `(S, L, F)`
//!   format as Table II (the paper drew its values from random.org);
//! * [`degraded_read_patterns`] — the 100 uniformly-started read patterns
//!   of the degraded-read experiment.

//!
//! Beyond the paper: [`skew`] generates Zipf-skewed, hot-spot and
//! sequential traces for the rotation/balance ablations, and [`textio`]
//! round-trips traces through a plain-text format so experiments can be
//! archived and replayed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod skew;
pub mod stats;
pub mod textio;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One partial-stripe-write pattern `(S, L, F)`: write `L` continuous data
/// elements starting at data element `S`, repeated `F` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WritePattern {
    /// Start data-element index `S`.
    pub start: usize,
    /// Number of continuous data elements `L`.
    pub len: usize,
    /// Repetition count `F`.
    pub freq: u32,
}

/// A named sequence of write patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteTrace {
    /// Trace name as used in the paper's figures (e.g. `uniform_w_10`).
    pub name: String,
    /// The patterns, replayed in order.
    pub patterns: Vec<WritePattern>,
}

impl WriteTrace {
    /// Total write operations including repetitions.
    pub fn total_operations(&self) -> u64 {
        self.patterns.iter().map(|p| p.freq as u64).sum()
    }

    /// Iterates `(start, len)` once per repetition.
    pub fn expanded(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.patterns
            .iter()
            .flat_map(|p| std::iter::repeat_n((p.start, p.len), p.freq as usize))
    }

    /// Concatenates another trace after this one.
    pub fn concat(mut self, other: WriteTrace) -> WriteTrace {
        self.name = format!("{}+{}", self.name, other.name);
        self.patterns.extend(other.patterns);
        self
    }

    /// Multiplies every pattern's frequency by `times` — replaying the
    /// trace `times` times over.
    ///
    /// # Panics
    ///
    /// Panics if `times` is zero.
    pub fn repeat(mut self, times: u32) -> WriteTrace {
        assert!(times > 0, "repeating zero times erases the trace");
        for p in &mut self.patterns {
            p.freq *= times;
        }
        self.name = format!("{}x{times}", self.name);
        self
    }

    /// Shifts every pattern's start by `delta` elements — relocating the
    /// workload to another region of the address space.
    pub fn offset(mut self, delta: usize) -> WriteTrace {
        for p in &mut self.patterns {
            p.start += delta;
        }
        self
    }
}

/// One degraded-read pattern: read `len` continuous data elements starting
/// at `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadPattern {
    /// Start data-element index.
    pub start: usize,
    /// Number of continuous data elements (the paper's `L`).
    pub len: usize,
}

/// The random write trace of Table II, exactly as printed in the paper.
///
/// ```
/// let t = raid_workloads::table2_trace();
/// assert_eq!(t.patterns.len(), 25);
/// // "(28,34,66) means the write operation will start from the 28th data
/// // element and the 34 continuous data elements will be written for 66
/// // times."
/// assert_eq!((t.patterns[0].start, t.patterns[0].len, t.patterns[0].freq), (28, 34, 66));
/// ```
pub fn table2_trace() -> WriteTrace {
    const TABLE2: [(usize, usize, u32); 25] = [
        (28, 34, 66),
        (34, 22, 69),
        (4, 45, 3),
        (30, 18, 64),
        (24, 32, 70),
        (29, 26, 48),
        (6, 3, 51),
        (34, 42, 50),
        (37, 9, 1),
        (34, 38, 93),
        (6, 44, 75),
        (10, 44, 2),
        (34, 15, 43),
        (2, 6, 49),
        (28, 17, 57),
        (20, 33, 39),
        (48, 28, 27),
        (48, 13, 30),
        (40, 2, 32),
        (16, 24, 7),
        (19, 4, 77),
        (22, 14, 31),
        (49, 31, 82),
        (35, 26, 1),
        (31, 1, 48),
    ];
    WriteTrace {
        name: "random_write_trace (Table II)".to_string(),
        patterns: TABLE2
            .iter()
            .map(|&(start, len, freq)| WritePattern { start, len, freq })
            .collect(),
    }
}

/// The paper's `uniform_w_L` trace: `count` patterns of fixed length `len`
/// whose starts are uniform over `0..data_elements`.
///
/// ```
/// let t = raid_workloads::uniform_write_trace(10, 1000, 2390, 42);
/// assert_eq!(t.name, "uniform_w_10");
/// assert_eq!(t.total_operations(), 1000);
/// ```
///
/// # Panics
///
/// Panics if `data_elements == 0` or `len == 0`.
pub fn uniform_write_trace(
    len: usize,
    count: usize,
    data_elements: usize,
    seed: u64,
) -> WriteTrace {
    assert!(data_elements > 0, "need a non-empty data space");
    assert!(len > 0, "zero-length writes are meaningless");
    let mut rng = StdRng::seed_from_u64(seed);
    WriteTrace {
        name: format!("uniform_w_{len}"),
        patterns: (0..count)
            .map(|_| WritePattern { start: rng.gen_range(0..data_elements), len, freq: 1 })
            .collect(),
    }
}

/// A seeded random `(S, L, F)` trace in the same format and value ranges as
/// Table II (`S ∈ 0..50`, `L ∈ 1..=45`, `F ∈ 1..=99`).
pub fn random_write_trace(patterns: usize, seed: u64) -> WriteTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    WriteTrace {
        name: format!("random_write_trace(seed={seed})"),
        patterns: (0..patterns)
            .map(|_| WritePattern {
                start: rng.gen_range(0..50),
                len: rng.gen_range(1..=45),
                freq: rng.gen_range(1..=99),
            })
            .collect(),
    }
}

/// The degraded-read experiment's patterns: `count` reads of length `len`
/// with uniformly random starts over `0..data_elements`.
///
/// # Panics
///
/// Panics if `data_elements == 0` or `len == 0`.
pub fn degraded_read_patterns(
    len: usize,
    count: usize,
    data_elements: usize,
    seed: u64,
) -> Vec<ReadPattern> {
    assert!(data_elements > 0, "need a non-empty data space");
    assert!(len > 0, "zero-length reads are meaningless");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| ReadPattern { start: rng.gen_range(0..data_elements), len })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_the_paper() {
        let t = table2_trace();
        assert_eq!(t.patterns.len(), 25);
        assert_eq!(t.patterns[0], WritePattern { start: 28, len: 34, freq: 66 });
        assert_eq!(t.patterns[9], WritePattern { start: 34, len: 38, freq: 93 });
        assert_eq!(t.patterns[24], WritePattern { start: 31, len: 1, freq: 48 });
        // Paper example: "(28,34,66) means the write ... will start from the
        // 28th data element and the 34 continuous data elements will be
        // written for 66 times".
        let total: u64 = t.total_operations();
        assert_eq!(total, t.patterns.iter().map(|p| p.freq as u64).sum::<u64>());
    }

    #[test]
    fn expansion_repeats_patterns() {
        let t = WriteTrace {
            name: "t".into(),
            patterns: vec![WritePattern { start: 3, len: 2, freq: 3 }],
        };
        let v: Vec<_> = t.expanded().collect();
        assert_eq!(v, vec![(3, 2); 3]);
    }

    #[test]
    fn combinators_compose() {
        let a = WriteTrace {
            name: "a".into(),
            patterns: vec![WritePattern { start: 0, len: 2, freq: 1 }],
        };
        let b = WriteTrace {
            name: "b".into(),
            patterns: vec![WritePattern { start: 5, len: 3, freq: 2 }],
        };
        let combined = a.concat(b).repeat(2).offset(10);
        assert_eq!(combined.name, "a+bx2");
        assert_eq!(combined.total_operations(), 6);
        assert_eq!(combined.patterns[0], WritePattern { start: 10, len: 2, freq: 2 });
        assert_eq!(combined.patterns[1], WritePattern { start: 15, len: 3, freq: 4 });
    }

    #[test]
    #[should_panic(expected = "zero times")]
    fn repeat_zero_rejected() {
        table2_trace().repeat(0);
    }

    #[test]
    fn uniform_trace_is_deterministic_and_in_range() {
        let a = uniform_write_trace(10, 1000, 120, 7);
        let b = uniform_write_trace(10, 1000, 120, 7);
        assert_eq!(a, b);
        assert_eq!(a.patterns.len(), 1000);
        assert!(a.patterns.iter().all(|p| p.len == 10 && p.start < 120 && p.freq == 1));
        let c = uniform_write_trace(10, 1000, 120, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn random_trace_ranges_match_table2_format() {
        let t = random_write_trace(200, 42);
        assert!(t
            .patterns
            .iter()
            .all(|p| p.start < 50 && (1..=45).contains(&p.len) && (1..=99).contains(&p.freq)));
    }

    #[test]
    fn degraded_patterns() {
        let ps = degraded_read_patterns(15, 100, 60, 1);
        assert_eq!(ps.len(), 100);
        assert!(ps.iter().all(|p| p.len == 15 && p.start < 60));
    }

    #[test]
    #[should_panic(expected = "non-empty data space")]
    fn empty_data_space_rejected() {
        uniform_write_trace(10, 1, 0, 0);
    }
}
