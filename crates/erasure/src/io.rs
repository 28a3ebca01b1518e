//! Per-disk I/O accounting and the load-balancing rate λ of Eq. (7).
//!
//! Two types cover the whole workspace's accounting needs:
//!
//! * [`RequestSet`] — the per-disk element requests of **one** lowered
//!   operation (one pipeline commit): how many element reads, data-element
//!   writes and parity-element writes each disk must serve. Its busiest
//!   disk's count ([`RequestSet::busiest_disk`]) is what the operation
//!   costs in disk time, so timing and accounting read the same object.
//! * [`IoLedger`] — cumulative counters built by absorbing request sets,
//!   replacing the seed's separate `IoReceipt` (per operation) and
//!   `IoTally` (per experiment): a ledger over one request set *is* the
//!   operation's receipt, and a ledger over a whole replay is the
//!   experiment's tally. The paper's λ (Eq. 7) derives from it.

use std::fmt;

/// Per-disk element reads, data writes and parity writes: `disks` counts
/// of each, back to back in one allocation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct PerDisk(Vec<u64>);

const READS: usize = 0;
const DATA_WRITES: usize = 1;
const PARITY_WRITES: usize = 2;

impl PerDisk {
    fn new(disks: usize) -> Self {
        PerDisk(vec![0; 3 * disks])
    }

    fn disks(&self) -> usize {
        self.0.len() / 3
    }

    /// The per-disk counts of one kind.
    fn kind(&self, kind: usize) -> &[u64] {
        let disks = self.disks();
        &self.0[kind * disks..(kind + 1) * disks]
    }

    /// Adds `n` to `disk`'s count of `kind`; panics on a disk out of range.
    fn add(&mut self, kind: usize, disk: usize, n: u64) {
        let disks = self.disks();
        self.0[kind * disks..(kind + 1) * disks][disk] += n;
    }

    fn writes(&self) -> Vec<u64> {
        self.kind(DATA_WRITES).iter().zip(self.kind(PARITY_WRITES)).map(|(d, p)| d + p).collect()
    }

    fn totals(&self) -> Vec<u64> {
        self.kind(READS).iter().zip(self.writes()).map(|(r, w)| r + w).collect()
    }

    /// The largest per-disk total, without building the totals.
    fn busiest(&self) -> u64 {
        let (reads, data) = (self.kind(READS), self.kind(DATA_WRITES));
        let totals = reads.iter().zip(data).zip(self.kind(PARITY_WRITES));
        totals.map(|((r, d), p)| r + d + p).max().unwrap_or(0)
    }

    fn sum(&self, kind: usize) -> u64 {
        self.kind(kind).iter().sum()
    }

    fn merge(&mut self, other: &PerDisk, what: &str) {
        assert_eq!(self.disks(), other.disks(), "{what} disk count mismatch");
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }
}

/// Per-disk element requests of one lowered operation.
///
/// Element requests are the paper's unit: one request = one element-sized
/// transfer to or from one disk. Writes are split into data and parity so
/// update-complexity accounting survives the lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSet {
    counts: PerDisk,
}

impl RequestSet {
    /// An empty request set over `disks` disks.
    pub fn new(disks: usize) -> Self {
        RequestSet { counts: PerDisk::new(disks) }
    }

    /// Number of disks addressed.
    pub fn disks(&self) -> usize {
        self.counts.disks()
    }

    /// Records one element read on `disk`.
    pub fn add_read(&mut self, disk: usize) {
        self.counts.add(READS, disk, 1);
    }

    /// Records `n` element reads on `disk`.
    pub fn add_reads(&mut self, disk: usize, n: u64) {
        self.counts.add(READS, disk, n);
    }

    /// Records one data-element write on `disk`.
    pub fn add_data_write(&mut self, disk: usize) {
        self.counts.add(DATA_WRITES, disk, 1);
    }

    /// Records one parity-element write on `disk`.
    pub fn add_parity_write(&mut self, disk: usize) {
        self.counts.add(PARITY_WRITES, disk, 1);
    }

    /// Per-disk read counts.
    pub fn reads(&self) -> &[u64] {
        self.counts.kind(READS)
    }

    /// Per-disk write counts (data + parity).
    pub fn writes_per_disk(&self) -> Vec<u64> {
        self.counts.writes()
    }

    /// Per-disk total requests (reads + writes) — what each spindle must
    /// serve for this operation.
    pub fn per_disk_totals(&self) -> Vec<u64> {
        self.counts.totals()
    }

    /// The element count of the busiest disk — the largest of
    /// [`RequestSet::per_disk_totals`], 0 for an empty set. Every disk
    /// serves its share in parallel, so this count × the element service
    /// time is how long the set takes. Allocates nothing.
    pub fn busiest_disk(&self) -> u64 {
        self.counts.busiest()
    }

    /// Total element reads.
    pub fn total_reads(&self) -> u64 {
        self.counts.sum(READS)
    }

    /// Total data-element writes.
    pub fn data_writes(&self) -> u64 {
        self.counts.sum(DATA_WRITES)
    }

    /// Total parity-element writes.
    pub fn parity_writes(&self) -> u64 {
        self.counts.sum(PARITY_WRITES)
    }

    /// Total element writes (data + parity).
    pub fn total_writes(&self) -> u64 {
        self.data_writes() + self.parity_writes()
    }

    /// Total requests.
    pub fn total(&self) -> u64 {
        self.total_reads() + self.total_writes()
    }

    /// True if no request was recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Merges another request set into this one (same disk count).
    ///
    /// # Panics
    ///
    /// Panics if disk counts differ.
    pub fn merge(&mut self, other: &RequestSet) {
        self.counts.merge(&other.counts, "request set");
    }
}

/// Cumulative per-disk read/write counters: the single accounting type of
/// the workspace (one ledger per operation is that operation's receipt; one
/// ledger per experiment is its tally).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IoLedger {
    counts: PerDisk,
    /// Operation retries after transient errors.
    retries: u64,
    /// Latent sector errors repaired by reconstruct-and-rewrite.
    latent_repairs: u64,
    /// Health-state transition log (`"healthy->degraded(1): disk #3 dead"`)
    /// in the order they occurred, so replay/reports can show what each
    /// failure episode cost.
    transitions: Vec<String>,
    /// Element reads served from the write-back stripe cache (no disk I/O).
    cache_hits: u64,
    /// Element reads the stripe cache had to forward to the disks.
    cache_misses: u64,
    /// Coalesced stripe flushes committed by the cache.
    cache_flushes: u64,
    /// Stripe-cache entries evicted under the memory budget.
    cache_evictions: u64,
}

impl IoLedger {
    /// A zeroed ledger for `disks` disks.
    pub fn new(disks: usize) -> Self {
        IoLedger {
            counts: PerDisk::new(disks),
            retries: 0,
            latent_repairs: 0,
            transitions: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
            cache_flushes: 0,
            cache_evictions: 0,
        }
    }

    /// Number of disks tracked.
    pub fn disks(&self) -> usize {
        self.counts.disks()
    }

    /// Absorbs one operation's request set.
    ///
    /// # Panics
    ///
    /// Panics if disk counts differ.
    pub fn absorb(&mut self, rs: &RequestSet) {
        self.counts.merge(&rs.counts, "ledger");
    }

    /// Records `n` element reads on `disk` (planner-side accounting that
    /// has no materialized [`RequestSet`]).
    pub fn add_reads(&mut self, disk: usize, n: u64) {
        self.counts.add(READS, disk, n);
    }

    /// Records `n` data-element writes on `disk`.
    pub fn add_data_writes(&mut self, disk: usize, n: u64) {
        self.counts.add(DATA_WRITES, disk, n);
    }

    /// Records `n` parity-element writes on `disk`.
    pub fn add_parity_writes(&mut self, disk: usize, n: u64) {
        self.counts.add(PARITY_WRITES, disk, n);
    }

    /// Records one operation retry after a transient error.
    pub fn note_retry(&mut self) {
        self.retries += 1;
    }

    /// Records one latent-sector reconstruct-and-rewrite repair.
    pub fn note_latent_repair(&mut self) {
        self.latent_repairs += 1;
    }

    /// Appends a health-state transition to the log.
    pub fn note_transition(&mut self, transition: impl Into<String>) {
        self.transitions.push(transition.into());
    }

    /// Records `n` element reads served straight from the stripe cache.
    pub fn note_cache_hits(&mut self, n: u64) {
        self.cache_hits += n;
    }

    /// Records `n` element reads the stripe cache forwarded to the disks.
    pub fn note_cache_misses(&mut self, n: u64) {
        self.cache_misses += n;
    }

    /// Records one coalesced stripe flush committed by the cache.
    pub fn note_cache_flush(&mut self) {
        self.cache_flushes += 1;
    }

    /// Records one stripe-cache eviction under the memory budget.
    pub fn note_cache_eviction(&mut self) {
        self.cache_evictions += 1;
    }

    /// Element reads served from the stripe cache so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Element reads the stripe cache forwarded to the disks so far.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Coalesced stripe flushes committed so far.
    pub fn cache_flushes(&self) -> u64 {
        self.cache_flushes
    }

    /// Stripe-cache evictions so far.
    pub fn cache_evictions(&self) -> u64 {
        self.cache_evictions
    }

    /// Operation retries recorded so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Latent-sector repairs recorded so far.
    pub fn latent_repairs(&self) -> u64 {
        self.latent_repairs
    }

    /// The health-state transition log, oldest first.
    pub fn transitions(&self) -> &[String] {
        &self.transitions
    }

    /// Per-disk read counts.
    pub fn reads(&self) -> &[u64] {
        self.counts.kind(READS)
    }

    /// Per-disk write counts (data + parity).
    pub fn writes(&self) -> Vec<u64> {
        self.counts.writes()
    }

    /// Per-disk total requests (reads + writes).
    pub fn per_disk_totals(&self) -> Vec<u64> {
        self.counts.totals()
    }

    /// Total reads across all disks.
    pub fn total_reads(&self) -> u64 {
        self.counts.sum(READS)
    }

    /// Total data-element writes.
    pub fn data_writes(&self) -> u64 {
        self.counts.sum(DATA_WRITES)
    }

    /// Total parity-element writes.
    pub fn parity_writes(&self) -> u64 {
        self.counts.sum(PARITY_WRITES)
    }

    /// Total writes across all disks.
    pub fn total_writes(&self) -> u64 {
        self.data_writes() + self.parity_writes()
    }

    /// Total requests (reads + writes).
    pub fn total(&self) -> u64 {
        self.total_reads() + self.total_writes()
    }

    /// Merges another ledger into this one.
    ///
    /// # Panics
    ///
    /// Panics if disk counts differ.
    pub fn merge(&mut self, other: &IoLedger) {
        self.counts.merge(&other.counts, "ledger");
        self.retries += other.retries;
        self.latent_repairs += other.latent_repairs;
        self.transitions.extend(other.transitions.iter().cloned());
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_flushes += other.cache_flushes;
        self.cache_evictions += other.cache_evictions;
    }

    /// The ledger's growth since `baseline` (an earlier snapshot of the
    /// same ledger) — the replay engine's per-experiment delta.
    ///
    /// # Panics
    ///
    /// Panics if disk counts differ or `baseline` is not an earlier
    /// snapshot (some counter would go negative).
    pub fn delta_since(&self, baseline: &IoLedger) -> IoLedger {
        assert_eq!(self.disks(), baseline.disks(), "ledger disk count mismatch");
        let scalar = |a: u64, b: u64| -> u64 {
            a.checked_sub(b).expect("baseline is not an earlier snapshot")
        };
        let counts = self.counts.0.iter().zip(&baseline.counts.0).map(|(&a, &b)| scalar(a, b));
        IoLedger {
            counts: PerDisk(counts.collect()),
            retries: scalar(self.retries, baseline.retries),
            latent_repairs: scalar(self.latent_repairs, baseline.latent_repairs),
            transitions: self
                .transitions
                .get(baseline.transitions.len()..)
                .expect("baseline is not an earlier snapshot")
                .to_vec(),
            cache_hits: scalar(self.cache_hits, baseline.cache_hits),
            cache_misses: scalar(self.cache_misses, baseline.cache_misses),
            cache_flushes: scalar(self.cache_flushes, baseline.cache_flushes),
            cache_evictions: scalar(self.cache_evictions, baseline.cache_evictions),
        }
    }

    /// The paper's load balancing rate λ (Eq. 7) over **write** requests:
    /// `λ = max_i R_i / min_i R_i`.
    ///
    /// Returns `f64::INFINITY` when some disk received zero writes while
    /// another received some — the most unbalanced outcome — and 1.0 when
    /// no disk received any write.
    pub fn write_balance_rate(&self) -> f64 {
        balance(&self.writes())
    }

    /// λ computed over total (read + write) requests.
    pub fn total_balance_rate(&self) -> f64 {
        balance(&self.per_disk_totals())
    }
}

fn balance(counts: &[u64]) -> f64 {
    let max = counts.iter().copied().max().unwrap_or(0);
    let min = counts.iter().copied().min().unwrap_or(0);
    if max == 0 {
        1.0
    } else if min == 0 {
        f64::INFINITY
    } else {
        max as f64 / min as f64
    }
}

impl fmt::Display for IoLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads={:?} writes={:?} λw={:.2}",
            self.reads(),
            self.writes(),
            self.write_balance_rate()
        )?;
        if self.retries > 0 || self.latent_repairs > 0 {
            write!(f, " retries={} latent_repairs={}", self.retries, self.latent_repairs)?;
        }
        if self.cache_hits > 0 || self.cache_misses > 0 || self.cache_flushes > 0 {
            write!(
                f,
                " cache_hits={} cache_misses={} cache_flushes={} cache_evictions={}",
                self.cache_hits, self.cache_misses, self.cache_flushes, self.cache_evictions
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_set_totals_and_split() {
        let mut rs = RequestSet::new(3);
        rs.add_read(0);
        rs.add_reads(0, 4);
        rs.add_data_write(1);
        rs.add_parity_write(2);
        rs.add_parity_write(2);
        assert_eq!(rs.total_reads(), 5);
        assert_eq!(rs.data_writes(), 1);
        assert_eq!(rs.parity_writes(), 2);
        assert_eq!(rs.total_writes(), 3);
        assert_eq!(rs.total(), 8);
        assert_eq!(rs.per_disk_totals(), vec![5, 1, 2]);
        assert_eq!(rs.writes_per_disk(), vec![0, 1, 2]);
        assert!(!rs.is_empty());
        assert!(RequestSet::new(2).is_empty());
    }

    #[test]
    fn busiest_disk_counts_reads_and_writes_of_one_disk() {
        assert_eq!(RequestSet::new(3).busiest_disk(), 0);
        assert_eq!(RequestSet::new(0).busiest_disk(), 0);
        let mut rs = RequestSet::new(3);
        rs.add_reads(0, 2);
        rs.add_read(1);
        rs.add_data_write(1);
        rs.add_parity_write(1);
        rs.add_parity_write(2);
        // Disk 1's read, data write and parity write outweigh disk 0's
        // two reads.
        assert_eq!(rs.busiest_disk(), 3);
        assert_eq!(Some(rs.busiest_disk()), rs.per_disk_totals().into_iter().max());
    }

    #[test]
    fn ledger_absorbs_and_merges() {
        let mut a = IoLedger::new(3);
        a.add_reads(0, 5);
        a.add_parity_writes(2, 7);
        let mut rs = RequestSet::new(3);
        rs.add_data_write(0);
        rs.add_data_write(1);
        rs.add_data_write(1);
        rs.add_parity_write(2);
        rs.add_parity_write(2);
        rs.add_parity_write(2);
        a.absorb(&rs);
        assert_eq!(a.total_reads(), 5);
        assert_eq!(a.total_writes(), 13);
        assert_eq!(a.total(), 18);
        assert_eq!(a.writes(), vec![1, 2, 10]);

        let mut b = IoLedger::new(3);
        b.add_reads(1, 2);
        b.merge(&a);
        assert_eq!(b.total(), 20);
    }

    #[test]
    fn lambda_matches_equation_seven() {
        let mut t = IoLedger::new(4);
        for (d, n) in [(0, 10u64), (1, 5), (2, 20), (3, 10)] {
            t.add_data_writes(d, n);
        }
        assert!((t.write_balance_rate() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn lambda_edge_cases() {
        let t = IoLedger::new(2);
        assert_eq!(t.write_balance_rate(), 1.0);
        let mut t2 = IoLedger::new(2);
        t2.add_data_writes(0, 3);
        assert!(t2.write_balance_rate().is_infinite());
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn merge_requires_same_shape() {
        let mut a = IoLedger::new(2);
        a.merge(&IoLedger::new(3));
    }

    #[test]
    fn total_balance_combines_reads_and_writes() {
        let mut t = IoLedger::new(2);
        t.add_reads(0, 4);
        t.add_data_writes(1, 2);
        assert!((t.total_balance_rate() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn delta_since_subtracts_a_snapshot() {
        let mut t = IoLedger::new(2);
        t.add_reads(0, 4);
        let snap = t.clone();
        t.add_reads(0, 1);
        t.add_data_writes(1, 3);
        let d = t.delta_since(&snap);
        assert_eq!(d.total_reads(), 1);
        assert_eq!(d.total_writes(), 3);
    }

    #[test]
    fn healing_counters_merge_and_delta() {
        let mut a = IoLedger::new(2);
        a.note_retry();
        a.note_retry();
        a.note_latent_repair();
        a.note_transition("healthy->degraded(1): disk #0 dead");
        let snap = a.clone();
        a.note_retry();
        a.note_transition("degraded(1)->healthy: rebuild complete");
        let d = a.delta_since(&snap);
        assert_eq!(d.retries(), 1);
        assert_eq!(d.latent_repairs(), 0);
        assert_eq!(d.transitions(), ["degraded(1)->healthy: rebuild complete"]);

        let mut b = IoLedger::new(2);
        b.note_latent_repair();
        b.merge(&a);
        assert_eq!(b.retries(), 3);
        assert_eq!(b.latent_repairs(), 2);
        assert_eq!(b.transitions().len(), 2);
        assert!(format!("{b}").contains("retries=3"));
    }

    #[test]
    fn cache_counters_merge_delta_and_display() {
        let mut a = IoLedger::new(2);
        a.note_cache_hits(5);
        a.note_cache_misses(2);
        a.note_cache_flush();
        let snap = a.clone();
        a.note_cache_hits(1);
        a.note_cache_eviction();
        let d = a.delta_since(&snap);
        assert_eq!(d.cache_hits(), 1);
        assert_eq!(d.cache_misses(), 0);
        assert_eq!(d.cache_flushes(), 0);
        assert_eq!(d.cache_evictions(), 1);

        let mut b = IoLedger::new(2);
        b.note_cache_flush();
        b.merge(&a);
        assert_eq!(b.cache_hits(), 6);
        assert_eq!(b.cache_misses(), 2);
        assert_eq!(b.cache_flushes(), 2);
        assert_eq!(b.cache_evictions(), 1);
        let shown = format!("{b}");
        assert!(shown.contains("cache_hits=6"));
        assert!(shown.contains("cache_evictions=1"));
        // A ledger that never saw a cache stays terse.
        assert!(!format!("{}", IoLedger::new(2)).contains("cache"));
    }

    #[test]
    #[should_panic(expected = "earlier snapshot")]
    fn delta_rejects_future_baseline() {
        let mut t = IoLedger::new(1);
        t.add_reads(0, 4);
        IoLedger::new(1).delta_since(&t);
    }
}
