//! Static partition-hazard auditor: proves that a partitioned batch can
//! never make two workers touch the same backend bytes.
//!
//! `IoPipeline::execute_batch` runs one `LoweredOp` per stripe in three
//! backend phases: *all* reads land in their scratch stripes, every plan
//! executes in its private scratch under `run_partitioned`, and *all*
//! writes are journaled as one unit and stored. Two distinct reorderings
//! hide in that shape:
//!
//! * **Across partitions** — the partition abstraction promises that
//!   ranges are independent (`flush_partition(B)` may run while a rebuild
//!   is parked in range A, so cross-partition op order is undefined). If
//!   two partitions wrote the same backend address, the surviving value
//!   would depend on scheduling; if one read what another writes, its
//!   input would. Both must be statically impossible.
//! * **Across ops, within a batch** — phase separation hoists every read
//!   before every write. An op that reads an address some *other* op
//!   writes would see the pre-batch value, diverging from the serial
//!   op-by-op semantics of `IoPipeline::execute`. (An op reading an
//!   address *it* writes is the ordinary RMW shape and is fine — serial
//!   execution also reads before writing within one op.)
//!
//! [`audit_partition_hazards`] proves both properties from the lowered
//! ops alone — write/write disjointness across partitions, read/write
//! disjointness across ops — and emits a machine-readable
//! [`HazardReport`] of every partition's per-disk address footprint. A
//! violation names the offending disk and address range, which is what
//! turns "two workers raced" from a heisenbug into a compile-time error.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use raid_array::lower;
use raid_array::partition::PartitionMap;
use raid_array::pipeline::{DiskAddr, LoweredOp};
use raid_array::Addressing;
use raid_core::Layout;

/// A proven partition-disjointness violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HazardError {
    /// The batch does not have one op per stripe of the map.
    OpCountMismatch {
        /// Ops in the batch.
        ops: usize,
        /// Stripes the map covers.
        stripes: usize,
    },
    /// Two partitions write overlapping backend addresses.
    WriteWrite {
        /// The lower-numbered partition.
        a: usize,
        /// The higher-numbered partition.
        b: usize,
        /// The disk both write.
        disk: usize,
        /// The overlapping element-index range on that disk.
        range: Range<usize>,
    },
    /// One op reads backend addresses another op writes — batched phase
    /// separation would serve the read from the pre-batch state.
    ReadWrite {
        /// The op (stripe index) doing the read.
        reader_op: usize,
        /// Partition owning the reader.
        reader_partition: usize,
        /// The op (stripe index) doing the write.
        writer_op: usize,
        /// Partition owning the writer.
        writer_partition: usize,
        /// The disk in conflict.
        disk: usize,
        /// The overlapping element-index range on that disk.
        range: Range<usize>,
    },
}

impl fmt::Display for HazardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HazardError::OpCountMismatch { ops, stripes } => {
                write!(f, "batch has {ops} ops but the partition map covers {stripes} stripes")
            }
            HazardError::WriteWrite { a, b, disk, range } => write!(
                f,
                "partitions {a} and {b} both write disk {disk} indices [{}, {}) — \
                 the surviving bytes would depend on worker scheduling",
                range.start, range.end
            ),
            HazardError::ReadWrite {
                reader_op,
                reader_partition,
                writer_op,
                writer_partition,
                disk,
                range,
            } => write!(
                f,
                "op {reader_op} (partition {reader_partition}) reads disk {disk} \
                 indices [{}, {}) which op {writer_op} (partition {writer_partition}) \
                 writes — batched phase separation would serve the read stale",
                range.start, range.end
            ),
        }
    }
}

impl std::error::Error for HazardError {}

/// One partition's backend address footprint: per-disk coalesced index
/// ranges, reads and writes separately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footprint {
    /// The partition index.
    pub partition: usize,
    /// Ops (stripe indices) assigned to this partition.
    pub ops: Range<usize>,
    /// disk → sorted disjoint index ranges read.
    pub reads: BTreeMap<usize, Vec<Range<usize>>>,
    /// disk → sorted disjoint index ranges written.
    pub writes: BTreeMap<usize, Vec<Range<usize>>>,
}

/// The machine-readable result of a clean hazard audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HazardReport {
    /// Ops audited.
    pub ops: usize,
    /// Disks addressed.
    pub disks: usize,
    /// Per-partition footprints, ascending by partition.
    pub partitions: Vec<Footprint>,
}

fn json_ranges(ranges: &BTreeMap<usize, Vec<Range<usize>>>) -> String {
    let per_disk: Vec<String> = ranges
        .iter()
        .map(|(disk, rs)| {
            let spans: Vec<String> =
                rs.iter().map(|r| format!("[{},{}]", r.start, r.end)).collect();
            format!("{{\"disk\":{disk},\"ranges\":[{}]}}", spans.join(","))
        })
        .collect();
    format!("[{}]", per_disk.join(","))
}

impl HazardReport {
    /// Renders the report as one JSON object (hand-rolled; the workspace
    /// carries no serde). Ranges are `[start, end)` pairs.
    pub fn to_json(&self) -> String {
        let parts: Vec<String> = self
            .partitions
            .iter()
            .map(|fp| {
                format!(
                    "{{\"partition\":{},\"ops\":[{},{}],\"reads\":{},\"writes\":{}}}",
                    fp.partition,
                    fp.ops.start,
                    fp.ops.end,
                    json_ranges(&fp.reads),
                    json_ranges(&fp.writes),
                )
            })
            .collect();
        format!(
            "{{\"ops\":{},\"disks\":{},\"hazards\":0,\"partitions\":[{}]}}",
            self.ops,
            self.disks,
            parts.join(",")
        )
    }
}

/// Coalesces a sorted list of element indices into maximal `[start, end)`
/// ranges.
fn coalesce(sorted: &[usize]) -> Vec<Range<usize>> {
    let mut out: Vec<Range<usize>> = Vec::new();
    for &i in sorted {
        match out.last_mut() {
            Some(last) if last.end == i => last.end = i + 1,
            Some(last) if last.contains(&i) => {}
            _ => out.push(i..i + 1),
        }
    }
    out
}

fn footprint_of(
    partition: usize,
    ops_range: Range<usize>,
    ops: &[LoweredOp],
) -> Footprint {
    let mut reads: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut writes: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for op in &ops[ops_range.clone()] {
        for (_, a) in &op.reads {
            reads.entry(a.disk).or_default().push(a.index);
        }
        for (_, a) in op.data_writes.iter().chain(&op.parity_writes) {
            writes.entry(a.disk).or_default().push(a.index);
        }
    }
    let pack = |m: BTreeMap<usize, Vec<usize>>| {
        m.into_iter()
            .map(|(disk, mut idx)| {
                idx.sort_unstable();
                (disk, coalesce(&idx))
            })
            .collect()
    };
    Footprint { partition, ops: ops_range, reads: pack(reads), writes: pack(writes) }
}

/// Proves cross-partition write/write and cross-op read/write
/// disjointness for a batch of one-`LoweredOp`-per-stripe ops under
/// `map`, and returns the per-partition footprint report.
///
/// Op `i` is the op for stripe `i` and belongs to partition
/// `map.owner_of(i)` — exactly how `execute_batch` routes it.
///
/// # Errors
///
/// The first [`HazardError`], naming the offending disk and coalesced
/// address range.
pub fn audit_partition_hazards(
    map: &PartitionMap,
    ops: &[LoweredOp],
    disks: usize,
) -> Result<HazardReport, HazardError> {
    if ops.len() != map.stripes() {
        return Err(HazardError::OpCountMismatch { ops: ops.len(), stripes: map.stripes() });
    }

    // Point-level ownership indices: address → first writer (op), plus
    // every conflict gathered so the error can name a *coalesced* range
    // rather than a lone element.
    let owner = |op: usize| map.owner_of(op);
    let mut write_owner: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    // (partition a, partition b, disk) → conflicting indices.
    let mut ww: BTreeMap<(usize, usize, usize), Vec<usize>> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        for (_, DiskAddr { disk, index }) in op.data_writes.iter().chain(&op.parity_writes) {
            if let Some(&prev) = write_owner.get(&(*disk, *index)) {
                let (pa, pb) = (owner(prev), owner(i));
                if pa != pb {
                    let key = (pa.min(pb), pa.max(pb), *disk);
                    ww.entry(key).or_default().push(*index);
                }
            } else {
                write_owner.insert((*disk, *index), i);
            }
        }
    }
    if let Some(((a, b, disk), mut idx)) = ww.into_iter().next() {
        idx.sort_unstable();
        let range = coalesce(&idx).remove(0);
        return Err(HazardError::WriteWrite { a, b, disk, range });
    }

    // Read/write: any op reading an address a *different* op writes.
    // (reader op, writer op, disk) → conflicting indices.
    let mut rw: BTreeMap<(usize, usize, usize), Vec<usize>> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        for (_, DiskAddr { disk, index }) in &op.reads {
            if let Some(&w) = write_owner.get(&(*disk, *index)) {
                if w != i {
                    rw.entry((i, w, *disk)).or_default().push(*index);
                }
            }
        }
    }
    if let Some(((reader_op, writer_op, disk), mut idx)) = rw.into_iter().next() {
        idx.sort_unstable();
        let range = coalesce(&idx).remove(0);
        return Err(HazardError::ReadWrite {
            reader_op,
            reader_partition: owner(reader_op),
            writer_op,
            writer_partition: owner(writer_op),
            disk,
            range,
        });
    }

    let partitions = map
        .partitions()
        .iter()
        .map(|p| footprint_of(p.index, p.range(), ops))
        .collect();
    Ok(HazardReport { ops: ops.len(), disks, partitions })
}

/// Rotation-free addressing for `layout`. Rotation permutes only the disk
/// column, never the index, so disjointness proven under it carries over
/// to every rotated placement.
pub(crate) fn unrotated(layout: &Layout) -> Addressing {
    Addressing::new(layout.num_data_cells(), layout.cols(), false)
}

/// The batch `RaidVolume::encode_all` submits over `stripes` stripes.
pub fn lowered_encode_batch(layout: &Layout, stripes: usize) -> Vec<LoweredOp> {
    lower::encode_batch(layout, &unrotated(layout), stripes)
}

/// The batch `RaidVolume::rebuild_all` submits for the failed disks
/// `lost_cols`.
///
/// # Panics
///
/// Panics if `lost_cols` is not decodable (more than two columns, or out
/// of range) — caller bug.
pub fn lowered_rebuild_batch(
    layout: &Layout,
    stripes: usize,
    lost_cols: &[usize],
) -> Vec<LoweredOp> {
    lower::rebuild_batch(layout, &unrotated(layout), stripes, lost_cols)
        .expect("RAID-6 repairs up to two columns")
}

/// Summary of one layout's clean hazard proofs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HazardSummary {
    /// Batches audited (encode + per-lost-pattern rebuilds).
    pub batches: usize,
    /// Cross-checked partition pairs across all batches.
    pub partitions: usize,
    /// The encode batch's report (the representative one for `--json`).
    pub encode_report: HazardReport,
}

/// Stripes per model batch: enough to span several partitions and hit
/// uneven splits.
const MODEL_STRIPES: usize = 5;
/// Partitions per model batch: coprime with [`MODEL_STRIPES`] so ranges
/// come out uneven (sizes 2/2/1).
const MODEL_PARTITIONS: usize = 3;

/// Proves partition-footprint disjointness for every batched path the
/// volume lowers: `encode_all`, and `rebuild_all` under one- and
/// two-column loss (first, last, and adjacent-pair columns).
///
/// # Errors
///
/// The first [`HazardError`] across any batch.
pub fn prove_layout_hazard_free(layout: &Layout) -> Result<HazardSummary, HazardError> {
    let map = PartitionMap::build(MODEL_STRIPES, MODEL_PARTITIONS);
    let disks = layout.cols();
    let encode_report =
        audit_partition_hazards(&map, &lowered_encode_batch(layout, MODEL_STRIPES), disks)?;
    let last = layout.cols() - 1;
    let mut batches = 1;
    for lost in [vec![0], vec![last], vec![0, last], vec![0, 1]] {
        let ops = lowered_rebuild_batch(layout, MODEL_STRIPES, &lost);
        audit_partition_hazards(&map, &ops, disks)?;
        batches += 1;
    }
    Ok(HazardSummary { batches, partitions: map.len(), encode_report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;

    fn layout_of(name: &str, p: usize) -> std::sync::Arc<dyn raid_core::ArrayCode> {
        build(name, p).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn every_code_is_hazard_free_at_small_primes() {
        for name in crate::CODE_NAMES {
            for p in [5usize, 7] {
                let code = layout_of(name, p);
                let summary = prove_layout_hazard_free(code.layout())
                    .unwrap_or_else(|e| panic!("{name} p={p}: {e}"));
                assert_eq!(summary.batches, 5);
            }
        }
    }

    #[test]
    fn overlapping_partition_write_is_named() {
        let code = layout_of("hv", 5);
        let layout = code.layout();
        let mut ops = lowered_encode_batch(layout, MODEL_STRIPES);
        let map = PartitionMap::build(MODEL_STRIPES, MODEL_PARTITIONS);
        // Sabotage: the last stripe's first parity write aliases stripe
        // 0's address — a cross-partition write/write collision.
        let victim = ops[0].parity_writes[0].1;
        ops[MODEL_STRIPES - 1].parity_writes[0].1 = victim;
        let err = audit_partition_hazards(&map, &ops, layout.cols()).unwrap_err();
        match &err {
            HazardError::WriteWrite { a, b, disk, range } => {
                assert_eq!((*a, *b), (0, map.owner_of(MODEL_STRIPES - 1)));
                assert_eq!(*disk, victim.disk);
                assert!(range.contains(&victim.index), "{err}");
            }
            other => panic!("expected WriteWrite, got {other}"),
        }
        let msg = err.to_string();
        assert!(msg.contains(&format!("disk {}", victim.disk)), "{msg}");
    }

    #[test]
    fn cross_op_read_of_written_address_is_named() {
        let code = layout_of("hv", 5);
        let layout = code.layout();
        let mut ops = lowered_encode_batch(layout, MODEL_STRIPES);
        let map = PartitionMap::build(MODEL_STRIPES, MODEL_PARTITIONS);
        // Sabotage: stripe 1 reads a parity address stripe 0 writes.
        let victim = ops[0].parity_writes[0].1;
        ops[1].reads[0].1 = victim;
        match audit_partition_hazards(&map, &ops, layout.cols()).unwrap_err() {
            HazardError::ReadWrite { reader_op, writer_op, disk, range, .. } => {
                assert_eq!((reader_op, writer_op), (1, 0));
                assert_eq!(disk, victim.disk);
                assert!(range.contains(&victim.index));
            }
            other => panic!("expected ReadWrite, got {other}"),
        }
    }

    #[test]
    fn rmw_style_self_read_is_not_a_hazard() {
        // An op reading an address it writes itself is the RMW shape;
        // only *cross-op* read/write overlap breaks phase separation.
        let code = layout_of("hv", 5);
        let layout = code.layout();
        let mut ops = lowered_encode_batch(layout, 2);
        let (cell, addr) = ops[0].parity_writes[0];
        ops[0].reads.push((cell, addr));
        let map = PartitionMap::build(2, 2);
        audit_partition_hazards(&map, &ops, layout.cols()).unwrap();
    }

    #[test]
    fn op_count_mismatch_is_rejected() {
        let code = layout_of("hv", 5);
        let ops = lowered_encode_batch(code.layout(), 3);
        let map = PartitionMap::build(4, 2);
        assert!(matches!(
            audit_partition_hazards(&map, &ops, code.layout().cols()),
            Err(HazardError::OpCountMismatch { ops: 3, stripes: 4 })
        ));
    }

    #[test]
    fn report_json_lists_partition_footprints() {
        let code = layout_of("hv", 5);
        let layout = code.layout();
        let summary = prove_layout_hazard_free(layout).unwrap();
        let json = summary.encode_report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"hazards\":0"), "{json}");
        assert!(json.contains("\"partition\":2"), "{json}");
        // Uneven 5-stripe/3-partition split: ranges [0,2) [2,4) [4,5).
        assert!(json.contains("\"ops\":[0,2]"), "{json}");
        assert!(json.contains("\"ops\":[4,5]"), "{json}");
        // Stripe-disjoint index packing: every footprint index of
        // partition 0 (stripes 0..2) lies below 2·rows.
        let rows = layout.rows();
        let fp = &summary.encode_report.partitions[0];
        for ranges in fp.reads.values().chain(fp.writes.values()) {
            for r in ranges {
                assert!(r.end <= 2 * rows, "partition 0 range {r:?} crosses stripe 2");
            }
        }
    }

    #[test]
    fn coalesce_packs_maximal_ranges() {
        assert_eq!(coalesce(&[0, 1, 2, 4, 7, 8]), vec![0..3, 4..5, 7..9]);
        assert_eq!(coalesce(&[3, 3, 4]), vec![3..5]);
        assert!(coalesce(&[]).is_empty());
    }
}
