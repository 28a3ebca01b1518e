//! The benchmark's inputs, owned here and nowhere else: a splitmix64
//! generator, a Zipf table, the paper's Table-II write patterns (embedded
//! copy), the five workloads' seeded op streams, the payload bytes, and
//! the digest that proves two result files ran the same input.
//!
//! Nothing in this file calls into the program under test; the program
//! receives only the ops generated here.

/// The paper's evaluation prime: 12 disks for HV Code.
pub const P: usize = 13;
/// Data elements per HV Code stripe at `p = 13` (`(p-1)(p-3)`).
pub const HV_DATA_PER_STRIPE: usize = 120;
/// Disks of HV Code at `p = 13`.
pub const HV_DISKS: usize = 12;
/// Ops of each client's stream that feed [`workload_digest`], and the
/// length of the traced pass's fixed prefix.
pub const PREFIX_OPS: usize = 20_000;

/// The five comparators of the paper's figures, in plotting order, with
/// their data elements per stripe at `p = 13`. `sut` asserts the counts
/// against the program at set-up, so a layout change cannot silently
/// shift addresses.
pub const FIVE_CODES: [(&str, usize); 5] =
    [("rdp", 144), ("hdp", 120), ("xcode", 143), ("hcode", 144), ("hv", 120)];
/// Stripes of each `five_code_small_ops` volume.
pub const FIVE_CODE_STRIPES: usize = 16;

/// The disks `volume_degraded_read` fails, first and second. Fixed, not
/// seeded: which columns are lost moves the cost of a degraded read by a
/// fifth, which between seeds would be noise, not signal.
pub const DEGRADED_DISKS: (usize, usize) = (3, 7);
/// The disk each degraded `five_code_small_ops` volume has lost.
pub const FIVE_CODE_LOST_DISK: usize = 3;
/// `volume_rebuild` cycle: every stripe written once, then this many
/// double-disk rebuilds. Two, so that rebuilt stripes outnumber written
/// ones and `p50_us` sits inside one kind of op, not on the boundary.
pub const REBUILDS_PER_CYCLE: usize = 2;

/// Read lengths of the paper's degraded-read experiment (Fig. 7).
pub const DEGRADED_LENS: [u32; 4] = [1, 5, 10, 15];

/// The random write trace of the paper's Table II: `(S, L, F)` = start
/// data element, continuous length, repetition count.
pub const TABLE2: [(u32, u32, u32); 25] = [
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

/// splitmix64 (Steele, Lea & Flood): tiny, seedable, and good enough to
/// place ops; every stream below is a pure function of its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over ranks `0..n` with exponent `theta`, as a cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// What a client asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Read,
    Write,
    Flush,
    /// Fail disks `addr` and `len`, then rebuild both.
    Rebuild,
}

/// One generated op. `target` picks the volume (only
/// `five_code_small_ops` has more than one); `salt` picks the payload of
/// a write, so contents are part of the input too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub target: u8,
    pub addr: u32,
    pub len: u32,
    pub salt: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FrontDoorMixed,
    HandleWriteBurst,
    VolumeDegradedRead,
    VolumeRebuild,
    FiveCodeSmallOps,
}

/// The fixed shape of a workload; `BENCHMARK.json` and the README quote
/// these.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Closed-loop client threads (at most 2: the host has 2 cores).
    pub clients: usize,
    pub element_size: usize,
    pub stripes: usize,
    /// Ops of the fixed-count pass that warms the system up and yields
    /// the exact counts (`io_amp`). One client runs it, whatever
    /// `clients` says: two would interleave differently every run.
    pub fixed_ops: usize,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::FrontDoorMixed,
        Workload::HandleWriteBurst,
        Workload::VolumeDegradedRead,
        Workload::VolumeRebuild,
        Workload::FiveCodeSmallOps,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FrontDoorMixed => "front_door_mixed",
            Workload::HandleWriteBurst => "handle_write_burst",
            Workload::VolumeDegradedRead => "volume_degraded_read",
            Workload::VolumeRebuild => "volume_rebuild",
            Workload::FiveCodeSmallOps => "five_code_small_ops",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers do its work and which do
    /// none (the same text as `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::FrontDoorMixed => "unix socket + line protocol, 2 connections, 70/30 read/write of 1-4 elements, Zipf 0.9 over 256 stripes (4x the cache): server, proto and scheduler do the work, XOR almost none",
            Workload::HandleWriteBurst => "in-process handle, 2 writers replaying Table-II partial-stripe writes over 32 hot stripes that fit the cache, flush every 64: coalescing, cache, write plans and journaled flush dominate; no socket",
            Workload::VolumeDegradedRead => "direct volume, cache off, one then two failed disks, reads of 1/5/10/15 elements over 64 stripes: degraded plans, XOR plans and pipeline reads do the work; the read-side twin of the write burst",
            Workload::VolumeRebuild => "direct volume, 64 KiB elements, full-stripe writes then double-disk rebuild of 8 stripes: the only workload where the XOR kernel and compiled plans dominate wall time",
            Workload::FiveCodeSmallOps => "RDP, HDP, X-Code, H-Code and HV at p=13, single-element updates and degraded reads round-robin: the paper's comparators through the same volume and plan layers, in wall time",
        }
    }

    pub fn shape(self) -> Shape {
        match self {
            // Twice the others' fixed pass: the hit rate of a Zipf draw over
            // a cache a quarter its size settles slowly, and `io_amp` with it.
            Workload::FrontDoorMixed => {
                Shape { clients: 2, element_size: 4096, stripes: 256, fixed_ops: 16_000 }
            }
            Workload::HandleWriteBurst => {
                Shape { clients: 2, element_size: 4096, stripes: 32, fixed_ops: 8_000 }
            }
            Workload::VolumeDegradedRead => {
                Shape { clients: 1, element_size: 4096, stripes: 64, fixed_ops: 8_000 }
            }
            // 4 cycles of 8 stripe writes + 2 double rebuilds.
            Workload::VolumeRebuild => {
                Shape { clients: 1, element_size: 65_536, stripes: 8, fixed_ops: 40 }
            }
            Workload::FiveCodeSmallOps => Shape {
                clients: 1,
                element_size: 4096,
                stripes: FIVE_CODE_STRIPES,
                fixed_ops: 8_000,
            },
        }
    }

    /// The volumes the workload drives: code name and data elements per
    /// stripe, indexed by an op's `target`.
    pub fn volumes(self) -> Vec<(&'static str, usize)> {
        match self {
            // Two volumes per code: healthy (updates), one failed disk
            // (degraded reads).
            Workload::FiveCodeSmallOps => FIVE_CODES.iter().flat_map(|&v| [v, v]).collect(),
            _ => vec![("hv", HV_DATA_PER_STRIPE)],
        }
    }

    pub fn data_per_stripe(self) -> Vec<usize> {
        self.volumes().into_iter().map(|(_, dps)| dps).collect()
    }

    fn index(self) -> u64 {
        Workload::ALL.iter().position(|&w| w == self).expect("listed in ALL") as u64
    }
}

/// 4-element blocks per stripe in `front_door_mixed`; block `j` of every
/// stripe belongs to client `j % 2`, so tenants share stripes (and
/// parities) but never an element, and every read is checkable.
const BLOCK: u32 = 4;

/// One client's seeded op stream: an endless iterator whose `n`-th op
/// depends only on `(workload, seed, client, n)`.
#[derive(Debug, Clone)]
pub struct OpStream {
    workload: Workload,
    client: u32,
    rng: SplitMix64,
    issued: u64,
    zipf: Option<Zipf>,
    /// Zipf rank -> stripe, shared by both clients so they heat the same
    /// stripes.
    rank_to_stripe: Vec<u32>,
    /// Cumulative Table-II frequencies.
    table2_cdf: Vec<u32>,
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64, client: usize) -> OpStream {
        let shape = workload.shape();
        assert!(client < shape.clients, "{} has {} clients", workload.name(), shape.clients);
        let mut zipf = None;
        let mut rank_to_stripe = Vec::new();
        if workload == Workload::FrontDoorMixed {
            zipf = Some(Zipf::new(shape.stripes, 0.9));
            rank_to_stripe = (0..shape.stripes as u32).collect();
            let mut shuffle = SplitMix64::new(seed ^ 0x5a17_f00d);
            for i in (1..rank_to_stripe.len()).rev() {
                rank_to_stripe.swap(i, shuffle.below(i as u64 + 1) as usize);
            }
        }
        let table2_cdf = TABLE2
            .iter()
            .scan(0u32, |acc, &(_, _, f)| {
                *acc += f;
                Some(*acc)
            })
            .collect();
        let stream_seed = seed
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(workload.index() << 8)
            .wrapping_add(client as u64);
        OpStream {
            workload,
            client: client as u32,
            rng: SplitMix64::new(stream_seed),
            issued: 0,
            zipf,
            rank_to_stripe,
            table2_cdf,
        }
    }

    fn op(&mut self, kind: OpKind, target: u8, addr: u32, len: u32) -> Op {
        let salt = self.rng.next_u64() as u32;
        Op { kind, target, addr, len, salt }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let n = self.issued;
        self.issued += 1;
        let dps = HV_DATA_PER_STRIPE as u32;
        let op = match self.workload {
            Workload::FrontDoorMixed => {
                let rank = self.zipf.as_ref().expect("zipf table").sample(&mut self.rng);
                let stripe = self.rank_to_stripe[rank];
                let own_blocks = u64::from(dps / BLOCK / 2);
                let block = 2 * self.rng.below(own_blocks) as u32 + self.client;
                let len = 1 + self.rng.below(u64::from(BLOCK)) as u32;
                let within = self.rng.below(u64::from(BLOCK - len + 1)) as u32;
                let addr = stripe * dps + block * BLOCK + within;
                let kind = if self.rng.below(10) < 7 { OpKind::Read } else { OpKind::Write };
                self.op(kind, 0, addr, len)
            }
            Workload::HandleWriteBurst => {
                if n % 65 == 64 {
                    self.op(OpKind::Flush, 0, 0, 0)
                } else {
                    let total = *self.table2_cdf.last().expect("table II");
                    let pick = self.rng.below(u64::from(total)) as u32;
                    let (s, l, _) = TABLE2[self.table2_cdf.partition_point(|&c| c <= pick)];
                    let stripe = self.rng.below(self.workload.shape().stripes as u64) as u32;
                    self.op(OpKind::Write, 0, stripe * dps + s, l)
                }
            }
            Workload::VolumeDegradedRead => {
                let len = DEGRADED_LENS[self.rng.below(4) as usize];
                let capacity = self.workload.shape().stripes as u32 * dps;
                let addr = self.rng.below(u64::from(capacity - len + 1)) as u32;
                self.op(OpKind::Read, 0, addr, len)
            }
            Workload::VolumeRebuild => {
                let stripes = self.workload.shape().stripes as u64;
                let step = n % (stripes + REBUILDS_PER_CYCLE as u64);
                if step < stripes {
                    self.op(OpKind::Write, 0, step as u32 * dps, dps)
                } else {
                    let a = self.rng.below(HV_DISKS as u64) as u32;
                    let b = (a + 1 + self.rng.below(HV_DISKS as u64 - 1) as u32) % HV_DISKS as u32;
                    self.op(OpKind::Rebuild, 0, a.min(b), a.max(b))
                }
            }
            Workload::FiveCodeSmallOps => {
                let code = (n / 2 % FIVE_CODES.len() as u64) as usize;
                let capacity = (FIVE_CODE_STRIPES * FIVE_CODES[code].1) as u32;
                if n.is_multiple_of(2) {
                    let addr = self.rng.below(u64::from(capacity)) as u32;
                    self.op(OpKind::Write, 2 * code as u8, addr, 1)
                } else {
                    let len = DEGRADED_LENS[self.rng.below(4) as usize];
                    let addr = self.rng.below(u64::from(capacity - len + 1)) as u32;
                    self.op(OpKind::Read, 2 * code as u8 + 1, addr, len)
                }
            }
        };
        Some(op)
    }
}

/// FNV-1a over the first [`PREFIX_OPS`] ops of every client's stream:
/// equal digests mean equal inputs.
pub fn workload_digest(workload: Workload, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for client in 0..workload.shape().clients {
        for op in OpStream::new(workload, seed, client).take(PREFIX_OPS) {
            eat(op.kind as u64 | u64::from(op.target) << 8 | u64::from(op.salt) << 32);
            eat(u64::from(op.addr) | u64::from(op.len) << 32);
        }
    }
    h
}

/// Payload bytes. Every element ever written is a window of one seeded
/// noise buffer, so a write's payload is a borrowed slice (no generation
/// in the measured loop) and a client's shadow copy of an element is one
/// `u32` window offset. The hex twin serves the socket client, which
/// would otherwise spend more time encoding than the server under test.
#[derive(Debug)]
pub struct Noise {
    bytes: Vec<u8>,
    hex: Vec<u8>,
    /// Window offsets are drawn below this; the tail beyond it is as long
    /// as the longest run, so every window is contiguous.
    modulus: usize,
}

const NOISE_MODULUS: usize = 1 << 20;

impl Noise {
    pub fn new(seed: u64, longest_run_bytes: usize, with_hex: bool) -> Noise {
        let mut rng = SplitMix64::new(seed ^ 0xb17e_5eed);
        let len = NOISE_MODULUS + longest_run_bytes;
        let mut bytes = Vec::with_capacity(len + 8);
        while bytes.len() < len {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        bytes.truncate(len);
        let hex = if with_hex { to_hex(&bytes) } else { Vec::new() };
        Noise { bytes, hex, modulus: NOISE_MODULUS }
    }

    /// The window offset a salt selects.
    pub fn offset(&self, salt: u32) -> u32 {
        (salt as usize % self.modulus) as u32
    }

    pub fn bytes(&self, offset: u32, len: usize) -> &[u8] {
        &self.bytes[offset as usize..offset as usize + len]
    }

    /// The window a stripe is prefilled from at set-up (`target` = which
    /// volume); element `k` of the stripe starts `k` elements into it.
    pub fn prefill_window(&self, target: usize, stripe: usize) -> u32 {
        self.offset(
            (stripe as u32).wrapping_mul(2_654_435_761).wrapping_add(target as u32 * 40_503),
        )
    }

    /// Lower-case hex of [`Noise::bytes`] at the same window.
    pub fn hex(&self, offset: u32, len: usize) -> &[u8] {
        &self.hex[2 * offset as usize..2 * (offset as usize + len)]
    }
}

/// Lower-case hex, table-driven (the bench client's own codec).
pub fn to_hex(bytes: &[u8]) -> Vec<u8> {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = Vec::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[usize::from(b >> 4)]);
        out.push(DIGITS[usize::from(b & 0xf)]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for w in Workload::ALL {
            assert_eq!(workload_digest(w, 1), workload_digest(w, 1), "{}", w.name());
            assert_ne!(workload_digest(w, 1), workload_digest(w, 2), "{}", w.name());
        }
        let digests: Vec<u64> = Workload::ALL.iter().map(|&w| workload_digest(w, 1)).collect();
        for (i, a) in digests.iter().enumerate() {
            assert!(!digests[i + 1..].contains(a), "two workloads share a digest");
        }
    }

    #[test]
    fn ops_stay_in_range_and_clients_own_disjoint_blocks() {
        for w in Workload::ALL {
            let shape = w.shape();
            let dps = w.data_per_stripe();
            for client in 0..shape.clients {
                for op in OpStream::new(w, 3, client).take(5_000) {
                    match op.kind {
                        OpKind::Read | OpKind::Write => {
                            let cap = shape.stripes * dps[usize::from(op.target)];
                            assert!(op.len >= 1);
                            assert!((op.addr + op.len) as usize <= cap, "{} {op:?}", w.name());
                        }
                        OpKind::Rebuild => {
                            assert!(op.addr < op.len && (op.len as usize) < HV_DISKS, "{op:?}");
                        }
                        OpKind::Flush => {}
                    }
                    if w == Workload::FrontDoorMixed {
                        let within = op.addr % HV_DATA_PER_STRIPE as u32;
                        assert_eq!((within / BLOCK) % 2, client as u32, "{op:?}");
                        assert_eq!(within / BLOCK, (within + op.len - 1) / BLOCK, "{op:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn front_door_mix_is_seventy_thirty_and_skewed() {
        let ops: Vec<Op> = OpStream::new(Workload::FrontDoorMixed, 1, 0).take(20_000).collect();
        let reads = ops.iter().filter(|o| o.kind == OpKind::Read).count();
        assert!((13_600..14_400).contains(&reads), "{reads} reads of 20000");
        let mut per_stripe = [0usize; 256];
        for o in &ops {
            per_stripe[o.addr as usize / HV_DATA_PER_STRIPE] += 1;
        }
        per_stripe.sort_unstable();
        let hottest_64: usize = per_stripe[192..].iter().sum();
        assert!(hottest_64 > 12_000, "zipf 0.9: hottest quarter drew {hottest_64} of 20000");
        assert!(per_stripe[0] > 0, "every stripe is touched");
    }

    #[test]
    fn write_burst_follows_table_two_and_flushes_every_64() {
        let ops: Vec<Op> = OpStream::new(Workload::HandleWriteBurst, 1, 1).take(650).collect();
        for (i, op) in ops.iter().enumerate() {
            if i % 65 == 64 {
                assert_eq!(op.kind, OpKind::Flush);
            } else {
                let s = op.addr % HV_DATA_PER_STRIPE as u32;
                assert!(TABLE2.iter().any(|&(ts, tl, _)| ts == s && tl == op.len), "{op:?}");
            }
        }
        assert_eq!(TABLE2.iter().map(|t| t.2).sum::<u32>(), 1115);
    }

    #[test]
    fn noise_windows_are_contiguous_and_hex_matches() {
        let noise = Noise::new(1, 4096 * 4, true);
        let off = noise.offset(u32::MAX);
        assert_eq!(noise.bytes(off, 4096 * 4).len(), 4096 * 4);
        assert_eq!(noise.hex(off, 16), to_hex(noise.bytes(off, 16)).as_slice());
        assert_ne!(noise.bytes(0, 64), noise.bytes(64, 64));
    }
}
