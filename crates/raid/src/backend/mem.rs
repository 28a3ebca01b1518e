//! [`MemBackend`]: RAM-resident disks, the default for experiments and
//! tests.

use super::*;

#[derive(Debug, Clone)]
struct MemDisk {
    data: Vec<u8>,
    failed: bool,
}

/// RAM-resident backend: each disk is one zero-initialized byte vector.
///
/// A fresh all-zero volume is parity-consistent for any XOR code (every
/// chain XORs to zero), so no initial encode pass is needed.
#[derive(Debug, Clone)]
pub struct MemBackend {
    element_size: usize,
    elements_per_disk: usize,
    disks: Vec<MemDisk>,
}

impl MemBackend {
    /// Creates `disks` zeroed disks of `elements_per_disk` elements each.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(disks: usize, elements_per_disk: usize, element_size: usize) -> Self {
        assert!(disks > 0 && elements_per_disk > 0 && element_size > 0);
        MemBackend {
            element_size,
            elements_per_disk,
            disks: vec![
                MemDisk { data: vec![0; elements_per_disk * element_size], failed: false };
                disks
            ],
        }
    }

    /// The one way a request to this backend can fail: a bad address or a
    /// failed disk.
    fn check(&self, disk: usize, index: usize) -> Result<(), DiskError> {
        check_addr(self.disks.len(), self.elements_per_disk, disk, index)?;
        if self.disks[disk].failed {
            return Err(DiskError::DiskFailed { disk });
        }
        Ok(())
    }
}

impl DiskBackend for MemBackend {
    fn disks(&self) -> usize {
        self.disks.len()
    }

    fn element_size(&self) -> usize {
        self.element_size
    }

    fn elements_per_disk(&self) -> usize {
        self.elements_per_disk
    }

    fn read(&mut self, disk: usize, index: usize, buf: &mut [u8]) -> Result<(), DiskError> {
        self.check(disk, index)?;
        let es = self.element_size;
        buf.copy_from_slice(&self.disks[disk].data[index * es..(index + 1) * es]);
        Ok(())
    }

    fn write(&mut self, disk: usize, index: usize, data: &[u8]) -> Result<(), DiskError> {
        self.write_all(&[(DiskAddr { disk, index }, data)])
    }

    /// Checks every address, then lends slices of the disks themselves:
    /// no staging, no copy. A read here has no side effect to order, so
    /// the error is the one the default returns — the first address, in
    /// order, that fails its check.
    fn lend<'a>(
        &'a mut self,
        addrs: &[DiskAddr],
        _staging: &'a mut Vec<Vec<u8>>,
    ) -> Result<Vec<&'a [u8]>, DiskError> {
        for &DiskAddr { disk, index } in addrs {
            self.check(disk, index)?;
        }
        let es = self.element_size;
        Ok(addrs.iter().map(|a| &self.disks[a.disk].data[a.index * es..][..es]).collect())
    }

    /// Every target is checked before the first byte moves, and nothing
    /// can fail after that — nor can a crash leave anything behind in
    /// RAM — so the store is all-or-nothing with no pre-image: each
    /// element is copied once. The error is the one the journaled default
    /// returns, whose pre-image reads fail on the same targets.
    fn write_all(&mut self, targets: &[(DiskAddr, &[u8])]) -> Result<(), DiskError> {
        for &(DiskAddr { disk, index }, _) in targets {
            self.check(disk, index)?;
        }
        let es = self.element_size;
        for &(DiskAddr { disk, index }, bytes) in targets {
            self.disks[disk].data[index * es..(index + 1) * es].copy_from_slice(bytes);
        }
        Ok(())
    }

    /// Checks every address, then lends slices of the disks themselves,
    /// the writes mutably: each touched disk's window, from its first
    /// address to its last, is cut into elements and each address takes
    /// its own. The new bytes land as the caller computes them, so
    /// [`DiskBackend::store_lent`] has nothing left to store — and since
    /// nothing can fail once the addresses check out, the store is still
    /// all or nothing. The error is the first failing address of `reads`
    /// then `writes`, as the default's `lend` and pre-image reads report.
    ///
    /// # Panics
    ///
    /// Panics if an address repeats.
    fn lend_mut<'a>(
        &'a mut self,
        reads: &[DiskAddr],
        writes: &[DiskAddr],
        _staging: &'a mut Vec<Vec<u8>>,
    ) -> Result<LentIo<'a>, DiskError> {
        let addrs = || reads.iter().chain(writes);
        for &DiskAddr { disk, index } in addrs() {
            self.check(disk, index)?;
        }
        // Per disk, its window's first index and its end, then where the
        // window's elements start in `elements`, back to back.
        let mut windows = vec![(usize::MAX, 0); self.disks.len()];
        for a in addrs() {
            let (first, end) = &mut windows[a.disk];
            (*first, *end) = ((*first).min(a.index), (*end).max(a.index + 1));
        }
        let len = windows.iter().map(|&(first, end)| end.saturating_sub(first)).sum();
        let mut elements: Vec<Option<&'a mut [u8]>> = Vec::with_capacity(len);
        let es = self.element_size;
        for (d, window) in self.disks.iter_mut().zip(&mut windows) {
            let (first, end) = *window;
            window.1 = elements.len();
            if first < end {
                elements.extend(d.data[first * es..end * es].chunks_exact_mut(es).map(Some));
            }
        }
        let mut take = |a: &DiskAddr| -> &'a mut [u8] {
            let (first, start) = windows[a.disk];
            let lent = elements[start + a.index - first].take();
            lent.unwrap_or_else(|| panic!("element {} of disk {} lent twice", a.index, a.disk))
        };
        let read = reads.iter().map(|a| -> &'a [u8] { take(a) }).collect();
        Ok((read, writes.iter().map(take).collect()))
    }

    /// The bytes landed as they were computed ([`Self::lend_mut`]).
    fn store_lent(
        &mut self,
        _reads: &[DiskAddr],
        _writes: &[DiskAddr],
        _staging: &[Vec<u8>],
    ) -> Result<(), DiskError> {
        Ok(())
    }

    fn fail(&mut self, disk: usize) -> Result<(), DiskError> {
        let d = self.disks.get_mut(disk).ok_or(DiskError::NoSuchDisk { disk })?;
        d.failed = true;
        Ok(())
    }

    /// The spare keeps the failed disk's bytes: a rebuild rewrites every
    /// element, and the volume reads none of them before it has.
    fn replace(&mut self, disk: usize) -> Result<(), DiskError> {
        let d = self.disks.get_mut(disk).ok_or(DiskError::NoSuchDisk { disk })?;
        d.failed = false;
        Ok(())
    }

    fn is_failed(&self, disk: usize) -> bool {
        self.disks.get(disk).is_some_and(|d| d.failed)
    }

    fn kind(&self) -> &'static str {
        "mem"
    }
}
