//! Linear data-element addressing over stripes, with optional rotation.

/// Maps a linear data-element address space onto stripes.
///
/// Data elements are numbered stripe by stripe in each stripe's row-major
/// data order (the paper's "continuous data elements"). With rotation
/// enabled, stripe `s` shifts its columns right by `s` positions on the
/// physical disks — the classic "stripe rotation" the paper discusses for
/// dedicated-parity codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Addressing {
    data_per_stripe: usize,
    disks: usize,
    rotate: bool,
}

/// One stripe-local segment of a linear request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Stripe index.
    pub stripe: usize,
    /// First data ordinal within the stripe.
    pub start: usize,
    /// Number of data elements in this segment.
    pub len: usize,
}

impl Addressing {
    /// Creates an addressing scheme.
    ///
    /// # Panics
    ///
    /// Panics if `data_per_stripe` or `disks` is zero.
    pub fn new(data_per_stripe: usize, disks: usize, rotate: bool) -> Self {
        assert!(data_per_stripe > 0, "stripe holds no data");
        assert!(disks > 0, "array has no disks");
        Addressing { data_per_stripe, disks, rotate }
    }

    /// Data elements per stripe.
    pub fn data_per_stripe(&self) -> usize {
        self.data_per_stripe
    }

    /// Whether stripe rotation is enabled.
    pub fn rotates(&self) -> bool {
        self.rotate
    }

    /// Splits a linear request `[start, start + len)` into stripe-local
    /// segments, in address order.
    pub fn split(&self, start: usize, len: usize) -> Vec<Segment> {
        let mut segs = Vec::new();
        let mut cur = start;
        let end = start + len;
        while cur < end {
            let stripe = cur / self.data_per_stripe;
            let offset = cur % self.data_per_stripe;
            let seg_len = (self.data_per_stripe - offset).min(end - cur);
            segs.push(Segment { stripe, start: offset, len: seg_len });
            cur += seg_len;
        }
        segs
    }

    /// The physical disk serving logical column `col` of stripe `stripe`.
    pub fn physical_disk(&self, stripe: usize, col: usize) -> usize {
        debug_assert!(col < self.disks);
        if self.rotate {
            (col + stripe) % self.disks
        } else {
            col
        }
    }

    /// Inverse of [`Addressing::physical_disk`].
    pub fn logical_col(&self, stripe: usize, disk: usize) -> usize {
        debug_assert!(disk < self.disks);
        if self.rotate {
            (disk + self.disks - stripe % self.disks) % self.disks
        } else {
            disk
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_within_one_stripe() {
        let a = Addressing::new(10, 4, false);
        assert_eq!(a.split(3, 4), vec![Segment { stripe: 0, start: 3, len: 4 }]);
    }

    #[test]
    fn split_across_stripes() {
        let a = Addressing::new(10, 4, false);
        assert_eq!(
            a.split(8, 15),
            vec![
                Segment { stripe: 0, start: 8, len: 2 },
                Segment { stripe: 1, start: 0, len: 10 },
                Segment { stripe: 2, start: 0, len: 3 },
            ]
        );
    }

    #[test]
    fn empty_request_yields_no_segments() {
        let a = Addressing::new(10, 4, false);
        assert!(a.split(5, 0).is_empty());
    }

    #[test]
    fn rotation_round_trips() {
        let a = Addressing::new(6, 5, true);
        for stripe in 0..12 {
            for col in 0..5 {
                let d = a.physical_disk(stripe, col);
                assert_eq!(a.logical_col(stripe, d), col, "stripe {stripe} col {col}");
            }
        }
    }

    #[test]
    fn no_rotation_is_identity() {
        let a = Addressing::new(6, 5, false);
        for stripe in 0..3 {
            for col in 0..5 {
                assert_eq!(a.physical_disk(stripe, col), col);
            }
        }
    }

    #[test]
    fn rotation_spreads_a_fixed_column() {
        let a = Addressing::new(6, 5, true);
        let disks: std::collections::HashSet<_> =
            (0..5).map(|s| a.physical_disk(s, 0)).collect();
        assert_eq!(disks.len(), 5, "column 0 must visit every disk");
    }
}
