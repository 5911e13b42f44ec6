//! Candidate lists — the output of approximation kernels.
//!
//! A candidate list pairs tuple ids with their stored-domain approximate
//! values. It is produced on the device and stays there while further
//! approximation operators consume it; [`Candidates::download`] meters the
//! PCI-E transfer when a refinement operator pulls it to the host.
//!
//! The `sorted` flag records whether the oids are in ascending order. A
//! massively parallel selection does *not* preserve input order (§IV-A
//! item 3) — blocks complete in arbitrary order — so candidates typically
//! arrive block-scrambled, which is exactly the case the translucent join
//! exists for.

use bwd_device::{Component, CostLedger, Env};
use bwd_types::Oid;

/// Tuple-id + approximate-value pairs produced by an approximation kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidates {
    /// Candidate tuple ids (unique; order is the kernel's output order).
    pub oids: Vec<Oid>,
    /// Stored-domain approximation of each candidate, aligned with `oids`.
    pub approx: Vec<u64>,
    /// Whether `oids` is ascending (enables the invisible-join fast path).
    pub sorted: bool,
    /// Whether `oids` is exactly `0..n` (dense), which additionally means
    /// no tuple was filtered out.
    pub dense: bool,
}

impl Candidates {
    /// An empty candidate list (vacuously sorted and dense).
    pub fn empty() -> Self {
        Candidates {
            oids: Vec::new(),
            approx: Vec::new(),
            sorted: true,
            dense: true,
        }
    }

    /// The all-rows candidate list `0..n` with no approximate values
    /// attached (`approx` stays empty — legal whenever no refinement will
    /// read it, e.g. for plans without selections).
    pub fn dense_all(n: usize) -> Self {
        Candidates {
            oids: (0..n as Oid).collect(),
            approx: Vec::new(),
            sorted: true,
            dense: true,
        }
    }

    /// Wrap a kernel's aligned output vectors, deriving the `sorted` and
    /// `dense` flags from the oids.
    pub fn from_pairs(oids: Vec<Oid>, approx: Vec<u64>) -> Self {
        let mut c = Candidates {
            oids,
            approx,
            sorted: false,
            dense: false,
        };
        c.refresh_flags();
        c
    }

    /// Number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.oids.len()
    }

    /// Whether there are no candidates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.oids.is_empty()
    }

    /// Bytes this list occupies when shipped across PCI-E: 4-byte oid plus
    /// the packed approximation payload per candidate (the same shared
    /// unit the selection kernels charge for their compacted output).
    pub fn transfer_bytes(&self, approx_width_bits: u32) -> u64 {
        bwd_device::units::candidate_stream_bytes(approx_width_bits, self.len() as u64)
    }

    /// Charge the device→host transfer of this candidate list.
    ///
    /// This is *the* data volume that makes A&R beat streaming: only the
    /// (small) candidate set crosses the bus, never the input relation.
    pub fn download(
        &self,
        env: &Env,
        approx_width_bits: u32,
        label: &str,
        ledger: &mut CostLedger,
    ) {
        let bytes = self.transfer_bytes(approx_width_bits);
        ledger.charge(
            Component::Pcie,
            label,
            env.pcie.transfer_seconds(bytes),
            bytes,
        );
    }

    /// Recompute the `sorted`/`dense` flags from the oids (used by tests
    /// and by operators that permute candidates).
    pub fn refresh_flags(&mut self) {
        self.sorted = self.oids.windows(2).all(|w| w[0] < w[1]);
        self.dense = self.sorted
            && match (self.oids.first(), self.oids.last()) {
                (None, _) => true,
                (Some(&0), Some(&last)) => self.oids.len() == last as usize + 1,
                _ => false,
            };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_device::Env;

    #[test]
    fn transfer_bytes_counts_oid_plus_packed_value() {
        let c = Candidates {
            oids: vec![1, 2, 3],
            approx: vec![10, 20, 30],
            sorted: true,
            dense: false,
        };
        // 3 * (32 + 12) bits = 132 bits -> 17 bytes.
        assert_eq!(c.transfer_bytes(12), 17);
        assert_eq!(Candidates::empty().transfer_bytes(12), 0);
    }

    #[test]
    fn download_charges_pcie() {
        let env = Env::paper_default();
        let mut ledger = CostLedger::new();
        let c = Candidates {
            oids: (0..1000).collect(),
            approx: vec![0; 1000],
            sorted: true,
            dense: true,
        };
        c.download(&env, 16, "cands", &mut ledger);
        assert!(ledger.breakdown().pcie > 0.0);
        assert_eq!(ledger.breakdown().device, 0.0);
    }

    #[test]
    fn refresh_flags_detects_properties() {
        let mut c = Candidates {
            oids: vec![0, 1, 2, 3],
            approx: vec![0; 4],
            sorted: false,
            dense: false,
        };
        c.refresh_flags();
        assert!(c.sorted && c.dense);

        c.oids = vec![1, 2, 4];
        c.refresh_flags();
        assert!(c.sorted && !c.dense);

        c.oids = vec![2, 1];
        c.refresh_flags();
        assert!(!c.sorted && !c.dense);

        c.oids = vec![];
        c.refresh_flags();
        assert!(c.sorted && c.dense);
    }
}
