//! Decomposed columns bound to the execution platform.
//!
//! A [`BoundColumn`] is the runtime form of a `DecomposedColumn`: its
//! approximation partition lives in device memory (as a
//! [`bwd_kernels::DeviceArray`]), its packed residual stays host-resident,
//! and the [`bwd_storage::DecompositionMeta`] travels along for predicate
//! translation and reconstruction. Both partitions are shared with the
//! catalog's split column, not copied: the host holds each bit once.
//! Binding charges the one-time PCI-E upload — the paper pays this at
//! `bwdecompose()` time, outside query execution, so callers pass a
//! separate load ledger.

use bwd_device::{CostLedger, Device};
use bwd_kernels::DeviceArray;
use bwd_storage::{BitPackedVec, DecomposedColumn, DecompositionMeta};
use bwd_types::{Oid, Result};
use std::sync::Arc;

/// A decomposed column whose approximation is device-resident.
#[derive(Debug)]
pub struct BoundColumn {
    meta: DecompositionMeta,
    approx: DeviceArray,
    residual: Arc<BitPackedVec>,
}

impl BoundColumn {
    /// Move `col`'s approximation into `device` memory, charging the
    /// upload to `load_ledger` (a decomposition-time cost, not query time).
    pub fn bind(
        col: DecomposedColumn,
        device: &Device,
        label: &str,
        load_ledger: &mut CostLedger,
    ) -> Result<Self> {
        let (meta, approx, residual) = col.into_parts();
        let approx = DeviceArray::upload(device, approx, label, load_ledger)?;
        Ok(BoundColumn {
            meta,
            approx,
            residual,
        })
    }

    /// The translation metadata.
    #[inline]
    pub fn meta(&self) -> &DecompositionMeta {
        &self.meta
    }

    /// The device-resident approximation.
    #[inline]
    pub fn approx(&self) -> &DeviceArray {
        &self.approx
    }

    /// The host-resident packed residual.
    #[inline]
    pub fn residual(&self) -> &BitPackedVec {
        &self.residual
    }

    /// Residual payload of a tuple — the *invisible join* with the
    /// persistent residual: the position follows from the oid (§IV-A).
    #[inline]
    pub fn residual_of(&self, oid: Oid) -> u64 {
        self.residual.get(oid as usize)
    }

    /// Exact payload of a tuple given its stored approximation (saves the
    /// device round-trip when the caller already holds the approximation).
    #[inline]
    pub fn reconstruct_with(&self, oid: Oid, stored: u64) -> i64 {
        self.meta.payload_from_parts(stored, self.residual_of(oid))
    }

    /// Exact payload of a tuple, reading both partitions (the approximation
    /// read simulates a device access and should only be used on the host
    /// path for fully host-processed reconstruction — prefer
    /// [`BoundColumn::reconstruct_with`] in refinement loops).
    #[inline]
    pub fn reconstruct(&self, oid: Oid) -> i64 {
        self.reconstruct_with(oid, self.approx.get(oid as usize))
    }

    /// Bytes of residual data touched when refining `n` tuples (at least
    /// one byte-addressable access per tuple when residuals exist).
    pub fn residual_access_bytes(&self, n: usize) -> u64 {
        if self.meta.resbits() == 0 {
            0
        } else {
            n as u64 * (self.meta.resbits() as u64).div_ceil(8).max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_device::Env;
    use bwd_storage::DecompositionSpec;
    use bwd_types::DataType;

    fn bind(vals: &[i64], device_bits: u32) -> (Env, BoundColumn) {
        let env = Env::paper_default();
        let dec = DecomposedColumn::decompose(
            vals,
            DataType::Int32,
            &DecompositionSpec::with_device_bits(device_bits),
        )
        .unwrap();
        let mut load = CostLedger::new();
        let col = BoundColumn::bind(dec, &env.device, "col", &mut load).unwrap();
        (env, col)
    }

    #[test]
    fn bind_uploads_approximation() {
        let vals: Vec<i64> = (0..1000).map(|i| i * 3 % 997).collect();
        let (env, col) = bind(&vals, 24);
        assert_eq!(col.approx().len(), 1000);
        assert_eq!(env.device.memory().used(), col.approx().packed_bytes());
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(col.reconstruct(i as Oid), v);
        }
    }

    #[test]
    fn residual_of_is_zero_when_fully_resident() {
        let vals: Vec<i64> = (0..50).collect();
        let (_, col) = bind(&vals, 32);
        assert!(col.meta().fully_device_resident());
        assert_eq!(col.residual_of(10), 0);
        assert_eq!(col.residual_access_bytes(1000), 0);
    }

    #[test]
    fn residual_access_bytes_counts_bytes() {
        let vals: Vec<i64> = (0..4096).collect();
        let (_, col) = bind(&vals, 20); // 12 residual bits -> 2 bytes/access
        assert_eq!(col.residual_access_bytes(100), 200);
    }
}
