//! Device-resident arrays.
//!
//! A [`DeviceArray`] couples a bit-packed payload vector with the device
//! memory reservation that represents its residency. In the simulation the
//! bits physically live in host memory (kernels read them directly), but
//! the reservation is real: it counts against the device's 2 GB capacity,
//! and creating one charges the PCI-E upload. The bits are shared, not
//! copied: a decomposed column's catalog entry reads the same words.

use bwd_device::{CostLedger, Device, DeviceBuffer};
use bwd_storage::BitPackedVec;
use bwd_types::Result;
use std::sync::Arc;

/// A bit-packed array resident in (simulated) device memory.
#[derive(Debug)]
pub struct DeviceArray {
    data: Arc<BitPackedVec>,
    #[allow(dead_code)] // held for its Drop: releases the device reservation
    buffer: DeviceBuffer,
}

impl DeviceArray {
    /// Upload `data` to `device`, charging the PCI-E transfer to `ledger`.
    ///
    /// Fails with `DeviceOutOfMemory` when the packed payload does not fit
    /// the remaining device memory.
    pub fn upload(
        device: &Device,
        data: impl Into<Arc<BitPackedVec>>,
        label: &str,
        ledger: &mut CostLedger,
    ) -> Result<Self> {
        let data = data.into();
        let buffer = device.upload(data.packed_bytes(), label, ledger)?;
        Ok(DeviceArray { data, buffer })
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bits per element.
    #[inline]
    pub fn width(&self) -> u32 {
        self.data.width()
    }

    /// Packed payload size in bytes (equals the device reservation).
    #[inline]
    pub fn packed_bytes(&self) -> u64 {
        self.data.packed_bytes()
    }

    /// Element access (kernel-internal).
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.data.get(i)
    }

    /// The underlying packed vector.
    #[inline]
    pub fn data(&self) -> &BitPackedVec {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_device::{DeviceSpec, Env};

    #[test]
    fn upload_reserves_and_charges() {
        let env = Env::paper_default();
        let mut ledger = CostLedger::new();
        let data = BitPackedVec::from_slice(12, &[1, 2, 3, 4095]);
        let bytes = data.packed_bytes();
        let arr = DeviceArray::upload(&env.device, data, "col", &mut ledger).unwrap();
        assert_eq!(arr.len(), 4);
        assert_eq!(arr.get(3), 4095);
        assert_eq!(env.device.memory().used(), bytes);
        assert!(ledger.breakdown().pcie > 0.0);
        drop(arr);
        assert_eq!(env.device.memory().used(), 0);
    }

    #[test]
    fn upload_fails_when_full() {
        let env = Env::with_device(DeviceSpec::default().with_capacity(2));
        let mut ledger = CostLedger::new();
        let data = BitPackedVec::from_slice(32, &[1, 2, 3, 4]); // 16 bytes
        assert!(DeviceArray::upload(&env.device, data, "col", &mut ledger).is_err());
    }
}
