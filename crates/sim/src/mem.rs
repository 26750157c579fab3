//! Simulated global memory with a bump allocator.
//!
//! Addresses are 32-bit byte offsets — matching the paper's kernels, which
//! deliberately use 32-bit addressing to save address registers
//! (Section 5.2). Address 0 is kept unmapped so that a zero pointer faults.

use crate::SimError;

/// The flat global memory of a simulated GPU.
#[derive(Debug, Clone)]
pub struct GlobalMemory {
    data: Vec<u8>,
    next: u32,
}

impl GlobalMemory {
    /// Allocation alignment (matches a 128-byte memory transaction, so
    /// distinct buffers never share a transaction segment).
    pub const ALIGN: u32 = 128;

    /// An empty memory. Storage grows on demand; the only ceiling is the
    /// 32-bit address space, so allocations must end at or below
    /// `u32::MAX`.
    pub fn new() -> GlobalMemory {
        GlobalMemory {
            data: Vec::new(),
            next: Self::ALIGN, // keep address 0 unmapped
        }
    }

    /// Bytes currently backed by storage.
    pub fn size(&self) -> u32 {
        self.data.len() as u32
    }

    /// Allocate `bytes` zero-initialized bytes and return the base address.
    ///
    /// The first allocation of an empty memory takes fresh zeroed pages
    /// from the system allocator instead of writing zeros, so a page costs
    /// nothing until an access touches it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the 32-bit address space is
    /// exhausted; the memory is then unchanged.
    pub fn alloc_zeroed(&mut self, bytes: u32) -> Result<u32, SimError> {
        let base = self.next;
        let end = base
            .checked_add(bytes)
            .and_then(|e| e.checked_add(Self::ALIGN - 1))
            .ok_or(SimError::OutOfBounds {
                space: "global",
                addr: u64::from(base) + u64::from(bytes),
                size: u64::from(u32::MAX),
            })?;
        let end = end / Self::ALIGN * Self::ALIGN;
        self.next = end;
        if self.data.is_empty() {
            self.data = vec![0; end as usize];
        } else if self.data.len() < end as usize {
            self.data.resize(end as usize, 0);
        }
        Ok(base)
    }

    /// Allocate and fill with `f32` values; returns the base address.
    ///
    /// # Errors
    ///
    /// See [`GlobalMemory::alloc_zeroed`].
    pub fn alloc_f32(&mut self, values: &[f32]) -> Result<u32, SimError> {
        let base = self.alloc_zeroed((values.len() * 4) as u32)?;
        self.write_f32_slice(base, values)?;
        Ok(base)
    }

    /// The backing bytes, indexed by address; their length is
    /// [`GlobalMemory::size`].
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// A memory backed by exactly `bytes` bytes, which allocation never
    /// produces unless `bytes` is a multiple of its 128-byte granularity.
    #[cfg(test)]
    pub(crate) fn with_size(bytes: usize) -> GlobalMemory {
        GlobalMemory {
            data: vec![0; bytes],
            next: Self::ALIGN,
        }
    }

    fn aligned(addr: u32) -> Result<(), SimError> {
        if !addr.is_multiple_of(4) {
            return Err(SimError::Misaligned {
                space: "global",
                addr: u64::from(addr),
                align: 4,
            });
        }
        Ok(())
    }

    fn check(&self, addr: u32, len: u64) -> Result<usize, SimError> {
        let end = u64::from(addr) + len;
        if addr == 0 || end > self.data.len() as u64 {
            return Err(SimError::OutOfBounds {
                space: "global",
                addr: u64::from(addr),
                size: self.data.len() as u64,
            });
        }
        Ok(addr as usize)
    }

    /// Read a 32-bit word.
    ///
    /// # Errors
    ///
    /// Out-of-bounds and misaligned accesses fail.
    pub fn read_u32(&self, addr: u32) -> Result<u32, SimError> {
        Self::aligned(addr)?;
        let i = self.check(addr, 4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.data[i..i + 4]);
        Ok(u32::from_le_bytes(b))
    }

    /// Write a 32-bit word.
    ///
    /// # Errors
    ///
    /// Out-of-bounds and misaligned accesses fail.
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        Self::aligned(addr)?;
        let i = self.check(addr, 4)?;
        self.data[i..i + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Read an `f32`.
    ///
    /// # Errors
    ///
    /// See [`GlobalMemory::read_u32`].
    pub fn read_f32(&self, addr: u32) -> Result<f32, SimError> {
        Ok(f32::from_bits(self.read_u32(addr)?))
    }

    /// Write an `f32`.
    ///
    /// # Errors
    ///
    /// See [`GlobalMemory::write_u32`].
    pub fn write_f32(&mut self, addr: u32, value: f32) -> Result<(), SimError> {
        self.write_u32(addr, value.to_bits())
    }

    /// Read `n` consecutive `f32` values starting at `addr`.
    ///
    /// # Errors
    ///
    /// See [`GlobalMemory::read_u32`].
    pub fn read_f32_slice(&self, addr: u32, n: usize) -> Result<Vec<f32>, SimError> {
        (0..n)
            .map(|i| self.read_f32(addr + (i * 4) as u32))
            .collect()
    }

    /// Write `values` as consecutive `f32`s starting at `addr`.
    ///
    /// # Errors
    ///
    /// As [`GlobalMemory::write_u32`] for any element; nothing is written
    /// then.
    pub fn write_f32_slice(&mut self, addr: u32, values: &[f32]) -> Result<(), SimError> {
        Self::aligned(addr)?;
        let i = self.check(addr, values.len() as u64 * 4)?;
        let dst = &mut self.data[i..i + values.len() * 4];
        for (word, v) in dst.chunks_exact_mut(4).zip(values) {
            word.copy_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }
}

impl Default for GlobalMemory {
    fn default() -> GlobalMemory {
        GlobalMemory::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_transaction_aligned_and_nonzero() {
        let mut m = GlobalMemory::new();
        let a = m.alloc_zeroed(100).unwrap();
        let b = m.alloc_zeroed(4).unwrap();
        assert_ne!(a, 0);
        assert_eq!(a % 128, 0);
        assert_eq!(b % 128, 0);
        assert!(b >= a + 100);
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = GlobalMemory::new();
        let a = m.alloc_zeroed(16).unwrap();
        m.write_f32(a + 8, 3.5).unwrap();
        assert_eq!(m.read_f32(a + 8).unwrap(), 3.5);
        assert_eq!(m.read_f32(a).unwrap(), 0.0);
    }

    #[test]
    fn null_and_oob_fault() {
        let mut m = GlobalMemory::new();
        let a = m.alloc_zeroed(16).unwrap();
        assert!(m.read_u32(0).is_err());
        assert!(m.read_u32(a + 4096).is_err());
        assert!(m.read_u32(a + 2).is_err()); // misaligned
    }

    #[test]
    fn allocation_past_the_address_space_fails_and_changes_nothing() {
        let mut m = GlobalMemory::new();
        let a = m.alloc_zeroed(16).unwrap();
        let size = m.size();
        let err = m.alloc_zeroed(u32::MAX - a).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::OutOfBounds {
                    space: "global",
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(m.size(), size);
        assert_eq!(m.alloc_zeroed(16).unwrap(), a + GlobalMemory::ALIGN);
    }

    #[test]
    fn bulk_write_matches_word_writes() {
        let mut m = GlobalMemory::new();
        let a = m.alloc_zeroed(16).unwrap();
        m.write_f32_slice(a + 4, &[1.5, -2.0]).unwrap();
        assert_eq!(m.read_f32_slice(a, 4).unwrap(), vec![0.0, 1.5, -2.0, 0.0]);
        assert!(m.write_f32_slice(a + 2, &[1.0]).is_err()); // misaligned
        assert!(m.write_f32_slice(a + 128, &[1.0]).is_err()); // past the end
    }

    #[test]
    fn alloc_f32_contents() {
        let mut m = GlobalMemory::new();
        let a = m.alloc_f32(&[1.0, 2.0, -3.0]).unwrap();
        assert_eq!(m.read_f32_slice(a, 3).unwrap(), vec![1.0, 2.0, -3.0]);
    }
}
