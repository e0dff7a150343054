//! Sparse paged memory with explicit mapping.
//!
//! Accesses to unmapped addresses fault, which is how the VM models the
//! paper's "bad memory" hardware trap.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Page size in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// A memory access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting address.
    pub addr: u64,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memory fault at {:#x}", self.addr)
    }
}

impl std::error::Error for MemFault {}

/// One page of bytes.
type Page = [u8; PAGE_SIZE as usize];

/// What every mapped page holds until its first write.
static ZERO_PAGE: Page = [0; PAGE_SIZE as usize];

/// Sparse paged memory.
///
/// Pages must be [`map`](Memory::map)ped before use; reads and writes to
/// unmapped pages return [`MemFault`]. Mapping records a range and
/// allocates nothing: a mapped page reads as [`ZERO_PAGE`] until its
/// first write gives it storage of its own. Written pages are
/// copy-on-write, so `Clone` shares them until either copy writes one;
/// `Clone` is still a logical deep copy, which is how `fork` duplicates an
/// address space.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    /// Mapped page-number ranges `[first, last]`, sorted, disjoint and
    /// not adjacent.
    mapped: Vec<(u64, u64)>,
    /// Every mapped page written so far.
    pages: BTreeMap<u64, Arc<Page>>,
}

impl Memory {
    /// Creates empty (fully unmapped) memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Maps (zero-fills) all pages covering `[base, base + len)`.
    ///
    /// Mapping an already-mapped page leaves its contents intact.
    pub fn map(&mut self, base: u64, len: u64) {
        if len == 0 {
            return;
        }
        let (mut first, mut last) = (base / PAGE_SIZE, (base + len - 1) / PAGE_SIZE);
        // Absorb every range the new one overlaps or touches.
        self.mapped.retain(|&(a, b)| {
            let touches = a <= last.saturating_add(1) && first <= b.saturating_add(1);
            if touches {
                (first, last) = (first.min(a), last.max(b));
            }
            !touches
        });
        let at = self.mapped.partition_point(|&(a, _)| a < first);
        self.mapped.insert(at, (first, last));
    }

    /// The mapped range holding page number `page`, if any.
    fn range_of(&self, page: u64) -> Option<(u64, u64)> {
        let at = self.mapped.partition_point(|&(_, b)| b < page);
        self.mapped.get(at).copied().filter(|&(a, _)| a <= page)
    }

    /// Whether every byte of `[addr, addr + len)` is mapped.
    pub fn is_mapped(&self, addr: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let Some(end) = addr.checked_add(len - 1) else {
            return false;
        };
        self.range_of(addr / PAGE_SIZE)
            .is_some_and(|(_, last)| end / PAGE_SIZE <= last)
    }

    /// The page holding `addr`.
    fn page(&self, addr: u64) -> Result<&Page, MemFault> {
        let page = addr / PAGE_SIZE;
        match self.pages.get(&page) {
            Some(p) => Ok(p),
            None if self.range_of(page).is_some() => Ok(&ZERO_PAGE),
            None => Err(MemFault { addr }),
        }
    }

    /// The page holding `addr`, given storage on its first write and
    /// unshared first if a clone still refers to it.
    fn page_mut(&mut self, addr: u64) -> Result<&mut Page, MemFault> {
        let page = addr / PAGE_SIZE;
        if !self.pages.contains_key(&page) {
            if self.range_of(page).is_none() {
                return Err(MemFault { addr });
            }
            self.pages.insert(page, Arc::new(ZERO_PAGE));
        }
        Ok(Arc::make_mut(
            self.pages.get_mut(&page).expect("inserted above"),
        ))
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Faults if the address is unmapped.
    pub fn read_u8(&self, addr: u64) -> Result<u8, MemFault> {
        Ok(self.page(addr)?[(addr % PAGE_SIZE) as usize])
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Faults if the address is unmapped.
    pub fn write_u8(&mut self, addr: u64, val: u8) -> Result<(), MemFault> {
        self.page_mut(addr)?[(addr % PAGE_SIZE) as usize] = val;
        Ok(())
    }

    /// Reads a little-endian unsigned value of `width` bytes (1, 2, 4 or 8).
    ///
    /// # Errors
    ///
    /// Faults if any byte is unmapped.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    pub fn read_uint(&self, addr: u64, width: u8) -> Result<u64, MemFault> {
        assert!(matches!(width, 1 | 2 | 4 | 8), "bad access width {width}");
        let mut v = 0u64;
        for i in 0..width as u64 {
            v |= (self.read_u8(addr.wrapping_add(i))? as u64) << (8 * i);
        }
        Ok(v)
    }

    /// Writes the low `width` bytes of `val` little-endian.
    ///
    /// # Errors
    ///
    /// Faults if any byte is unmapped.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    pub fn write_uint(&mut self, addr: u64, val: u64, width: u8) -> Result<(), MemFault> {
        assert!(matches!(width, 1 | 2 | 4 | 8), "bad access width {width}");
        self.write_bytes(addr, &val.to_le_bytes()[..width as usize])
    }

    /// Reads `len` bytes.
    ///
    /// # Errors
    ///
    /// Faults if any byte is unmapped.
    pub fn read_bytes(&self, addr: u64, len: u64) -> Result<Vec<u8>, MemFault> {
        let mut out = Vec::with_capacity(len.min(1 << 20) as usize);
        for i in 0..len {
            out.push(self.read_u8(addr.wrapping_add(i))?);
        }
        Ok(out)
    }

    /// Writes all of `bytes` starting at `addr`, one page at a time. A
    /// fault leaves the bytes before the first unmapped page written.
    ///
    /// # Errors
    ///
    /// Faults if any byte is unmapped.
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) -> Result<(), MemFault> {
        while !bytes.is_empty() {
            let off = (addr % PAGE_SIZE) as usize;
            let n = bytes.len().min(PAGE_SIZE as usize - off);
            self.page_mut(addr)?[off..off + n].copy_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            addr = addr.wrapping_add(n as u64);
        }
        Ok(())
    }

    /// Reads a NUL-terminated string of at most `max` bytes (excluding NUL).
    ///
    /// # Errors
    ///
    /// Faults on unmapped bytes; returns the bytes read so far is *not*
    /// attempted — the whole read fails.
    pub fn read_cstr(&self, addr: u64, max: u64) -> Result<Vec<u8>, MemFault> {
        let mut out = Vec::new();
        for i in 0..max {
            let b = self.read_u8(addr.wrapping_add(i))?;
            if b == 0 {
                break;
            }
            out.push(b);
        }
        Ok(out)
    }

    /// Number of mapped pages (for tests and diagnostics).
    pub fn mapped_pages(&self) -> usize {
        self.mapped.iter().map(|&(a, b)| (b - a + 1) as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_access_faults() {
        let mut m = Memory::new();
        assert_eq!(m.read_u8(0x1000), Err(MemFault { addr: 0x1000 }));
        assert_eq!(m.write_u8(0x1000, 1), Err(MemFault { addr: 0x1000 }));
        m.map(0x1000, 1);
        assert_eq!(m.read_u8(0x1000), Ok(0));
        assert!(m.write_u8(0x1000, 7).is_ok());
        assert_eq!(m.read_u8(0x1000), Ok(7));
    }

    #[test]
    fn map_is_page_granular_and_idempotent() {
        let mut m = Memory::new();
        m.map(0x1ffe, 4); // spans two pages
        assert_eq!(m.mapped_pages(), 2);
        assert!(m.is_mapped(0x1000, PAGE_SIZE));
        assert!(m.is_mapped(0x2000, 1));
        assert!(!m.is_mapped(0x3000, 1));
        m.write_u8(0x1800, 9).unwrap();
        m.map(0x1000, 16); // re-map must not clear
        assert_eq!(m.read_u8(0x1800), Ok(9));
    }

    #[test]
    fn uint_round_trips_all_widths() {
        let mut m = Memory::new();
        m.map(0x0, 64);
        for &w in &[1u8, 2, 4, 8] {
            let val = 0x1122_3344_5566_7788u64;
            m.write_uint(8, val, w).unwrap();
            let mask = if w == 8 { u64::MAX } else { (1 << (8 * w)) - 1 };
            assert_eq!(m.read_uint(8, w).unwrap(), val & mask);
        }
    }

    #[test]
    fn values_are_little_endian() {
        let mut m = Memory::new();
        m.map(0, 16);
        m.write_uint(0, 0x0102_0304, 4).unwrap();
        assert_eq!(m.read_u8(0).unwrap(), 4);
        assert_eq!(m.read_u8(3).unwrap(), 1);
    }

    #[test]
    fn cross_page_access_works_when_both_mapped() {
        let mut m = Memory::new();
        m.map(0x1000, 2 * PAGE_SIZE);
        m.write_uint(0x1fff, 0xAABB, 2).unwrap();
        assert_eq!(m.read_uint(0x1fff, 2).unwrap(), 0xAABB);
    }

    #[test]
    fn cstr_stops_at_nul_or_max() {
        let mut m = Memory::new();
        m.map(0, 32);
        m.write_bytes(0, b"hello\0junk").unwrap();
        assert_eq!(m.read_cstr(0, 32).unwrap(), b"hello");
        assert_eq!(m.read_cstr(0, 3).unwrap(), b"hel");
    }

    #[test]
    fn clone_is_a_deep_copy() {
        let mut a = Memory::new();
        a.map(0, 8);
        a.write_u8(0, 1).unwrap();
        let mut b = a.clone();
        b.write_u8(0, 2).unwrap();
        assert_eq!(a.read_u8(0).unwrap(), 1);
        assert_eq!(b.read_u8(0).unwrap(), 2);
    }

    #[test]
    fn a_clone_and_its_source_are_isolated_both_ways() {
        let mut a = Memory::new();
        a.map(0, 3 * PAGE_SIZE);
        a.write_bytes(PAGE_SIZE - 2, &[1, 2, 3, 4]).unwrap();
        let mut b = a.clone();
        // The source writes after the clone: the clone keeps the old bytes.
        a.write_u8(PAGE_SIZE, 9).unwrap();
        assert_eq!(b.read_u8(PAGE_SIZE).unwrap(), 3);
        // The clone writes: the source keeps its bytes, on a page neither
        // had written before as well.
        b.write_uint(PAGE_SIZE - 1, 0x0807, 2).unwrap();
        b.write_u8(2 * PAGE_SIZE + 5, 6).unwrap();
        assert_eq!(a.read_bytes(PAGE_SIZE - 2, 4).unwrap(), [1, 2, 9, 4]);
        assert_eq!(a.read_u8(2 * PAGE_SIZE + 5).unwrap(), 0);
        assert_eq!(b.read_bytes(PAGE_SIZE - 2, 4).unwrap(), [1, 7, 8, 4]);
        assert_eq!(b.read_u8(2 * PAGE_SIZE + 5).unwrap(), 6);
    }

    #[test]
    fn an_untouched_mapped_page_reads_zero() {
        let mut m = Memory::new();
        m.map(0x10_0000, 1 << 20);
        assert_eq!(m.mapped_pages(), 256);
        assert!(m.is_mapped(0x10_0000, 1 << 20));
        assert_eq!(m.read_uint(0x10_0000 + 4093, 8).unwrap(), 0);
        assert_eq!(m.read_cstr(0x18_0000, 16).unwrap(), b"");
        // A write to one page leaves the others shared and zero.
        m.write_u8(0x10_0000, 1).unwrap();
        assert_eq!(m.read_u8(0x10_1000).unwrap(), 0);
        assert_eq!(m.mapped_pages(), 256);
    }

    #[test]
    fn a_write_across_an_unmapped_page_faults_after_the_mapped_part() {
        let mut m = Memory::new();
        m.map(0, PAGE_SIZE);
        assert_eq!(
            m.write_bytes(PAGE_SIZE - 2, &[1, 2, 3]),
            Err(MemFault { addr: PAGE_SIZE })
        );
        assert_eq!(m.read_bytes(PAGE_SIZE - 2, 2).unwrap(), [1, 2]);
    }

    #[test]
    fn is_mapped_handles_overflowing_ranges() {
        let m = Memory::new();
        assert!(!m.is_mapped(u64::MAX, 2));
        assert!(m.is_mapped(123, 0));
    }
}
