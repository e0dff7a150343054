//! Address-space view of a linked image (plus optional shared library).

use bomblab_isa::image::{layout, Image};
use std::collections::BTreeMap;

/// A contiguous mapped segment.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Base address.
    pub base: u64,
    /// Raw bytes.
    pub bytes: Vec<u8>,
    /// Whether this segment holds code.
    pub is_text: bool,
}

impl Segment {
    fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.bytes.len() as u64
    }
}

/// Coarse memory regions used by the value-set analysis for store/load
/// reasoning and region-level taint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Region {
    /// Executable or library text/data (the statically initialized image).
    Static,
    /// The stack.
    Stack,
    /// The argv block (attacker-controlled input).
    Argv,
    /// Anything else (heap, stubs, unmapped).
    Other,
}

/// The analyzed address space: text + data segments and symbol names.
#[derive(Debug, Clone)]
pub struct CodeMap {
    segs: Vec<Segment>,
    symbols: BTreeMap<u64, String>,
}

impl CodeMap {
    /// Builds the map from a linked executable and its optional library.
    #[must_use]
    pub fn new(exe: &Image, lib: Option<&Image>) -> CodeMap {
        let mut segs = vec![
            Segment {
                base: exe.text_base,
                bytes: exe.text.clone(),
                is_text: true,
            },
            Segment {
                base: exe.data_base,
                bytes: exe.data.clone(),
                is_text: false,
            },
        ];
        let mut symbols: BTreeMap<u64, String> = BTreeMap::new();
        for (name, &addr) in &exe.symbols {
            symbols.entry(addr).or_insert_with(|| name.clone());
        }
        if let Some(l) = lib {
            segs.push(Segment {
                base: l.text_base,
                bytes: l.text.clone(),
                is_text: true,
            });
            segs.push(Segment {
                base: l.data_base,
                bytes: l.data.clone(),
                is_text: false,
            });
            for (name, &addr) in &l.symbols {
                symbols.entry(addr).or_insert_with(|| name.clone());
            }
        }
        CodeMap { segs, symbols }
    }

    /// Whether `addr` falls inside a text segment.
    #[must_use]
    pub fn in_text(&self, addr: u64) -> bool {
        self.segs.iter().any(|s| s.is_text && s.contains(addr))
    }

    /// Whether `addr` falls inside any static segment (text or data).
    #[must_use]
    pub fn in_static(&self, addr: u64) -> bool {
        self.segs.iter().any(|s| s.contains(addr))
    }

    /// The bytes from `addr` to the end of its text segment.
    #[must_use]
    pub fn text_at(&self, addr: u64) -> Option<&[u8]> {
        self.segs
            .iter()
            .find(|s| s.is_text && s.contains(addr))
            .map(|s| &s.bytes[(addr - s.base) as usize..])
    }

    /// The lowest text address at or above `addr`, if any: `addr` itself
    /// when it is text, else the base of the next text segment.
    #[must_use]
    pub(crate) fn next_text_at_or_after(&self, addr: u64) -> Option<u64> {
        self.segs
            .iter()
            .filter(|s| s.is_text && s.base + s.bytes.len() as u64 > addr)
            .map(|s| s.base.max(addr))
            .min()
    }

    /// A map of raw segments with no symbols, for unit tests.
    #[cfg(test)]
    pub(crate) fn from_segments(segs: Vec<Segment>) -> CodeMap {
        CodeMap {
            segs,
            symbols: BTreeMap::new(),
        }
    }

    /// Reads `size` (1/2/4/8) little-endian bytes of static data at `addr`.
    #[must_use]
    pub fn read_uint(&self, addr: u64, size: u64) -> Option<u64> {
        let s = self.segs.iter().find(|s| s.contains(addr))?;
        let off = (addr - s.base) as usize;
        let end = off.checked_add(size as usize)?;
        if end > s.bytes.len() {
            return None;
        }
        let mut v = 0u64;
        for (i, &b) in s.bytes[off..end].iter().enumerate() {
            v |= u64::from(b) << (8 * i);
        }
        Some(v)
    }

    /// The symbol at exactly `addr`, or a synthesized `fn_<addr>` name.
    #[must_use]
    pub fn name_of(&self, addr: u64) -> String {
        self.symbols
            .get(&addr)
            .cloned()
            .unwrap_or_else(|| format!("fn_{addr:#x}"))
    }

    /// All symbols pointing into text, as CFG roots.
    #[must_use]
    pub fn text_symbols(&self) -> BTreeMap<u64, String> {
        self.symbols
            .iter()
            .filter(|(&a, _)| self.in_text(a))
            .map(|(&a, n)| (a, n.clone()))
            .collect()
    }

    /// The coarse region containing `addr`.
    #[must_use]
    pub fn region_of(&self, addr: u64) -> Region {
        if self.in_static(addr) {
            Region::Static
        } else if (layout::STACK_TOP - 16 * layout::STACK_STRIDE..layout::STACK_TOP).contains(&addr)
        {
            // Main stack or one of the spawned-thread stacks below it.
            Region::Stack
        } else if (layout::ARGV_BASE..layout::ARGV_BASE + layout::ARGV_SIZE).contains(&addr) {
            Region::Argv
        } else {
            Region::Other
        }
    }
}
