//! The complete migratable memory image of one virtual rank.
//!
//! A rank owns: its user heap (an [`Arena`] of pinned chunks), its ULT
//! stack, its private TLS segment copy (under TLSglobals/PIEglobals), and —
//! under PIEglobals — private copies of the program's code and data
//! segments. All of it lives in pinned [`Region`]s, so migration is:
//!
//! 1. [`RankMemory::pack`] — memcpy every region into one contiguous wire
//!    buffer (this is the real byte movement whose cost Fig. 8 measures),
//! 2. ship the buffer through the (simulated) network,
//! 3. [`RankMemory::unpack_into`] — memcpy the bytes back into the rank's
//!    regions at the destination.
//!
//! Because all simulated nodes share one OS address space, the regions'
//! base addresses are identical before and after — exactly the invariant
//! Isomalloc buys with its mirrored virtual-address reservations, which is
//! what makes interior pointers (stack frames, heap links) survive.

use crate::arena::Arena;
use crate::region::{Region, RegionKind};
use bytes::{Buf, BufMut, BytesMut};
use std::fmt;

/// Identifies a non-heap region within a [`RankMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(usize);

/// Byte counts by kind for one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankMemoryStats {
    pub heap_bytes: usize,
    pub stack_bytes: usize,
    pub tls_bytes: usize,
    pub code_bytes: usize,
    pub data_bytes: usize,
}

impl RankMemoryStats {
    pub fn total(&self) -> usize {
        self.heap_bytes + self.stack_bytes + self.tls_bytes + self.code_bytes + self.data_bytes
    }
}

/// The packed wire form of a rank's memory.
///
/// `Clone` supports buddy checkpointing: a rank's image is held both at
/// its home PE and at that PE's buddy, so losing one PE cannot lose the
/// image.
#[derive(Clone)]
pub struct MigrationBuffer {
    buf: BytesMut,
}

impl MigrationBuffer {
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// FNV-1a checksum of the payload, for integrity tests.
    pub fn checksum(&self) -> u64 {
        fnv1a(&self.buf)
    }
}

/// How [`RankMemory::diff_pages_against`] should treat one region.
pub enum RegionDiffPlan {
    /// Page-chunk memcmp of the region's live bytes against the previous
    /// image — for regions with no dirty tracking (heap chunks, stacks,
    /// TLS, eager segment copies).
    Scan,
    /// The caller already knows which pages diverged (a COW page table's
    /// epoch dirty set): emit exactly these page payloads, still skipping
    /// any whose bytes equal the previous image.
    Pages {
        /// Page size the `pages` indices are expressed in.
        page_size: usize,
        /// `(page index, page bytes)` — the final page may be partial.
        pages: Vec<(u32, Vec<u8>)>,
    },
    /// Only bytes from offset `live_from` to the region's end are live
    /// (a suspended ULT stack above its saved SP): ship every
    /// `page_size` chunk overlapping them, byte-equal to `prev` or not,
    /// and nothing below. Live frames can hold host-heap addresses whose
    /// churn between captures depends on host allocator reuse; shipping
    /// the live pages unconditionally keeps the delta's page and byte
    /// counts a function of the simulation alone. Dead bytes below the
    /// SP keep their previous image contents.
    LiveTail { live_from: usize },
}

/// A sparse byte patch against a packed [`MigrationBuffer`] image — the
/// incremental-checkpoint delta. Offsets index the *packed image* (the
/// same coordinate space [`RankMemory::pack`] writes, headers included),
/// so applying a delta chain in order to a copy of the base image
/// reconstructs the newest full image byte-identically.
#[derive(Debug, Clone, Default)]
pub struct ImageDelta {
    /// `(image offset, payload)` per dirty page-chunk, ascending.
    ranges: Vec<(u64, Vec<u8>)>,
}

impl ImageDelta {
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of dirty page-chunks carried.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Total payload bytes carried (what an async drain must ship).
    pub fn bytes(&self) -> usize {
        self.ranges.iter().map(|(_, b)| b.len()).sum()
    }

    /// FNV-1a over every range's offset, length, and payload — integrity
    /// seal for the delta's trip to the buddy PE.
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for (off, bytes) in &self.ranges {
            mix(&off.to_le_bytes());
            mix(&(bytes.len() as u64).to_le_bytes());
            mix(bytes);
        }
        h
    }

    /// Whether every range lies inside an image of `image_len` bytes —
    /// checked before [`Self::apply_to`] so a bad delta can never write
    /// out of bounds.
    pub fn verify_bounds(&self, image_len: usize) -> bool {
        self.ranges
            .iter()
            .all(|(off, b)| (*off as usize).checked_add(b.len()).is_some_and(|end| end <= image_len))
    }

    /// Patch `img` in place. Caller must have checked
    /// [`Self::verify_bounds`] against `img.len()`.
    pub fn apply_to(&self, img: &mut MigrationBuffer) {
        for (off, bytes) in &self.ranges {
            let off = *off as usize;
            img.buf[off..off + bytes.len()].copy_from_slice(bytes);
        }
    }

    /// Fault-injection hook: flip one payload byte (index `at`, wrapped
    /// over the concatenated payloads). Returns `false` when the delta
    /// carries no bytes to corrupt.
    pub fn corrupt_byte(&mut self, at: usize) -> bool {
        let total = self.bytes();
        if total == 0 {
            return false;
        }
        let mut at = at % total;
        for (_, b) in &mut self.ranges {
            if at < b.len() {
                b[at] ^= 0xFF;
                return true;
            }
            at -= b.len();
        }
        false
    }
}

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

const MAGIC: u32 = 0x50_56_52_4D; // "PVRM"

/// Errors from unpacking a migration buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnpackError {
    BadMagic,
    /// The buffer's region layout does not match this rank's regions —
    /// migration must land on a memory image with identical shape.
    LayoutMismatch { expected: usize, got: usize },
    Truncated,
}

impl fmt::Display for UnpackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnpackError::BadMagic => write!(f, "migration buffer: bad magic"),
            UnpackError::LayoutMismatch { expected, got } => {
                write!(f, "migration buffer: layout mismatch ({expected} vs {got})")
            }
            UnpackError::Truncated => write!(f, "migration buffer: truncated"),
        }
    }
}

impl std::error::Error for UnpackError {}

/// Full migratable memory of one rank.
pub struct RankMemory {
    heap: Arena,
    regions: Vec<Region>,
}

impl RankMemory {
    pub fn new() -> RankMemory {
        RankMemory {
            heap: Arena::new(),
            regions: Vec::new(),
        }
    }

    pub fn with_heap(heap: Arena) -> RankMemory {
        RankMemory {
            heap,
            regions: Vec::new(),
        }
    }

    pub fn heap(&mut self) -> &mut Arena {
        &mut self.heap
    }

    pub fn heap_ref(&self) -> &Arena {
        &self.heap
    }

    /// Add a pinned region (stack, TLS segment, code/data segment copy).
    pub fn add_region(&mut self, region: Region) -> RegionId {
        self.regions.push(region);
        RegionId(self.regions.len() - 1)
    }

    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0]
    }

    pub fn region_mut(&mut self, id: RegionId) -> &mut Region {
        &mut self.regions[id.0]
    }

    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.iter()
    }

    pub fn stats(&self) -> RankMemoryStats {
        let mut s = RankMemoryStats {
            heap_bytes: self.heap.stats().capacity_bytes,
            ..Default::default()
        };
        for r in &self.regions {
            match r.kind() {
                RegionKind::HeapChunk => s.heap_bytes += r.len(),
                RegionKind::Stack => s.stack_bytes += r.len(),
                RegionKind::TlsSegment => s.tls_bytes += r.len(),
                RegionKind::CodeSegment => s.code_bytes += r.len(),
                RegionKind::DataSegment => s.data_bytes += r.len(),
            }
        }
        s
    }

    /// Total bytes a migration of this rank must move.
    pub fn migration_bytes(&self) -> usize {
        self.stats().total()
    }

    /// Migration bytes when regions failing `include` are skipped.
    pub fn migration_bytes_with(&self, include: impl Fn(RegionKind) -> bool) -> usize {
        self.all_regions()
            .filter(|r| include(r.kind()))
            .map(|r| r.len())
            .sum()
    }

    /// Serialize all rank memory into a wire buffer (real memcpy).
    pub fn pack(&self) -> MigrationBuffer {
        self.pack_with(|_| true)
    }

    /// Serialize only the regions whose kind passes `include`.
    ///
    /// This is the paper's future-work optimization "changing Isomalloc
    /// to only migrate segments of code that differ across different
    /// ranks": under PIEglobals every rank's code copy is bitwise
    /// identical (fixups land in the data segment and GOT), so migration
    /// can skip `CodeSegment` regions and rebuild them from the local
    /// image at the destination.
    pub fn pack_with(&self, include: impl Fn(RegionKind) -> bool) -> MigrationBuffer {
        self.pack_with_sources(include, |_| None)
    }

    /// [`Self::pack_with`], but a region for which `source` returns
    /// `Some(bytes)` packs those bytes instead of its live memory (padded
    /// or truncated to the region's length). This lets a COW privatizer
    /// supply a *read-through* view of its page table — template bytes
    /// for shared pages, backing bytes for private ones — so checkpoint
    /// packing never has to materialize the backing store.
    pub fn pack_with_sources(
        &self,
        include: impl Fn(RegionKind) -> bool,
        mut source: impl FnMut(&Region) -> Option<Vec<u8>>,
    ) -> MigrationBuffer {
        let total = self.migration_bytes_with(&include);
        let mut buf = BytesMut::with_capacity(total + 64 + self.region_count() * 16);
        buf.put_u32(MAGIC);
        let n = self.all_regions().filter(|r| include(r.kind())).count();
        buf.put_u64(n as u64);
        for r in self.all_regions() {
            if !include(r.kind()) {
                continue;
            }
            buf.put_u8(kind_tag(r.kind()));
            buf.put_u64(r.len() as u64);
            match source(r) {
                Some(mut bytes) => {
                    bytes.resize(r.len(), 0);
                    buf.put_slice(&bytes);
                }
                None => buf.put_slice(r.as_slice()),
            }
        }
        pvr_trace::emit(pvr_trace::EventKind::RegionCopy {
            dir: pvr_trace::CopyDir::Pack,
            regions: n as u32,
            bytes: buf.len() as u64,
        });
        MigrationBuffer { buf }
    }

    /// Diff this rank's live memory against a previously packed image,
    /// producing the sparse [`ImageDelta`] that turns `prev` into the
    /// image [`Self::pack`] would produce now.
    ///
    /// `plan_for` chooses per region: [`RegionDiffPlan::Scan`] memcmps
    /// the live bytes in `page_size` chunks; [`RegionDiffPlan::Pages`]
    /// supplies an explicit dirty-page list (with read-through payloads),
    /// so the region's live memory is never touched. Either way, chunks
    /// byte-equal to `prev` are skipped — stale dirty stamps cost compare
    /// time, never delta bytes. [`RegionDiffPlan::LiveTail`] instead
    /// ships the chunks covering the region's live tail as they are.
    ///
    /// Returns `None` when `prev`'s layout no longer matches this rank's
    /// regions (the heap grew or shrank a chunk, a region resized): the
    /// caller must fall back to a fresh base image.
    pub fn diff_pages_against(
        &self,
        prev: &MigrationBuffer,
        page_size: usize,
        mut plan_for: impl FnMut(&Region) -> RegionDiffPlan,
    ) -> Option<ImageDelta> {
        assert!(page_size > 0, "diff page size must be positive");
        let b: &[u8] = &prev.buf;
        if b.len() < 12 {
            return None;
        }
        let mut hdr = b;
        if hdr.get_u32() != MAGIC {
            return None;
        }
        if hdr.get_u64() as usize != self.all_regions().count() {
            return None;
        }
        let mut off = 12usize;
        let mut ranges: Vec<(u64, Vec<u8>)> = Vec::new();
        for r in self.all_regions() {
            if b.len() < off + 9 {
                return None;
            }
            let mut rh = &b[off..off + 9];
            let tag = rh.get_u8();
            let len = rh.get_u64() as usize;
            if tag != kind_tag(r.kind()) || len != r.len() {
                return None;
            }
            let body = off + 9;
            if b.len() < body + len {
                return None;
            }
            let prev_bytes = &b[body..body + len];
            match plan_for(r) {
                RegionDiffPlan::Scan => {
                    let cur = r.as_slice();
                    let mut p = 0usize;
                    while p < len {
                        let n = page_size.min(len - p);
                        if cur[p..p + n] != prev_bytes[p..p + n] {
                            ranges.push(((body + p) as u64, cur[p..p + n].to_vec()));
                        }
                        p += n;
                    }
                }
                RegionDiffPlan::LiveTail { live_from } => {
                    let cur = r.as_slice();
                    let mut p = live_from.min(len) / page_size * page_size;
                    while p < len {
                        let n = page_size.min(len - p);
                        ranges.push(((body + p) as u64, cur[p..p + n].to_vec()));
                        p += n;
                    }
                }
                RegionDiffPlan::Pages { page_size: ps, pages } => {
                    for (page, bytes) in pages {
                        let p = (page as usize).checked_mul(ps)?;
                        if p.checked_add(bytes.len())? > len {
                            return None;
                        }
                        if bytes[..] != prev_bytes[p..p + bytes.len()] {
                            ranges.push(((body + p) as u64, bytes));
                        }
                    }
                }
            }
            off = body + len;
        }
        Some(ImageDelta { ranges })
    }

    /// Check that `buf` can be unpacked into this rank's regions
    /// **without mutating anything**: header magic, region count, and
    /// every region's kind/size/byte coverage are validated exactly as
    /// [`unpack_into`](RankMemory::unpack_into) would. A restore that
    /// verifies every rank first and only then unpacks is failure-atomic
    /// — verification failure leaves all memory untouched.
    pub fn verify_layout(&self, buf: &MigrationBuffer) -> Result<(), UnpackError> {
        let mut b: &[u8] = &buf.buf;
        if b.remaining() < 12 {
            return Err(UnpackError::Truncated);
        }
        if b.get_u32() != MAGIC {
            return Err(UnpackError::BadMagic);
        }
        let expected = self.all_regions().count();
        let n = b.get_u64() as usize;
        if n != expected {
            return Err(UnpackError::LayoutMismatch { expected, got: n });
        }
        for r in self.all_regions() {
            if b.remaining() < 9 {
                return Err(UnpackError::Truncated);
            }
            let got_tag = b.get_u8();
            let got_len = b.get_u64() as usize;
            if got_tag != kind_tag(r.kind()) || got_len != r.len() {
                return Err(UnpackError::LayoutMismatch {
                    expected: r.len(),
                    got: got_len,
                });
            }
            if b.remaining() < got_len {
                return Err(UnpackError::Truncated);
            }
            b.advance(got_len);
        }
        Ok(())
    }

    /// Copy a packed buffer's bytes back into this rank's regions.
    ///
    /// The region layout (count, kinds, sizes, order) must match what was
    /// packed; migration in `pvr` always unpacks into the same logical
    /// memory image whose ownership travelled with the message.
    pub fn unpack_into(&mut self, buf: &MigrationBuffer) -> Result<(), UnpackError> {
        self.unpack_into_with(buf, |_| true)
    }

    /// Unpack a buffer produced by [`RankMemory::pack_with`] using the
    /// same `include` filter (skipped regions keep their current bytes).
    pub fn unpack_into_with(
        &mut self,
        buf: &MigrationBuffer,
        include: impl Fn(RegionKind) -> bool,
    ) -> Result<(), UnpackError> {
        let mut b: &[u8] = &buf.buf;
        if b.remaining() < 12 {
            return Err(UnpackError::Truncated);
        }
        if b.get_u32() != MAGIC {
            return Err(UnpackError::BadMagic);
        }
        let expected = self
            .all_regions()
            .filter(|r| include(r.kind()))
            .count();
        let n = b.get_u64() as usize;
        if n != expected {
            return Err(UnpackError::LayoutMismatch { expected, got: n });
        }
        // Collect target (ptr, len, kind) triples first to appease the
        // borrow checker; the pointers are pinned so this is sound.
        let targets: Vec<(*mut u8, usize, u8)> = self
            .all_regions()
            .filter(|r| include(r.kind()))
            .map(|r| (r.base_mut(), r.len(), kind_tag(r.kind())))
            .collect();
        for (ptr, len, tag) in targets {
            if b.remaining() < 9 {
                return Err(UnpackError::Truncated);
            }
            let got_tag = b.get_u8();
            let got_len = b.get_u64() as usize;
            if got_tag != tag || got_len != len {
                return Err(UnpackError::LayoutMismatch {
                    expected: len,
                    got: got_len,
                });
            }
            if b.remaining() < len {
                return Err(UnpackError::Truncated);
            }
            unsafe {
                std::ptr::copy_nonoverlapping(b.chunk().as_ptr(), ptr, len.min(b.chunk().len()));
                // BytesMut from a contiguous Packer is one chunk, but be
                // robust to segmented buffers:
                if b.chunk().len() < len {
                    let mut copied = b.chunk().len();
                    b.advance(copied);
                    while copied < len {
                        let take = (len - copied).min(b.chunk().len());
                        std::ptr::copy_nonoverlapping(
                            b.chunk().as_ptr(),
                            ptr.add(copied),
                            take,
                        );
                        copied += take;
                        b.advance(take);
                    }
                } else {
                    b.advance(len);
                }
            }
        }
        pvr_trace::emit(pvr_trace::EventKind::RegionCopy {
            dir: pvr_trace::CopyDir::Unpack,
            regions: n as u32,
            bytes: buf.buf.len() as u64,
        });
        Ok(())
    }

    fn region_count(&self) -> usize {
        self.heap.regions().count() + self.regions.len()
    }

    fn all_regions(&self) -> impl Iterator<Item = &Region> {
        self.heap.regions().chain(self.regions.iter())
    }
}

impl Default for RankMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for RankMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RankMemory")
            .field("stats", &self.stats())
            .finish()
    }
}

fn kind_tag(k: RegionKind) -> u8 {
    match k {
        RegionKind::HeapChunk => 0,
        RegionKind::Stack => 1,
        RegionKind::TlsSegment => 2,
        RegionKind::CodeSegment => 3,
        RegionKind::DataSegment => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rank() -> RankMemory {
        let mut rm = RankMemory::new();
        let p = rm.heap().alloc(1000, 8).unwrap();
        unsafe { p.as_mut_slice().fill(0x5A) };
        let mut stack = Region::new_zeroed(RegionKind::Stack, 8192);
        stack.as_mut_slice()[100..200].fill(0xC3);
        rm.add_region(stack);
        rm.add_region(Region::from_bytes(RegionKind::TlsSegment, &[1, 2, 3, 4]));
        rm
    }

    #[test]
    fn stats_by_kind() {
        let rm = sample_rank();
        let s = rm.stats();
        assert!(s.heap_bytes >= 1000);
        assert_eq!(s.stack_bytes, 8192);
        assert_eq!(s.tls_bytes, 4);
        assert_eq!(s.code_bytes, 0);
        assert_eq!(s.total(), rm.migration_bytes());
    }

    #[test]
    fn pack_unpack_roundtrip_preserves_bytes() {
        let mut rm = sample_rank();
        let before = rm.pack();
        let sum_before = before.checksum();
        // scribble over the memory (simulates the bytes being "elsewhere")
        let stack_id = RegionId(0);
        rm.region_mut(stack_id).as_mut_slice().fill(0);
        // restore from the packed image
        rm.unpack_into(&before).unwrap();
        let after = rm.pack();
        assert_eq!(after.checksum(), sum_before);
        assert_eq!(rm.region(stack_id).as_slice()[150], 0xC3);
    }

    #[test]
    fn addresses_stable_across_roundtrip() {
        let mut rm = sample_rank();
        let base_before = rm.region(RegionId(0)).base() as usize;
        let img = rm.pack();
        rm.unpack_into(&img).unwrap();
        assert_eq!(rm.region(RegionId(0)).base() as usize, base_before);
    }

    #[test]
    fn layout_mismatch_detected() {
        let rm1 = sample_rank();
        let img = rm1.pack();
        let mut rm2 = RankMemory::new();
        rm2.add_region(Region::new_zeroed(RegionKind::Stack, 8192));
        let err = rm2.unpack_into(&img).unwrap_err();
        assert!(matches!(err, UnpackError::LayoutMismatch { .. }));
    }

    #[test]
    fn truncated_detected() {
        let rm = sample_rank();
        let img = rm.pack();
        let cut = MigrationBuffer {
            buf: BytesMut::from(&img.as_slice()[..img.len() / 2]),
        };
        let mut rm = sample_rank();
        let err = rm.unpack_into(&cut).unwrap_err();
        assert!(matches!(
            err,
            UnpackError::Truncated | UnpackError::LayoutMismatch { .. }
        ));
    }

    #[test]
    fn bad_magic_detected() {
        let mut rm = sample_rank();
        let mut img = rm.pack();
        img.buf[0] ^= 0xFF;
        assert_eq!(rm.unpack_into(&img).unwrap_err(), UnpackError::BadMagic);
    }

    #[test]
    fn verify_layout_matches_unpack_judgement() {
        let mut rm = sample_rank();
        let img = rm.pack();
        assert_eq!(rm.verify_layout(&img), Ok(()));
        // verification does not consume or mutate anything
        assert_eq!(rm.verify_layout(&img), Ok(()));
        let cut = MigrationBuffer {
            buf: BytesMut::from(&img.as_slice()[..img.len() - 1]),
        };
        assert!(rm.verify_layout(&cut).is_err());
        let mut bad = img.clone();
        bad.buf[0] ^= 0xFF;
        assert_eq!(rm.verify_layout(&bad), Err(UnpackError::BadMagic));
        // a foreign layout is rejected without touching memory
        let other = RankMemory::new().pack();
        assert!(matches!(
            rm.verify_layout(&other),
            Err(UnpackError::LayoutMismatch { .. })
        ));
        // memory unchanged: unpack of the good image still succeeds
        rm.unpack_into(&img).unwrap();
    }

    #[test]
    fn cloned_buffer_is_identical() {
        let rm = sample_rank();
        let img = rm.pack();
        let copy = img.clone();
        assert_eq!(copy.len(), img.len());
        assert_eq!(copy.checksum(), img.checksum());
    }

    #[test]
    fn diff_apply_reconstructs_new_image_bit_identically() {
        let mut rm = sample_rank();
        let base = rm.pack();
        // mutate two spots: one in the stack region, one in the heap chunk
        rm.region_mut(RegionId(0)).as_mut_slice()[300] = 0x77;
        let heap_base = rm.heap_ref().regions().next().unwrap().base_mut();
        unsafe { heap_base.add(17).write(0x99) };
        let delta = rm
            .diff_pages_against(&base, 256, |_| RegionDiffPlan::Scan)
            .expect("layout unchanged");
        assert!(delta.range_count() >= 2, "both dirty chunks found");
        assert!(delta.bytes() < base.len(), "delta is sparse");
        assert!(delta.verify_bounds(base.len()));
        let mut rebuilt = base.clone();
        delta.apply_to(&mut rebuilt);
        let now = rm.pack();
        assert_eq!(rebuilt.checksum(), now.checksum(), "base + delta == fresh pack");
        assert_eq!(rebuilt.as_slice(), now.as_slice());
    }

    #[test]
    fn diff_of_unchanged_memory_is_empty() {
        let rm = sample_rank();
        let base = rm.pack();
        let delta = rm
            .diff_pages_against(&base, 128, |_| RegionDiffPlan::Scan)
            .unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.bytes(), 0);
    }

    #[test]
    fn diff_detects_layout_change() {
        let mut rm = sample_rank();
        let base = rm.pack();
        rm.add_region(Region::from_bytes(RegionKind::TlsSegment, &[9, 9]));
        assert!(
            rm.diff_pages_against(&base, 128, |_| RegionDiffPlan::Scan).is_none(),
            "grown layout must force a fresh base"
        );
    }

    #[test]
    fn diff_live_tail_ships_live_pages_as_is_and_skips_dead_ones() {
        let mut rm = sample_rank();
        let base = rm.pack();
        let stack_base = rm.region(RegionId(0)).base() as usize;
        // a write below the live range is dead: never shipped
        rm.region_mut(RegionId(0)).as_mut_slice()[0] = 0xEE;
        // live range [8092, 8192) straddles pages 126 and 127 (64 B)
        let live_from = 8192 - 100;
        let delta = rm
            .diff_pages_against(&base, 64, |r| {
                if r.base() as usize == stack_base {
                    RegionDiffPlan::LiveTail { live_from }
                } else {
                    RegionDiffPlan::Scan
                }
            })
            .unwrap();
        // both live pages ship although their bytes did not change
        assert_eq!(delta.range_count(), 2);
        assert_eq!(delta.bytes(), 128);
        let mut img = base.clone();
        delta.apply_to(&mut img);
        assert_eq!(
            img.as_slice(),
            base.as_slice(),
            "live pages carried unchanged bytes"
        );
    }

    #[test]
    fn diff_pages_plan_skips_byte_equal_pages() {
        let mut rm = sample_rank();
        let base = rm.pack();
        rm.region_mut(RegionId(0)).as_mut_slice()[0] = 0xEE;
        let stack_base = rm.region(RegionId(0)).base() as usize;
        let delta = rm
            .diff_pages_against(&base, 64, |r| {
                if r.base() as usize == stack_base {
                    // page 0 really changed; page 1 is listed but equal
                    let p0 = r.as_slice()[..64].to_vec();
                    let p1 = r.as_slice()[64..128].to_vec();
                    RegionDiffPlan::Pages { page_size: 64, pages: vec![(0, p0), (1, p1)] }
                } else {
                    RegionDiffPlan::Scan
                }
            })
            .unwrap();
        assert_eq!(delta.range_count(), 1, "byte-equal listed page skipped");
        let mut rebuilt = base.clone();
        delta.apply_to(&mut rebuilt);
        assert_eq!(rebuilt.checksum(), rm.pack().checksum());
    }

    #[test]
    fn delta_checksum_and_corruption_hook() {
        let mut rm = sample_rank();
        let base = rm.pack();
        rm.region_mut(RegionId(0)).as_mut_slice()[10] = 0xAB;
        let mut delta = rm
            .diff_pages_against(&base, 256, |_| RegionDiffPlan::Scan)
            .unwrap();
        let sum = delta.checksum();
        assert!(delta.corrupt_byte(3));
        assert_ne!(delta.checksum(), sum, "one flipped byte must change the seal");
        let mut empty = ImageDelta::default();
        assert!(!empty.corrupt_byte(0), "nothing to corrupt in an empty delta");
        assert!(empty.verify_bounds(0));
    }

    #[test]
    fn delta_out_of_bounds_detected() {
        let mut rm = sample_rank();
        let base = rm.pack();
        rm.region_mut(RegionId(0)).as_mut_slice()[10] = 0xAB;
        let delta = rm
            .diff_pages_against(&base, 256, |_| RegionDiffPlan::Scan)
            .unwrap();
        assert!(delta.verify_bounds(base.len()));
        assert!(!delta.verify_bounds(12), "truncated image must fail bounds");
    }

    #[test]
    fn pack_with_sources_overrides_region_bytes() {
        let rm = sample_rank();
        let tls_base = rm.region(RegionId(1)).base() as usize;
        let packed = rm.pack_with_sources(
            |_| true,
            |r| (r.base() as usize == tls_base).then(|| vec![0xFE]),
        );
        // override is padded to the region's length and lands in place of
        // the live bytes; everything else packs as usual
        let normal = rm.pack();
        assert_eq!(packed.len(), normal.len());
        assert_ne!(packed.checksum(), normal.checksum());
        let tail = &packed.as_slice()[packed.len() - 4..];
        assert_eq!(tail, &[0xFE, 0, 0, 0], "override padded with zeros");
    }

    #[test]
    fn migration_bytes_grow_with_heap() {
        let mut rm = RankMemory::new();
        let before = rm.migration_bytes();
        let _ = rm.heap().alloc(10 << 20, 8).unwrap();
        assert!(rm.migration_bytes() >= before + (10 << 20));
    }
}

#[cfg(test)]
mod filter_tests {
    use super::*;

    fn rank_with_code() -> RankMemory {
        let mut rm = RankMemory::new();
        let p = rm.heap().alloc(512, 8).unwrap();
        unsafe { p.as_mut_slice().fill(0x11) };
        rm.add_region(Region::from_bytes(RegionKind::Stack, &[0x22; 4096]));
        rm.add_region(Region::from_bytes(RegionKind::CodeSegment, &[0x33; 1 << 20]));
        rm.add_region(Region::from_bytes(RegionKind::DataSegment, &[0x44; 256]));
        rm
    }

    #[test]
    fn code_dedup_pack_is_smaller() {
        let rm = rank_with_code();
        let full = rm.pack();
        let no_code = rm.pack_with(|k| k != RegionKind::CodeSegment);
        assert!(full.len() >= no_code.len() + (1 << 20));
        assert_eq!(
            rm.migration_bytes_with(|k| k != RegionKind::CodeSegment) + (1 << 20),
            rm.migration_bytes()
        );
    }

    #[test]
    fn filtered_roundtrip_preserves_included_and_skips_excluded() {
        let mut rm = rank_with_code();
        let snapshot = rm.pack_with(|k| k != RegionKind::CodeSegment);
        // scribble over everything
        let ids: Vec<_> = (0..3).map(RegionId).collect();
        for id in &ids {
            rm.region_mut(*id).as_mut_slice().fill(0xFF);
        }
        rm.unpack_into_with(&snapshot, |k| k != RegionKind::CodeSegment)
            .unwrap();
        // stack and data restored; code untouched by the unpack
        assert_eq!(rm.region(RegionId(0)).as_slice()[0], 0x22);
        assert_eq!(rm.region(RegionId(2)).as_slice()[0], 0x44);
        assert_eq!(rm.region(RegionId(1)).as_slice()[0], 0xFF);
    }

    #[test]
    fn filter_mismatch_detected() {
        let mut rm = rank_with_code();
        let no_code = rm.pack_with(|k| k != RegionKind::CodeSegment);
        // unpacking with the full filter must notice the missing region
        assert!(matches!(
            rm.unpack_into(&no_code),
            Err(UnpackError::LayoutMismatch { .. })
        ));
    }
}
