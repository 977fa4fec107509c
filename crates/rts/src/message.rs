//! Runtime-level messages between ranks.
//!
//! The RTS transports opaque payloads addressed by rank; MPI semantics
//! (communicators, tag matching, wildcards, collectives) are layered on
//! top in `pvr-ampi`, *inside* the receiving rank — which is also how the
//! tag survives migration: messages are addressed to ranks, not PEs.

use crate::RankId;
use bytes::Bytes;

#[derive(Debug, Clone)]
pub struct RtsMessage {
    pub from: RankId,
    pub to: RankId,
    /// Opaque to the RTS; `pvr-ampi` packs its envelope here.
    pub tag: u64,
    pub payload: Bytes,
    /// Per-(src,dst)-pair sequence number assigned by the reliable
    /// delivery layer (0 on the fault-free fast path, where it is
    /// unused).
    pub seq: u64,
    /// FNV-1a checksum over the header fields and payload, stamped at
    /// transmit time by the reliable delivery layer so the receiver can
    /// detect in-flight corruption. 0 on the fault-free fast path.
    pub checksum: u64,
}

impl RtsMessage {
    pub fn new(from: RankId, to: RankId, tag: u64, payload: Bytes) -> RtsMessage {
        RtsMessage {
            from,
            to,
            tag,
            payload,
            seq: 0,
            checksum: 0,
        }
    }

    /// Wire size for network cost purposes (payload + header).
    pub fn wire_bytes(&self) -> usize {
        self.payload.len() + 32
    }

    /// FNV-1a over (from, to, tag, seq, payload) — what `checksum`
    /// should hold for an uncorrupted message.
    ///
    /// Runs directly over the payload view — no `to_vec()` staging copy
    /// — and walks it in 8-byte chunks (same byte-serial FNV-1a value,
    /// one bounds check per chunk instead of per byte).
    pub fn integrity(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        #[inline]
        fn eat8(mut h: u64, chunk: &[u8; 8]) -> u64 {
            for &b in chunk {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
            h
        }
        let mut h = FNV_OFFSET;
        for word in [self.from as u64, self.to as u64, self.tag, self.seq] {
            h = eat8(h, &word.to_le_bytes());
        }
        let payload = self.payload.as_ref();
        let mut chunks = payload.chunks_exact(8);
        for chunk in &mut chunks {
            h = eat8(h, chunk.try_into().expect("exact 8-byte chunk"));
        }
        for &b in chunks.remainder() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Flip one payload bit in place (or a checksum bit when the
    /// payload's storage is shared or empty) — either way the receiver's
    /// [`Self::intact`] check fails, which is the entire observable
    /// effect of in-flight corruption. Never allocates: inline payloads
    /// are uniquely owned by value and mutated directly; spilled
    /// payloads share their buffer with the sender's retransmit copy, so
    /// the damage is recorded in the seal instead of the bytes.
    pub fn corrupt_payload(&mut self) {
        let mid = self.payload.len() / 2;
        match self.payload.inline_mut() {
            Some(bytes) if !bytes.is_empty() => bytes[mid] ^= 0x01,
            _ => self.checksum ^= 1 << (mid % 64),
        }
    }

    /// Stamp `checksum` from the current contents.
    pub fn seal(&mut self) {
        self.checksum = self.integrity();
    }

    /// True when the checksum matches the contents (no in-flight
    /// corruption).
    pub fn intact(&self) -> bool {
        self.checksum == self.integrity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_includes_header() {
        let m = RtsMessage::new(0, 1, 7, Bytes::from_static(b"hello"));
        assert_eq!(m.wire_bytes(), 5 + 32);
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut m = RtsMessage::new(0, 1, 7, Bytes::from(vec![1, 2, 3, 4]));
        m.seq = 9;
        m.seal();
        assert!(m.intact());
        m.payload.inline_mut().expect("small payload is inline")[2] ^= 0x10; // single bit flip
        assert!(!m.intact());
    }

    #[test]
    fn checksum_covers_header() {
        let mut m = RtsMessage::new(0, 1, 7, Bytes::from_static(b"x"));
        m.seal();
        m.seq = 1;
        assert!(!m.intact());
    }

    #[test]
    fn chunked_integrity_matches_byte_serial_fnv() {
        // The 8-byte-chunk walk must compute the identical byte-serial
        // FNV-1a value for every payload length (incl. non-multiples of
        // 8 and spilled > 64 B buffers).
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 100, 1024] {
            let payload: Vec<u8> = (0..n).map(|i| (i * 31 + 7) as u8).collect();
            let mut m = RtsMessage::new(3, 5, 11, Bytes::from(payload.clone()));
            m.seq = 42;
            let mut h: u64 = 0xcbf29ce484222325;
            let mut eat = |b: u8| {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            };
            for word in [3u64, 5, 11, 42] {
                for b in word.to_le_bytes() {
                    eat(b);
                }
            }
            for &b in &payload {
                eat(b);
            }
            assert_eq!(m.integrity(), h, "payload len {n}");
        }
    }

    /// The copy-and-flip corruption `corrupt_payload` replaced: copy the
    /// payload into a fresh buffer and flip the middle byte's low bit,
    /// or flip a checksum bit when there is no payload.
    fn corrupt_by_copy(msg: &mut RtsMessage) {
        if msg.payload.is_empty() {
            msg.checksum ^= 1;
        } else {
            let mut bytes = msg.payload.as_ref().to_vec();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            msg.payload = Bytes::from(bytes);
        }
    }

    /// In-place corruption vs the copy-and-flip oracle for empty, inline
    /// and spilled payloads: both must fail `intact()`, leave the header
    /// and wire size alone, and leave the sender's retained copy intact.
    #[test]
    fn oracle_corrupt_payload_matches_copy_and_flip() {
        for n in [0usize, 1, 2, 7, 8, 63, 64, 65, 128, 4096] {
            let payload: Vec<u8> = (0..n).map(|i| (i * 37 + 11) as u8).collect();
            let mut sent = RtsMessage::new(3, 5, 0xfeed, Bytes::from(payload.clone()));
            sent.seq = 17;
            sent.seal();
            let mut fast = sent.clone();
            fast.corrupt_payload();
            let mut oracle = sent.clone();
            corrupt_by_copy(&mut oracle);
            let header = |m: &RtsMessage| (m.from, m.to, m.tag, m.seq, m.payload.len());
            for (path, m) in [("corrupt_payload", &fast), ("copy-and-flip", &oracle)] {
                assert!(!m.intact(), "{path}, {n} B: corruption went undetected");
                assert_eq!(header(m), header(&sent), "{path}, {n} B: header changed");
                assert_eq!(
                    m.wire_bytes(),
                    sent.wire_bytes(),
                    "{path}, {n} B: wire size"
                );
            }
            assert!(sent.intact(), "{n} B: the sender's copy was damaged");
            assert_eq!(
                sent.payload.as_ref(),
                &payload[..],
                "{n} B: sender bytes changed"
            );
        }
    }

    #[test]
    fn corrupt_payload_never_allocates_and_always_detected() {
        // Inline payload: real bit flip in place.
        let mut m = RtsMessage::new(0, 1, 7, Bytes::from(vec![1, 2, 3, 4]));
        m.seal();
        m.corrupt_payload();
        assert!(!m.intact());
        assert_eq!(m.payload.as_ref(), &[1, 2, 0x02, 4], "mid bit flipped");
        // Empty payload: seal bit flip.
        let mut m = RtsMessage::new(0, 1, 7, Bytes::new());
        m.seal();
        m.corrupt_payload();
        assert!(!m.intact());
        // Spilled (shared) payload: seal bit flip, shared bytes intact.
        let big = Bytes::from(vec![9u8; 128]);
        let mut m = RtsMessage::new(0, 1, 7, big.clone());
        m.seal();
        m.corrupt_payload();
        assert!(!m.intact());
        assert_eq!(m.payload, big, "shared buffer must not be scribbled");
    }
}
