//! AES-CMAC (RFC 4493) message authentication.
//!
//! Secure NVM systems pair counter-mode encryption with per-block
//! authentication (the paper's related work: Triad-NVM, SuperMem). This
//! CMAC lets the ORAM controller tag each block so recovery can *verify*
//! the copy it restores rather than trust the NVM bits blindly.

use crate::Aes128;

/// AES-CMAC tag generator.
///
/// # Examples
///
/// ```
/// use psoram_crypto::{Aes128, Cmac};
///
/// let mac = Cmac::new(Aes128::new(&[3u8; 16]));
/// let tag = mac.tag(b"oram block payload");
/// assert!(mac.verify(b"oram block payload", &tag));
/// assert!(!mac.verify(b"tampered block!!!", &tag));
/// ```
#[derive(Debug, Clone)]
pub struct Cmac {
    aes: Aes128,
    k1: [u8; 16],
    k2: [u8; 16],
}

/// Doubles a 128-bit value in GF(2^128) (the CMAC subkey derivation).
fn dbl(x: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    let mut carry = 0u8;
    for i in (0..16).rev() {
        out[i] = (x[i] << 1) | carry;
        carry = x[i] >> 7;
    }
    if carry != 0 {
        out[15] ^= 0x87;
    }
    out
}

impl Cmac {
    /// Derives the CMAC subkeys from an expanded AES key.
    pub fn new(aes: Aes128) -> Self {
        let l = aes.encrypt_block(&[0u8; 16]);
        let k1 = dbl(&l);
        let k2 = dbl(&k1);
        Cmac { aes, k1, k2 }
    }

    /// Computes the 16-byte CMAC tag of `msg`.
    pub fn tag(&self, msg: &[u8]) -> [u8; 16] {
        let mut s = self.stream();
        s.update(msg);
        s.finish()
    }

    /// Starts an incremental tag computation: feed the message in any
    /// number of [`CmacStream::update`] calls, then [`CmacStream::finish`].
    /// The tag depends only on the concatenated input, not on how it was
    /// split, and the message is never assembled: at most four blocks wait
    /// in the stream before they are chained.
    ///
    /// ```
    /// use psoram_crypto::{Aes128, Cmac};
    ///
    /// let mac = Cmac::new(Aes128::new(&[3u8; 16]));
    /// let mut s = mac.stream();
    /// s.update(b"oram block ");
    /// s.update(b"payload");
    /// assert_eq!(s.finish(), mac.tag(b"oram block payload"));
    /// ```
    pub fn stream(&self) -> CmacStream<'_> {
        CmacStream {
            mac: self,
            x: [0u8; 16],
            stage: [0u8; STAGE],
            staged: 0,
        }
    }

    /// Computes the tag of a multi-part message under a one-byte domain.
    ///
    /// Each part is prefixed with its little-endian length before MACing,
    /// so differently split inputs can never collide: `("ab", "c")` and
    /// `("a", "bc")` authenticate different byte streams. The freshness
    /// layer uses this to fold unit identities and monotonic version
    /// counters into the CMAC input without framing ambiguity, and the
    /// domain byte keeps slot, PosMap, and counter-tree tags in disjoint
    /// message spaces under one key.
    pub fn tag_parts(&self, domain: u8, parts: &[&[u8]]) -> [u8; 16] {
        let mut s = self.stream();
        s.update(&[domain]);
        for p in parts {
            s.part(p);
        }
        s.finish()
    }

    /// Constant-shape verification of a tag.
    pub fn verify(&self, msg: &[u8], tag: &[u8; 16]) -> bool {
        let computed = self.tag(msg);
        let mut diff = 0u8;
        for (a, b) in computed.iter().zip(tag) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

/// Message bytes a [`CmacStream`] stages before chaining them through the
/// cipher (four blocks).
const STAGE: usize = 64;

/// An in-progress CMAC computation (see [`Cmac::stream`]).
///
/// Input collects in a small stage, so a short field costs one store;
/// full blocks are only chained through the cipher once more input shows
/// that none of them is the last, because RFC 4493 treats the final block
/// specially (K1 when complete, padding and K2 otherwise).
#[derive(Debug, Clone)]
pub struct CmacStream<'a> {
    mac: &'a Cmac,
    /// Chaining value over the blocks chained so far.
    x: [u8; 16],
    /// Message bytes not yet chained; `stage[..staged]` is live.
    stage: [u8; STAGE],
    staged: usize,
}

impl CmacStream<'_> {
    /// Absorbs the next `data` bytes of the message.
    #[inline(always)]
    pub fn update(&mut self, data: &[u8]) {
        // Inlined fast path: a short field is one store into the stage.
        if data.len() <= STAGE - self.staged {
            self.stage[self.staged..self.staged + data.len()].copy_from_slice(data);
            self.staged += data.len();
        } else {
            self.update_spilling(data);
        }
    }

    /// [`CmacStream::update`] for input that overflows the stage.
    #[inline(never)]
    fn update_spilling(&mut self, mut data: &[u8]) {
        loop {
            let take = (STAGE - self.staged).min(data.len());
            self.stage[self.staged..self.staged + take].copy_from_slice(&data[..take]);
            self.staged += take;
            data = &data[take..];
            if data.is_empty() {
                return;
            }
            // The stage is full and more input follows, so none of its
            // blocks is the last.
            self.chain(STAGE);
            self.staged = 0;
        }
    }

    /// Chains the first `len` staged bytes (whole blocks).
    fn chain(&mut self, len: usize) {
        let (blocks, _) = self.stage[..len].as_chunks::<16>();
        for block in blocks {
            self.x = self.mac.aes.encrypt_block(&xor16(&self.x, block));
        }
    }

    /// Absorbs `bytes` as one length-prefixed part: its little-endian `u64`
    /// length, then the bytes — the framing [`Cmac::tag_parts`] applies to
    /// each of its parts.
    #[inline(always)]
    pub fn part(&mut self, bytes: &[u8]) {
        self.update(&(bytes.len() as u64).to_le_bytes());
        self.update(bytes);
    }

    /// Completes the message and returns its tag.
    pub fn finish(mut self) -> [u8; 16] {
        // Chain every staged block but the last. The last block (possibly
        // empty) takes K1 when complete, otherwise 0x80 0x00.. padding and
        // K2.
        let chained = self.staged.saturating_sub(1) / 16 * 16;
        self.chain(chained);
        let rest = &self.stage[chained..self.staged];
        let mut last = [0u8; 16];
        last[..rest.len()].copy_from_slice(rest);
        let k = if rest.len() == 16 {
            &self.mac.k1
        } else {
            last[rest.len()] = 0x80;
            &self.mac.k2
        };
        self.mac
            .aes
            .encrypt_block(&xor16(&xor16(&self.x, &last), k))
    }
}

/// Bytewise XOR of two blocks.
#[inline]
fn xor16(a: &[u8; 16], b: &[u8; 16]) -> [u8; 16] {
    (u128::from_ne_bytes(*a) ^ u128::from_ne_bytes(*b)).to_ne_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rfc_key() -> Aes128 {
        Aes128::new(&[
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ])
    }

    /// RFC 4493 Example 1: empty message.
    #[test]
    fn rfc4493_empty_message() {
        let mac = Cmac::new(rfc_key());
        let expected = [
            0xbb, 0x1d, 0x69, 0x29, 0xe9, 0x59, 0x37, 0x28, 0x7f, 0xa3, 0x7d, 0x12, 0x9b, 0x75,
            0x67, 0x46,
        ];
        assert_eq!(mac.tag(b""), expected);
    }

    /// RFC 4493 Example 2: one full block.
    #[test]
    fn rfc4493_single_block() {
        let mac = Cmac::new(rfc_key());
        let msg = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let expected = [
            0x07, 0x0a, 0x16, 0xb4, 0x6b, 0x4d, 0x41, 0x44, 0xf7, 0x9b, 0xdd, 0x9d, 0xd0, 0x4a,
            0x28, 0x7c,
        ];
        assert_eq!(mac.tag(&msg), expected);
    }

    /// RFC 4493 Example 3: 40 bytes (partial last block).
    #[test]
    fn rfc4493_forty_bytes() {
        let mac = Cmac::new(rfc_key());
        let msg = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac,
            0x45, 0xaf, 0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11,
        ];
        let expected = [
            0xdf, 0xa6, 0x67, 0x47, 0xde, 0x9a, 0xe6, 0x30, 0x30, 0xca, 0x32, 0x61, 0x14, 0x97,
            0xc8, 0x27,
        ];
        assert_eq!(mac.tag(&msg), expected);
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let mac = Cmac::new(Aes128::new(&[7u8; 16]));
        let tag = mac.tag(b"block");
        assert!(mac.verify(b"block", &tag));
        assert!(!mac.verify(b"blocj", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!mac.verify(b"block", &bad));
    }

    #[test]
    fn distinct_messages_distinct_tags() {
        let mac = Cmac::new(Aes128::new(&[7u8; 16]));
        assert_ne!(mac.tag(b"a"), mac.tag(b"b"));
        assert_ne!(mac.tag(b""), mac.tag(b"\0"));
    }

    #[test]
    fn tag_parts_is_split_and_domain_separated() {
        let mac = Cmac::new(Aes128::new(&[9u8; 16]));
        // Splitting the same bytes differently must change the tag.
        assert_ne!(
            mac.tag_parts(1, &[b"ab", b"c"]),
            mac.tag_parts(1, &[b"a", b"bc"])
        );
        // Same parts under different domains must change the tag.
        assert_ne!(mac.tag_parts(1, &[b"abc"]), mac.tag_parts(2, &[b"abc"]));
        // Deterministic.
        assert_eq!(
            mac.tag_parts(3, &[b"x", b"", b"y"]),
            mac.tag_parts(3, &[b"x", b"", b"y"])
        );
        // Part count matters even when the concatenation is identical.
        assert_ne!(mac.tag_parts(3, &[b"xy"]), mac.tag_parts(3, &[b"x", b"y"]));
    }
}
