//! Equivalence of both AES kernels (AES-NI and T-table) against the
//! byte-wise reference cipher, over random keys and blocks, plus the CTR
//! and streamed-CMAC layers built on top.
//!
//! Each kernel is called through its own entry point, not only through the
//! dispatching [`Aes128::encrypt_block`], so the T-table fallback stays
//! tested on hosts that have AES-NI (where the hardware check is skipped
//! only if the host lacks it).
//!
//! The known-answer vectors (FIPS-197, NIST SP 800-38A) live next to the
//! implementations; this suite covers the space *between* the published
//! vectors so a table-generation or byte-ordering bug cannot hide on inputs
//! the vectors happen not to exercise.

use proptest::prelude::*;
use psoram_crypto::{Aes128, Cmac, CtrCipher, ReferenceAes128};

fn bytes16(halves: (u64, u64)) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&halves.0.to_be_bytes());
    out[8..].copy_from_slice(&halves.1.to_be_bytes());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The T-table kernel and the reference cipher agree on every
    /// (key, block).
    #[test]
    fn ttable_matches_reference(
        k in (any::<u64>(), any::<u64>()),
        b in (any::<u64>(), any::<u64>()),
    ) {
        let key = bytes16(k);
        let block = bytes16(b);
        prop_assert_eq!(
            Aes128::new(&key).encrypt_block_ttable(&block),
            ReferenceAes128::new(&key).encrypt_block(&block)
        );
    }

    /// The AES-NI kernel (when the host has it) and the reference cipher
    /// agree on every (key, block).
    #[test]
    fn aesni_matches_reference(
        k in (any::<u64>(), any::<u64>()),
        b in (any::<u64>(), any::<u64>()),
    ) {
        let key = bytes16(k);
        let block = bytes16(b);
        if let Some(ct) = Aes128::new(&key).encrypt_block_aesni(&block) {
            prop_assert_eq!(ct, ReferenceAes128::new(&key).encrypt_block(&block));
        }
    }

    /// A streamed CMAC over any split of a message (empty parts, parts
    /// ending on 16-byte boundaries, single bytes) equals the one-shot tag
    /// of the concatenation, which `tests/cmac_props.rs` checks against a
    /// from-scratch RFC 4493 oracle.
    #[test]
    fn cmac_stream_matches_one_shot_over_any_split(
        k in (any::<u64>(), any::<u64>()),
        msg in prop::collection::vec(any::<u8>(), 0..100),
        cuts in prop::collection::vec(0usize..100, 0..8),
        block_cuts in prop::collection::vec(0usize..7, 0..3),
    ) {
        let mac = Cmac::new(Aes128::new(&bytes16(k)));
        // Cut points anywhere, plus some on block boundaries; repeats
        // give empty parts.
        let mut at: Vec<usize> = cuts
            .iter()
            .copied()
            .chain(block_cuts.iter().map(|b| b * 16))
            .map(|c| c.min(msg.len()))
            .collect();
        at.sort_unstable();
        let mut s = mac.stream();
        let mut from = 0;
        for &to in &at {
            s.update(&msg[from..to]);
            from = to;
        }
        s.update(&msg[from..]);
        s.update(&[]);
        prop_assert_eq!(s.finish(), mac.tag(&msg));
    }

    /// The inverse cipher undoes the T-table forward cipher (both consume
    /// the same expanded schedule).
    #[test]
    fn decrypt_inverts_ttable_encrypt(
        k in (any::<u64>(), any::<u64>()),
        b in (any::<u64>(), any::<u64>()),
    ) {
        let aes = Aes128::new(&bytes16(k));
        let pt = bytes16(b);
        prop_assert_eq!(aes.decrypt_block(&aes.encrypt_block(&pt)), pt);
    }

    /// CTR keystream over the fast path equals block-at-a-time CTR over the
    /// reference cipher, including tail blocks and counter wrap-around.
    #[test]
    fn ctr_keystream_matches_reference_ctr(
        k in (any::<u64>(), any::<u64>()),
        iv_halves in (any::<u64>(), any::<u64>()),
        len in 0usize..200,
    ) {
        let key = bytes16(k);
        let iv = u128::from_be_bytes(bytes16(iv_halves));

        let mut fast = vec![0u8; len];
        // Through the dispatched kernel (AES-NI on hosts that have it).
        CtrCipher::new(Aes128::new(&key)).keystream_into(iv, &mut fast);

        let reference = ReferenceAes128::new(&key);
        let mut slow = vec![0u8; len];
        for (i, chunk) in slow.chunks_mut(16).enumerate() {
            let counter = iv.wrapping_add(i as u128).to_be_bytes();
            let pad = reference.encrypt_block(&counter);
            chunk.copy_from_slice(&pad[..chunk.len()]);
        }

        prop_assert_eq!(fast, slow);
    }

    /// apply_keystream is an involution for any (key, iv, data).
    #[test]
    fn ctr_roundtrip(
        k in (any::<u64>(), any::<u64>()),
        iv_lo in any::<u64>(),
        data in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let cipher = CtrCipher::new(Aes128::new(&bytes16(k)));
        let mut buf = data.clone();
        cipher.apply_keystream(u128::from(iv_lo), &mut buf);
        cipher.apply_keystream(u128::from(iv_lo), &mut buf);
        prop_assert_eq!(buf, data);
    }
}
