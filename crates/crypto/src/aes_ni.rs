//! AES-128 encryption on the x86-64 AES-NI instructions.
//!
//! The kernel runs the same FIPS-197 schedule as the T-table cipher: the
//! byte-form round keys load straight into SSE registers, `AESENC` does a
//! full round (SubBytes, ShiftRows, MixColumns, AddRoundKey) and
//! `AESENCLAST` the final round without MixColumns. It is the only code in
//! the crate that needs `unsafe`, and only to call instructions the
//! compiler cannot assume the host has: an [`AesNi`] value is proof that
//! run-time detection saw the `aes` CPU feature.
//!
//! On other architectures the type is uninhabited, so [`AesNi::detect`]
//! always returns `None` and callers take the T-table path.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_cvtsi128_si64, _mm_set_epi64x,
    _mm_unpackhi_epi64, _mm_xor_si128,
};

/// Proof that the host CPU has AES-NI; only [`AesNi::detect`] makes one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AesNi(Detected);

#[cfg(target_arch = "x86_64")]
type Detected = ();

/// Uninhabited off x86-64: no value can be built, so no call can happen.
#[cfg(not(target_arch = "x86_64"))]
#[derive(Debug, Clone, Copy)]
enum Detected {}

impl AesNi {
    /// Returns the proof token, or `None` when the host CPU lacks AES-NI.
    pub(crate) fn detect() -> Option<AesNi> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("aes") {
            return Some(AesNi(()));
        }
        None
    }

    /// Encrypts one block under the FIPS-197 byte-form `round_keys` with
    /// the hardware kernel.
    #[inline]
    pub(crate) fn encrypt_block(self, round_keys: &[[u8; 16]; 11], block: &[u8; 16]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `self` exists only because `detect` returned it, and
            // `detect` does so only after `is_x86_feature_detected!("aes")`
            // confirmed that this CPU executes the AES-NI (and SSE2)
            // instructions `encrypt` is compiled for.
            unsafe { encrypt(round_keys, block) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        match self.0 {}
    }
}

/// Ten AES-128 rounds over one block. Safe code, but callable only where
/// the `aes` target feature (which implies SSE2) is known to be present.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "aes")]
fn encrypt(round_keys: &[[u8; 16]; 11], block: &[u8; 16]) -> [u8; 16] {
    let mut s = _mm_xor_si128(load(block), load(&round_keys[0]));
    for rk in &round_keys[1..10] {
        s = _mm_aesenc_si128(s, load(rk));
    }
    store(_mm_aesenclast_si128(s, load(&round_keys[10])))
}

/// Byte `i` of `bytes` becomes byte `i` of the register (memory order).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn load(bytes: &[u8; 16]) -> __m128i {
    let [lo, hi] = [0, 8].map(|at| {
        let mut half = [0u8; 8];
        half.copy_from_slice(&bytes[at..at + 8]);
        i64::from_le_bytes(half)
    });
    _mm_set_epi64x(hi, lo)
}

/// Inverse of [`load`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn store(s: __m128i) -> [u8; 16] {
    let lo = _mm_cvtsi128_si64(s).to_le_bytes();
    let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)).to_le_bytes();
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&lo);
    out[8..].copy_from_slice(&hi);
    out
}
