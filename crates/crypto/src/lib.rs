//! # psoram-crypto
//!
//! From-scratch AES-128 (FIPS-197) with counter (CTR) mode and a fixed-latency
//! model, as used by the PS-ORAM controller's encryption/decryption circuit.
//!
//! The PS-ORAM paper (ISCA'22) assumes an overall AES encryption latency of
//! **32 processor cycles** (following Fletcher et al. and Zhang et al.) and
//! overlaps fetching data with encryption-pad generation (Osiris-style).
//! Each ORAM block carries two initialization vectors: `IV1` encrypts the
//! block *header* (program address + path id) while `IV2` encrypts the data
//! *content* (Fletcher et al., FCCM'15).
//!
//! This crate provides:
//!
//! * [`Aes128`] — the AES-128 cipher on the simulator's hottest loop. It
//!   picks its kernel once, at construction, by run-time CPU detection: the
//!   AES-NI instructions on x86-64 hosts that have them, otherwise the
//!   portable T-table (u32 lookup-table) cipher. Both kernels are verified
//!   against the FIPS-197 and NIST SP 800-38A vectors.
//! * [`ReferenceAes128`] — the original byte-wise, specification-faithful
//!   cipher, kept as the equivalence oracle for both kernels (proptest over
//!   random keys/blocks in `tests/equivalence.rs`, each kernel called
//!   explicitly so the fallback stays tested on AES-NI hosts).
//! * [`Cmac`] — AES-CMAC (RFC 4493), one-shot or streamed through
//!   [`CmacStream`] without assembling the message.
//! * [`CtrCipher`] — AES-CTR keystream encryption of arbitrary-length
//!   buffers, including the allocation-free batched
//!   [`CtrCipher::keystream_into`].
//! * [`CryptoLatencyModel`] — the cycle-cost model the timing simulator
//!   charges for header/content (de|en)cryption. Functional throughput and
//!   modeled latency are deliberately decoupled: the timing side charges 32
//!   cycles per AES operation no matter which kernel computes it or how
//!   fast.
//!
//! # Unsafe code
//!
//! The crate denies `unsafe_code`; the one exception is the private AES-NI
//! module, whose single `unsafe` block calls the hardware kernel after
//! run-time detection and carries a `SAFETY:` comment (enforced by
//! `clippy::undocumented_unsafe_blocks`).
//!
//! # Examples
//!
//! ```
//! use psoram_crypto::{Aes128, CtrCipher};
//!
//! let key = [0u8; 16];
//! let aes = Aes128::new(&key);
//! let cipher = CtrCipher::new(aes);
//! let mut data = *b"oram block data!";
//! let iv = 42u128;
//! cipher.apply_keystream(iv, &mut data);
//! assert_ne!(&data, b"oram block data!");
//! cipher.apply_keystream(iv, &mut data); // CTR is an involution
//! assert_eq!(&data, b"oram block data!");
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

mod aes;
#[allow(unsafe_code)]
mod aes_ni;
mod cmac;
mod ctr;
mod hash;
mod inverse;
mod latency;
mod reference;

pub use aes::Aes128;
pub use cmac::{Cmac, CmacStream};
pub use ctr::CtrCipher;
pub use hash::{Digest, Hash128, DIGEST_BYTES};
pub use latency::CryptoLatencyModel;
pub use reference::ReferenceAes128;
