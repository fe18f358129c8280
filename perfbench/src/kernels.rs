//! `psoram-crypto` public kernels timed at the ORAM's own sizes.

use std::hint::black_box;
use std::time::Instant;

use psoram_core::OramConfig;
use psoram_crypto::{Aes128, Cmac, CtrCipher};

use crate::ledger::Ledger;

/// Median nanoseconds per call of `f` over five passes of `iters` calls.
fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut passes = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        for i in 0..iters {
            f(i);
        }
        passes.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    crate::stats::median(&passes).expect("five passes")
}

/// Reports `crypto.aes_ns_per_block`, `crypto.ctr_ns_per_bucket` (one
/// bucket's functional payload, `Z x payload_bytes`) and
/// `crypto.cmac_ns_per_tag` (one modelled block) for the paper geometry.
pub fn report(ledger: &mut Ledger) {
    let cfg = OramConfig::paper_default();
    let key = [0x42u8; 16];
    let aes = Aes128::new(&key);
    let aes_ns = ns_per_call(200_000, |i| {
        let mut block = [0x5Au8; 16];
        block[..8].copy_from_slice(&i.to_be_bytes());
        black_box(aes.encrypt_block(black_box(&block)));
    });
    let ctr = CtrCipher::new(Aes128::new(&key));
    let mut bucket = vec![0u8; cfg.bucket_slots * cfg.payload_bytes];
    let ctr_ns = ns_per_call(100_000, |i| {
        ctr.apply_keystream(i as u128, black_box(&mut bucket));
    });
    let cmac = Cmac::new(Aes128::new(&key));
    let msg = vec![0xC3u8; cfg.block_bytes];
    let cmac_ns = ns_per_call(50_000, |_| {
        black_box(cmac.tag(black_box(&msg)));
    });
    ledger.host("crypto.aes_ns_per_block", aes_ns, "ns");
    ledger.host("crypto.ctr_ns_per_bucket", ctr_ns, "ns");
    ledger.host("crypto.cmac_ns_per_tag", cmac_ns, "ns");
}
