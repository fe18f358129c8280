//! Per-line wear accounting of the NVM controller, pinned.
//!
//! A fixed write sequence spans the regions a Path ORAM controller
//! writes: tree slots (64 B blocks), PosMap entries (8 B sub-block
//! writes, eight to a line), the stash-snapshot region, and one far
//! address the way a plain trace-driven run issues raw physical
//! addresses. Counts tie on purpose. The expected values were computed
//! by the map-backed counter this one replaced; `hottest_lines`,
//! `lines_touched` and `wear_report` must keep returning them exactly,
//! ordered by count descending then line ascending.

use psoram_nvm::{AccessKind, NvmConfig, NvmController};

const TREE_BASE: u64 = 0;
const POSMAP_BASE: u64 = 1 << 27;
const STASH_BASE: u64 = 5 << 26;
const FAR_ADDR: u64 = 0x7FFF_F000_0040;

fn driven() -> NvmController {
    let mut mem = NvmController::new(NvmConfig::paper_pcm(2));
    let mut t = 0;
    // Tree: a root-heavy pattern — every "path" rewrites the root bucket
    // (lines 0..4) and one bucket per depth below it.
    for leaf in 0..24u64 {
        let mut bucket = 0u64;
        for depth in 0..6u64 {
            for slot in 0..4u64 {
                let addr = TREE_BASE + (bucket * 4 + slot) * 64;
                t = mem.access(addr, AccessKind::Write, t);
            }
            bucket = 2 * bucket + 1 + ((leaf >> (5 - depth)) & 1);
        }
    }
    // PosMap entries: 8-byte writes, so neighbouring addresses share a
    // line and their counts add up.
    for i in 0..40u64 {
        let entry = (i * 7) % 29;
        mem.access_sized(POSMAP_BASE + entry * 8, AccessKind::Write, t, 8);
    }
    // Stash snapshot region: a sequential burst, written three times so
    // its lines tie with each other.
    for _ in 0..3 {
        for i in 0..10u64 {
            mem.access(STASH_BASE + i * 64, AccessKind::Write, t);
        }
    }
    mem.access(FAR_ADDR, AccessKind::Write, t);
    mem.access(FAR_ADDR, AccessKind::Write, t);
    // Reads never wear a line.
    for i in 0..16u64 {
        mem.access(POSMAP_BASE + (1 << 20) + i * 64, AccessKind::Read, t);
        mem.access(TREE_BASE + (5000 + i) * 64, AccessKind::Read, t);
    }
    mem
}

/// The pinned `(line, writes)` list, hottest first: runs of lines that
/// share a count, in ascending line order within the run.
fn pinned() -> Vec<(u64, u64)> {
    let posmap = POSMAP_BASE / 64;
    let stash = STASH_BASE / 64;
    let runs: Vec<(u64, Vec<u64>)> = vec![
        (24, (0..8).collect()),
        (16, (12..16).collect()),
        (12, vec![posmap]),
        (11, vec![posmap + 1]),
        (10, vec![posmap + 2]),
        (8, (16..20).chain(28..40).collect()),
        (7, vec![posmap + 3]),
        (4, (60..84).collect()),
        (3, (stash..stash + 10).collect()),
        (2, (124..172).chain([FAR_ADDR / 64]).collect()),
    ];
    runs.into_iter()
        .flat_map(|(w, lines)| lines.into_iter().map(move |l| (l, w)))
        .collect()
}

#[test]
fn hottest_lines_match_pinned_values() {
    let mem = driven();
    let pinned = pinned();
    assert_eq!(mem.hottest_lines(usize::MAX), pinned);
    for n in [0, 1, 5, 12, 13, 60, 115, 116] {
        assert_eq!(
            mem.hottest_lines(n),
            pinned[..n.min(pinned.len())],
            "n = {n}"
        );
    }
}

#[test]
fn lines_touched_and_report_match_pinned_values() {
    let mem = driven();
    assert_eq!(mem.lines_touched(), 115);
    let report = mem.wear_report(5);
    assert_eq!(
        report.bank_writes,
        vec![
            vec![69, 67, 45, 45, 13, 10, 38, 38],
            vec![70, 64, 45, 45, 13, 10, 38, 38],
        ]
    );
    assert_eq!(report.hottest_lines, pinned()[..5]);
    assert_eq!(report.lines_touched, 115);
    assert_eq!(report.max_line_writes, 24);
    let empty = NvmController::new(NvmConfig::paper_pcm(2)).wear_report(5);
    assert!(empty.hottest_lines.is_empty());
    assert_eq!((empty.lines_touched, empty.max_line_writes), (0, 0));
}

#[test]
fn every_touched_line_is_listed_and_no_unwritten_one() {
    let mem = driven();
    let all = mem.hottest_lines(usize::MAX);
    assert_eq!(all.len() as u64, mem.lines_touched());
    assert!(all.iter().all(|&(_, w)| w > 0));
    for w in all.windows(2) {
        let ((la, wa), (lb, wb)) = (w[0], w[1]);
        assert!(wa > wb || (wa == wb && la < lb), "order broken at {w:?}");
    }
    let read_only = [(POSMAP_BASE + (1 << 20)) / 64, (TREE_BASE + 5000 * 64) / 64];
    for line in read_only {
        assert!(
            all.iter().all(|&(l, _)| l != line),
            "read-only line {line} listed as worn"
        );
    }
    assert!(all.contains(&(FAR_ADDR / 64, 2)));
}
