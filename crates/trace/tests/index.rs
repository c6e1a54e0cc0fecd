//! The sidecar index: writer-built == scan-built, sidecar round trip and
//! damage, and seeking replay windows without decoding the prefix.

use igm_lba::TraceBatch;
use igm_lifeguards::LifeguardKind;
use igm_runtime::{MonitorPool, PoolConfig, SessionConfig};
use igm_trace::{
    checksum, replay_window, TraceError, TraceIndex, TraceReader, TraceWriter, INDEX_VERSION_V2,
};
use igm_workload::Benchmark;
use std::io::Cursor;

const N: u64 = 12_000;
const CHUNK: u32 = 2_048;

/// Encodes a workload and returns (trace bytes, writer-built index).
fn encoded() -> (Vec<u8>, TraceIndex) {
    let mut w = TraceWriter::with_index(Vec::new()).unwrap();
    let mut chunker = igm_lba::chunks(Benchmark::Gzip.trace(N), CHUNK);
    let mut batch = TraceBatch::new();
    while chunker.next_into_batch(&mut batch) {
        w.write_chunk_batch(&batch).unwrap();
    }
    let index = w.index().expect("index tracking requested").clone();
    (w.finish().unwrap(), index)
}

#[test]
fn writer_index_matches_a_record_scan() {
    let (bytes, written) = encoded();
    let scanned = TraceIndex::scan_records(&bytes[..]).unwrap();
    assert_eq!(written, scanned);
    assert_eq!(written.frame_postings().len(), written.frames(), "one posting section per frame");
    assert!(written.frames() > 1, "the workload must span several frames");
    assert_eq!(written.total_records(), N);
    // Entries partition the record space contiguously.
    let mut next = 0u64;
    for e in written.entries() {
        assert_eq!(e.first_record, next);
        assert!(e.records > 0);
        next += e.records as u64;
    }
    assert_eq!(next, N);
}

#[test]
fn sidecar_round_trips_and_rejects_damage() {
    let (_, index) = encoded();
    let mut sidecar = Vec::new();
    index.save(&mut sidecar).unwrap();
    assert_eq!(u32::from_le_bytes(sidecar[4..8].try_into().unwrap()), INDEX_VERSION_V2);
    assert_eq!(TraceIndex::load(&sidecar[..]).unwrap(), index);

    // Bad magic.
    let mut bad = sidecar.clone();
    bad[0] = b'Z';
    assert!(matches!(TraceIndex::load(&bad[..]), Err(TraceError::Corrupt { .. })));
    // Wrong version: the next one, and the retired directory-only v1.
    for version in [INDEX_VERSION_V2 + 1, 1] {
        let mut bad = sidecar.clone();
        bad[4..8].copy_from_slice(&version.to_le_bytes());
        assert!(matches!(
            TraceIndex::load(&bad[..]),
            Err(TraceError::UnsupportedVersion(v)) if v == version
        ));
    }
    // Flipped entry byte: checksum catches it.
    let mut bad = sidecar.clone();
    let mid = 16 + (bad.len() - 20) / 2;
    bad[mid] ^= 0xff;
    assert!(matches!(TraceIndex::load(&bad[..]), Err(TraceError::Corrupt { .. })));
    // Truncation at every length — inside the magic, the version and
    // frame-count words, the directory, the posting section and the
    // checksum — is a typed truncation error.
    for cut in 0..sidecar.len() {
        match TraceIndex::load(&sidecar[..cut]) {
            Err(TraceError::Corrupt { reason: "index sidecar truncated", .. }) => {}
            other => panic!("sidecar cut at {cut} of {}: got {other:?}", sidecar.len()),
        }
    }
}

/// Damage the posting section but *repair the checksum*, so only the
/// structural validation inside `FramePostings::decode` stands between
/// the damage and the caller. Structure-level damage (the section's
/// leading count/dim bytes) must be rejected outright; a value-level
/// flip deep inside a container body may decode as a structurally
/// valid posting, but must never silently load as the original index.
#[test]
fn v2_posting_section_damage_is_rejected_structurally() {
    let (_, index) = encoded();
    let mut sidecar = Vec::new();
    index.save(&mut sidecar).unwrap();
    let frames = index.frames();
    // Body layout: 16-byte header, frames*12 directory, 8-byte posting
    // length, postings, 4-byte checksum.
    let postings_at = 16 + frames * 12 + 8;
    let body_range = 16..sidecar.len() - 4;
    let repaired = |victim: usize| {
        let mut bad = sidecar.clone();
        bad[victim] ^= 0x2a;
        let sum = checksum(&bad[body_range.clone()]);
        let at = bad.len() - 4;
        bad[at..].copy_from_slice(&sum.to_le_bytes());
        bad
    };
    for victim in [postings_at, postings_at + 1] {
        let bad = repaired(victim);
        assert!(
            matches!(TraceIndex::load(&bad[..]), Err(TraceError::Corrupt { .. })),
            "flipping posting byte at {victim} must not load cleanly"
        );
    }
    let bad = repaired((postings_at + sidecar.len() - 4) / 2);
    match TraceIndex::load(&bad[..]) {
        Err(TraceError::Corrupt { .. }) => {}
        Ok(loaded) => assert_ne!(loaded, index, "damaged sidecar must not load as the original"),
        Err(e) => panic!("unexpected error kind: {e:?}"),
    }
}

/// The tentpole byte-identity property: an index built inline by the
/// writer and one rebuilt offline by the decoding scan serialize to the
/// exact same sidecar bytes, across workloads and chunk sizes.
#[test]
fn writer_and_scan_records_sidecars_are_byte_identical() {
    for bench in [Benchmark::Gzip, Benchmark::Mcf, Benchmark::Parser] {
        for (n, chunk) in [(1_500u64, 512u32), (9_000, 2_048), (4_096, 4_096)] {
            let mut w = TraceWriter::with_index(Vec::new()).unwrap();
            let mut chunker = igm_lba::chunks(bench.trace(n), chunk);
            let mut batch = TraceBatch::new();
            while chunker.next_into_batch(&mut batch) {
                w.write_chunk_batch(&batch).unwrap();
            }
            let written = w.index().unwrap().clone();
            let bytes = w.finish().unwrap();
            let rescanned = TraceIndex::scan_records(&bytes[..]).unwrap();
            assert_eq!(written, rescanned, "{bench:?} n={n} chunk={chunk}");
            let mut a = Vec::new();
            let mut b = Vec::new();
            written.save(&mut a).unwrap();
            rescanned.save(&mut b).unwrap();
            assert_eq!(a, b, "sidecar bytes diverge for {bench:?} n={n} chunk={chunk}");
        }
    }
}

#[test]
fn frame_lookup_finds_every_record() {
    let (_, index) = encoded();
    for record in [0, 1, N / 3, N / 2, N - 1] {
        let e = index.frame_for_record(record).unwrap();
        assert!(e.first_record <= record && record < e.first_record + e.records as u64);
    }
    assert!(index.frame_for_record(N).is_none());
}

#[test]
fn seeked_window_decodes_exactly_the_requested_records() {
    let (bytes, index) = encoded();
    let full = igm_trace::decode_from_slice(&bytes).unwrap();

    for (start, end) in [(0u64, 100u64), (N / 2 - 7, N / 2 + 1_311), (N - 259, N), (N - 1, N + 50)]
    {
        let mut reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
        let entry = index.frame_for_record(start).unwrap();
        reader.seek_to_frame(entry).unwrap();
        // Decode frames from the seek point, trimming to the window.
        let mut got = Vec::new();
        let mut pos = entry.first_record;
        let mut batch = TraceBatch::new();
        let end_clamped = end.min(N);
        while pos < end_clamped && reader.read_chunk_into_batch(&mut batch).unwrap() {
            let n = batch.len() as u64;
            let skip = start.saturating_sub(pos).min(n) as usize;
            let take = (end_clamped - pos).min(n) as usize;
            got.extend(batch.iter().skip(skip).take(take.saturating_sub(skip)));
            pos += n;
        }
        assert_eq!(
            got,
            full[start as usize..end_clamped as usize],
            "window [{start}, {end}) diverges from the full decode"
        );
    }
}

#[test]
fn replay_window_matches_a_trimmed_local_run() {
    let (bytes, index) = encoded();
    let full = igm_trace::decode_from_slice(&bytes).unwrap();
    let pool = MonitorPool::new(PoolConfig::with_workers(2));
    let cfg = SessionConfig::new("window", LifeguardKind::TaintCheck)
        .synthetic()
        .premark(&Benchmark::Gzip.profile().premark_regions());

    let (start, end) = (N / 3 + 5, 2 * N / 3 - 9);
    // Reference: stream exactly the window's records locally.
    let reference = {
        let session = pool.open_session(cfg.clone());
        session.stream(full[start as usize..end as usize].iter().copied()).unwrap();
        session.finish()
    };
    // Seeked replay of the same window straight off the artifact.
    let mut reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
    let replayed = replay_window(&pool, cfg, &mut reader, &index, start..end).unwrap();

    assert_eq!(replayed.records, end - start);
    assert_eq!(replayed.records, reference.records);
    assert_eq!(replayed.violations, reference.violations);

    // An empty or out-of-range window is simply empty.
    let mut reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
    let cfg2 = SessionConfig::new("empty", LifeguardKind::AddrCheck).synthetic();
    let empty = replay_window(&pool, cfg2, &mut reader, &index, N + 10..N + 20).unwrap();
    assert_eq!(empty.records, 0);
    pool.shutdown();
}
