//! Codec correctness: property-tested roundtrip over arbitrary
//! `TraceEntry` sequences, plus the framing error paths (truncation,
//! checksum corruption, zero-length chunks, field validation, retired
//! format and codec ids).

use igm_isa::{
    Annotation, CtrlOp, JumpTarget, MemRef, MemSize, OpClass, Reg, RegSet, TraceEntry, TraceOp,
};
use igm_trace::{
    checksum, decode_from_slice, encode_to_vec, TraceError, TraceReader, TraceWriter, CODEC_ID,
    FORMAT_VERSION, MAGIC,
};
use proptest::collection::vec;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies over the full trace vocabulary.
// ---------------------------------------------------------------------------

fn reg() -> impl Strategy<Value = Reg> {
    (0usize..8).prop_map(Reg::from_index)
}

fn mem_size() -> impl Strategy<Value = MemSize> {
    prop_oneof![Just(MemSize::B1), Just(MemSize::B2), Just(MemSize::B4)]
}

fn mem_ref() -> impl Strategy<Value = MemRef> {
    (any::<u32>(), mem_size()).prop_map(|(addr, size)| MemRef::new(addr, size))
}

fn regset() -> impl Strategy<Value = RegSet> {
    any::<u8>().prop_map(RegSet::from_bits)
}

fn op_class() -> impl Strategy<Value = OpClass> {
    prop_oneof![
        reg().prop_map(|rd| OpClass::ImmToReg { rd }),
        mem_ref().prop_map(|dst| OpClass::ImmToMem { dst }),
        reg().prop_map(|rd| OpClass::RegSelf { rd }),
        mem_ref().prop_map(|dst| OpClass::MemSelf { dst }),
        (reg(), reg()).prop_map(|(rs, rd)| OpClass::RegToReg { rs, rd }),
        (reg(), mem_ref()).prop_map(|(rs, dst)| OpClass::RegToMem { rs, dst }),
        (mem_ref(), reg()).prop_map(|(src, rd)| OpClass::MemToReg { src, rd }),
        (mem_ref(), mem_ref()).prop_map(|(src, dst)| OpClass::MemToMem { src, dst }),
        (reg(), reg()).prop_map(|(rs, rd)| OpClass::DestRegOpReg { rs, rd }),
        (mem_ref(), reg()).prop_map(|(src, rd)| OpClass::DestRegOpMem { src, rd }),
        (reg(), mem_ref()).prop_map(|(rs, dst)| OpClass::DestMemOpReg { rs, dst }),
        (proptest::option::of(mem_ref()), regset())
            .prop_map(|(src, reads)| OpClass::ReadOnly { src, reads }),
        (regset(), regset(), proptest::option::of(mem_ref()), proptest::option::of(mem_ref()))
            .prop_map(|(reads, writes, mem_read, mem_write)| OpClass::Other {
                reads,
                writes,
                mem_read,
                mem_write
            }),
    ]
}

fn ctrl_op() -> impl Strategy<Value = CtrlOp> {
    prop_oneof![
        Just(CtrlOp::Direct),
        reg().prop_map(|r| CtrlOp::Indirect { target: JumpTarget::Reg(r) }),
        mem_ref().prop_map(|m| CtrlOp::Indirect { target: JumpTarget::Mem(m) }),
        proptest::option::of(reg()).prop_map(|input| CtrlOp::CondBranch { input }),
        mem_ref().prop_map(|slot| CtrlOp::Ret { slot }),
    ]
}

fn annotation() -> impl Strategy<Value = Annotation> {
    prop_oneof![
        (any::<u32>(), any::<u32>()).prop_map(|(base, size)| Annotation::Malloc { base, size }),
        any::<u32>().prop_map(|base| Annotation::Free { base }),
        any::<u32>().prop_map(|lock| Annotation::Lock { lock }),
        any::<u32>().prop_map(|lock| Annotation::Unlock { lock }),
        (any::<u32>(), any::<u32>()).prop_map(|(base, len)| Annotation::ReadInput { base, len }),
        (proptest::option::of(reg()), proptest::option::of(mem_ref()))
            .prop_map(|(arg_reg, arg_mem)| Annotation::Syscall { arg_reg, arg_mem }),
        mem_ref().prop_map(|fmt| Annotation::PrintfFormat { fmt }),
        any::<u32>().prop_map(|tid| Annotation::ThreadSwitch { tid }),
        any::<u32>().prop_map(|tid| Annotation::ThreadExit { tid }),
    ]
}

fn trace_entry() -> impl Strategy<Value = TraceEntry> {
    (
        any::<u32>(),
        prop_oneof![
            10 => op_class().prop_map(TraceOp::Op),
            3 => ctrl_op().prop_map(TraceOp::Ctrl),
            2 => annotation().prop_map(TraceOp::Annot),
        ],
        regset(),
    )
        .prop_map(|(pc, op, addr_regs)| TraceEntry { pc, op, addr_regs })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_arbitrary_sequences(
        entries in vec(trace_entry(), 0..200),
        chunk_bytes in 1u32..600,
    ) {
        let bytes = encode_to_vec(entries.iter().copied(), chunk_bytes);
        let decoded = decode_from_slice(&bytes).expect("well-formed stream decodes");
        prop_assert_eq!(decoded, entries);
    }

    #[test]
    fn encoding_is_deterministic(entries in vec(trace_entry(), 0..100)) {
        let a = encode_to_vec(entries.iter().copied(), 256);
        let b = encode_to_vec(entries.iter().copied(), 256);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn truncation_never_panics_and_always_errors(
        entries in vec(trace_entry(), 1..60),
        cut_frac in 0u32..1000,
    ) {
        let bytes = encode_to_vec(entries.iter().copied(), 128);
        // Cut strictly inside the stream: every prefix must either fail or
        // decode to a strict prefix of the chunk sequence (cuts at frame
        // boundaries decode cleanly — by design, a trailing well-formed
        // prefix is a valid shorter trace).
        let cut = 1 + (cut_frac as usize * (bytes.len() - 1)) / 1000;
        match decode_from_slice(&bytes[..cut]) {
            Ok(prefix) => {
                prop_assert!(prefix.len() <= entries.len());
                prop_assert_eq!(&entries[..prefix.len()], &prefix[..]);
            }
            Err(TraceError::BadMagic) => prop_assert!(cut < 8, "magic is the first 8 bytes"),
            Err(TraceError::Corrupt { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Directed framing error paths.
// ---------------------------------------------------------------------------

fn sample_entries() -> Vec<TraceEntry> {
    vec![
        TraceEntry::op(0x0804_8000, OpClass::ImmToReg { rd: Reg::Eax }),
        TraceEntry::op(0x0804_8004, OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Ecx })
            .with_addr_regs(RegSet::from_regs([Reg::Ebx])),
        TraceEntry::annot(0x0804_8008, Annotation::Malloc { base: 0xa000, size: 64 }),
        TraceEntry::ctrl(0x0804_800c, CtrlOp::Ret { slot: MemRef::word(0xbfff_fffc) }),
    ]
}

/// A stream header followed by one hand-built frame whose header carries
/// `sum` and `codec` verbatim (so bad checksums and unknown ids are
/// expressible too).
fn raw_stream_codec(records: u32, payload: &[u8], sum: u32, codec: u32) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&records.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes.extend_from_slice(&codec.to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// A hand-built, correctly checksummed frame in a stream.
fn raw_stream_v2(records: u32, payload: &[u8]) -> Vec<u8> {
    raw_stream_codec(records, payload, checksum(payload), CODEC_ID)
}

#[test]
fn bad_magic_is_rejected() {
    assert!(matches!(TraceReader::new(&b"NOPE0000"[..]), Err(TraceError::BadMagic)));
    assert!(matches!(TraceReader::new(&b"IG"[..]), Err(TraceError::BadMagic)));
}

#[test]
fn future_version_is_rejected() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&99u32.to_le_bytes());
    assert!(matches!(TraceReader::new(&bytes[..]), Err(TraceError::UnsupportedVersion(99))));
}

#[test]
fn retired_version_1_container_is_rejected() {
    // A whole stream that would have been a valid version-1 file: one
    // 12-byte-header frame behind a version word of 1.
    let mut bytes = encode_to_vec(sample_entries(), 64);
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(TraceReader::new(&bytes[..]), Err(TraceError::UnsupportedVersion(1))));
    assert!(matches!(decode_from_slice(&bytes), Err(TraceError::UnsupportedVersion(1))));
}

#[test]
fn corrupt_checksum_is_detected() {
    let mut bytes = encode_to_vec(sample_entries(), 64);
    // Flip one bit in the frame payload (after the 8-byte file header and
    // 16-byte frame header).
    let idx = bytes.len() - 1;
    bytes[idx] ^= 0x40;
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(
            reason.contains("checksum") || reason.contains("trailing") || reason.contains("ends"),
            "unexpected reason: {reason}"
        ),
        other => panic!("corruption not detected: {other:?}"),
    }
}

#[test]
fn checksum_mismatch_reports_payload_offset() {
    let payload = [0u8; 4];
    let bytes = raw_stream_codec(1, &payload, checksum(&payload) ^ 1, CODEC_ID);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { offset, reason }) => {
            assert_eq!(offset, 24, "payload begins after 8B header + 16B frame header");
            assert!(reason.contains("checksum"));
        }
        other => panic!("expected checksum error, got {other:?}"),
    }
}

#[test]
fn zero_record_frame_is_corrupt() {
    let bytes = raw_stream_v2(0, &[0u8; 2]);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("zero-record")),
        other => panic!("expected zero-record error, got {other:?}"),
    }
}

#[test]
fn zero_length_payload_is_corrupt() {
    let bytes = raw_stream_v2(3, &[]);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("zero-length")),
        other => panic!("expected zero-length error, got {other:?}"),
    }
}

#[test]
fn truncated_header_and_payload_are_corrupt() {
    let bytes = encode_to_vec(sample_entries(), 64);
    // Inside the frame header.
    match decode_from_slice(&bytes[..8 + 5]) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("frame header")),
        other => panic!("expected truncated-header error, got {other:?}"),
    }
    // Inside the payload.
    match decode_from_slice(&bytes[..bytes.len() - 1]) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("payload")),
        other => panic!("expected truncated-payload error, got {other:?}"),
    }
}

#[test]
fn unknown_tag_is_corrupt_even_with_valid_checksum() {
    // pc escape (bitmap 0, delta 0), then a static escape naming record
    // code 26, which does not exist.
    let bytes = raw_stream_v2(1, &[0x00, 0x00, 0x00, 26]);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("unknown record tag")),
        other => panic!("expected unknown-tag error, got {other:?}"),
    }
}

#[test]
fn out_of_range_register_is_corrupt() {
    // pc escape, then a static escape for ImmToReg (code 0) with register
    // index 9: `code | regs << 5` = 288, varint 0xa0 0x02.
    let bytes = raw_stream_v2(1, &[0x00, 0x00, 0x00, 0xa0, 0x02]);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("register")),
        other => panic!("expected register-range error, got {other:?}"),
    }
}

#[test]
fn trailing_payload_bytes_are_corrupt() {
    // One valid ImmToReg record (pc escape, static escape `0 | 3 << 5`;
    // no address or value slots) plus a stray byte, checksummed
    // correctly.
    let bytes = raw_stream_v2(1, &[0x00, 0x00, 0x00, 0x60, 0xEE]);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("trailing")),
        other => panic!("expected trailing-bytes error, got {other:?}"),
    }
}

#[test]
fn inflated_record_count_is_rejected_before_allocation() {
    // Valid 4-byte payload and checksum, but a record count (the header
    // is not checksummed) that no 4-byte payload could hold: must be a
    // typed error, not a huge `Vec::reserve`.
    let bytes = raw_stream_v2(u32::MAX, &[0x00, 0x00, 0x00, 0x60]);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("inconsistent")),
        other => panic!("expected count-consistency error, got {other:?}"),
    }
}

#[test]
fn oversized_length_field_is_rejected_before_allocation() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd payload_len
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&CODEC_ID.to_le_bytes());
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("bound")),
        other => panic!("expected length-bound error, got {other:?}"),
    }
}

#[test]
fn empty_stream_and_empty_chunks() {
    // Header-only stream: zero entries.
    let bytes = encode_to_vec(std::iter::empty(), 64);
    assert_eq!(decode_from_slice(&bytes).unwrap(), Vec::<TraceEntry>::new());
    // Writer skips empty batches entirely.
    let mut w = TraceWriter::new(Vec::new()).unwrap();
    w.write_chunk(&[]).unwrap();
    assert_eq!(w.chunks(), 0);
    let bytes = w.finish().unwrap();
    assert_eq!(decode_from_slice(&bytes).unwrap(), Vec::<TraceEntry>::new());
}

// ---------------------------------------------------------------------------
// Predictor error paths: the hit bitmaps and predictor tables are attack
// surface of their own.
// ---------------------------------------------------------------------------

#[test]
fn unknown_codec_id_in_frame_header_is_corrupt() {
    // 1 is the retired delta codec; 7 never existed. Both are rejected
    // from the header alone, whatever the payload holds.
    let payload = [0u8, 0u8];
    for codec in [0, 1, 7] {
        let bytes = raw_stream_codec(1, &payload, checksum(&payload), codec);
        match decode_from_slice(&bytes) {
            Err(TraceError::Corrupt { offset, reason }) => {
                assert_eq!(offset, 8, "codec {codec}: the frame header's offset");
                assert!(reason.contains("codec id"), "codec {codec}: {reason}");
            }
            other => panic!("codec {codec}: expected unknown-codec error, got {other:?}"),
        }
        let mut out = igm_lba::TraceBatch::new();
        assert!(matches!(
            igm_trace::decode_frame(&bytes[8..], 8, &mut out),
            Err(TraceError::Corrupt { reason: "unknown codec id in frame header", .. })
        ));
    }
}

#[test]
fn pc_hit_on_unseeded_predictor_slot_is_corrupt() {
    // Record 0 claims a pc predictor hit, but no escape ever seeded the
    // table — a decoder that trusted it would read uninitialized state.
    let bytes = raw_stream_v2(1, &[0x01, 0x00]);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("unseeded")),
        other => panic!("expected unseeded-slot error, got {other:?}"),
    }
}

#[test]
fn static_hit_on_unseeded_predictor_slot_is_corrupt() {
    // pc misses (escape: delta 0), then the static column claims a hit on
    // a table nothing seeded.
    let bytes = raw_stream_v2(1, &[0x00, 0x00, 0x01]);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("unseeded")),
        other => panic!("expected unseeded-slot error, got {other:?}"),
    }
}

#[test]
fn nonzero_bitmap_padding_is_corrupt() {
    // One record, but a hit bit set past it in the bitmap's padding.
    let bytes = raw_stream_v2(1, &[0x02, 0x00]);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("padding")),
        other => panic!("expected bitmap-padding error, got {other:?}"),
    }
}

#[test]
fn payload_ending_inside_a_bitmap_is_corrupt() {
    // pc bitmap + escape consume both bytes; the static bitmap read runs
    // off the end of the payload.
    let bytes = raw_stream_v2(1, &[0x00, 0x00]);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("bitmap")),
        other => panic!("expected truncated-bitmap error, got {other:?}"),
    }
}

#[test]
fn predicted_frame_corruption_never_panics() {
    // Every single-byte corruption of a real predicted stream must come
    // back as a typed error or a correct decode — never a panic.
    let entries = sample_entries();
    let good = encode_to_vec(entries.iter().copied(), 256);
    for i in 8..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0x01;
        match decode_from_slice(&bad) {
            Ok(_) | Err(TraceError::Corrupt { .. }) => {}
            Err(e) => panic!("byte {i}: unexpected error class: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Adversarial stream shapes: the predictor stack must stay lossless on
// streams it compresses well AND on streams it cannot predict at all.
// ---------------------------------------------------------------------------

fn roundtrip(entries: &[TraceEntry], chunk_bytes: u32) -> f64 {
    let bytes = encode_to_vec(entries.iter().copied(), chunk_bytes);
    assert_eq!(decode_from_slice(&bytes).expect("roundtrip decodes"), entries);
    (bytes.len() - 8) as f64 / entries.len() as f64
}

#[test]
fn constant_stream_compresses_below_one_byte_per_record() {
    // A tight loop re-executing one load: every predictor locks on, so
    // each record costs four hit bits plus amortized frame headers.
    let entries: Vec<TraceEntry> = (0..8_192)
        .map(|_| {
            TraceEntry::op(
                0x0804_8000,
                OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Ecx },
            )
        })
        .collect();
    let bpr = roundtrip(&entries, 1 << 20);
    assert!(bpr < 1.0, "constant stream must beat 1 B/record, got {bpr:.3}");
}

#[test]
fn strided_loop_compresses_below_one_byte_per_record() {
    // A four-instruction loop sweeping an array with a fixed stride: pc
    // chains repeat and the per-slot stride predictor tracks the sweep.
    let mut entries = Vec::new();
    for i in 0u32..4_096 {
        let base = 0x1000_0000 + i * 4;
        entries.push(TraceEntry::op(0x0804_8000, OpClass::ImmToReg { rd: Reg::Eax }));
        entries.push(TraceEntry::op(
            0x0804_8004,
            OpClass::MemToReg { src: MemRef::word(base), rd: Reg::Ecx },
        ));
        entries.push(TraceEntry::op(
            0x0804_8008,
            OpClass::RegToMem { rs: Reg::Ecx, dst: MemRef::word(0x2000_0000 + i * 4) },
        ));
        entries.push(TraceEntry::ctrl(0x0804_800c, CtrlOp::Direct));
    }
    let bpr = roundtrip(&entries, 1 << 20);
    assert!(bpr < 1.0, "strided loop must beat 1 B/record, got {bpr:.3}");
}

#[test]
fn random_stream_roundtrips_and_stays_bounded() {
    // Unpredictable pcs and addresses (xorshift): most fields escape, and
    // the miss path must stay within a small factor of the raw deltas.
    let mut x = 0x9e37_79b9u32;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        x
    };
    let entries: Vec<TraceEntry> = (0..8_192)
        .map(|_| {
            TraceEntry::op(step(), OpClass::MemToReg { src: MemRef::word(step()), rd: Reg::Edx })
        })
        .collect();
    let bpr = roundtrip(&entries, 1 << 20);
    // Two random u32 deltas cost ~5 varint bytes each; the predicted
    // codec adds only its half-byte of hit bits on top of that worst case.
    assert!(bpr < 13.0, "random stream must stay bounded, got {bpr:.3}");
}

#[test]
fn mixed_phases_roundtrip() {
    // Phase changes mid-frame: constant, then strided, then random, then
    // back — predictor retraining must never lose a record.
    let mut x = 0x1234_5678u32;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        x
    };
    let mut entries = Vec::new();
    for phase in 0..8 {
        for i in 0u32..512 {
            entries.push(match phase % 3 {
                0 => TraceEntry::op(0x0804_8000, OpClass::ImmToReg { rd: Reg::Eax }),
                1 => TraceEntry::op(
                    0x0805_0000 + (i % 4) * 4,
                    OpClass::MemToReg { src: MemRef::word(0x9000 + i * 8), rd: Reg::Ecx },
                ),
                _ => TraceEntry::op(
                    step(),
                    OpClass::RegToMem { rs: Reg::Ebx, dst: MemRef::word(step()) },
                ),
            });
        }
    }
    roundtrip(&entries, 4096);
}

// ---------------------------------------------------------------------------
// The one container: version word and codec field.
// ---------------------------------------------------------------------------

#[test]
fn writer_emits_the_one_version_and_codec() {
    let mut w = TraceWriter::new(Vec::new()).unwrap();
    w.write_chunk(&sample_entries()[..2]).unwrap();
    w.write_chunk(&sample_entries()[2..]).unwrap();
    let bytes = w.finish().unwrap();
    assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), FORMAT_VERSION);
    // Every frame header's codec field reads CODEC_ID.
    let mut at = 8;
    let mut frames = 0;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap()) as usize;
        assert_eq!(u32::from_le_bytes(bytes[at + 12..at + 16].try_into().unwrap()), CODEC_ID);
        at += 16 + len;
        frames += 1;
    }
    assert_eq!((at, frames), (bytes.len(), 2));
}

#[test]
fn reader_preserves_chunk_structure() {
    let entries = sample_entries();
    let mut w = TraceWriter::new(Vec::new()).unwrap();
    w.write_chunk(&entries[..2]).unwrap();
    w.write_chunk(&entries[2..]).unwrap();
    let bytes = w.finish().unwrap();
    let mut r = TraceReader::new(&bytes[..]).unwrap();
    let mut chunk = Vec::new();
    assert!(r.read_chunk_into(&mut chunk).unwrap());
    assert_eq!(chunk, &entries[..2]);
    assert!(r.read_chunk_into(&mut chunk).unwrap());
    assert_eq!(chunk, &entries[2..]);
    assert!(!r.read_chunk_into(&mut chunk).unwrap());
    assert!(chunk.is_empty(), "clean EOF leaves the buffer cleared");
    assert_eq!(r.chunks(), 2);
    assert_eq!(r.records(), 4);
}
