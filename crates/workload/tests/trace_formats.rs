//! Property tests for the trace codecs and the scaler.
//!
//! * **Round-trips** — arbitrary finite, time-ordered records survive the
//!   JSON-lines codec and the versioned `.events` streaming codec exactly
//!   (f64 `{:?}` rendering and the LE byte layout are both lossless), at
//!   every chunk size.
//! * **Corruption** — truncations, header bit-flips, and wrong versions
//!   are *errors*, never panics, and never yield phantom records.
//! * **Scaling** — a K-copy superposition has exactly K× the records,
//!   disjoint per-copy key ranges, and preserves every copy's
//!   inter-arrival structure to 1e-9 relative; the lazy merge equals the
//!   eager one.

use proptest::prelude::*;
use std::io::BufReader;
use workload::events::{encode_events, RECORD_BYTES};
use workload::{ItemId, TraceRecord, TraceScaler, TraceSource, TraceStream, TraceWriter};

/// Finite records with non-decreasing times — what every recorder
/// produces and every validated decoder demands. Items stay below 2^20
/// so a 2^32 key stride always gives disjoint copies, and clients below
/// 2^16 (the folded ids recorders emit) so client offsets cannot wrap.
fn records_strategy(max_len: usize) -> impl Strategy<Value = Vec<TraceRecord>> {
    proptest::collection::vec(
        (0.0f64..8.0, 0u32..(1 << 16), 0u64..(1 << 20), 0.0f64..2.0e4),
        0..max_len,
    )
    .prop_map(|raw| {
        let mut t = 0.0;
        raw.into_iter()
            .map(|(dt, client, item, size)| {
                t += dt;
                TraceRecord::new(t, client, ItemId(item), size)
            })
            .collect()
    })
}

proptest! {
    /// `.events` identity: encode, then stream-decode at an arbitrary
    /// chunk size — the records come back exactly, and the stream never
    /// holds more than one chunk resident.
    #[test]
    fn events_roundtrip_is_identity(
        records in records_strategy(120),
        chunk in 1usize..64,
    ) {
        let bytes = encode_events(&records).expect("finite ordered records encode");
        let mut stream = TraceStream::with_chunk(&bytes[..], chunk)
            .expect("header parses");
        // Explicit form: `Iterator::count` would shadow the inherent accessor.
        prop_assert_eq!(TraceStream::count(&stream), records.len() as u64);
        let mut decoded = Vec::new();
        for rec in &mut stream {
            decoded.push(rec.expect("valid records decode"));
        }
        prop_assert_eq!(decoded, records);
        prop_assert!(
            stream.peak_resident_bytes() <= chunk * RECORD_BYTES,
            "resident {} bytes exceeds one {}-record chunk",
            stream.peak_resident_bytes(), chunk
        );
    }

    /// JSON-lines identity: `{:?}` float rendering round-trips f64
    /// exactly, so the decoded records equal the originals bit-for-bit.
    #[test]
    fn json_roundtrip_is_identity(records in records_strategy(80)) {
        let mut w = TraceWriter::new(Vec::new());
        for rec in &records {
            w.write(rec).expect("finite records serialise");
        }
        let bytes = w.into_inner();
        let decoded = workload::TraceReader::new(BufReader::new(&bytes[..]))
            .read_all()
            .expect("own output parses");
        prop_assert_eq!(decoded, records);
    }

    /// Any strict prefix of an `.events` encoding is an error — in the
    /// header (open fails) or the body (a record comes back `Err`) — and
    /// decoding never panics or invents records.
    #[test]
    fn truncated_events_error_never_panic(
        records in records_strategy(60),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = encode_events(&records).expect("encode");
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < bytes.len());
        let outcome = TraceStream::open(&bytes[..cut])
            .and_then(|s| s.collect::<Result<Vec<_>, _>>());
        match outcome {
            Err(_) => {}
            Ok(decoded) => {
                return Err(TestCaseError::Fail(format!(
                    "truncation at {cut}/{} decoded {} records without error",
                    bytes.len(), decoded.len()
                )));
            }
        }
    }

    /// Flipping any bit of the magic/version/reserved header words is
    /// rejected at `open` — a reader can never silently misread a file
    /// from the wrong format or a future version.
    #[test]
    fn corrupted_header_is_rejected(
        records in records_strategy(40),
        byte in 0usize..8,
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_events(&records).expect("encode");
        bytes[byte] ^= flip;
        prop_assert!(
            TraceStream::open(&bytes[..]).is_err(),
            "corrupted header byte {} accepted", byte
        );
    }

    /// The scaler contract: K× the records, per-copy key ranges disjoint
    /// by construction, clients offset per copy, and each copy's
    /// inter-arrival times dilated by exactly its factor (to 1e-9
    /// relative). The lazy merge and the eager sort agree exactly.
    #[test]
    fn scaler_preserves_structure(
        records in records_strategy(60),
        copies in 2u32..6,
        dilation_step in 0.0f64..0.5,
    ) {
        let stride = 1u64 << 32;
        let scaler = TraceScaler {
            copies,
            dilation_step,
            key_stride: stride,
            client_stride: 1 << 16,
        };
        let scaled = scaler.scale_records(&records);
        prop_assert_eq!(scaled.len(), records.len() * copies as usize);

        for copy in 0..copies {
            let (lo, hi) = (u64::from(copy) * stride, (u64::from(copy) + 1) * stride);
            let lane: Vec<&TraceRecord> =
                scaled.iter().filter(|r| (lo..hi).contains(&r.item.0)).collect();
            prop_assert_eq!(lane.len(), records.len(), "copy {} lost records", copy);
            let d = scaler.dilation(copy);
            for (orig, got) in records.iter().zip(&lane) {
                prop_assert_eq!(got.item.0 - lo, orig.item.0);
                prop_assert_eq!(got.client - copy * (1 << 16), orig.client);
                prop_assert_eq!(got.size, orig.size);
            }
            for i in 1..lane.len() {
                let want = d * (records[i].time - records[i - 1].time);
                let got = lane[i].time - lane[i - 1].time;
                prop_assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "copy {} inter-arrival {} drifted from {}", copy, got, want
                );
            }
        }

        // Lazy K-way merge over the source equals the eager sort exactly.
        if !records.is_empty() {
            let source = TraceSource::from_records(&records).expect("encode");
            let lazy: Vec<TraceRecord> = scaler
                .scale(&source, 16)
                .expect("streams open")
                .collect::<Result<_, _>>()
                .expect("valid records merge");
            prop_assert_eq!(lazy, scaled);
        }
    }
}
