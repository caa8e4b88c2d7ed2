//! Golden `Stats` fixtures: one fixed snapshot, checked in as its binary
//! server frame (`fixtures/stats_v3.bin`) and its JSON-lines reply
//! (`fixtures/stats_v3.json`). The positional counter block *is* the v3
//! wire format, so neither file may change without a
//! `WIRE_VERSION`/`PROTOCOL_VERSION` bump.
//!
//! The snapshot is written out below as its v3 payload, from the frame
//! layout alone: every block slot is distinct (slot k holds 1000 + k),
//! the GC watermark is set and both latency snapshots are non-zero. The
//! JSON file then pins which field name each slot carries.

use gridband_serve::metrics::StatsSnapshot;
use gridband_serve::protocol::{decode_server, encode_server, ServerMsg};
use gridband_serve::wire::{decode_server_payload, encode_server_frame, FrameBuf};

const FRAME: &[u8] = include_bytes!("fixtures/stats_v3.bin");
const LINE: &str = include_str!("fixtures/stats_v3.json");

/// `u64` slots in the v3 counter block.
const SLOTS: u64 = 57;

/// The fixed snapshot's v3 server payload: tag, header, block, trailer.
fn golden_payload() -> Vec<u8> {
    let mut p = vec![7u8]; // server tag of `Stats`
    let role = b"primary";
    p.extend((role.len() as u32).to_le_bytes());
    p.extend(role);
    p.extend(86_400u64.to_le_bytes()); // uptime_s
    p.extend(3u32.to_le_bytes()); // protocol_version
    for k in 0..SLOTS {
        p.extend((1000 + k).to_le_bytes());
    }
    p.extend(4096.5f64.to_bits().to_le_bytes()); // virtual_time
    p.push(1); // gc_watermark: Some
    p.extend(3968.25f64.to_bits().to_le_bytes());
    // decision_latency, then fsync: count, mean, p50, p95, p99 (ms).
    for (count, ms) in [
        (2001u64, [0.75, 0.5, 2.0, 4.0]),
        (77, [1.5, 1.0, 8.0, 16.0]),
    ] {
        p.extend(count.to_le_bytes());
        for v in ms {
            p.extend(f64::to_bits(v).to_le_bytes());
        }
    }
    p
}

fn golden() -> StatsSnapshot {
    match decode_server_payload(&golden_payload()) {
        Ok(ServerMsg::Stats(s)) => s,
        other => panic!("golden payload must decode as Stats, got {other:?}"),
    }
}

#[test]
fn golden_snapshot_spells_the_v3_slot_order() {
    let s = golden();
    assert_eq!(s.role, "primary");
    assert_eq!((s.submitted, s.recovery_replayed_records), (1000, 1017));
    assert_eq!(
        (s.admit_threads, s.shards, s.largest_shard),
        (1018, 1019, 1020)
    );
    assert_eq!((s.repl_records_shipped, s.repl_divergence), (1021, 1034));
    assert_eq!((s.accepted_gold, s.amends_rejected), (1039, 1052));
    assert_eq!((s.pending, s.live_reservations), (1053, 1054));
    assert_eq!((s.gc_truncated_bps, s.breakpoints_live), (1055, 1056));
    assert_eq!(s.gc_watermark, Some(3968.25));
    assert_eq!((s.decision_latency.count, s.fsync.p99_ms), (2001, 16.0));
}

#[test]
fn binary_stats_frame_matches_the_fixture() {
    let msg = ServerMsg::Stats(golden());
    assert!(
        encode_server_frame(&msg) == FRAME,
        "encoder drifted from fixtures/stats_v3.bin"
    );
    let mut fb = FrameBuf::new();
    fb.extend(FRAME);
    let payload = fb.next_frame().expect("frame ok").expect("one frame");
    assert_eq!(payload, golden_payload());
    assert_eq!(
        decode_server_payload(&payload).expect("decode fixture"),
        msg
    );
}

#[test]
fn json_stats_line_matches_the_fixture() {
    let msg = ServerMsg::Stats(golden());
    assert_eq!(format!("{}\n", encode_server(&msg)), LINE);
    assert_eq!(decode_server(LINE.trim_end()).expect("decode fixture"), msg);
}
