//! Hostile counts must not become allocations. A frame may declare a
//! sequence of millions of items in a few bytes; the decoder has to find
//! out that the payload cannot hold them before it reserves memory for
//! them. A counting global allocator records the largest single request
//! made while one decode runs on this thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gridband_serve::wire::{decode_client_payload, decode_server_payload, WireError, MAX_FRAME};

struct Counting;

thread_local! {
    /// Largest allocation seen on this thread while armed; `None` when off.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| {
        if let Some(max) = l.get() {
            l.set(Some(max.max(size)));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Largest single allocation `f` makes on this thread.
fn largest_alloc<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|l| l.set(Some(0)));
    let out = f();
    let max = LARGEST.with(|l| l.replace(None)).unwrap_or(0);
    (out, max)
}

const LIMIT: usize = 4096;

/// An `AcceptedSegments` payload (server tag 11) whose count claims `n`
/// segments and whose body holds `body` bytes.
fn segments_payload(n: u32, body: usize) -> Vec<u8> {
    let mut p = vec![11u8];
    p.extend(42u64.to_le_bytes());
    p.extend(n.to_le_bytes());
    p.extend(std::iter::repeat_n(0u8, body));
    p
}

#[test]
fn thirteen_byte_segment_frame_allocates_nothing_large() {
    // n × 24 bytes just under 64 MiB: the largest count the frame bound
    // alone would let through.
    let payload = segments_payload(2_796_202, 0);
    assert_eq!(payload.len(), 13);
    let (got, max) = largest_alloc(|| decode_server_payload(&payload));
    assert!(matches!(got, Err(WireError::Malformed(_))), "got {got:?}");
    assert!(
        max <= LIMIT,
        "decoding 13 bytes allocated {max} bytes at once"
    );
}

#[test]
fn hostile_counts_never_outgrow_the_payload() {
    for (n, body) in [
        (u32::MAX, 0),
        ((MAX_FRAME / 24) as u32, 0),
        (1_000_000, 48),
        (1000, 24 * 100),
    ] {
        let payload = segments_payload(n, body);
        let (got, max) = largest_alloc(|| decode_server_payload(&payload));
        assert!(got.is_err(), "n={n}: decoded {got:?}");
        assert!(
            max <= LIMIT,
            "n={n}, {body} body bytes: one allocation of {max} bytes"
        );
    }
}

#[test]
fn hostile_string_lengths_allocate_nothing_large() {
    // Server `Error` (tag 10): a code string that claims 4 GiB.
    let mut server = vec![10u8];
    server.extend(u32::MAX.to_le_bytes());
    // Client payload: version 3, then a tag past the last variant.
    let client = [3u8, 250, 0xff, 0xff, 0xff, 0xff];
    let (got, max) = largest_alloc(|| decode_server_payload(&server));
    assert!(got.is_err() && max <= LIMIT, "{got:?}, {max} bytes");
    let (got, max) = largest_alloc(|| decode_client_payload(&client));
    assert_eq!(got, Err(WireError::UnknownTag(250)));
    assert!(max <= LIMIT, "{max} bytes");
}
