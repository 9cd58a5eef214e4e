//! Mutation fuzzing of the GCS control-frame decoder.
//!
//! A worker process's every GCS call reaches the driver as one frame that
//! [`Gcs::serve`] decodes before it touches the tables. A frame cut short,
//! corrupted or padded by a half-dead peer must come back as a typed answer,
//! never a panic in the driver, and never an allocation sized from a count
//! the decoder has not checked. The suite builds a valid frame of every call
//! `serve` accepts (`COMMIT_TASK` once per [`LineageSource`]) from a seeded
//! RNG, then serves truncations, flipped and inserted bytes, and `u32::MAX`
//! counts, each to a fresh GCS, under an allocator that records the largest
//! single allocation.

use crate::remote::Encode;
use crate::tables::{
    call, ChannelState, Gcs, LineageRecord, LineageSource, PartitionEntry, ReplayRequest,
    TaskCommit,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use quokka_batch::wire::WireReader;
use quokka_common::ids::{ChannelAddr, TaskName};
use quokka_common::QuokkaError;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::SocketAddr;

thread_local! {
    /// The largest single allocation this thread asked for since the last
    /// reset (see [`largest_allocation`]).
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording each thread's largest request.
struct RecordingAllocator;

fn record(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are exactly the ones `System` needs; recording a size
// only touches a const-initialized thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for RecordingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: RecordingAllocator = RecordingAllocator;

/// Run `f`, returning its result and the largest single allocation it made.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// What serving a frame of `len` bytes may allocate at once: a decoded list
/// holds at most twice the bytes it was read from (its capacity doubles as
/// it grows), and a call adds table nodes of a fixed size.
fn bytes_bound(len: usize) -> usize {
    4 * len + 4096
}

/// Serve `frame` to a fresh GCS holding `channels`: it answers or fails
/// with a typed Storage error — a decoded commit may also abort — never
/// panics, and no allocation exceeds [`bytes_bound`]. Returns whether the
/// call was answered.
fn serve_checked(frame: &[u8], channels: &[ChannelState]) -> bool {
    let gcs = Gcs::default();
    channels.iter().for_each(|state| gcs.put_channel(state));
    let (result, largest) = largest_allocation(|| gcs.serve(&mut WireReader::new(frame)));
    assert!(largest <= bytes_bound(frame.len()), "serving {frame:?} allocated {largest} at once");
    match result {
        Ok(_) => true,
        Err(QuokkaError::Storage(_)) => false,
        Err(QuokkaError::TransactionAborted(_)) if frame[0] == call::COMMIT_TASK => false,
        Err(other) => panic!("serving {frame:?} produced the untyped error {other:?}"),
    }
}

fn frame<A: Encode + ?Sized>(call: u8, arg: &A) -> Vec<u8> {
    let mut out = vec![call];
    arg.put(&mut out);
    out
}

fn small(rng: &mut TestRng, bound: u64) -> u32 {
    rng.below(bound) as u32
}

fn addr(rng: &mut TestRng) -> ChannelAddr {
    ChannelAddr::new(small(rng, 6), small(rng, 6))
}

fn task(rng: &mut TestRng) -> TaskName {
    addr(rng).task(small(rng, 100))
}

fn maybe<T>(rng: &mut TestRng, value: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
    (rng.below(2) == 0).then(|| value(rng))
}

fn list<T>(rng: &mut TestRng, max: u64, item: impl Fn(&mut TestRng) -> T) -> Vec<T> {
    (0..rng.below(max + 1)).map(|_| item(rng)).collect()
}

fn channel_state(rng: &mut TestRng) -> ChannelState {
    ChannelState {
        addr: addr(rng),
        worker: small(rng, 4),
        committed_seq: maybe(rng, |rng| small(rng, 100)),
        consumed: list(rng, 6, |rng| small(rng, 100)),
        splits_consumed: small(rng, 50),
        done: rng.below(2) == 0,
        rewind_until: maybe(rng, |rng| small(rng, 100)),
    }
}

fn replay(rng: &mut TestRng) -> ReplayRequest {
    ReplayRequest {
        attempts: small(rng, 5),
        ..ReplayRequest::new(small(rng, 4), task(rng), addr(rng))
    }
}

/// A commit of a task of channel `addr` consuming `source`. Its
/// `prev_channel`, when present, is returned too: the GCS a valid frame is
/// served to must hold it.
fn commit(
    rng: &mut TestRng,
    addr: ChannelAddr,
    source: LineageSource,
) -> (TaskCommit, Option<ChannelState>) {
    let state = ChannelState { addr, ..channel_state(rng) };
    let name = addr.task(state.next_seq());
    let prev_channel = maybe(rng, |rng| ChannelState { addr, ..channel_state(rng) });
    let commit = TaskCommit {
        worker: state.worker,
        lineage: LineageRecord {
            task: name,
            source,
            finished_inputs: list(rng, 3, |rng| small(rng, 3)),
            finalize: rng.below(2) == 0,
        },
        partition: PartitionEntry {
            name,
            owner: state.worker,
            backed_up: rng.below(2) == 0,
            spooled: rng.below(2) == 0,
        },
        channel_state: state,
        prev_channel: prev_channel.clone(),
    };
    (commit, prev_channel)
}

/// A valid frame of every call [`Gcs::serve`] accepts, with `COMMIT_TASK`
/// once per lineage source, and the channel states the commits' snapshots
/// expect.
fn every_call(rng: &mut TestRng) -> (Vec<Vec<u8>>, Vec<ChannelState>) {
    let socket: SocketAddr = format!("127.0.0.1:{}", 1024 + rng.below(60_000)).parse().unwrap();
    let message = ["", "boom", "worker 3 stage 1: ✗ unicode"][rng.below(3) as usize];
    let mut frames = vec![
        frame(call::TRANSACTIONS, &()),
        frame(call::LINEAGE_BYTES, &()),
        frame(call::LINEAGE_COMMITTED, &task(rng)),
        frame(call::GET_LINEAGE, &task(rng)),
        frame(call::PUT_CHANNEL, &channel_state(rng)),
        frame(call::GET_CHANNEL, &addr(rng)),
        frame(call::ALL_CHANNELS, &()),
        frame(call::GET_PARTITION, &task(rng)),
        frame(call::ADD_REPLAY, &replay(rng)),
        frame(call::REPLAYS_FOR_WORKER, &small(rng, 4)),
        frame(call::REMOVE_REPLAY, &replay(rng)),
        frame(call::SET_PAUSED, &(rng.below(2) == 0)),
        frame(call::IS_PAUSED, &()),
        frame(call::MARK_WORKER_FAILED, &small(rng, 4)),
        frame(call::IS_WORKER_FAILED, &small(rng, 4)),
        frame(call::SET_QUERY_DONE, &()),
        frame(call::IS_QUERY_DONE, &()),
        frame(call::SET_QUERY_ERROR, message),
        frame(call::QUERY_ERROR, &()),
        frame(call::MARK_PARTITION_LOST, &task(rng)),
        frame(call::TAKE_LOST_PARTITIONS, &()),
        frame(call::PUBLISH_PROCESS, &(small(rng, 4), socket)),
        frame(call::PROCESS_ADDR, &small(rng, 4)),
    ];
    let mut channels = Vec::new();
    let upstream = LineageSource::Upstream {
        upstream: addr(rng),
        start_seq: small(rng, 100),
        count: small(rng, 9),
    };
    let splits = LineageSource::InputSplits { splits: list(rng, 6, |rng| rng.next_u64()) };
    // Each commit has a channel of its own, so that every snapshot holds.
    for (stage, source) in (10..).zip([upstream, splits, LineageSource::Finalize]) {
        let (commit, prev) = commit(rng, ChannelAddr::new(stage, 0), source);
        frames.push(frame(call::COMMIT_TASK, &(&commit, rng.below(2) == 0)));
        channels.extend(prev);
    }
    (frames, channels)
}

#[test]
fn the_suite_covers_every_call_serve_accepts() {
    let (frames, _) = every_call(&mut TestRng::for_case(0));
    let calls: Vec<u8> = frames.iter().map(|frame| frame[0]).collect();
    for byte in 0..=u8::MAX {
        let result = Gcs::default().serve(&mut WireReader::new(&[byte]));
        let unknown =
            matches!(&result, Err(QuokkaError::Storage(e)) if e.starts_with("unknown GCS call"));
        assert_eq!(unknown, !calls.contains(&byte), "call {byte}: {result:?}");
    }
    assert_eq!(calls.iter().filter(|&&c| c == call::COMMIT_TASK).count(), 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every call's frame is answered, and every strict prefix of it is a
    /// typed error.
    #[test]
    fn every_truncation_of_a_call_is_a_typed_error(seed in any::<i64>()) {
        let (frames, channels) = every_call(&mut TestRng::for_case(seed as u64));
        for frame in &frames {
            prop_assert!(serve_checked(frame, &channels), "the valid frame {frame:?} failed");
            for cut in 0..frame.len() {
                let answered = serve_checked(&frame[..cut], &channels);
                prop_assert!(!answered, "the prefix of {cut}/{} bytes of {frame:?} was answered", frame.len());
            }
        }
    }

    /// Flipped and inserted bytes are answered or fail cleanly.
    #[test]
    fn flipped_and_inserted_bytes_get_typed_answers(seed in any::<i64>()) {
        let (frames, channels) = every_call(&mut TestRng::for_case(seed as u64));
        let mut rng = TestRng::for_case(!seed as u64);
        for frame in &frames {
            for _ in 0..32 {
                let mut bad = frame.clone();
                if rng.below(2) == 0 {
                    for _ in 0..1 + rng.below(4) {
                        let at = rng.below(bad.len() as u64) as usize;
                        bad[at] ^= 1 + rng.below(255) as u8;
                    }
                } else {
                    let at = rng.below(bad.len() as u64 + 1) as usize;
                    for _ in 0..1 + rng.below(4) {
                        bad.insert(at, rng.next_u64() as u8);
                    }
                }
                serve_checked(&bad, &channels);
            }
        }
    }

    /// A huge value written over any four bytes of an argument — every list
    /// count and string length among them — is rejected or answered before
    /// it sizes an allocation.
    #[test]
    fn huge_counts_are_rejected_before_they_size_an_allocation(seed in any::<i64>()) {
        let (frames, channels) = every_call(&mut TestRng::for_case(seed as u64));
        for frame in &frames {
            for at in 1..frame.len().saturating_sub(3) {
                for huge in [u32::MAX, 1 << 31] {
                    let mut bad = frame.clone();
                    bad[at..at + 4].copy_from_slice(&huge.to_be_bytes());
                    serve_checked(&bad, &channels);
                }
            }
        }
    }
}
