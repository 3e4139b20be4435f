//! Verifies the daemon's cross-request arena pooling with the counting
//! global allocator: the second job on a worker must reuse the first
//! job's scratch arena, and pooling must save at least every byte the
//! arena holds. Lives in its own test binary, and runs as one test, so
//! the allocator counters see only this scenario.

use kraftwerk::netlist::format::{read_netlist, write_netlist};
use kraftwerk::netlist::synth::{generate, SynthConfig};
use kraftwerk::netlist::Netlist;
use kraftwerk::placer::{KraftwerkConfig, PlacementSession, ScratchArena};
use kraftwerk::serve::{Client, PlaceOptions, ServeConfig, Server};
use kraftwerk::trace::alloc::{self, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator::system();

/// Heap bytes allocated by a cold and then a warm in-process run of
/// `netlist`, the warm run on the arena the cold one filled. Their
/// difference is the arena's fill: everything else a run allocates is
/// the same in both.
fn session_bytes(netlist: &Netlist, cfg: &KraftwerkConfig) -> (u64, u64) {
    let run = |arena| {
        let before = alloc::stats();
        let mut session = PlacementSession::with_arena(netlist, cfg.clone(), arena);
        session.run_loop_with(|_, _| {}).expect("placement");
        let (_, arena) = session.into_parts();
        (alloc::stats().since(&before).bytes_allocated, arena)
    };
    let (cold, arena) = run(ScratchArena::default());
    let (warm, _) = run(arena);
    (cold, warm)
}

#[test]
fn second_job_reuses_pooled_arena_and_allocates_less() {
    let server = Server::bind(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let mut c = Client::connect(handle.addr()).expect("connect");
    let text = write_netlist(&generate(&SynthConfig::with_size("srv-arena", 500, 650, 8)));
    let opts = PlaceOptions {
        max_transformations: Some(10),
        ..PlaceOptions::default()
    };

    alloc::set_tracking(true);
    let base = alloc::stats();
    let first = c.place("arena-1", &text, &opts).expect("transport");
    let after_first = alloc::stats();
    let second = c.place("arena-2", &text, &opts).expect("transport");
    let after_second = alloc::stats();
    alloc::set_tracking(false);

    handle.shutdown();
    let summary = join.join().expect("no panic").expect("clean run");
    assert_eq!(summary.jobs_ok, 2);
    assert_eq!(summary.arena_reuses, 1);

    assert_eq!(first.status, "ok");
    assert_eq!(second.status, "ok");
    assert!(!first.arena_pooled, "first job starts with a cold arena");
    assert!(second.arena_pooled, "second job must reuse the pooled arena");
    // Identical placements: pooling must not change the result.
    assert_eq!(first.hpwl.to_bits(), second.hpwl.to_bits());

    // The same netlist and config as the daemon's fast-mode jobs, run in
    // process after the daemon has stopped (nothing else allocates).
    let netlist = read_netlist(&text).expect("parse");
    let mut cfg = KraftwerkConfig::fast();
    cfg.max_transformations = 10;
    alloc::set_tracking(true);
    let (cold_run, warm_run) = session_bytes(&netlist, &cfg);
    alloc::set_tracking(false);
    let fill = cold_run.saturating_sub(warm_run);
    assert!(fill > 0, "a warm arena must save heap (cold {cold_run} B, warm {warm_run} B)");

    let cold = after_first.since(&base).bytes_allocated;
    let warm = after_second.since(&after_first).bytes_allocated;
    assert!(
        cold.saturating_sub(warm) >= fill,
        "the pooled job must save at least the arena's {fill} B fill \
         (cold job {cold} B, warm job {warm} B)"
    );
}
