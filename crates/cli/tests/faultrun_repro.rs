//! `faultrun repro` replays a case on the backend its tuple names: a
//! `pool:` tuple on a pool directory, a bare one on the heap. A process of
//! its own, because the fault registry a replay arms is process-global.

use hdnh_cli::engine::Outcome;
use hdnh_cli::{parse, Engine, EngineConfig};

fn repro(e: &mut Engine, tuple: &str) -> Outcome {
    e.execute(parse(&format!("faultrun repro {tuple}")).unwrap().unwrap())
}

#[test]
fn a_tuple_replays_on_the_backend_it_names() {
    let mut e = Engine::new(EngineConfig::default());
    // A crash mid-migration of a live resize: one of the cases the pool
    // rows of `tests/fault_matrix.rs` run, and the same numbers on the heap.
    for tuple in [
        "pool:fill-resize:resize.bucket_migrated:24:1",
        "fill-resize:resize.bucket_migrated:24:1",
    ] {
        assert_eq!(repro(&mut e, tuple), Outcome::Text(format!("PASS {tuple}")));
    }
    // A crash inside recovery is a heap case: a pool tuple asking for one
    // fails and says why instead of replaying something else.
    match repro(&mut e, "pool:fill-resize:resize.allocated:1:1:recover.opened:1") {
        Outcome::Failure(out) => assert!(out.contains("heap only"), "{out}"),
        other => panic!("a pool tuple with a recovery plan ran: {other:?}"),
    }
}
