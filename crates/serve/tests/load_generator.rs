//! The `rapidviz-load` binary against a server that refuses its queries:
//! error frames are neither completed sessions nor latency samples, and
//! they fail the run — otherwise the CI loopback smoke passes with every
//! query rejected.

use rapidviz::needletail::{ColumnDef, DataType, NeedleTail, Schema, TableBuilder, Value};
use rapidviz_serve::{Server, ServerConfig};
use std::process::Command;

#[test]
fn refused_queries_are_errors_not_completed_sessions() {
    // `name` groups, but none of the flight measures the generator asks
    // for: every query comes back `InvalidQuery`.
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("name", DataType::Str),
        ColumnDef::new("y", DataType::Float),
    ]));
    for i in 0..200 {
        b.push_row(vec![["a", "b"][i % 2].into(), Value::Float(i as f64)]);
    }
    let engine = NeedleTail::new(b.finish(), &["name"]).expect("engine builds");
    let handle = Server::start(engine, ServerConfig::default()).expect("server binds");

    let out = Command::new(env!("CARGO_BIN_EXE_rapidviz-load"))
        .args(["--addr", &handle.local_addr().to_string()])
        .args(["--clients", "1", "--queries-per-client", "2"])
        .output()
        .expect("rapidviz-load runs");
    handle.shutdown();

    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("rapidviz-load: 0 sessions, 2 errored,"),
        "summary must report the refusals, got: {stdout}"
    );
    assert!(stdout.contains("n=0"), "no TTFCB samples, got: {stdout}");
    assert_eq!(out.status.code(), Some(1), "refusals must fail the run");
}
