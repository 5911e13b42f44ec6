//! A response past the frame cap: the server answers it with a typed,
//! non-retryable error in its place — never a frame the client's decoder
//! would reject, which would poison the connection for good — and the
//! same connection keeps serving.

use std::sync::Arc;

use bwd_engine::Database;
use bwd_net::{Frame, NetClient, NetConfig, NetServer, WireMode, DEFAULT_MAX_FRAME_LEN};
use bwd_sched::{SchedConfig, Scheduler};
use bwd_storage::Column;
use bwd_types::BwdError;

const ROWS: i32 = 1_500_000;

#[test]
fn an_over_cap_result_is_a_typed_error_and_the_connection_lives() {
    let mut db = Database::new();
    db.create_table(
        "r",
        vec![("a".into(), Column::from_i32((0..ROWS).collect()))],
    )
    .unwrap();
    let sched = Scheduler::new(
        Arc::new(db),
        SchedConfig {
            workers: 1,
            ..SchedConfig::default()
        },
    );
    let mut server = NetServer::with_config(sched, NetConfig::default());
    let mut client = NetClient::new(Box::new(server.connect()));
    let handle = server.spawn();

    client
        .send(&Frame::Query {
            mode: WireMode::Classic,
            sql: "select a from r".into(),
        })
        .unwrap();
    // The result frame: type byte, a column count and one column name
    // (4 + 4 + 1 B), a row count (4 B), 13 B per row (a 4-byte value
    // count, a tag, an i64), three cost bits, three traffic counters and
    // the survivors (8 B each), an approx flag (1 B).
    let len = 1 + 9 + 4 + 13 * ROWS as u64 + 7 * 8 + 1;
    assert!(len > u64::from(DEFAULT_MAX_FRAME_LEN));
    match client.recv().unwrap() {
        Frame::Error {
            error: BwdError::InvalidArgument(m),
            retryable: false,
        } => assert!(
            m.contains(&format!(
                "of {len} bytes exceeds the {DEFAULT_MAX_FRAME_LEN}-byte frame cap"
            )),
            "{m}"
        ),
        other => panic!("expected a non-retryable InvalidArgument, got {other:?}"),
    }
    client.ping().unwrap();

    let server = handle.shutdown();
    let metrics = server.metrics_text();
    assert!(
        metrics.contains("bwd_net_protocol_errors_total 0\n"),
        "{metrics}"
    );
    server.into_scheduler().shutdown();
}
