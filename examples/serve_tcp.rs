//! The network front door, live: serve a database over real TCP and
//! talk to it with concurrent clients.
//!
//! Builds a small table, binds an ephemeral loopback port, spawns the
//! poll-based reactor on a background thread, then runs a handful of
//! client threads that ping and query over plain sockets — no async
//! runtime anywhere. Every answer is asserted equal to the serial
//! reference the embedded database gave before serving, and the
//! server's `bwd_net_protocol_errors_total` to be 0. Finishes by
//! printing the `bwd_net_*` metrics the server collected.
//!
//! ```text
//! cargo run --release --example serve_tcp
//! ```

use waste_not::net::{NetClient, WireMode};
use waste_not::storage::Column;
use waste_not::{Db, ExecMode, NetConfig, QueryResult, Result};

const CLIENTS: usize = 4;
const MODES: [(WireMode, ExecMode); 2] = [
    (WireMode::Classic, ExecMode::Classic),
    (WireMode::ApproxRefine, ExecMode::ApproxRefine),
];

/// Client `id`'s query.
fn query_of(id: usize) -> String {
    format!("select count(*) from points where x < {}", (id + 1) * 100)
}

fn main() -> Result<()> {
    let mut db = Db::new();
    db.create_table(
        "points",
        vec![
            (
                "x".into(),
                Column::from_i32((0..100_000).map(|i| i % 1000).collect()),
            ),
            (
                "y".into(),
                Column::from_i32((0..100_000).map(|i| (i * 7) % 1000).collect()),
            ),
        ],
    )?;
    // Decompose for Approximate & Refine co-processing over the wire.
    db.sql("select bwdecompose(x, 24) from points")?;

    // The serial reference: every client's query in both modes, run
    // embedded before the database is served.
    let mut reference: Vec<Vec<QueryResult>> = Vec::new();
    for id in 0..CLIENTS {
        let mut per_mode = Vec::new();
        for (_, mode) in MODES {
            let out = db.sql_mode(&query_of(id), mode)?;
            per_mode.extend(out.query().cloned());
        }
        reference.push(per_mode);
    }

    let mut server = db.serve_net(NetConfig::default());
    let addr = server
        .bind(("127.0.0.1", 0))
        .expect("bind loopback ephemeral port");
    println!("serving on {addr}\n");
    let handle = server.spawn();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|id| {
            std::thread::spawn(move || -> Result<Vec<QueryResult>> {
                let mut client = NetClient::connect_tcp(addr)
                    .map_err(|e| waste_not::BwdError::Exec(format!("connect: {e}")))?;
                client.ping()?;
                let mut answers = Vec::new();
                for (wire, _) in MODES {
                    let result = client.query(&query_of(id), wire)?;
                    println!(
                        "client {id} {wire:?}: {} -> {} (simulated {:.3} ms, pcie {} B)",
                        query_of(id),
                        result.rows[0][0],
                        (result.breakdown.device + result.breakdown.host + result.breakdown.pcie)
                            * 1e3,
                        result.traffic.pcie,
                    );
                    answers.push(result);
                }
                Ok(answers)
            })
        })
        .collect();
    for (id, c) in clients.into_iter().enumerate() {
        let answers = c.join().expect("client thread")?;
        assert_eq!(
            answers, reference[id],
            "client {id}: the served answers differ from the serial reference"
        );
    }

    let server = handle.shutdown();
    let metrics = server.metrics_text();
    println!("\n--- server metrics ---\n{metrics}");
    assert!(
        metrics.contains("bwd_net_protocol_errors_total 0\n"),
        "the clients spoke the protocol without an error:\n{metrics}"
    );
    server.into_scheduler().shutdown();
    Ok(())
}
