//! Serving-layer round trip: start an in-process `tme-serve` server,
//! talk to it over the wire protocol, and drain it gracefully.
//!
//! Everything here works identically against a standalone server
//! (`cargo run --release -p tme-serve --bin serve -- --addr 127.0.0.1:7878`);
//! the in-process handle is only used to get an ephemeral port and a
//! clean shutdown inside one example binary.
//!
//! Run: `cargo run --example serve_client --release`

use mdgrape4a_tme::md::backend::{BackendKind, BackendParams, SpmeParams};
use mdgrape4a_tme::md::water::water_box;
use mdgrape4a_tme::serve::{serve, Client, Request, Response, ServeConfig};
use mdgrape4a_tme::tme::{alpha_from_rtol, TmeParams};

fn main() {
    // 1. Server: two workers, a bounded queue of eight requests, plan
    //    cache for eight distinct configurations.
    let handle = serve(ServeConfig::default()).expect("server start");
    let addr = handle.local_addr();
    println!("server listening on {addr}");

    let mut client = Client::connect(addr).expect("connect");

    // 2. A Compute request: the same water box + TME configuration as the
    //    quickstart, shipped over the wire.
    let system = water_box(125, 42).coulomb_system();
    let r_cut = 0.75;
    let alpha = alpha_from_rtol(r_cut, 1e-4);
    let request = Request::Compute {
        deadline_ms: 0, // no deadline
        params: BackendParams::Tme(TmeParams {
            n: [16; 3],
            p: 6,
            levels: 1,
            gc: 8,
            m_gaussians: 4,
            alpha,
            r_cut,
        }),
        box_l: system.box_l,
        pos: system.pos.clone(),
        q: system.q.clone(),
    };

    // First call plans the solver; the identical second call must be
    // answered from the plan cache with bitwise-identical energy.
    for round in 1..=2 {
        match client.call(&request).expect("compute call") {
            Response::Computed {
                energy,
                cache_hit,
                forces,
                ..
            } => println!(
                "round {round}: energy {energy:.6} e²/nm over {} atoms (plan cache {})",
                forces.len(),
                if cache_hit { "HIT" } else { "miss" },
            ),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    // 3. A second tenant on the same server picks a different backend per
    //    plan: the identical system through B-spline SPME. The plan cache
    //    keys on (backend kind, params, box), so this is a fresh entry.
    let spme_request = Request::Compute {
        deadline_ms: 0,
        params: BackendParams::Spme(SpmeParams {
            n: [16; 3],
            p: 6,
            alpha,
            r_cut,
        }),
        box_l: system.box_l,
        pos: system.pos.clone(),
        q: system.q.clone(),
    };
    if let Response::Computed { energy, .. } = client.call(&spme_request).expect("spme compute") {
        println!("SPME tenant: energy {energy:.6} e²/nm");
    }

    // 4. A machine-schedule estimate on the same connection.
    let estimate = Request::Estimate {
        deadline_ms: 2_000,
        spec: mdgrape4a_tme::serve::protocol::EstimateSpec {
            backend: BackendKind::Tme,
            n_atoms: 80_540,
            grid: 32,
            levels: 1,
            gc: 8,
            m_gaussians: 4,
            r_cut: 1.2,
            box_l: [9.7, 8.3, 10.6],
            steps: 50,
        },
    };
    if let Response::Estimated {
        mean_us, report, ..
    } = client.call(&estimate).expect("estimate")
    {
        println!("machine estimate: {mean_us:.1} µs/step ({report})");
    }

    // 5. Observability snapshot, then a graceful drain.
    if let Response::Stats { json } = client.call(&Request::Stats).expect("stats") {
        print!("--- server stats ---\n{json}");
    }
    handle.trigger_drain();
    let final_stats = handle.join();
    assert_eq!(final_stats.cache_hits, 1, "second compute should have hit");
    println!("drained; {} requests served. OK", final_stats.completed);
}
