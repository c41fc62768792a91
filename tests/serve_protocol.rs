//! Randomised property tests for the `tme-serve` wire protocol.
//!
//! Two contracts, checked over seeded fuzzed payloads (same
//! deterministic `SplitMix64` style as `property_invariants.rs` — every
//! failure reproduces from the printed case index):
//!
//! 1. **Round trip** — every `Request`/`Response` variant survives
//!    encode → decode bit-for-bit.
//! 2. **Robustness** — truncated or corrupted frames decode to a typed
//!    [`WireError`], never a panic, and never silently succeed on a
//!    short payload.

use mdgrape4a_tme::md::backend::{BackendKind, BackendParams, PswfParams, SlabParams, SpmeParams};
use mdgrape4a_tme::num::rng::SplitMix64;
use mdgrape4a_tme::reference::ewald::EwaldParams;
use mdgrape4a_tme::serve::protocol::{read_frame, write_frame, EstimateSpec};
use mdgrape4a_tme::serve::{Request, Response, ServerErrorCode, WireError};
use mdgrape4a_tme::tme::TmeParams;

const CASES: u64 = 96;

/// Run `body` for `CASES` independently seeded generators, printing the
/// failing case index before re-raising any panic.
fn for_cases(name: &str, mut body: impl FnMut(&mut SplitMix64)) {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0xD1CE_5EED ^ (case << 8) ^ case);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = result {
            eprintln!("property `{name}` failed at case {case}");
            std::panic::resume_unwind(e);
        }
    }
}

fn rand_string(rng: &mut SplitMix64, max_len: usize) -> String {
    let len = rng.gen_index(max_len + 1);
    (0..len)
        .map(|_| {
            // Mixed ASCII and multi-byte to exercise the UTF-8 path.
            ['a', 'Q', '7', ' ', 'µ', '§', '\n', '"'][rng.gen_index(8)]
        })
        .collect()
}

fn rand_v3s(rng: &mut SplitMix64, max_len: usize) -> Vec<[f64; 3]> {
    let len = rng.gen_index(max_len + 1);
    (0..len)
        .map(|_| {
            [
                rng.gen_range(-1e3..1e3),
                rng.gen_range(-1e3..1e3),
                rng.gen_range(-1e3..1e3),
            ]
        })
        .collect()
}

fn rand_grid(rng: &mut SplitMix64) -> [usize; 3] {
    [
        1 << rng.gen_index(8),
        1 << rng.gen_index(8),
        1 << rng.gen_index(8),
    ]
}

/// Random parameters across every servable backend kind — the wire layer
/// must carry any field values, sensible or not (validation is the
/// server's job, not the codec's).
fn rand_backend_params(rng: &mut SplitMix64) -> BackendParams {
    let tme = TmeParams {
        n: rand_grid(rng),
        p: rng.gen_index(16),
        levels: rng.next_u64() as u32 & 0xF,
        gc: rng.gen_index(32),
        m_gaussians: rng.gen_index(12),
        alpha: rng.gen_range(0.0..10.0),
        r_cut: rng.gen_range(0.0..5.0),
    };
    match rng.gen_index(5) {
        0 => BackendParams::Tme(tme),
        1 => BackendParams::Spme(SpmeParams {
            n: rand_grid(rng),
            p: rng.gen_index(16),
            alpha: rng.gen_range(0.0..10.0),
            r_cut: rng.gen_range(0.0..5.0),
        }),
        2 => BackendParams::SpmePswf(PswfParams {
            n: rand_grid(rng),
            p: rng.gen_index(16),
            alpha: rng.gen_range(0.0..10.0),
            r_cut: rng.gen_range(0.0..5.0),
            shape: rng.gen_range(0.0..40.0),
        }),
        3 => BackendParams::Ewald(EwaldParams {
            alpha: rng.gen_range(0.0..10.0),
            r_cut: rng.gen_range(0.0..5.0),
            n_cut: rng.gen_index(64) as i64,
        }),
        _ => BackendParams::Slab(SlabParams {
            n: rand_grid(rng),
            p: rng.gen_index(16),
            alpha: rng.gen_range(0.0..10.0),
            r_cut: rng.gen_range(0.0..5.0),
            gamma_top: rng.gen_range(-1.0..1.0),
            gamma_bot: rng.gen_range(-1.0..1.0),
            n_images: rng.gen_index(2) as u32,
        }),
    }
}

fn rand_backend_kind(rng: &mut SplitMix64) -> BackendKind {
    [
        BackendKind::Tme,
        BackendKind::Spme,
        BackendKind::SpmePswf,
        BackendKind::Ewald,
        BackendKind::Slab,
    ][rng.gen_index(5)]
}

/// Random *work* request (the kinds a router hop may wrap in a v4
/// forwarded frame).
fn rand_work_request(rng: &mut SplitMix64) -> Request {
    match rng.gen_index(3) {
        0 => {
            let params = rand_backend_params(rng);
            let pos = rand_v3s(rng, 32);
            // Deliberately independent of `pos` length: the codec must
            // carry mismatched arrays too (validation is the server's
            // job, not the wire's).
            let q = (0..rng.gen_index(33))
                .map(|_| rng.gen_range(-2.0..2.0))
                .collect();
            Request::Compute {
                deadline_ms: rng.next_u64() >> 40,
                params,
                box_l: [
                    rng.gen_range(0.1..100.0),
                    rng.gen_range(0.1..100.0),
                    rng.gen_range(0.1..100.0),
                ],
                pos,
                q,
            }
        }
        1 => Request::NveRun {
            deadline_ms: rng.next_u64() >> 40,
            waters: rng.gen_index(1000) as u64,
            seed: rng.next_u64(),
            steps: rng.gen_index(10_000) as u64,
            dt: rng.gen_range(0.0..0.01),
            r_cut: rng.gen_range(0.1..2.0),
        },
        _ => Request::Estimate {
            deadline_ms: rng.next_u64() >> 40,
            spec: EstimateSpec {
                backend: rand_backend_kind(rng),
                n_atoms: rng.next_u64() >> 20,
                grid: 1 << rng.gen_index(10),
                levels: rng.next_u64() as u32 & 0xF,
                gc: rng.gen_index(32) as u64,
                m_gaussians: rng.gen_index(12) as u64,
                r_cut: rng.gen_range(0.0..5.0),
                box_l: [
                    rng.gen_range(0.1..100.0),
                    rng.gen_range(0.1..100.0),
                    rng.gen_range(0.1..100.0),
                ],
                steps: rng.gen_index(100_000) as u64,
            },
        },
    }
}

fn rand_request(rng: &mut SplitMix64) -> Request {
    match rng.gen_index(6) {
        0..=2 => rand_work_request(rng),
        3 => Request::Stats,
        4 => Request::Shutdown {
            drain: rng.gen_index(2) == 0,
        },
        // The protocol-v4 router-forwarded frame: any work request,
        // wrapped with a tenant id and the client's original deadline.
        _ => Request::Forwarded {
            tenant: rng.next_u64(),
            deadline_ms: rng.next_u64() >> 40,
            inner: Box::new(rand_work_request(rng)),
        },
    }
}

fn rand_response(rng: &mut SplitMix64) -> Response {
    match rng.gen_index(8) {
        0 => {
            let forces = rand_v3s(rng, 32);
            let potentials = (0..rng.gen_index(33))
                .map(|_| rng.gen_range(-1e2..1e2))
                .collect();
            Response::Computed {
                energy: rng.gen_range(-1e6..1e6),
                cache_hit: rng.gen_index(2) == 0,
                forces,
                potentials,
            }
        }
        1 => Response::NveDone {
            steps: rng.gen_index(10_000) as u64,
            first_total: rng.gen_range(-1e4..1e4),
            last_total: rng.gen_range(-1e4..1e4),
            drift: rng.gen_range(0.0..1.0),
            temperature: rng.gen_range(0.0..1e3),
        },
        2 => Response::Estimated {
            steps: rng.gen_index(100_000) as u64,
            mean_us: rng.gen_range(0.0..1e7),
            max_us: rng.gen_range(0.0..1e8),
            report: rand_string(rng, 64),
        },
        3 => Response::Stats {
            json: rand_string(rng, 128),
        },
        4 => Response::ShuttingDown {
            drain: rng.gen_index(2) == 0,
        },
        5 => Response::Rejected {
            retry_after_ms: rng.gen_index(10_000) as u64,
            queue_depth: rng.gen_index(64) as u64,
            outstanding_cost: rng.next_u64() >> rng.gen_index(64),
            cost_budget: rng.next_u64() >> rng.gen_index(64),
        },
        6 => Response::Expired {
            waited_ms: rng.gen_index(100_000) as u64,
            deadline_ms: rng.gen_index(100_000) as u64,
        },
        _ => Response::ServerError {
            code: [
                ServerErrorCode::BadRequest,
                ServerErrorCode::SolverFault,
                ServerErrorCode::Internal,
            ][rng.gen_index(3)],
            message: rand_string(rng, 96),
        },
    }
}

#[test]
fn requests_round_trip_bitwise() {
    for_cases("requests_round_trip_bitwise", |rng| {
        let req = rand_request(rng);
        let bytes = req.encode();
        let back = Request::decode(&bytes).unwrap_or_else(|e| {
            panic!("round trip of {req:?} failed: {e}");
        });
        assert_eq!(req, back);
    });
}

#[test]
fn responses_round_trip_bitwise() {
    for_cases("responses_round_trip_bitwise", |rng| {
        let resp = rand_response(rng);
        let bytes = resp.encode();
        let back = Response::decode(&bytes).unwrap_or_else(|e| {
            panic!("round trip of {resp:?} failed: {e}");
        });
        assert_eq!(resp, back);
    });
}

/// Any strict prefix of a valid payload must decode to a typed error —
/// never a panic, never a silent success.
#[test]
fn truncated_payloads_are_typed_errors() {
    for_cases("truncated_payloads_are_typed_errors", |rng| {
        let bytes = rand_request(rng).encode();
        let cut = rng.gen_index(bytes.len().max(1));
        assert!(
            Request::decode(&bytes[..cut]).is_err(),
            "prefix of {cut}/{} bytes decoded successfully",
            bytes.len()
        );
        let bytes = rand_response(rng).encode();
        let cut = rng.gen_index(bytes.len().max(1));
        assert!(
            Response::decode(&bytes[..cut]).is_err(),
            "prefix of {cut}/{} bytes decoded successfully",
            bytes.len()
        );
    });
}

/// Flipping arbitrary bytes may or may not produce a decodable payload,
/// but it must never panic, and version/kind corruption must map to the
/// dedicated error variants.
#[test]
fn corrupted_payloads_never_panic() {
    for_cases("corrupted_payloads_never_panic", |rng| {
        let mut bytes = rand_request(rng).encode();
        let n_flips = 1 + rng.gen_index(4);
        for _ in 0..n_flips {
            let at = rng.gen_index(bytes.len());
            bytes[at] ^= 1 << rng.gen_index(8);
        }
        // Returning at all (Ok or Err) is the property under test; the
        // panic would propagate out of the closure and fail the case.
        match Request::decode(&bytes) {
            Ok(_) | Err(_) => {}
        }

        // Targeted corruption: the version byte and the kind byte have
        // dedicated typed errors.
        let good = rand_response(rng).encode();
        let mut bad_version = good.clone();
        bad_version[0] ^= 0xFF;
        assert!(matches!(
            Response::decode(&bad_version),
            Err(WireError::BadVersion { .. })
        ));
        let mut bad_kind = good;
        bad_kind[1] = 0xEE;
        assert!(matches!(
            Response::decode(&bad_kind),
            Err(WireError::UnknownResponseKind { got: 0xEE })
        ));
    });
}

/// The backend-selection wire field: corrupting the backend tag to any
/// value outside the servable set decodes to the typed, connection-fatal
/// [`WireError::UnknownBackendKind`] — never a panic, never a silent
/// fallback to some default backend.
#[test]
fn unknown_backend_tags_are_typed_errors() {
    // The tag sits after version(1) + kind(1) + deadline_ms(8) in both
    // Compute and Estimate payloads.
    const TAG_AT: usize = 10;
    for_cases("unknown_backend_tags_are_typed_errors", |rng| {
        let compute = Request::Compute {
            deadline_ms: rng.next_u64() >> 40,
            params: rand_backend_params(rng),
            box_l: [4.0; 3],
            pos: rand_v3s(rng, 8),
            q: vec![1.0],
        };
        let estimate = Request::Estimate {
            deadline_ms: rng.next_u64() >> 40,
            spec: EstimateSpec {
                backend: rand_backend_kind(rng),
                n_atoms: 100,
                grid: 16,
                levels: 1,
                gc: 8,
                m_gaussians: 4,
                r_cut: 1.0,
                box_l: [4.0; 3],
                steps: 5,
            },
        };
        for req in [compute, estimate] {
            let mut bytes = req.encode();
            // Draw a tag outside the servable set; 5 (the MSM, retired
            // in version 6) and 7 (the cutoff model) are not servable.
            let bad = loop {
                let t = rng.next_u64() as u8;
                if ![1, 2, 3, 4, 6].contains(&t) {
                    break t;
                }
            };
            bytes[TAG_AT] = bad;
            assert_eq!(
                Request::decode(&bytes),
                Err(WireError::UnknownBackendKind { got: bad }),
                "tag {bad} in {req:?}"
            );
        }
    });
}

/// Trailing garbage after a well-formed payload is rejected: a frame is
/// exactly one message.
#[test]
fn trailing_garbage_is_rejected() {
    for_cases("trailing_garbage_is_rejected", |rng| {
        let mut bytes = rand_request(rng).encode();
        bytes.push(rng.next_u64() as u8);
        assert!(Request::decode(&bytes).is_err());
    });
}

/// The v4 forwarded frame only wraps plain work requests: control
/// frames and nested forwarding fail typed at decode (never a panic,
/// never unbounded recursion), for any tenant/deadline values.
#[test]
fn forwarded_wrappers_reject_non_work_inners() {
    for_cases("forwarded_wrappers_reject_non_work_inners", |rng| {
        // A forwarded work request round-trips...
        let good = Request::Forwarded {
            tenant: rng.next_u64(),
            deadline_ms: rng.next_u64() >> 40,
            inner: Box::new(rand_work_request(rng)),
        };
        assert_eq!(Request::decode(&good.encode()), Ok(good.clone()));
        // ...but control inners and router chains are refused with the
        // dedicated error carrying the offending inner kind byte.
        for inner in [
            Request::Stats,
            Request::Shutdown {
                drain: rng.gen_index(2) == 0,
            },
            good,
        ] {
            let bad = Request::Forwarded {
                tenant: rng.next_u64(),
                deadline_ms: rng.next_u64() >> 40,
                inner: Box::new(inner),
            };
            assert!(
                matches!(
                    Request::decode(&bad.encode()),
                    Err(WireError::ForwardedNotWork { .. })
                ),
                "accepted {bad:?}"
            );
        }
    });
}

/// Frame transport: length-prefixed round trip, EOF mid-frame is a typed
/// I/O error, and an oversized length prefix is rejected before any
/// allocation.
#[test]
fn frames_round_trip_and_reject_truncation() {
    for_cases("frames_round_trip_and_reject_truncation", |rng| {
        let payload = rand_request(rng).encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap_or_else(|e| panic!("write_frame failed: {e}"));
        let mut cursor = buf.as_slice();
        let back = read_frame(&mut cursor).unwrap_or_else(|e| panic!("read_frame failed: {e}"));
        assert_eq!(payload, back);

        let cut = rng.gen_index(buf.len().max(1));
        let mut short = &buf[..cut];
        assert!(matches!(read_frame(&mut short), Err(WireError::Io { .. })));
    });
}
