//! The `tme-serve` wire protocol (DESIGN.md §12.1).
//!
//! Length-prefixed binary frames over any `Read`/`Write` transport
//! (in production a TCP stream):
//!
//! ```text
//! frame   := len:u32le payload
//! payload := version:u8 kind:u8 body
//! ```
//!
//! Bodies are encoded with the bit-transparent [`tme_num::bytes`] codec
//! (all integers little-endian, `f64` as raw bits), so a request replayed
//! from a capture reproduces the exact same computation. Every decode
//! path returns a typed [`WireError`] — truncated frames, bad version
//! bytes, unknown kinds and trailing garbage are all answers the peer can
//! log and survive, never panics (lint rule L6 holds the crate to that).

// Re-exported (not just used): the wire-facing parameter types are part
// of this protocol's public surface, and consumers that only speak the
// protocol — `tme-router`, external clients — should be able to name
// them without depending on the solver stack directly.
pub use tme_core::TmeParams;
pub use tme_md::backend::{BackendKind, BackendParams, PswfParams, SlabParams, SpmeParams};
pub use tme_reference::EwaldParams;

use tme_num::bytes::{ByteReader, ByteWriter, Codec, CodecError, Sink};

/// Protocol version carried in byte 0 of every payload. Bump on any
/// incompatible change; a server rejects other versions with
/// [`WireError::BadVersion`] before touching the body.
///
/// Version history: 1 carried a bare `TmeParams` in `Compute`; 2 carries
/// a tagged [`BackendParams`] (per-plan backend choice) and a backend
/// kind in [`EstimateSpec`]; 3 adds the admission-cost fields to
/// [`Response::Rejected`] and the out-of-band shed marker
/// ([`SHED_BYTE`]); 4 adds the forwarded-request frame
/// ([`Request::Forwarded`]: tenant id + the client's original deadline
/// wrapping exactly one work request) so a router hop preserves both
/// across the fan-out; 5 drops the text rendering from
/// [`Response::Stats`], which carries the JSON only; 6 retires backend
/// tag 5 (the B-spline MSM), which now decodes as
/// [`WireError::UnknownBackendKind`].
pub const PROTOCOL_VERSION: u8 = 6;

/// The overload shed marker: when the server refuses a connection (or an
/// established connection's next frame) *before decoding anything*, it
/// writes this single byte and closes. Detection needs no byte-value
/// magic — [`read_frame`] recognises *exactly one byte followed by EOF*
/// as [`WireError::Shed`], and a legal frame always carries a 4-byte
/// length prefix — but the value is still chosen high so that a client
/// which somehow reads it as the start of a longer prefix sees an
/// implausibly large frame and fails typed, never hangs or allocates
/// (DESIGN.md §16.1).
pub const SHED_BYTE: u8 = 0xFD;

/// Hard ceiling on a frame payload (16 MiB) — an absurd length prefix is
/// rejected before any allocation.
pub const MAX_FRAME_BYTES: u32 = 16 << 20;

/// Why a frame could not be read, decoded, or written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload body is malformed (truncated, bad tag, trailing bytes).
    Codec(CodecError),
    /// The peer speaks a different protocol version.
    BadVersion { got: u8 },
    /// The request kind byte is not one this version defines.
    UnknownRequestKind { got: u8 },
    /// The response kind byte is not one this version defines.
    UnknownResponseKind { got: u8 },
    /// The backend tag is not a servable [`BackendKind`] (unknown value,
    /// or the cutoff tag, which is deliberately not wire-decodable).
    UnknownBackendKind { got: u8 },
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge { len: u64 },
    /// A forwarded frame wrapped something that is not a plain work
    /// request: nested forwarding and control frames (stats, shutdown)
    /// must not cross a router hop. `got` is the offending inner kind
    /// byte (0 when the inner payload is too short to carry one).
    ForwardedNotWork { got: u8 },
    /// The server shed this connection before reading the request (the
    /// one-byte [`SHED_BYTE`] marker followed by close). Nothing was
    /// decoded or executed; reconnect after a backoff.
    Shed,
    /// The transport failed mid-frame (connection reset, EOF, timeout).
    Io { kind: std::io::ErrorKind },
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        Self::Codec(e)
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        Self::Io { kind: e.kind() }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Codec(e) => write!(f, "malformed frame body: {e}"),
            Self::BadVersion { got } => {
                write!(
                    f,
                    "protocol version {got} (this side speaks {PROTOCOL_VERSION})"
                )
            }
            Self::UnknownRequestKind { got } => write!(f, "unknown request kind {got}"),
            Self::UnknownResponseKind { got } => write!(f, "unknown response kind {got}"),
            Self::UnknownBackendKind { got } => write!(f, "unknown backend kind {got}"),
            Self::FrameTooLarge { len } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte ceiling"
                )
            }
            Self::ForwardedNotWork { got } => {
                write!(f, "forwarded frame wraps non-work request kind {got}")
            }
            Self::Shed => write!(f, "connection shed by an overloaded server"),
            Self::Io { kind } => write!(f, "transport error: {kind}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A machine-schedule estimate workload — the subset of
/// [`mdgrape_sim::StepWorkload`] a client specifies; the server fills in
/// the machine configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct EstimateSpec {
    /// The long-range backend of the workload. The machine simulator
    /// schedules the TME pipeline only, so the server answers any other
    /// kind with `BadRequest`.
    pub backend: BackendKind,
    pub n_atoms: u64,
    pub grid: u64,
    pub levels: u32,
    pub gc: u64,
    pub m_gaussians: u64,
    pub r_cut: f64,
    pub box_l: [f64; 3],
    /// MD steps to schedule (server clamps to its own ceiling).
    pub steps: u64,
}

/// The wire and route-key layout: the fields in declaration order.
impl Codec for EstimateSpec {
    fn encode<S: Sink>(&self, s: &mut S) {
        self.backend.encode(s);
        self.n_atoms.encode(s);
        self.grid.encode(s);
        self.levels.encode(s);
        self.gc.encode(s);
        self.m_gaussians.encode(s);
        self.r_cut.encode(s);
        self.box_l.encode(s);
        self.steps.encode(s);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            backend: r.decode()?,
            n_atoms: r.decode()?,
            grid: r.decode()?,
            levels: r.decode()?,
            gc: r.decode()?,
            m_gaussians: r.decode()?,
            r_cut: r.decode()?,
            box_l: r.decode()?,
            steps: r.decode()?,
        })
    }
}

/// One client request. Every variant carries `deadline_ms` (0 = none):
/// if the request waits in the server queue longer than this, the worker
/// aborts it unexecuted and answers [`Response::Expired`].
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// One-shot energy/forces evaluation: plan (or reuse from the plan
    /// cache) the requested long-range backend for `params`/`box_l` and
    /// run the full pipeline over the positions/charges.
    Compute {
        deadline_ms: u64,
        params: BackendParams,
        box_l: [f64; 3],
        pos: Vec<[f64; 3]>,
        q: Vec<f64>,
    },
    /// N-step NVE run over a server-built TIP3P water box (SPME mesh,
    /// `water_box(waters, seed)`); the response reports energy drift.
    NveRun {
        deadline_ms: u64,
        waters: u64,
        seed: u64,
        steps: u64,
        dt: f64,
        r_cut: f64,
    },
    /// Machine-schedule estimate: run the MDGRAPE-4A discrete-event
    /// simulator over the given workload for `steps` MD steps.
    Estimate {
        deadline_ms: u64,
        spec: EstimateSpec,
    },
    /// Service observability snapshot (counters, histograms, cache rates).
    Stats,
    /// Stop the server. `drain = true` answers everything already queued
    /// before exiting; `false` abandons the queue.
    Shutdown { drain: bool },
    /// A work request relayed by a router hop (`tme-router`). Carries the
    /// tenant the router accounted the request to and the *client's*
    /// original deadline — the backend budgets expiry against the full
    /// end-to-end deadline, not a per-hop one. The inner request must be
    /// a plain work request (compute / nve_run / estimate): nested
    /// forwarding and control frames are rejected at decode with the
    /// typed [`WireError::ForwardedNotWork`], which also bounds decode
    /// recursion at depth two.
    Forwarded {
        tenant: u64,
        deadline_ms: u64,
        inner: Box<Request>,
    },
}

const REQ_COMPUTE: u8 = 1;
const REQ_NVE_RUN: u8 = 2;
const REQ_ESTIMATE: u8 = 3;
const REQ_STATS: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;
const REQ_FORWARDED: u8 = 6;

/// Why the server refused to execute a request (carried in
/// [`Response::ServerError`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerErrorCode {
    /// The request's configuration failed validation (grid not a power of
    /// two, atom/step counts over the server's limits, non-finite data,
    /// mismatched array lengths, invalid TME parameters).
    BadRequest = 1,
    /// The solver hit a recoverable numerical fault executing the request.
    SolverFault = 2,
    /// The server failed internally (worker died mid-request).
    Internal = 3,
}

/// One byte, the discriminant.
impl Codec for ServerErrorCode {
    fn encode<S: Sink>(&self, s: &mut S) {
        (*self as u8).encode(s);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        use ServerErrorCode::*;
        r.decode_tag(|got| {
            [BadRequest, SolverFault, Internal]
                .into_iter()
                .find(|c| *c as u8 == got)
        })
    }
}

/// One server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Compute`].
    Computed {
        energy: f64,
        /// Did the plan come from the plan cache (vs a fresh `try_new`)?
        cache_hit: bool,
        forces: Vec<[f64; 3]>,
        potentials: Vec<f64>,
    },
    /// Answer to [`Request::NveRun`].
    NveDone {
        steps: u64,
        /// Total energy at t = 0 and after the last step.
        first_total: f64,
        last_total: f64,
        /// `|E_last − E_first| / |E_first|`.
        drift: f64,
        temperature: f64,
    },
    /// Answer to [`Request::Estimate`].
    Estimated {
        steps: u64,
        mean_us: f64,
        max_us: f64,
        /// Human-readable `RunReport` rendering.
        report: String,
    },
    /// Answer to [`Request::Stats`]: the service's stats JSON
    /// (`tme-serve-stats/1` or `tme-router-stats/1`).
    Stats { json: String },
    /// Acknowledgement of [`Request::Shutdown`].
    ShuttingDown { drain: bool },
    /// Admission control: the bounded queue is full, the cost budget is
    /// exhausted, or the server is draining. Retry after the hinted delay
    /// (derived from the measured drain rate); nothing was executed. The
    /// cost fields tell the client *how* overloaded the server is, so a
    /// fleet can weight its backoff.
    Rejected {
        retry_after_ms: u64,
        queue_depth: u64,
        /// Admission-cost units currently queued or executing.
        outstanding_cost: u64,
        /// The server's admission budget in the same units.
        cost_budget: u64,
    },
    /// The request out-waited its own deadline in the queue and was
    /// aborted unexecuted.
    Expired { waited_ms: u64, deadline_ms: u64 },
    /// The request was admitted but could not be executed.
    ServerError {
        code: ServerErrorCode,
        message: String,
    },
}

const RESP_COMPUTED: u8 = 1;
const RESP_NVE_DONE: u8 = 2;
const RESP_ESTIMATED: u8 = 3;
const RESP_STATS: u8 = 4;
const RESP_SHUTTING_DOWN: u8 = 5;
const RESP_REJECTED: u8 = 6;
const RESP_EXPIRED: u8 = 7;
const RESP_SERVER_ERROR: u8 = 8;

/// Inside a request body the only enum tag is the backend kind, so the
/// codec's unknown-tag error there is the typed
/// [`WireError::UnknownBackendKind`].
fn backend_tag(e: CodecError) -> WireError {
    match e {
        CodecError::UnknownTag { got, .. } => WireError::UnknownBackendKind { got },
        e => WireError::Codec(e),
    }
}

/// A payload's version byte, checked, then its kind byte.
fn open_payload(payload: &[u8]) -> Result<(ByteReader<'_>, u8), WireError> {
    let mut r = ByteReader::new(payload);
    let version = r.decode()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    let kind = r.decode()?;
    Ok((r, kind))
}

impl Request {
    /// Encode into a frame payload (version byte + kind byte + body).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        let s = &mut w;
        PROTOCOL_VERSION.encode(s);
        match self {
            Self::Compute {
                deadline_ms,
                params,
                box_l,
                pos,
                q,
            } => {
                REQ_COMPUTE.encode(s);
                deadline_ms.encode(s);
                params.encode(s);
                box_l.encode(s);
                pos.encode(s);
                q.encode(s);
            }
            Self::NveRun {
                deadline_ms,
                waters,
                seed,
                steps,
                dt,
                r_cut,
            } => {
                REQ_NVE_RUN.encode(s);
                deadline_ms.encode(s);
                waters.encode(s);
                seed.encode(s);
                steps.encode(s);
                dt.encode(s);
                r_cut.encode(s);
            }
            Self::Estimate { deadline_ms, spec } => {
                REQ_ESTIMATE.encode(s);
                deadline_ms.encode(s);
                spec.encode(s);
            }
            Self::Stats => REQ_STATS.encode(s),
            Self::Shutdown { drain } => {
                REQ_SHUTDOWN.encode(s);
                drain.encode(s);
            }
            Self::Forwarded {
                tenant,
                deadline_ms,
                inner,
            } => {
                REQ_FORWARDED.encode(s);
                tenant.encode(s);
                deadline_ms.encode(s);
                // The inner request as its own length-prefixed payload.
                let inner = inner.encode();
                inner.len().encode(s);
                s.put_bytes(&inner);
            }
        }
        w.into_bytes()
    }

    /// Decode a frame payload. Rejects trailing garbage.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let (mut r, kind) = open_payload(payload)?;
        let req = match kind {
            REQ_COMPUTE => Self::Compute {
                deadline_ms: r.decode()?,
                params: r.decode().map_err(backend_tag)?,
                box_l: r.decode()?,
                pos: r.decode()?,
                q: r.decode()?,
            },
            REQ_NVE_RUN => Self::NveRun {
                deadline_ms: r.decode()?,
                waters: r.decode()?,
                seed: r.decode()?,
                steps: r.decode()?,
                dt: r.decode()?,
                r_cut: r.decode()?,
            },
            REQ_ESTIMATE => Self::Estimate {
                deadline_ms: r.decode()?,
                spec: r.decode().map_err(backend_tag)?,
            },
            REQ_STATS => Self::Stats,
            REQ_SHUTDOWN => Self::Shutdown { drain: r.decode()? },
            REQ_FORWARDED => {
                let tenant = r.decode()?;
                let deadline_ms = r.decode()?;
                let len = r.get_len(1)?;
                let inner_payload = r.take(len)?;
                // Peek the inner kind byte *before* recursing: only plain
                // work requests are forwardable, so decode depth never
                // exceeds two even for a hostile deeply-nested payload.
                let inner_kind = inner_payload.get(1).copied().unwrap_or(0);
                if !matches!(inner_kind, REQ_COMPUTE | REQ_NVE_RUN | REQ_ESTIMATE) {
                    return Err(WireError::ForwardedNotWork { got: inner_kind });
                }
                Self::Forwarded {
                    tenant,
                    deadline_ms,
                    inner: Box::new(Self::decode(inner_payload)?),
                }
            }
            got => return Err(WireError::UnknownRequestKind { got }),
        };
        r.finish()?;
        Ok(req)
    }

    /// The deadline carried by this request (0 for control requests).
    /// For a forwarded frame this is the *outer* deadline — the client's
    /// original, which the router preserved across the hop — never the
    /// inner copy.
    #[must_use]
    pub fn deadline_ms(&self) -> u64 {
        match self {
            Self::Compute { deadline_ms, .. }
            | Self::NveRun { deadline_ms, .. }
            | Self::Estimate { deadline_ms, .. }
            | Self::Forwarded { deadline_ms, .. } => *deadline_ms,
            Self::Stats | Self::Shutdown { .. } => 0,
        }
    }

    /// Short kind name for stats and logs.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Self::Compute { .. } => "compute",
            Self::NveRun { .. } => "nve_run",
            Self::Estimate { .. } => "estimate",
            Self::Stats => "stats",
            Self::Shutdown { .. } => "shutdown",
            Self::Forwarded { .. } => "forwarded",
        }
    }
}

impl Response {
    /// Encode into a frame payload (version byte + kind byte + body).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        let s = &mut w;
        PROTOCOL_VERSION.encode(s);
        match self {
            Self::Computed {
                energy,
                cache_hit,
                forces,
                potentials,
            } => {
                RESP_COMPUTED.encode(s);
                energy.encode(s);
                cache_hit.encode(s);
                forces.encode(s);
                potentials.encode(s);
            }
            Self::NveDone {
                steps,
                first_total,
                last_total,
                drift,
                temperature,
            } => {
                RESP_NVE_DONE.encode(s);
                steps.encode(s);
                first_total.encode(s);
                last_total.encode(s);
                drift.encode(s);
                temperature.encode(s);
            }
            Self::Estimated {
                steps,
                mean_us,
                max_us,
                report,
            } => {
                RESP_ESTIMATED.encode(s);
                steps.encode(s);
                mean_us.encode(s);
                max_us.encode(s);
                report.encode(s);
            }
            Self::Stats { json } => {
                RESP_STATS.encode(s);
                json.encode(s);
            }
            Self::ShuttingDown { drain } => {
                RESP_SHUTTING_DOWN.encode(s);
                drain.encode(s);
            }
            Self::Rejected {
                retry_after_ms,
                queue_depth,
                outstanding_cost,
                cost_budget,
            } => {
                RESP_REJECTED.encode(s);
                retry_after_ms.encode(s);
                queue_depth.encode(s);
                outstanding_cost.encode(s);
                cost_budget.encode(s);
            }
            Self::Expired {
                waited_ms,
                deadline_ms,
            } => {
                RESP_EXPIRED.encode(s);
                waited_ms.encode(s);
                deadline_ms.encode(s);
            }
            Self::ServerError { code, message } => {
                RESP_SERVER_ERROR.encode(s);
                code.encode(s);
                message.encode(s);
            }
        }
        w.into_bytes()
    }

    /// Decode a frame payload. Rejects trailing garbage.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let (mut r, kind) = open_payload(payload)?;
        let resp = match kind {
            RESP_COMPUTED => Self::Computed {
                energy: r.decode()?,
                cache_hit: r.decode()?,
                forces: r.decode()?,
                potentials: r.decode()?,
            },
            RESP_NVE_DONE => Self::NveDone {
                steps: r.decode()?,
                first_total: r.decode()?,
                last_total: r.decode()?,
                drift: r.decode()?,
                temperature: r.decode()?,
            },
            RESP_ESTIMATED => Self::Estimated {
                steps: r.decode()?,
                mean_us: r.decode()?,
                max_us: r.decode()?,
                report: r.decode()?,
            },
            RESP_STATS => Self::Stats { json: r.decode()? },
            RESP_SHUTTING_DOWN => Self::ShuttingDown { drain: r.decode()? },
            RESP_REJECTED => Self::Rejected {
                retry_after_ms: r.decode()?,
                queue_depth: r.decode()?,
                outstanding_cost: r.decode()?,
                cost_budget: r.decode()?,
            },
            RESP_EXPIRED => Self::Expired {
                waited_ms: r.decode()?,
                deadline_ms: r.decode()?,
            },
            RESP_SERVER_ERROR => Self::ServerError {
                code: r.decode()?,
                message: r.decode()?,
            },
            got => return Err(WireError::UnknownResponseKind { got }),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len()).map_err(|_| WireError::FrameTooLarge {
        len: payload.len() as u64,
    })?;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge {
            len: u64::from(len),
        });
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Write the one-byte overload shed marker ([`SHED_BYTE`]); the caller
/// closes the stream right after. Kept beside [`write_frame`] so every
/// byte that ever goes on the wire is emitted from this module.
pub fn write_shed(w: &mut impl std::io::Write) -> Result<(), WireError> {
    w.write_all(&[SHED_BYTE])?;
    w.flush()?;
    Ok(())
}

/// Fill `buf` from `r`, distinguishing a clean EOF (`Ok(filled)` may be
/// short) from transport errors. `WouldBlock`/`TimedOut` with **zero**
/// bytes read surfaces as-is (the server's poll point between frames);
/// once a frame has started, a stall is remapped to `UnexpectedEof` and
/// is connection-fatal — the stream has no resynchronisation point
/// mid-frame, and a peer that stalls there (slowloris) must not pin the
/// connection thread.
fn read_full(
    r: &mut impl std::io::Read,
    buf: &mut [u8],
    frame_started: bool,
) -> Result<usize, WireError> {
    let mut got = 0;
    while got < buf.len() {
        let Some(rest) = buf.get_mut(got..) else {
            break;
        };
        match r.read(rest) {
            Ok(0) => return Ok(got),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if (frame_started || got > 0)
                    && (e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut) =>
            {
                return Err(WireError::Io {
                    kind: std::io::ErrorKind::UnexpectedEof,
                });
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(got)
}

/// Read one length-prefixed frame. The length prefix is validated against
/// [`MAX_FRAME_BYTES`] before any allocation. Exactly one [`SHED_BYTE`]
/// followed by EOF is the server's overload shed and comes back as the
/// typed [`WireError::Shed`].
pub fn read_frame(r: &mut impl std::io::Read) -> Result<Vec<u8>, WireError> {
    let mut len_bytes = [0u8; 4];
    let got = read_full(r, &mut len_bytes, false)?;
    if got < 4 {
        if got == 1 && len_bytes[0] == SHED_BYTE {
            return Err(WireError::Shed);
        }
        return Err(WireError::Io {
            kind: std::io::ErrorKind::UnexpectedEof,
        });
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge {
            len: u64::from(len),
        });
    }
    let mut payload = vec![0u8; len as usize];
    if read_full(r, &mut payload, true)? < payload.len() {
        return Err(WireError::Io {
            kind: std::io::ErrorKind::UnexpectedEof,
        });
    }
    Ok(payload)
}

/// Does this undecoded payload *look like* a work request (compute /
/// nve_run / estimate, or a router-forwarded wrapper around one, on the
/// current protocol version)? A pure byte peek
/// — no allocation, no body parse — used by the overload fast-reject
/// path to refuse work before paying for `Request::decode`, while still
/// letting control requests (stats, shutdown) through even under full
/// load. A malformed payload returns `false` and takes the normal decode
/// path, where it fails typed.
#[must_use]
pub fn is_work_request(payload: &[u8]) -> bool {
    payload.first() == Some(&PROTOCOL_VERSION)
        && matches!(payload.get(1),
            Some(&k) if (REQ_COMPUTE..=REQ_ESTIMATE).contains(&k) || k == REQ_FORWARDED)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_params() -> TmeParams {
        TmeParams {
            n: [16; 3],
            p: 6,
            levels: 1,
            gc: 8,
            m_gaussians: 4,
            alpha: 3.2,
            r_cut: 1.0,
        }
    }

    fn round_trip_request(req: &Request) -> Result<(), WireError> {
        let got = Request::decode(&req.encode())?;
        assert_eq!(&got, req);
        Ok(())
    }

    fn round_trip_response(resp: &Response) -> Result<(), WireError> {
        let got = Response::decode(&resp.encode())?;
        assert_eq!(&got, resp);
        Ok(())
    }

    fn compute_with(params: BackendParams) -> Request {
        Request::Compute {
            deadline_ms: 250,
            params,
            box_l: [4.0; 3],
            pos: vec![[1.0, 2.0, 3.0], [0.5, -0.25, 4.0]],
            q: vec![1.0, -1.0],
        }
    }

    #[test]
    fn every_request_variant_round_trips() -> Result<(), WireError> {
        round_trip_request(&compute_with(BackendParams::Tme(sample_params())))?;
        round_trip_request(&compute_with(BackendParams::Spme(SpmeParams {
            n: [16, 32, 16],
            p: 6,
            alpha: 3.2,
            r_cut: 1.0,
        })))?;
        round_trip_request(&compute_with(BackendParams::SpmePswf(PswfParams {
            n: [16; 3],
            p: 8,
            alpha: 3.2,
            r_cut: 1.0,
            shape: 0.0,
        })))?;
        round_trip_request(&compute_with(BackendParams::Ewald(EwaldParams {
            alpha: 3.2,
            r_cut: 1.0,
            n_cut: 12,
        })))?;
        round_trip_request(&compute_with(BackendParams::Slab(SlabParams {
            n: [16, 16, 64],
            p: 6,
            alpha: 3.2,
            r_cut: 1.0,
            gamma_top: -1.0,
            gamma_bot: 0.25,
            n_images: 1,
        })))?;
        round_trip_request(&Request::NveRun {
            deadline_ms: 0,
            waters: 64,
            seed: 9,
            steps: 10,
            dt: 0.001,
            r_cut: 0.55,
        })?;
        round_trip_request(&Request::Estimate {
            deadline_ms: 1000,
            spec: EstimateSpec {
                backend: BackendKind::Tme,
                n_atoms: 80_540,
                grid: 32,
                levels: 1,
                gc: 8,
                m_gaussians: 4,
                r_cut: 1.2,
                box_l: [9.7, 8.3, 10.6],
                steps: 20,
            },
        })?;
        round_trip_request(&Request::Stats)?;
        round_trip_request(&Request::Shutdown { drain: true })?;
        round_trip_request(&Request::Forwarded {
            tenant: 0x00C0_FFEE,
            deadline_ms: 750,
            inner: Box::new(compute_with(BackendParams::Tme(sample_params()))),
        })?;
        round_trip_request(&Request::Forwarded {
            tenant: u64::MAX,
            deadline_ms: 0,
            inner: Box::new(Request::NveRun {
                deadline_ms: 0,
                waters: 64,
                seed: 9,
                steps: 10,
                dt: 0.001,
                r_cut: 0.55,
            }),
        })
    }

    /// FNV-1a over raw bytes, for pinning encodings.
    fn fnv_bytes(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn every_backend_params() -> [BackendParams; 5] {
        [
            BackendParams::Tme(sample_params()),
            BackendParams::Spme(SpmeParams {
                n: [16, 32, 16],
                p: 6,
                alpha: 3.2,
                r_cut: 1.0,
            }),
            BackendParams::SpmePswf(PswfParams {
                n: [16; 3],
                p: 8,
                alpha: 3.2,
                r_cut: 1.0,
                shape: 13.5,
            }),
            BackendParams::Ewald(EwaldParams {
                alpha: 3.2,
                r_cut: 1.0,
                n_cut: -12,
            }),
            BackendParams::Slab(SlabParams {
                n: [16, 16, 64],
                p: 6,
                alpha: 3.2,
                r_cut: 1.0,
                gamma_top: -1.0,
                gamma_bot: 0.25,
                n_images: 1,
            }),
        ]
    }

    /// Peers and captures hold bytes written by other builds, so the
    /// encodings themselves are the contract: these literals were taken
    /// before the layouts moved onto the shared codec, and retaken at
    /// version 5, which changed only the version byte and the `Stats`
    /// body, and at version 6, which changed only the version byte.
    #[test]
    fn wire_bytes_are_pinned() {
        let nve = Request::NveRun {
            deadline_ms: 7,
            waters: 64,
            seed: 9,
            steps: 10,
            dt: 0.001,
            r_cut: 0.55,
        };
        let mut requests: Vec<Request> = every_backend_params()
            .into_iter()
            .map(compute_with)
            .collect();
        requests.extend([
            nve.clone(),
            Request::Estimate {
                deadline_ms: 1000,
                spec: EstimateSpec {
                    backend: BackendKind::SpmePswf,
                    n_atoms: 80_540,
                    grid: 32,
                    levels: 2,
                    gc: 8,
                    m_gaussians: 4,
                    r_cut: 1.2,
                    box_l: [9.7, 8.3, -0.0],
                    steps: 20,
                },
            },
            Request::Stats,
            Request::Shutdown { drain: true },
            Request::Forwarded {
                tenant: 0x00C0_FFEE,
                deadline_ms: 750,
                inner: Box::new(nve),
            },
        ]);
        let responses = [
            Response::Computed {
                energy: -3.25,
                cache_hit: true,
                forces: vec![[0.1, -0.2, f64::NAN], [-0.0, 1e300, 5e-324]],
                potentials: vec![-1.5, 2.0],
            },
            Response::NveDone {
                steps: 10,
                first_total: -1.0,
                last_total: -1.0000001,
                drift: 1e-7,
                temperature: 301.5,
            },
            Response::Estimated {
                steps: 20,
                mean_us: 206.25,
                max_us: 213.5,
                report: "20 steps: mean 206.2 µs".to_string(),
            },
            Response::Stats {
                json: "{\"received\": 12}".to_string(),
            },
            Response::ShuttingDown { drain: false },
            Response::Rejected {
                retry_after_ms: 40,
                queue_depth: 8,
                outstanding_cost: 31_000,
                cost_budget: 32_768,
            },
            Response::Expired {
                waited_ms: 600,
                deadline_ms: 500,
            },
            Response::ServerError {
                code: ServerErrorCode::SolverFault,
                message: "non-finite input at atom 3".to_string(),
            },
        ];
        let got: Vec<(usize, u64)> = requests
            .iter()
            .map(Request::encode)
            .chain(responses.iter().map(Response::encode))
            .map(|b| (b.len(), fnv_bytes(&b)))
            .collect();
        assert_eq!(
            got,
            [
                (183, 16272840943816742570),
                (163, 8788002007146380574),
                (171, 1511197927500654592),
                (139, 10597810002263090917),
                (183, 9317696904096434723),
                (50, 15953313251784814790),
                (87, 17274093899798099259),
                (2, 588775315634237543),
                (3, 14412731673639116175),
                (76, 4599960558922224935),
                (91, 4326471650071952038),
                (42, 16080118330883148109),
                (58, 6942353406149275585),
                (26, 7223519937721991411),
                (3, 14412730574127487964),
                (34, 16808246215246636210),
                (18, 5935535962636579347),
                (37, 8248317108404702751),
            ]
        );
    }

    #[test]
    fn forwarded_frames_only_wrap_work_requests() {
        // Control frames and nested forwarding must not cross a router
        // hop: both fail typed at decode, before any recursion.
        for inner in [
            Request::Stats,
            Request::Shutdown { drain: true },
            Request::Forwarded {
                tenant: 1,
                deadline_ms: 5,
                inner: Box::new(Request::Stats),
            },
        ] {
            let payload = Request::Forwarded {
                tenant: 7,
                deadline_ms: 100,
                inner: Box::new(inner),
            }
            .encode();
            assert!(matches!(
                Request::decode(&payload),
                Err(WireError::ForwardedNotWork { .. })
            ));
        }
        // An empty inner payload fails the same way (kind byte 0), not
        // with a panic or an index error.
        let mut w = ByteWriter::new();
        w.put_u8(PROTOCOL_VERSION);
        w.put_u8(REQ_FORWARDED);
        w.put_u64(7);
        w.put_u64(100);
        w.put_u64(0); // zero-length inner payload
        assert_eq!(
            Request::decode(&w.into_bytes()),
            Err(WireError::ForwardedNotWork { got: 0 })
        );
    }

    #[test]
    fn unknown_backend_tags_are_typed_errors() {
        // The backend tag sits right after version, kind, and deadline in
        // both Compute and Estimate payloads.
        const TAG_AT: usize = 1 + 1 + 8;
        let mut payload = compute_with(BackendParams::Tme(sample_params())).encode();
        for bad in [0u8, 5, 7, 200] {
            payload[TAG_AT] = bad;
            assert_eq!(
                Request::decode(&payload),
                Err(WireError::UnknownBackendKind { got: bad }),
                "compute backend tag {bad}"
            );
        }
        let mut payload = Request::Estimate {
            deadline_ms: 0,
            spec: EstimateSpec {
                backend: BackendKind::Spme,
                n_atoms: 100,
                grid: 16,
                levels: 1,
                gc: 8,
                m_gaussians: 4,
                r_cut: 1.0,
                box_l: [4.0; 3],
                steps: 5,
            },
        }
        .encode();
        payload[TAG_AT] = 7; // the cutoff tag is deliberately not servable
        assert_eq!(
            Request::decode(&payload),
            Err(WireError::UnknownBackendKind { got: 7 })
        );
    }

    /// An unknown error-code byte is the codec's unknown-tag error at the
    /// code's own offset: the kind byte before it was valid.
    #[test]
    fn unknown_server_error_codes_are_codec_errors() {
        const CODE_AT: usize = 1 + 1;
        let mut payload = Response::ServerError {
            code: ServerErrorCode::Internal,
            message: "worker died".to_string(),
        }
        .encode();
        for bad in [0u8, 4, 0xEE] {
            payload[CODE_AT] = bad;
            assert_eq!(
                Response::decode(&payload),
                Err(WireError::Codec(CodecError::UnknownTag {
                    at: CODE_AT,
                    got: bad
                }))
            );
        }
    }

    #[test]
    fn every_response_variant_round_trips() -> Result<(), WireError> {
        round_trip_response(&Response::Computed {
            energy: -3.25,
            cache_hit: true,
            forces: vec![[0.1, -0.2, 0.3]],
            potentials: vec![-1.5],
        })?;
        round_trip_response(&Response::NveDone {
            steps: 10,
            first_total: -1.0,
            last_total: -1.0000001,
            drift: 1e-7,
            temperature: 301.5,
        })?;
        round_trip_response(&Response::Estimated {
            steps: 20,
            mean_us: 206.25,
            max_us: 213.5,
            report: "20 steps: mean 206.2 µs".to_string(),
        })?;
        round_trip_response(&Response::Stats {
            json: "{\"received\": 12}".to_string(),
        })?;
        round_trip_response(&Response::ShuttingDown { drain: false })?;
        round_trip_response(&Response::Rejected {
            retry_after_ms: 40,
            queue_depth: 8,
            outstanding_cost: 31_000,
            cost_budget: 32_768,
        })?;
        round_trip_response(&Response::Expired {
            waited_ms: 600,
            deadline_ms: 500,
        })?;
        round_trip_response(&Response::ServerError {
            code: ServerErrorCode::BadRequest,
            message: "grid 24 is not a power of two".to_string(),
        })
    }

    #[test]
    fn truncation_and_bad_bytes_are_typed_errors() {
        let payload = Request::Stats.encode();
        assert!(matches!(
            Request::decode(&payload[..1]),
            Err(WireError::Codec(_))
        ));
        let mut wrong_version = payload.clone();
        wrong_version[0] = 99;
        assert_eq!(
            Request::decode(&wrong_version),
            Err(WireError::BadVersion { got: 99 })
        );
        let mut bad_kind = payload.clone();
        bad_kind[1] = 200;
        assert_eq!(
            Request::decode(&bad_kind),
            Err(WireError::UnknownRequestKind { got: 200 })
        );
        let mut padded = payload;
        padded.push(0);
        assert!(matches!(Request::decode(&padded), Err(WireError::Codec(_))));
    }

    #[test]
    fn frames_round_trip_and_oversize_is_rejected() -> Result<(), WireError> {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Stats.encode())?;
        write_frame(&mut buf, &Request::Shutdown { drain: true }.encode())?;
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(Request::decode(&read_frame(&mut cursor)?)?, Request::Stats);
        assert_eq!(
            Request::decode(&read_frame(&mut cursor)?)?,
            Request::Shutdown { drain: true }
        );
        // EOF at a frame boundary is an Io error, not a panic.
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Io { .. })));
        // An absurd length prefix is rejected before allocating.
        let huge = (MAX_FRAME_BYTES + 1).to_le_bytes();
        let mut cursor = std::io::Cursor::new(huge.to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::FrameTooLarge { .. })
        ));
        Ok(())
    }

    #[test]
    fn one_shed_byte_then_eof_is_the_typed_shed_error() -> Result<(), WireError> {
        let mut buf = Vec::new();
        write_shed(&mut buf)?;
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor), Err(WireError::Shed));
        // Any other lone byte, or a shed byte with company, is a plain
        // truncated-transport error, not a shed.
        let mut cursor = std::io::Cursor::new(vec![0x01]);
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Io { .. })));
        let mut cursor = std::io::Cursor::new(vec![SHED_BYTE, 0x00]);
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Io { .. })));
        // A full prefix starting with the shed byte would be an absurd
        // length and fails typed before allocation — the marker can never
        // be confused with a live frame.
        let mut cursor = std::io::Cursor::new(vec![SHED_BYTE, 0xFF, 0xFF, 0xFF]);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::FrameTooLarge { .. })
        ));
        Ok(())
    }

    #[test]
    fn work_request_peek_matches_decode() {
        // Work requests peek true; control requests peek false.
        for (req, is_work) in [
            (compute_with(BackendParams::Tme(sample_params())), true),
            (
                Request::NveRun {
                    deadline_ms: 0,
                    waters: 64,
                    seed: 9,
                    steps: 10,
                    dt: 0.001,
                    r_cut: 0.55,
                },
                true,
            ),
            (Request::Stats, false),
            (Request::Shutdown { drain: true }, false),
            (
                Request::Forwarded {
                    tenant: 3,
                    deadline_ms: 250,
                    inner: Box::new(compute_with(BackendParams::Tme(sample_params()))),
                },
                true,
            ),
        ] {
            assert_eq!(
                is_work_request(&req.encode()),
                is_work,
                "{}",
                req.kind_name()
            );
        }
        // Garbage and stale versions peek false (they take the decode
        // path and fail typed there).
        assert!(!is_work_request(&[]));
        assert!(!is_work_request(&[PROTOCOL_VERSION]));
        assert!(!is_work_request(&[2, REQ_COMPUTE]));
        assert!(!is_work_request(&[PROTOCOL_VERSION, REQ_SHUTDOWN]));
    }
}
