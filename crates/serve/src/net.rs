//! The network core `tme-serve` and `tme-router` both run on
//! (DESIGN.md §12.3). Each server implements [`Service`] — its policy —
//! and this module does the rest:
//!
//! * the **accept thread** polls a non-blocking listener until stop,
//!   sets `TCP_NODELAY`, asks [`Service::admit`] and starts a named
//!   connection thread. When the OS refuses a thread, that connection is
//!   dropped; the accept thread never panics;
//! * each **connection thread** reads frames under a 100 ms read timeout
//!   (its stop-flag poll), runs [`Service::screen`] on the undecoded
//!   payload, decodes it, answers `Stats` and `Shutdown` itself and hands
//!   work to [`Service::work`]. A protocol error is counted and closes the
//!   connection: a binary stream has no resynchronisation point;
//! * [`Handle::join`] drains, joins the accept thread (which joins the
//!   connection threads), then the service's own threads;
//! * [`run_binary`] is the lifecycle of both binaries.

use crate::protocol::{read_frame, write_frame, write_shed, Request, Response, WireError};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{Builder, JoinHandle};
use std::time::Duration;
use tme_num::args::Args;

/// A stats snapshot, rendered one way: JSON.
pub trait Report: Send + 'static {
    fn to_json(&self) -> String;
}

/// What the pre-decode gate decided about one undecoded payload.
pub enum Screen {
    /// Decode and serve it.
    Pass,
    /// Answer this instead, undecoded, and keep the connection.
    Answer(Response),
    /// Write the one-byte shed marker and close the connection.
    Shed,
}

/// The policy a server built on this core keeps for itself.
pub trait Service: Send + Sync + 'static {
    /// What `Stats`, [`Handle::stats`] and [`Handle::join`] return.
    type Stats: Report;
    /// Prefix of every thread name.
    const NAME: &'static str;
    fn snapshot(&self) -> Self::Stats;
    /// Begin the drain: stop admitting, let in-flight work finish.
    /// Idempotent.
    fn stop(&self);
    fn stopped(&self) -> bool;
    /// The accept-time gate: the stream back to serve it, or `None` once
    /// the service has shed it.
    fn admit(&self, stream: TcpStream) -> Option<TcpStream> {
        Some(stream)
    }
    /// The pre-decode gate. `streak` is a per-connection counter it may
    /// keep across frames, zero on a new connection.
    fn screen(&self, _payload: &[u8], _streak: &mut u32) -> Screen {
        Screen::Pass
    }
    fn note_protocol_error(&self);
    /// Count one decoded request, control or work.
    fn note_received(&self, req: &Request);
    /// Answer one decoded work request.
    fn work(&self, req: Request) -> Response;
}

/// Why a server failed to start.
#[derive(Debug)]
pub enum StartError<C> {
    /// The configuration failed validation.
    Config(C),
    /// Binding `addr` or starting a thread failed.
    Io {
        addr: String,
        kind: std::io::ErrorKind,
    },
}

impl<C: std::fmt::Display> std::fmt::Display for StartError<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid configuration: {e}"),
            Self::Io { addr, kind } => write!(f, "cannot serve on {addr}: {kind:?}"),
        }
    }
}

impl<C: std::fmt::Debug + std::fmt::Display> std::error::Error for StartError<C> {}

/// A running server. Dropping the handle does **not** stop it; call
/// [`Handle::join`], which drains first.
pub struct Handle<S: Service> {
    addr: SocketAddr,
    service: Arc<S>,
    /// The accept thread first, then the service's own threads.
    threads: Vec<JoinHandle<()>>,
}

impl<S: Service> Handle<S> {
    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful drain. Idempotent.
    pub fn trigger_drain(&self) {
        self.service.stop();
    }

    /// A live stats snapshot, without stopping the server.
    #[must_use]
    pub fn stats(&self) -> S::Stats {
        self.service.snapshot()
    }

    /// Drain, join every thread and return the final stats snapshot.
    pub fn join(self) -> S::Stats {
        self.service.stop();
        for t in self.threads {
            let _ = t.join();
        }
        self.service.snapshot()
    }
}

/// Bind `addr` and serve `service`. `own` names the service's own
/// threads and their bodies; they start after the accept thread and are
/// joined after it. On any failure the service is stopped, so threads
/// already started exit.
pub fn start<S: Service, C>(
    addr: &str,
    service: S,
    own: impl IntoIterator<Item = (String, fn(&S))>,
) -> Result<Handle<S>, StartError<C>> {
    let io = |e: std::io::Error| StartError::Io {
        addr: addr.to_string(),
        kind: e.kind(),
    };
    let listener = TcpListener::bind(addr).map_err(io)?;
    listener.set_nonblocking(true).map_err(io)?;
    let local = listener.local_addr().map_err(io)?;
    let service = Arc::new(service);
    let sv = Arc::clone(&service);
    let accept = Builder::new()
        .name(format!("{}-accept", S::NAME))
        .spawn(move || accept_loop(&listener, &sv));
    let threads: std::io::Result<Vec<_>> = std::iter::once(accept)
        .chain(own.into_iter().map(|(name, body)| {
            let sv = Arc::clone(&service);
            Builder::new().name(name).spawn(move || body(&sv))
        }))
        .collect();
    match threads {
        Ok(threads) => Ok(Handle {
            addr: local,
            service,
            threads,
        }),
        Err(e) => {
            service.stop();
            Err(io(e))
        }
    }
}

/// Poll-accept connections until stop, then join the connection threads.
fn accept_loop<S: Service>(listener: &TcpListener, service: &Arc<S>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !service.stopped() {
        let Ok((stream, _)) = listener.accept() else {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        // Frames are small request/response pairs; leaving Nagle on
        // costs a delayed-ACK round trip (~40 ms) per call.
        let _ = stream.set_nodelay(true);
        let Some(stream) = service.admit(stream) else {
            continue;
        };
        let sv = Arc::clone(service);
        if let Ok(t) = Builder::new()
            .name(format!("{}-conn", S::NAME))
            .spawn(move || connection_loop(stream, &*sv))
        {
            conns.push(t);
        }
        conns.retain(|t| !t.is_finished());
    }
    for t in conns {
        let _ = t.join();
    }
}

/// Serve one client connection until it closes, errors, or the server
/// stops.
fn connection_loop<S: Service>(stream: TcpStream, service: &S) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut streak = 0u32;
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(p) => p,
            Err(WireError::Io { kind })
                if kind == std::io::ErrorKind::WouldBlock
                    || kind == std::io::ErrorKind::TimedOut =>
            {
                if service.stopped() {
                    return;
                }
                continue;
            }
            Err(WireError::Io { .. } | WireError::Shed) => return, // closed / reset
            Err(_) => {
                service.note_protocol_error();
                return;
            }
        };
        let resp = match service.screen(&payload, &mut streak) {
            Screen::Pass => {
                let Ok(req) = Request::decode(&payload) else {
                    service.note_protocol_error();
                    return;
                };
                service.note_received(&req);
                match req {
                    Request::Stats => Response::Stats {
                        json: service.snapshot().to_json(),
                    },
                    Request::Shutdown { drain } => {
                        service.stop();
                        Response::ShuttingDown { drain }
                    }
                    work => service.work(work),
                }
            }
            Screen::Answer(resp) => resp,
            Screen::Shed => {
                let _ = write_shed(&mut writer);
                return;
            }
        };
        let done = matches!(resp, Response::ShuttingDown { .. });
        if write_frame(&mut writer, &resp.encode()).is_err() || done {
            return;
        }
    }
}

/// Set by SIGTERM/SIGINT; polled by [`run_binary`].
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    #[cfg(unix)]
    {
        // Raw libc binding: `signal(2)` exists in every libc Rust links
        // against and std offers no safe interface for dispositions.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        // POSIX-mandated values on every unix target Rust supports.
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: installed before any server thread exists, so no handler
        // races thread startup; the handler only stores into an atomic
        // (async-signal-safe, no allocation, no unwinding across FFI).
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

/// Read the command line: `--stats-out PATH` is the lifecycle's own
/// flag, `config` reads the rest. Returns the configuration and the
/// `--stats-out` path, or every problem [`Args`] found.
fn parse_cli<C>(
    mut args: Args,
    config: impl FnOnce(&mut Args) -> C,
) -> Result<(C, Option<String>), Vec<String>> {
    let stats_out = args.opt("--stats-out");
    let cfg = config(&mut args);
    let problems = args.problems();
    if problems.is_empty() {
        Ok((cfg, stats_out))
    } else {
        Err(problems)
    }
}

/// Write the final stats JSON to `path`; the error names the path.
fn write_stats(path: &str, json: &str) -> Result<(), String> {
    std::fs::write(path, json).map_err(|e| format!("cannot write stats to {path}: {e}"))
}

/// A server binary from command line to exit code: `config` reads the
/// flags strictly, `start` runs the server until SIGTERM/SIGINT or a
/// wire `Shutdown`, then it drains and the final stats JSON is printed
/// and written to `--stats-out`. A flag error prints every problem and
/// the usage line and exits 2; a failed start or stats write exits 1.
pub fn run_binary<C, S: Service, E: std::fmt::Display>(
    name: &str,
    usage: &str,
    config: impl FnOnce(&mut Args) -> C,
    start: impl FnOnce(C) -> Result<Handle<S>, E>,
) -> ExitCode {
    install_signal_handlers();
    let (cfg, stats_out) = match parse_cli(Args::parse(), config) {
        Ok(parsed) => parsed,
        Err(problems) => {
            for p in &problems {
                eprintln!("{name}: error: {p}");
            }
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    let handle = match start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("{name}: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{name}: listening on {}", handle.local_addr());
    while !SIGNALLED.load(Ordering::SeqCst) && !handle.service.stopped() {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("{name}: draining");
    let json = handle.join().to_json();
    print!("{json}");
    if let Some(Err(e)) = stats_out.map(|path| write_stats(&path, &json)) {
        eprintln!("{name}: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unwritable_stats_path_is_an_error_naming_it() {
        let dir = std::env::temp_dir();
        let path = dir.to_string_lossy();
        let err = write_stats(&path, "{}").expect_err("a directory is not writable as a file");
        assert!(err.contains(path.as_ref()), "{err}");
    }

    #[test]
    fn stats_out_belongs_to_the_lifecycle() {
        let parse = |words: &[&str]| {
            let args = Args::from_vec(words.iter().map(ToString::to_string).collect());
            parse_cli(args, |a| a.get_or("--x", 0u32))
        };
        let (cfg, out) = parse(&["--x", "1", "--stats-out", "s.json"]).expect("valid flags");
        assert_eq!(cfg, 1);
        assert_eq!(out.as_deref(), Some("s.json"));
        assert!(parse(&["--stats-out"]).is_err());
        assert!(parse(&["--y", "1"]).is_err());
    }
}
