//! Clients for the serve protocol.
//!
//! [`Client`] is the minimal blocking transport — one TCP connection, one
//! request in flight — used by the load harness, the example, and the
//! integration tests. [`RetryingClient`] wraps it with the cooperative
//! overload behaviour the server's admission pipeline expects from a
//! well-behaved tenant (DESIGN.md §16.4): jittered exponential backoff
//! that honours the server's adaptive `retry_after_ms` hint on
//! [`Response::Rejected`], and reconnect-after-backoff when the server
//! sheds the connection outright ([`WireError::Shed`]).

use crate::protocol::{read_frame, write_frame, Request, Response, WireError};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use tme_num::rng::SplitMix64;

/// A connected client.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Connect with a bounded wait. Against a server whose listen
    /// backlog is full (the accept loop is pacing sheds under overload),
    /// a plain `connect` stalls in SYN retransmit for seconds; an
    /// open-loop caller that treats "can't get through" as backpressure
    /// wants the busy signal quickly instead.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> Result<Self, WireError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Bound how long [`Client::call`] waits for a reply; a slower reply
    /// fails as [`WireError::Io`].
    pub fn set_read_timeout(&self, timeout: Duration) -> Result<(), WireError> {
        let timeout = timeout.max(Duration::from_millis(1));
        Ok(self.stream.set_read_timeout(Some(timeout))?)
    }

    /// Send one request and block for its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        write_frame(&mut self.stream, &req.encode())?;
        let payload = read_frame(&mut self.stream)?;
        Response::decode(&payload)
    }
}

/// How a [`RetryingClient`] waits between attempts.
#[derive(Clone, Copy, Debug)]
pub struct BackoffPolicy {
    /// First-retry delay; doubles every further attempt.
    pub base_ms: u64,
    /// Ceiling on any single delay (the exponential stops here, and a
    /// server hint larger than this is clamped to it).
    pub cap_ms: u64,
    /// Attempts per [`RetryingClient::call`] before giving up and
    /// returning the last outcome as-is.
    pub max_attempts: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self {
            base_ms: 5,
            cap_ms: 2_000,
            max_attempts: 8,
        }
    }
}

/// A client that cooperates with server-side admission control: on
/// [`Response::Rejected`] it sleeps for the server's measured-drain-rate
/// hint (or its own exponential schedule, whichever is longer) with
/// multiplicative jitter in `[0.5, 1.0]` so a rejected cohort does not
/// re-arrive in lockstep; on a shed or transport error it drops the
/// connection and reconnects after the same backoff (re-entering through
/// the server's accept-loop gate). Protocol errors are never retried —
/// they mean a version or framing bug, not load.
pub struct RetryingClient {
    addr: SocketAddr,
    client: Option<Client>,
    policy: BackoffPolicy,
    rng: SplitMix64,
    retries: u64,
    sheds: u64,
}

impl RetryingClient {
    /// A lazily-connecting retrying client. `seed` drives the backoff
    /// jitter — give each concurrent client its own seed, or the jitter
    /// does nothing to break up synchronised retry waves.
    #[must_use]
    pub fn new(addr: SocketAddr, policy: BackoffPolicy, seed: u64) -> Self {
        Self {
            addr,
            client: None,
            policy,
            rng: SplitMix64::seed_from_u64(seed),
            retries: 0,
            sheds: 0,
        }
    }

    /// Backoff sleeps taken so far (rejections, sheds, reconnects).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Times the server shed this client (at accept or mid-connection).
    #[must_use]
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Sleep out one backoff step: `max(server hint, base·2^attempt)`,
    /// clamped to the policy cap, scaled by jitter in `[0.5, 1.0]`.
    fn backoff(&mut self, hint_ms: Option<u64>, attempt: u32) {
        self.retries += 1;
        let exp = self
            .policy
            .base_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.policy.cap_ms);
        let target_ms = hint_ms
            .unwrap_or(0)
            .max(exp)
            .clamp(1, self.policy.cap_ms.max(1));
        let jitter = 0.5 + 0.5 * self.rng.uniform();
        let sleep_us = (target_ms as f64 * 1000.0 * jitter) as u64;
        std::thread::sleep(Duration::from_micros(sleep_us));
    }

    /// Send `req`, retrying through rejections, sheds, and transport
    /// drops per the policy. Returns the first conclusive outcome; when
    /// attempts run out, the last outcome (e.g. the final `Rejected`
    /// response, or the final connect error) is returned as-is so the
    /// caller can still see *why* it gave up — except a final shed,
    /// which comes back as a synthetic [`Response::Rejected`] with the
    /// policy's `base_ms` as the hint: a shed byte on a fresh connection
    /// is backpressure, and reporting it as an error would make a
    /// well-behaved tenant look broken during a router failover window.
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        let mut attempt = 0u32;
        let max_attempts = self.policy.max_attempts.max(1);
        loop {
            let last_attempt = attempt + 1 >= max_attempts;
            if self.client.is_none() {
                match Client::connect(self.addr) {
                    Ok(c) => self.client = Some(c),
                    Err(e) if last_attempt => return Err(e),
                    Err(_) => {
                        self.backoff(None, attempt);
                        attempt += 1;
                        continue;
                    }
                }
            }
            let Some(client) = self.client.as_mut() else {
                continue;
            };
            match client.call(req) {
                Ok(Response::Rejected {
                    retry_after_ms,
                    queue_depth,
                    outstanding_cost,
                    cost_budget,
                }) => {
                    if last_attempt {
                        return Ok(Response::Rejected {
                            retry_after_ms,
                            queue_depth,
                            outstanding_cost,
                            cost_budget,
                        });
                    }
                    self.backoff(Some(retry_after_ms), attempt);
                    attempt += 1;
                }
                Ok(resp) => return Ok(resp),
                Err(WireError::Shed) => {
                    // A shed byte always arrives mid-handshake: the server
                    // (or a router health-ejecting the backend in front of
                    // it) refused this connection before decoding anything.
                    // That is overload, not a protocol bug — so when
                    // attempts run out the caller gets a synthetic
                    // `Rejected` carrying the policy's default hint, never
                    // a wire error. A fleet riding through a router
                    // failover window sees ordinary backpressure, not a
                    // burst of client failures.
                    self.client = None;
                    self.sheds += 1;
                    if last_attempt {
                        return Ok(Response::Rejected {
                            retry_after_ms: self.policy.base_ms,
                            queue_depth: 0,
                            outstanding_cost: 0,
                            cost_budget: 0,
                        });
                    }
                    self.backoff(None, attempt);
                    attempt += 1;
                }
                Err(e @ WireError::Io { .. }) => {
                    // The stream is dead (transport drop): reconnect on
                    // the next attempt, after backing off.
                    self.client = None;
                    if last_attempt {
                        return Err(e);
                    }
                    self.backoff(None, attempt);
                    attempt += 1;
                }
                // Version/framing errors are bugs, not load; never retry.
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_shed;
    use std::net::TcpListener;

    /// A listener that sheds every connection with the one-byte marker —
    /// what a dying backend (or a router mid-failover) looks like on the
    /// wire.
    fn shed_everything(connections: u32) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind test listener");
        let addr = listener.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || {
            // Shed exactly the expected number of connections, then exit
            // (so the test can join without a dangling accept).
            for _ in 0..connections {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                let _ = write_shed(&mut stream);
                // Half-close so the client sees shed-byte-then-EOF, then
                // drain whatever the client already wrote: closing with
                // unread data would RST the socket and could discard the
                // shed byte before the client reads it.
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let mut sink = [0u8; 256];
                while matches!(std::io::Read::read(&mut stream, &mut sink), Ok(n) if n > 0) {}
            }
        });
        (addr, handle)
    }

    #[test]
    fn exhausted_sheds_become_rejected_with_default_hint() {
        let policy = BackoffPolicy {
            base_ms: 1,
            cap_ms: 2,
            max_attempts: 3,
        };
        let (addr, server) = shed_everything(policy.max_attempts);
        let mut client = RetryingClient::new(addr, policy, 7);
        // Every reconnect is met with a mid-handshake shed byte. The
        // terminal outcome must be a synthetic Rejected carrying the
        // policy's default hint — never Err(WireError::Shed).
        match client.call(&Request::Stats) {
            Ok(Response::Rejected { retry_after_ms, .. }) => {
                assert_eq!(retry_after_ms, policy.base_ms);
            }
            other => panic!("expected synthetic Rejected, got {other:?}"),
        }
        assert_eq!(client.sheds(), u64::from(policy.max_attempts));
        assert!(client.retries() >= 2, "intermediate sheds back off");
        drop(client);
        server.join().expect("shed server thread");
    }
}
