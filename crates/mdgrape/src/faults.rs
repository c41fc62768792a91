//! Deterministic fault injection for the machine simulator (DESIGN.md §11).
//!
//! MDGRAPE-4A is a 512-SoC machine with no spare nodes; the paper's
//! schedules assume every link, SoC and the TMENW octree stay healthy for
//! the whole run. This module asks the co-design question the paper
//! leaves open: *what does a fault cost?* It injects three families of
//! hardware faults into the discrete-event schedule and models the
//! machine's graceful-degradation responses:
//!
//! * **Torus link faults** — a link of the observed node dies (traffic
//!   reroutes around a neighbour: 1 hop becomes 3, computed by
//!   [`crate::network::torus_hops_routed`]) or degrades (bandwidth
//!   derated by a configured factor).
//! * **SoC dropout** — a node dies; the run re-decomposes the workload
//!   over the survivors (a one-time CGP re-planning span) and every
//!   surviving node carries `nodes/(nodes − dead)` of the original load.
//! * **TMENW timeouts** — a top-level round trip times out and is
//!   retried with exponential backoff up to a retry budget.
//!
//! All randomness comes from one seeded [`SplitMix64`] stream with a
//! fixed per-step draw order, so a fault scenario is a pure function of
//! `(seed, rates, step count)` — bitwise reproducible across platforms,
//! thread counts and checkpoint/restart boundaries. Every injected event
//! and the recovery it triggered is recorded as a [`FaultRecord`] so the
//! degraded-step overhead is quantifiable per event class.

use crate::config::MachineConfig;
use crate::network;
use tme_num::bytes::{encode_variant, ByteReader, Codec, CodecError, Sink};
use tme_num::rng::SplitMix64;

/// Fault rates and recovery parameters. All `*_per_step` fields are
/// per-step probabilities in `[0, 1]`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed of the injection stream; equal seeds replay equal scenarios.
    pub seed: u64,
    /// Probability per step that a healthy observed-node link dies.
    pub link_fail_per_step: f64,
    /// Probability per step that a healthy link degrades.
    pub link_degrade_per_step: f64,
    /// Bandwidth multiplier of a degraded link (e.g. 0.5 = half rate).
    pub degrade_factor: f64,
    /// Probability per step that another SoC drops out.
    pub soc_fail_per_step: f64,
    /// Probability that one TMENW round-trip attempt times out.
    pub tmenw_timeout_per_attempt: f64,
    /// Retry budget for a timed-out TMENW round trip.
    pub max_retries: u32,
    /// First retry backoff (µs); doubles per further retry.
    pub backoff_base_us: f64,
    /// One-time CGP re-planning cost (µs) after a SoC dropout.
    pub redecompose_us: f64,
}

impl FaultConfig {
    /// A configuration that never injects anything — the identity model.
    #[must_use]
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            link_fail_per_step: 0.0,
            link_degrade_per_step: 0.0,
            degrade_factor: 0.5,
            soc_fail_per_step: 0.0,
            tmenw_timeout_per_attempt: 0.0,
            max_retries: 3,
            backoff_base_us: 2.0,
            redecompose_us: 25.0,
        }
    }

    /// A chaos configuration with every fault family at `rate` (the
    /// axis of the fault-rate sweep recorded in EXPERIMENTS.md).
    #[must_use]
    pub fn chaos(seed: u64, rate: f64) -> Self {
        Self {
            link_fail_per_step: rate,
            link_degrade_per_step: 2.0 * rate,
            soc_fail_per_step: rate,
            tmenw_timeout_per_attempt: 4.0 * rate,
            ..Self::quiet(seed)
        }
    }
}

/// An injected hardware event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Observed-node torus link `link` (0..6: ±x, ±y, ±z) died.
    LinkFailed { link: usize },
    /// Observed-node torus link `link` degraded.
    LinkDegraded { link: usize },
    /// Another SoC dropped out (`dead` total so far).
    SocFailed { dead: usize },
    /// TMENW round-trip attempt `attempt` (0-based) timed out.
    TmenwTimeout { attempt: u32 },
}

/// The recovery the machine model applied to a [`FaultEvent`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RecoveryAction {
    /// Traffic rerouted around the dead link; each former 1-hop transfer
    /// now takes `1 + extra_hops` hops.
    Rerouted { extra_hops: usize },
    /// Link kept in service at `factor` of its bandwidth.
    Derated { factor: f64 },
    /// Workload re-decomposed over the survivors; each carries
    /// `load_factor ≥ 1` of its original share.
    Redecomposed { load_factor: f64 },
    /// Round trip retried after an exponential backoff.
    RetriedAfterBackoff { backoff_us: f64 },
    /// Retry budget exhausted; the step proceeds with the last attempt's
    /// result (the driver is expected to fall back, e.g. to the exact
    /// pairwise path).
    RetriesExhausted,
}

/// One injected event, the recovery applied, and the directly
/// attributable overhead. Transfer-stretch overheads (reroute/derate)
/// are schedule-dependent and land in the step's aggregate
/// `fault_overhead_us` instead of per record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRecord {
    /// Step index the event fired on.
    pub step: u64,
    pub event: FaultEvent,
    pub action: RecoveryAction,
    /// Overhead directly attributable to this record (µs).
    pub overhead_us: f64,
}

/// The per-step fault picture consumed by the step scheduler: computed
/// once per step by [`FaultModel::begin_step`] from the RNG stream, then
/// read as plain data while scheduling (no draws mid-schedule, so the
/// schedule shape cannot perturb the stream).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepFaults {
    /// Extra hops every former 1-hop observed-node transfer now takes
    /// (0 when all links are alive; detour via
    /// [`network::torus_hops_routed`] otherwise).
    pub reroute_extra_hops: usize,
    /// Worst surviving-link bandwidth multiplier (1.0 = healthy).
    pub bandwidth_factor: f64,
    /// Per-surviving-node load multiplier `nodes/(nodes − dead)`.
    pub load_factor: f64,
    /// One-time CGP re-planning span this step (µs; 0 when no SoC died).
    pub redecompose_us: f64,
    /// TMENW round-trip attempts that timed out this step.
    pub tmenw_retries: u32,
    /// Total exponential-backoff wait accompanying those retries (µs).
    pub tmenw_backoff_us: f64,
}

impl StepFaults {
    /// The no-fault picture (also what a healthy step draws).
    #[must_use]
    pub fn clean() -> Self {
        Self {
            reroute_extra_hops: 0,
            bandwidth_factor: 1.0,
            load_factor: 1.0,
            redecompose_us: 0.0,
            tmenw_retries: 0,
            tmenw_backoff_us: 0.0,
        }
    }
}

/// Persistent fault state across a run: which links/SoCs are down, the
/// RNG stream position, and the records of everything injected so far.
#[derive(Clone, Debug)]
pub struct FaultModel {
    cfg: FaultConfig,
    rng: SplitMix64,
    step: u64,
    dead_links: [bool; 6],
    degraded_links: [bool; 6],
    dead_nodes: usize,
    current: StepFaults,
    /// Records drained by the step scheduler into the report.
    pending: Vec<FaultRecord>,
}

/// Serialisation magic: `b"TMEFLT1\0"` as little-endian u64.
const FAULT_MAGIC: u64 = u64::from_le_bytes(*b"TMEFLT1\0");

impl FaultModel {
    #[must_use]
    pub fn new(cfg: FaultConfig) -> Self {
        let rng = SplitMix64::seed_from_u64(cfg.seed);
        Self {
            cfg,
            rng,
            step: 0,
            dead_links: [false; 6],
            degraded_links: [false; 6],
            dead_nodes: 0,
            current: StepFaults::clean(),
            pending: Vec::new(),
        }
    }

    /// Drain the records accumulated since the last drain (the step
    /// scheduler moves them into the [`crate::StepReport`]).
    pub fn drain_records(&mut self) -> Vec<FaultRecord> {
        std::mem::take(&mut self.pending)
    }

    /// Draw this step's events in a fixed order (2 draws per link, 1 SoC
    /// draw, then the TMENW attempt loop) and fold them into the
    /// persistent state. Returns the resulting per-step picture.
    pub fn begin_step(&mut self, cfg: &MachineConfig) -> StepFaults {
        let step = self.step;
        // Links: always two draws per link so the stream position does
        // not depend on which links happen to be dead.
        for link in 0..6 {
            let fail = self.rng.uniform();
            let degrade = self.rng.uniform();
            if self.dead_links[link] {
                continue;
            }
            if fail < self.cfg.link_fail_per_step {
                self.dead_links[link] = true;
                let extra = reroute_extra_hops(&self.dead_links, cfg.torus);
                self.pending.push(FaultRecord {
                    step,
                    event: FaultEvent::LinkFailed { link },
                    action: RecoveryAction::Rerouted { extra_hops: extra },
                    overhead_us: 0.0,
                });
            } else if !self.degraded_links[link] && degrade < self.cfg.link_degrade_per_step {
                self.degraded_links[link] = true;
                self.pending.push(FaultRecord {
                    step,
                    event: FaultEvent::LinkDegraded { link },
                    action: RecoveryAction::Derated {
                        factor: self.cfg.degrade_factor,
                    },
                    overhead_us: 0.0,
                });
            }
        }
        // SoC dropout: at most one per step, never the last node.
        let nodes = cfg.node_count();
        let mut redecompose_us = 0.0;
        let soc = self.rng.uniform();
        if soc < self.cfg.soc_fail_per_step && self.dead_nodes + 1 < nodes {
            self.dead_nodes += 1;
            redecompose_us = self.cfg.redecompose_us;
            let lf = nodes as f64 / (nodes - self.dead_nodes) as f64;
            self.pending.push(FaultRecord {
                step,
                event: FaultEvent::SocFailed {
                    dead: self.dead_nodes,
                },
                action: RecoveryAction::Redecomposed { load_factor: lf },
                overhead_us: redecompose_us,
            });
        }
        // TMENW: draw attempts until one succeeds or the budget runs out.
        let mut retries = 0u32;
        let mut backoff_us = 0.0;
        loop {
            let timeout = self.rng.uniform();
            if timeout >= self.cfg.tmenw_timeout_per_attempt {
                break;
            }
            if retries >= self.cfg.max_retries {
                self.pending.push(FaultRecord {
                    step,
                    event: FaultEvent::TmenwTimeout { attempt: retries },
                    action: RecoveryAction::RetriesExhausted,
                    overhead_us: 0.0,
                });
                break;
            }
            let wait = self.cfg.backoff_base_us * f64::from(1u32 << retries.min(30));
            backoff_us += wait;
            self.pending.push(FaultRecord {
                step,
                event: FaultEvent::TmenwTimeout { attempt: retries },
                action: RecoveryAction::RetriedAfterBackoff { backoff_us: wait },
                overhead_us: wait,
            });
            retries += 1;
        }
        let bandwidth_factor = if self
            .degraded_links
            .iter()
            .zip(&self.dead_links)
            .any(|(&deg, &dead)| deg && !dead)
        {
            self.cfg.degrade_factor
        } else {
            1.0
        };
        self.current = StepFaults {
            reroute_extra_hops: reroute_extra_hops(&self.dead_links, cfg.torus),
            bandwidth_factor,
            load_factor: nodes as f64 / (nodes - self.dead_nodes) as f64,
            redecompose_us,
            tmenw_retries: retries,
            tmenw_backoff_us: backoff_us,
        };
        self.step += 1;
        self.current
    }
}

/// The checkpoint layout of the model: config, RNG position and topology
/// damage. Pending records are drained by the scheduler each step, so a
/// between-steps checkpoint carries none.
impl Codec for FaultModel {
    fn encode<S: Sink>(&self, s: &mut S) {
        FAULT_MAGIC.encode(s);
        self.cfg.encode(s);
        self.rng.state().encode(s);
        self.step.encode(s);
        link_bits(&self.dead_links).encode(s);
        link_bits(&self.degraded_links).encode(s);
        self.dead_nodes.encode(s);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.expect_u64(FAULT_MAGIC)?;
        Ok(Self {
            cfg: r.decode()?,
            rng: SplitMix64::from_state(r.decode()?),
            step: r.decode()?,
            dead_links: links_from_bits(r.decode()?),
            degraded_links: links_from_bits(r.decode()?),
            dead_nodes: r.decode()?,
            current: StepFaults::clean(),
            pending: Vec::new(),
        })
    }
}

/// Link `i`'s flag as bit `i`.
fn link_bits(links: &[bool; 6]) -> u8 {
    links
        .iter()
        .rev()
        .fold(0, |bits, &l| (bits << 1) | u8::from(l))
}

fn links_from_bits(bits: u8) -> [bool; 6] {
    std::array::from_fn(|i| (bits >> i) & 1 != 0)
}

/// The fields in declaration order.
impl Codec for FaultConfig {
    fn encode<S: Sink>(&self, s: &mut S) {
        self.seed.encode(s);
        self.link_fail_per_step.encode(s);
        self.link_degrade_per_step.encode(s);
        self.degrade_factor.encode(s);
        self.soc_fail_per_step.encode(s);
        self.tmenw_timeout_per_attempt.encode(s);
        self.max_retries.encode(s);
        self.backoff_base_us.encode(s);
        self.redecompose_us.encode(s);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            seed: r.decode()?,
            link_fail_per_step: r.decode()?,
            link_degrade_per_step: r.decode()?,
            degrade_factor: r.decode()?,
            soc_fail_per_step: r.decode()?,
            tmenw_timeout_per_attempt: r.decode()?,
            max_retries: r.decode()?,
            backoff_base_us: r.decode()?,
            redecompose_us: r.decode()?,
        })
    }
}

/// A tag byte (the variant's position), then its one field.
impl Codec for FaultEvent {
    const MIN_BYTES: usize = 1 + 4;

    fn encode<S: Sink>(&self, s: &mut S) {
        match self {
            Self::LinkFailed { link } => encode_variant(s, 0, link),
            Self::LinkDegraded { link } => encode_variant(s, 1, link),
            Self::SocFailed { dead } => encode_variant(s, 2, dead),
            Self::TmenwTimeout { attempt } => encode_variant(s, 3, attempt),
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let at = r.position();
        Ok(match r.decode()? {
            0 => Self::LinkFailed { link: r.decode()? },
            1 => Self::LinkDegraded { link: r.decode()? },
            2 => Self::SocFailed { dead: r.decode()? },
            3 => Self::TmenwTimeout {
                attempt: r.decode()?,
            },
            got => return Err(CodecError::UnknownTag { at, got }),
        })
    }
}

/// A tag byte (the variant's position), then its field if it has one.
impl Codec for RecoveryAction {
    fn encode<S: Sink>(&self, s: &mut S) {
        match self {
            Self::Rerouted { extra_hops } => encode_variant(s, 0, extra_hops),
            Self::Derated { factor } => encode_variant(s, 1, factor),
            Self::Redecomposed { load_factor } => encode_variant(s, 2, load_factor),
            Self::RetriedAfterBackoff { backoff_us } => encode_variant(s, 3, backoff_us),
            Self::RetriesExhausted => 4u8.encode(s),
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let at = r.position();
        Ok(match r.decode()? {
            0 => Self::Rerouted {
                extra_hops: r.decode()?,
            },
            1 => Self::Derated {
                factor: r.decode()?,
            },
            2 => Self::Redecomposed {
                load_factor: r.decode()?,
            },
            3 => Self::RetriedAfterBackoff {
                backoff_us: r.decode()?,
            },
            4 => Self::RetriesExhausted,
            got => return Err(CodecError::UnknownTag { at, got }),
        })
    }
}

/// The fields in declaration order: 22 bytes at the least.
impl Codec for FaultRecord {
    const MIN_BYTES: usize =
        u64::MIN_BYTES + FaultEvent::MIN_BYTES + RecoveryAction::MIN_BYTES + f64::MIN_BYTES;

    fn encode<S: Sink>(&self, s: &mut S) {
        self.step.encode(s);
        self.event.encode(s);
        self.action.encode(s);
        self.overhead_us.encode(s);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            step: r.decode()?,
            event: r.decode()?,
            action: r.decode()?,
            overhead_us: r.decode()?,
        })
    }
}

/// Detour cost of the worst dead observed-node link: BFS hops to the
/// neighbour behind it, minus the healthy single hop. All six links dead
/// means the node is isolated; the model then charges the torus diameter
/// (the honest upper bound for any surviving indirect route).
fn reroute_extra_hops(dead_links: &[bool; 6], dims: [usize; 3]) -> usize {
    let origin = [0usize; 3];
    // Links 2a and 2a + 1 lead one step up and one step down axis a.
    let mut blocked: Vec<([usize; 3], [usize; 3])> = Vec::new();
    for (axis, (links, &n)) in dead_links.chunks_exact(2).zip(&dims).enumerate() {
        for (&dead, coord) in links.iter().zip([1 % n.max(1), n.saturating_sub(1)]) {
            if dead {
                let dst = std::array::from_fn(|a| if a == axis { coord } else { 0 });
                blocked.push((origin, dst));
            }
        }
    }
    if blocked.is_empty() {
        return 0;
    }
    let mut worst = 0usize;
    for &(_, dst) in &blocked {
        let hops = network::torus_hops_routed(origin, dst, dims, |from, to| {
            !blocked
                .iter()
                .any(|&(a, b)| (from == a && to == b) || (from == b && to == a))
        });
        let diameter = dims[0] / 2 + dims[1] / 2 + dims[2] / 2;
        worst = worst.max(hops.unwrap_or(diameter).saturating_sub(1));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use tme_num::bytes::{decode_exact, encode_to_vec};

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn mcfg() -> MachineConfig {
        MachineConfig::mdgrape4a()
    }

    /// Same seed → identical event logs and per-step pictures; different
    /// seed → a different scenario.
    #[test]
    fn fault_stream_is_seed_deterministic() {
        let c = mcfg();
        let run = |seed: u64| {
            let mut m = FaultModel::new(FaultConfig::chaos(seed, 0.05));
            let mut pics = Vec::new();
            let mut recs = Vec::new();
            for _ in 0..50 {
                pics.push(m.begin_step(&c));
                recs.extend(m.drain_records());
            }
            (pics, recs)
        };
        let (p1, r1) = run(7);
        let (p2, r2) = run(7);
        assert_eq!(p1, p2);
        assert_eq!(r1, r2);
        let (p3, _) = run(8);
        assert_ne!(p1, p3);
    }

    /// A quiet model never injects and always reports the clean picture.
    #[test]
    fn quiet_model_is_the_identity() {
        let c = mcfg();
        let mut m = FaultModel::new(FaultConfig::quiet(1));
        for _ in 0..100 {
            assert_eq!(m.begin_step(&c), StepFaults::clean());
        }
        assert!(m.drain_records().is_empty());
        assert_eq!(m.dead_nodes, 0);
    }

    /// One dead link costs the 3-hop detour (2 extra); an isolated node
    /// (all six links dead) charges the torus diameter. A model driven
    /// to certain failure records the events with reroute recoveries.
    #[test]
    fn dead_link_costs_two_extra_hops() {
        let mut one_dead = [false; 6];
        one_dead[0] = true;
        assert_eq!(reroute_extra_hops(&one_dead, [8, 8, 8]), 2);
        assert_eq!(reroute_extra_hops(&[true; 6], [8, 8, 8]), 11);
        let c = mcfg();
        let mut cfg = FaultConfig::quiet(3);
        cfg.link_fail_per_step = 1.0; // every link dies on step 0
        let mut m = FaultModel::new(cfg);
        let pic = m.begin_step(&c);
        assert_eq!(pic.reroute_extra_hops, 11);
        let recs = m.drain_records();
        assert_eq!(
            recs.iter()
                .filter(|r| matches!(r.event, FaultEvent::LinkFailed { .. }))
                .count(),
            6
        );
        assert!(recs
            .iter()
            .all(|r| matches!(r.action, RecoveryAction::Rerouted { .. })));
    }

    /// SoC dropout raises the surviving-node load factor and charges the
    /// one-time re-decomposition exactly once per failure.
    #[test]
    fn soc_dropout_redistributes_load() {
        let c = mcfg();
        let mut cfg = FaultConfig::quiet(9);
        cfg.soc_fail_per_step = 1.0;
        let mut m = FaultModel::new(cfg.clone());
        let p1 = m.begin_step(&c);
        assert!((p1.load_factor - 512.0 / 511.0).abs() < 1e-12);
        assert_eq!(p1.redecompose_us, cfg.redecompose_us);
        let p2 = m.begin_step(&c);
        assert!((p2.load_factor - 512.0 / 510.0).abs() < 1e-12);
        assert_eq!(m.dead_nodes, 2);
    }

    /// TMENW retries follow the exponential backoff schedule and stop at
    /// the retry budget.
    #[test]
    fn tmenw_backoff_is_exponential_and_bounded() {
        let c = mcfg();
        let mut cfg = FaultConfig::quiet(4);
        cfg.tmenw_timeout_per_attempt = 1.0; // every attempt times out
        cfg.max_retries = 3;
        cfg.backoff_base_us = 2.0;
        let mut m = FaultModel::new(cfg);
        let pic = m.begin_step(&c);
        assert_eq!(pic.tmenw_retries, 3);
        // 2 + 4 + 8
        assert!((pic.tmenw_backoff_us - 14.0).abs() < 1e-12);
        let recs = m.drain_records();
        assert!(recs
            .iter()
            .any(|r| matches!(r.action, RecoveryAction::RetriesExhausted)));
    }

    /// Checkpointed model state resumes the stream bit-for-bit: running
    /// 30 steps straight equals 12 steps, serialise/deserialise, 18 more.
    #[test]
    fn model_checkpoint_resumes_bitwise() -> TestResult {
        let c = mcfg();
        let cfg = FaultConfig::chaos(11, 0.04);
        let mut whole = FaultModel::new(cfg.clone());
        let mut straight = Vec::new();
        for _ in 0..30 {
            straight.push(whole.begin_step(&c));
            let _ = whole.drain_records();
        }
        let mut first = FaultModel::new(cfg);
        let mut resumed_pics = Vec::new();
        for _ in 0..12 {
            resumed_pics.push(first.begin_step(&c));
            let _ = first.drain_records();
        }
        let mut second: FaultModel = decode_exact(&encode_to_vec(&first))?;
        for _ in 0..18 {
            resumed_pics.push(second.begin_step(&c));
            let _ = second.drain_records();
        }
        assert_eq!(straight, resumed_pics);
        Ok(())
    }

    /// Fault records round-trip through the codec.
    #[test]
    fn records_round_trip() -> TestResult {
        let recs = vec![
            FaultRecord {
                step: 3,
                event: FaultEvent::LinkFailed { link: 4 },
                action: RecoveryAction::Rerouted { extra_hops: 2 },
                overhead_us: 0.0,
            },
            FaultRecord {
                step: 5,
                event: FaultEvent::SocFailed { dead: 1 },
                action: RecoveryAction::Redecomposed {
                    load_factor: 512.0 / 511.0,
                },
                overhead_us: 25.0,
            },
            FaultRecord {
                step: 9,
                event: FaultEvent::TmenwTimeout { attempt: 1 },
                action: RecoveryAction::RetriedAfterBackoff { backoff_us: 4.0 },
                overhead_us: 4.0,
            },
        ];
        let back: Vec<FaultRecord> = decode_exact(&encode_to_vec(&recs))?;
        assert_eq!(back, recs);
        Ok(())
    }

    /// Corrupt record tags surface as typed errors naming the tag's own
    /// offset, not aborts. Each record is full-size, so the length check
    /// passes and the tag is what fails.
    #[test]
    fn corrupt_records_are_typed_errors() {
        let rec = FaultRecord {
            step: 3,
            event: FaultEvent::LinkFailed { link: 4 },
            action: RecoveryAction::Rerouted { extra_hops: 2 },
            overhead_us: 0.0,
        };
        let good = encode_to_vec(&vec![rec]);
        // count (8) + step (8), then the event tag; its link (8), then the
        // action tag.
        for (at, bad) in [(16, 9u8), (25, 5u8)] {
            let mut bytes = good.clone();
            bytes[at] = bad;
            assert_eq!(
                decode_exact::<Vec<FaultRecord>>(&bytes),
                Err(CodecError::UnknownTag { at, got: bad }),
                "tag at byte {at}"
            );
        }
    }
}
