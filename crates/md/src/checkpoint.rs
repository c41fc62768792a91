//! Checkpoint/restart for the MD driver (DESIGN.md §11).
//!
//! [`crate::NveSim::checkpoint`] serialises the complete dynamical state —
//! including the cached force views and the r-RESPA mesh-impulse state —
//! through the bit-transparent codec of [`tme_num::bytes`], so a restored
//! simulation continues the trajectory **bitwise identically**. There is no
//! neighbour list to carry: the cell kernel's summation order follows from
//! the positions alone.
//! This module adds the driver layer on top: the typed error a restore can
//! surface, and a run loop that drops a checkpoint every N steps so an
//! injected mid-run fault (or a real crash) costs at most N steps of
//! recompute.

use crate::nve::{EnergyRecord, NveSim};
use tme_core::TmeRecoverableError;
use tme_num::bytes::CodecError;

/// Why a checkpoint could not be restored. Both variants are answers the
/// caller can act on — fall back to an older checkpoint or restart from
/// scratch — never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream itself is malformed (truncated, bad magic,
    /// trailing garbage).
    Codec(CodecError),
    /// The stream decodes but does not belong to this simulation —
    /// `what` names the first guard that failed (atom count, topology
    /// fingerprint, solver splitting, …).
    Mismatch {
        /// Human-readable name of the mismatched guard.
        what: &'static str,
    },
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        Self::Codec(e)
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Codec(e) => write!(f, "malformed checkpoint: {e}"),
            Self::Mismatch { what } => {
                write!(
                    f,
                    "checkpoint does not match this simulation: {what} differs"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Codec(e) => Some(e),
            Self::Mismatch { .. } => None,
        }
    }
}

/// Outcome of [`run_with_checkpoints`].
#[derive(Clone, Debug, Default)]
pub struct CheckpointedRun {
    /// Energy samples (t = 0 first), as from [`NveSim::run`].
    pub records: Vec<EnergyRecord>,
    /// `(step index, serialised state)` — newest last; index 0 is the
    /// pre-run state.
    pub checkpoints: Vec<(usize, Vec<u8>)>,
    /// The numerical fault that stopped the run early, if any. The last
    /// entry of `checkpoints` is then the newest state known good.
    pub fault: Option<TmeRecoverableError>,
}

impl CheckpointedRun {
    /// The newest checkpoint `(step, bytes)`. Always present — the run
    /// loop writes one before the first step.
    pub fn latest(&self) -> Option<&(usize, Vec<u8>)> {
        self.checkpoints.last()
    }
}

/// Run `steps` steps sampling every `sample_every` (as [`NveSim::run`]),
/// writing a checkpoint before the first step and then after every
/// `checkpoint_every` steps. If a numerical fault latches mid-run, the
/// loop stops and returns the fault together with everything gathered so
/// far — the caller restarts by [`NveSim::restore`]-ing the latest
/// checkpoint (see [`CheckpointedRun::latest`]) and re-running the
/// remaining steps, which reproduces the fault-free trajectory bitwise.
pub fn run_with_checkpoints(
    sim: &mut NveSim<'_>,
    steps: usize,
    sample_every: usize,
    checkpoint_every: usize,
) -> CheckpointedRun {
    let sample_every = sample_every.max(1);
    let checkpoint_every = checkpoint_every.max(1);
    let mut out = CheckpointedRun {
        records: vec![sim.energy_record()],
        checkpoints: vec![(0, sim.checkpoint())],
        fault: None,
    };
    for s in 1..=steps {
        sim.step();
        if let Some(e) = sim.last_error() {
            out.fault = Some(e);
            return out;
        }
        if s % sample_every == 0 {
            out.records.push(sim.energy_record());
        }
        if s % checkpoint_every == 0 {
            out.checkpoints.push((s, sim.checkpoint()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CutoffBackend, SpmeBackend, SpmeParams};
    use crate::water::{thermalize, water_box};
    use tme_core::alpha_from_rtol;

    fn bare_cutoff() -> Result<CutoffBackend, CheckpointError> {
        CutoffBackend::new(0.0, 0.55).map_err(|_| CheckpointError::Mismatch {
            what: "test cutoff configuration rejected",
        })
    }

    fn small_water() -> crate::MdSystem {
        let mut s = water_box(64, 6);
        thermalize(&mut s, 300.0, 9);
        s
    }

    fn max_bit_divergence(a: &[[f64; 3]], b: &[[f64; 3]]) -> usize {
        a.iter()
            .zip(b)
            .flat_map(|(x, y)| x.iter().zip(y))
            .filter(|(x, y)| x.to_bits() != y.to_bits())
            .count()
    }

    /// The tentpole contract: kill a run mid-flight, restore the latest
    /// checkpoint into a *fresh* simulation, finish the remaining steps,
    /// and land bitwise on the uninterrupted trajectory — including the
    /// mesh path (SPME exercises every checkpointed field).
    #[test]
    fn restart_from_checkpoint_is_bitwise_identical() -> Result<(), CheckpointError> {
        let sys = small_water();
        let r_cut = 0.55;
        let alpha = alpha_from_rtol(r_cut, 1e-4);
        let Ok(spme) = SpmeBackend::new(
            SpmeParams {
                n: [16; 3],
                p: 6,
                alpha,
                r_cut,
            },
            sys.box_l,
        ) else {
            return Err(CheckpointError::Mismatch {
                what: "test SPME configuration rejected",
            });
        };
        // Uninterrupted reference: 10 steps.
        let mut reference = NveSim::new(sys.clone(), &spme, 0.001, r_cut);
        reference.mesh_interval = 2; // exercise the r-RESPA impulse state
        reference.run(10, 10);
        // Checkpointed run "crashes" after step 6; restart from step 5.
        let mut crashed = NveSim::new(sys.clone(), &spme, 0.001, r_cut);
        crashed.mesh_interval = 2;
        let run = run_with_checkpoints(&mut crashed, 6, 10, 5);
        assert!(run.fault.is_none());
        let (at, bytes) = match run.latest() {
            Some((at, bytes)) => (*at, bytes.clone()),
            None => {
                return Err(CheckpointError::Mismatch {
                    what: "no checkpoint",
                })
            }
        };
        assert_eq!(at, 5);
        let mut restarted = NveSim::new(sys, &spme, 0.001, r_cut);
        restarted.mesh_interval = 2;
        restarted.restore(&bytes)?;
        assert_eq!(restarted.time.to_bits(), (0.005f64).to_bits());
        for _ in at..10 {
            restarted.step();
        }
        assert!(restarted.last_error().is_none());
        assert_eq!(
            max_bit_divergence(&reference.system.pos, &restarted.system.pos),
            0
        );
        assert_eq!(
            max_bit_divergence(&reference.system.vel, &restarted.system.vel),
            0
        );
        assert_eq!(
            max_bit_divergence(reference.forces(), restarted.forces()),
            0
        );
        let (a, b) = (reference.energy_record(), restarted.energy_record());
        assert_eq!(a.total.to_bits(), b.total.to_bits());
        Ok(())
    }

    /// A truncated or bit-flipped checkpoint surfaces as a typed error
    /// and leaves the simulation untouched (the restore is atomic).
    #[test]
    fn corrupt_checkpoint_is_a_typed_error() -> Result<(), CheckpointError> {
        let sys = small_water();
        let solver = bare_cutoff()?;
        let mut sim = NveSim::new(sys, &solver, 0.001, 0.55);
        sim.step();
        let good = sim.checkpoint();
        let pos_before = sim.system.pos.clone();
        let time_before = sim.time;
        // Truncation → codec error.
        match sim.restore(&good[..good.len() - 9]) {
            Err(CheckpointError::Codec(_)) => {}
            other => {
                return Err(CheckpointError::Mismatch {
                    what: match other {
                        Ok(()) => "truncated checkpoint accepted",
                        Err(_) => "truncated checkpoint misclassified",
                    },
                })
            }
        }
        // Bad magic → codec error.
        let mut flipped = good.clone();
        flipped[0] ^= 0xff;
        assert!(matches!(
            sim.restore(&flipped),
            Err(CheckpointError::Codec(_))
        ));
        // Trailing garbage → codec error.
        let mut padded = good.clone();
        padded.push(0);
        assert!(matches!(
            sim.restore(&padded),
            Err(CheckpointError::Codec(_))
        ));
        assert_eq!(sim.time.to_bits(), time_before.to_bits());
        assert_eq!(
            max_bit_divergence(&sim.system.pos, &pos_before),
            0,
            "failed restore must not touch the state"
        );
        // And the intact bytes still restore fine afterwards.
        sim.restore(&good)
    }

    /// A version-1 checkpoint (the format that carried the Verlet list) is
    /// a typed codec error, and a time step that is not finite and
    /// positive is refused — never restored into the next step.
    #[test]
    fn old_format_and_bad_time_step_are_rejected() -> Result<(), CheckpointError> {
        let solver = bare_cutoff()?;
        let mut sim = NveSim::new(small_water(), &solver, 0.001, 0.55);
        sim.step();
        let good = sim.checkpoint();
        // Magic, then four guard words, then dt.
        let with = |at: usize, word: [u8; 8]| {
            let mut bytes = good.clone();
            if let Some(w) = bytes.get_mut(at..at + 8) {
                w.copy_from_slice(&word);
            }
            bytes
        };
        assert!(matches!(
            sim.restore(&with(0, *b"TMENVE1\0")),
            Err(CheckpointError::Codec(CodecError::BadTag { at: 0, .. }))
        ));
        for dt in [0.0, -0.001, f64::NAN, f64::INFINITY] {
            assert_eq!(
                sim.restore(&with(40, dt.to_bits().to_le_bytes())),
                Err(CheckpointError::Mismatch { what: "time step" }),
                "dt = {dt}"
            );
        }
        assert_eq!(sim.dt.to_bits(), 0.001f64.to_bits());
        sim.restore(&with(40, 0.002f64.to_bits().to_le_bytes()))?;
        assert_eq!(sim.dt.to_bits(), 0.002f64.to_bits());
        Ok(())
    }

    /// Checkpoints written by other builds must restore, so the bytes are
    /// the contract: this literal was taken before the layout moved onto
    /// the shared codec.
    #[test]
    fn checkpoint_bytes_are_pinned() -> Result<(), CheckpointError> {
        let solver = bare_cutoff()?;
        let mut sim = NveSim::new(small_water(), &solver, 0.001, 0.55);
        sim.mesh_interval = 2;
        sim.step();
        sim.step();
        let bytes = sim.checkpoint();
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (23201, 14367625181140875664));
        Ok(())
    }

    /// A checkpoint from a different system is rejected by the topology
    /// guards, not silently accepted.
    #[test]
    fn foreign_checkpoint_is_rejected() -> Result<(), CheckpointError> {
        let solver = bare_cutoff()?;
        let mut small = NveSim::new(small_water(), &solver, 0.001, 0.55);
        let big_sys = {
            let mut s = water_box(125, 4);
            thermalize(&mut s, 300.0, 9);
            s
        };
        let big = NveSim::new(big_sys, &solver, 0.001, 0.55);
        match small.restore(&big.checkpoint()) {
            Err(CheckpointError::Mismatch { .. }) => {}
            other => {
                return Err(CheckpointError::Mismatch {
                    what: match other {
                        Ok(()) => "foreign checkpoint accepted",
                        Err(_) => "foreign checkpoint misclassified",
                    },
                })
            }
        }
        // Same atom count but different charges must also be rejected.
        let mut twin_sys = small_water();
        twin_sys.q[0] += 0.125;
        let twin = NveSim::new(twin_sys, &solver, 0.001, 0.55);
        assert!(matches!(
            small.restore(&twin.checkpoint()),
            Err(CheckpointError::Mismatch {
                what: "topology fingerprint"
            })
        ));
        Ok(())
    }

    /// The run loop drops checkpoints at the promised cadence and the
    /// exact-oracle degraded mode runs through the same machinery.
    #[test]
    fn checkpoint_cadence_and_degraded_mode() -> Result<(), CheckpointError> {
        let sys = small_water();
        let solver = bare_cutoff()?;
        let mut sim = NveSim::new(sys, &solver, 0.001, 0.55);
        sim.exact_short_range = true; // degraded mode: exact erfc oracle
        let run = run_with_checkpoints(&mut sim, 7, 2, 3);
        assert!(run.fault.is_none());
        let steps: Vec<usize> = run.checkpoints.iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, vec![0, 3, 6]);
        assert_eq!(run.records.len(), 1 + 3); // t=0 plus steps 2, 4, 6
        let total = match run.records.last() {
            Some(r) => r.total,
            None => f64::NAN,
        };
        assert!(total.is_finite());
        Ok(())
    }
}
