//! Discrete-event simulator of the MDGRAPE-4A machine.
//!
//! The paper's performance results (Fig. 9, Fig. 10, Table 2, §V.C, §VI.A)
//! are measurements of a 512-SoC custom machine we obviously cannot run.
//! This crate simulates it: every SoC gets per-module resource timelines
//! (GP cores, nonbond pipelines, LRUs, GCU, network ports), the 3-D torus
//! and the TMENW octree get explicit hop/serialisation models, and a full
//! MD step is scheduled as the dependency graph of §V.A — integrate →
//! coordinate exchange → {nonbond ∥ bonded ∥ the six-step long-range
//! pipeline} → force reduction → integrate.
//!
//! Module cost models come from the paper's published rates (LRU 36
//! cycles/atom @0.6 GHz, GCU 12 grid points/cycle, links 7.2 GB/s with
//! 200 ns/hop, root-FPGA FFT 330 cycles @156.25 MHz); software-control
//! overheads of the CGP, which the paper identifies as dominant but does
//! not tabulate, are explicit calibration constants in
//! [`config::MachineConfig`] documented against the figures they
//! reproduce. The machine is simulated healthy, as the paper measured
//! it: no link, node or network fault enters the schedule.
//!
//! Modules:
//! * [`config`] — machine parameters (`MachineConfig::mdgrape4a()`)
//! * [`workload`] — MD-step workload descriptors (`StepWorkload`)
//! * [`timeline`] — resource timelines and activity spans
//! * [`network`] — torus and octree transfer models
//! * [`modules`] — per-module cost models (LRU, GCU, PP, GP, FPGA)
//! * [`gcu_detail`] — packet-level simulation of one GCU axis pass,
//!   cross-validating the coarse model
//! * [`tmenw_detail`] — tree-level simulation of the TMENW octree round
//!   trip (Fig. 7)
//! * [`step`] — the full-step schedule (Fig. 9's content)
//! * [`timechart`] — ASCII time charts (Fig. 9/10 rendering)
//! * [`report`] — Table 2, §V.C overlap and §VI.A 64³ projections
//! * [`scaling`] — strong-scaling sweeps over the torus size (§I's
//!   motivation)
//! * [`nextgen`] — §VI.B next-generation what-if configurations

pub mod config;
pub mod gcu_detail;
pub mod modules;
pub mod network;
pub mod nextgen;
pub mod report;
pub mod scaling;
pub mod step;
pub mod timechart;
pub mod timeline;
pub mod tmenw_detail;
pub mod workload;

pub use config::MachineConfig;
pub use step::{
    simulate_run, simulate_step, simulate_step_into, RunReport, StepReport, StepScratch,
};
pub use workload::StepWorkload;
