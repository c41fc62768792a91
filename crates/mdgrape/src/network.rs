//! Network models: the 3-D torus and the TMENW octree.

use crate::config::MachineConfig;

/// Shortest hop count from `a` to `b` routing around blocked links:
/// breadth-first search over the torus graph where `link_ok(node, next)`
/// gates each directed edge. Returns `None` when every route is blocked
/// (an isolated node). This is the rerouting primitive of the fault model
/// (DESIGN.md §11): a dead neighbour link turns a 1-hop transfer into a
/// 3-hop detour around an adjacent node.
pub fn torus_hops_routed<F>(
    a: [usize; 3],
    b: [usize; 3],
    dims: [usize; 3],
    link_ok: F,
) -> Option<usize>
where
    F: Fn([usize; 3], [usize; 3]) -> bool,
{
    if a == b {
        return Some(0);
    }
    let id = |c: [usize; 3]| (c[0] * dims[1] + c[1]) * dims[2] + c[2];
    let n = dims[0] * dims[1] * dims[2];
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[id(a)] = 0;
    queue.push_back(a);
    while let Some(c) = queue.pop_front() {
        let d = dist[id(c)];
        for axis in 0..3 {
            for step in [1, dims[axis] - 1] {
                let mut next = c;
                next[axis] = (c[axis] + step) % dims[axis];
                if next == c || !link_ok(c, next) {
                    continue;
                }
                if next == b {
                    return Some(d + 1);
                }
                if dist[id(next)] == usize::MAX {
                    dist[id(next)] = d + 1;
                    queue.push_back(next);
                }
            }
        }
    }
    None
}

/// Time for a store-and-forward transfer of `bytes` over `hops` torus
/// hops (each hop pays latency + serialisation).
pub fn torus_transfer_us(cfg: &MachineConfig, bytes: f64, hops: usize) -> f64 {
    hops as f64 * cfg.hop_time_us(bytes)
}

/// Sleeve (halo) exchange time for a grid with `local` points per axis,
/// `sleeve` deep, 4-byte words: the six face transfers overlap per the
/// six independent link directions, so the cost is one face volume.
pub fn sleeve_exchange_us(cfg: &MachineConfig, local: usize, sleeve: usize) -> f64 {
    let face_words = (local + 2 * sleeve) * (local + 2 * sleeve) * sleeve;
    cfg.hop_time_us(face_words as f64 * 4.0)
}

/// The TMENW octree: SoC → IO FPGA → control FPGA → leaf FPGA → root.
/// §IV.C. Gather and scatter each traverse `STAGES` store-and-forward
/// stages; payload grows towards the root (all 16³ points there).
pub const TMENW_STAGES: usize = 4;

/// One-way TMENW traversal time for `total_words` 32-bit grid values
/// aggregated at the root.
pub fn tmenw_oneway_us(cfg: &MachineConfig, total_words: usize) -> f64 {
    // Each stage pays the store-and-forward latency; the serialisation is
    // dominated by the last link into the root which carries everything.
    let bytes = total_words as f64 * 4.0;
    let serialisation = bytes * 8.0 / (cfg.tmenw_link_gb_s * 1e3);
    TMENW_STAGES as f64 * cfg.tmenw_stage_latency_us + serialisation
}

/// Full TMENW round trip including the root-FPGA convolution:
/// gather + FFT·Green·IFFT + scatter (§IV.C, §V.B: "less than 20 µs").
pub fn tmenw_roundtrip_us(cfg: &MachineConfig, top_grid: usize) -> f64 {
    let words = top_grid * top_grid * top_grid;
    2.0 * tmenw_oneway_us(cfg, words) + cfg.fft_time_us()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbour_latency_matches_measurement() {
        // §II: "the latency of communication between neighboring nodes was
        // measured to be 200 ns".
        let cfg = MachineConfig::mdgrape4a();
        let t = torus_transfer_us(&cfg, 0.0, 1);
        assert!((t - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tmenw_roundtrip_under_20us() {
        // §V.B: round trip measured "less than 20 µs" for the 16³ top grid.
        let cfg = MachineConfig::mdgrape4a();
        let t = tmenw_roundtrip_us(&cfg, 16);
        assert!(t < 20.0, "TMENW round trip {t} µs");
        assert!(t > 8.0, "TMENW round trip implausibly fast: {t} µs");
    }

    #[test]
    fn tmenw_contains_fft_time() {
        let cfg = MachineConfig::mdgrape4a();
        let rt = tmenw_roundtrip_us(&cfg, 16);
        assert!(rt > cfg.fft_time_us());
    }

    /// With every link healthy the router finds the dimension-ordered hop
    /// count, wrapping around the torus where that is shorter; with the direct link dead the detour around a neighbour
    /// costs exactly 3 hops; with every outgoing link dead the node is
    /// unreachable.
    #[test]
    fn routed_hops_detour_around_dead_links() {
        let dims = [8, 8, 8];
        let healthy = torus_hops_routed([0, 0, 0], [3, 2, 1], dims, |_, _| true);
        assert_eq!(healthy, Some(3 + 2 + 1));
        let wrapped = torus_hops_routed([0, 0, 0], [7, 4, 4], dims, |_, _| true);
        assert_eq!(wrapped, Some(1 + 4 + 4));
        let detour = torus_hops_routed([0, 0, 0], [1, 0, 0], dims, |from, to| {
            !(from == [0, 0, 0] && to == [1, 0, 0])
        });
        assert_eq!(detour, Some(3));
        let isolated = torus_hops_routed([0, 0, 0], [1, 0, 0], dims, |from, _| from != [0, 0, 0]);
        assert_eq!(isolated, None);
    }

    #[test]
    fn sleeve_exchange_scales_with_local_grid() {
        let cfg = MachineConfig::mdgrape4a();
        let small = sleeve_exchange_us(&cfg, 4, 4);
        let large = sleeve_exchange_us(&cfg, 8, 4);
        assert!(large > small);
    }
}
