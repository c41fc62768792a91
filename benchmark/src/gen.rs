//! Seeded input generators.
//!
//! Everything a workload feeds the program is made here from the run's
//! `--seed` with the benchmark's own SplitMix64, so the inputs do not
//! change when the repository's RNG or water builder does. Every generated
//! value is folded into an FNV-1a [`Fingerprint`] that each result prints:
//! two runs with the same seed must show the same fingerprint, and a
//! change of it between commits means the inputs drifted, not the code
//! under test.

use tme_core::TmeParams;
use tme_md::backend::{BackendKind, BackendParams, SpmeParams};
use tme_serve::protocol::EstimateSpec;
use tme_serve::Request;

pub type V3 = [f64; 3];

/// TIP3P water number density of the paper's Table-1 box
/// (32,773 molecules in 9.9727³ nm³), molecules per nm³.
pub const WATER_DENSITY: f64 = 33.05;
/// Edge of the paper's Table-1 box, nm.
pub const PAPER_BOX_EDGE: f64 = 9.9727;
/// Molecules in the paper's Table-1 box.
pub const PAPER_BOX_WATERS: usize = 32_773;

const R_OH: f64 = 0.095_72;
const ANGLE_HOH_DEG: f64 = 104.52;
pub const Q_O: f64 = -0.834;
pub const Q_H: f64 = 0.417;

/// The benchmark's own SplitMix64 (Steele, Lea & Flood 2014).
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for sub-generator `stream` of this seed.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut root = Self(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        Self(root.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn index(&mut self, n: usize) -> usize {
        ((self.uniform() * n as f64) as usize).min(n - 1)
    }

    /// Standard normal (Box–Muller, one of the pair).
    pub fn normal(&mut self) -> f64 {
        let u = 1.0 - self.uniform();
        let v = self.uniform();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// FNV-1a over the bit patterns of the generated inputs.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64s(&mut self, vals: &[f64]) {
        for v in vals {
            self.u64(v.to_bits());
        }
    }

    pub fn v3s(&mut self, vals: &[V3]) {
        for v in vals {
            self.f64s(v);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Cubic box edge holding `n_waters` at [`WATER_DENSITY`].
pub fn water_edge(n_waters: usize) -> f64 {
    (n_waters as f64 / WATER_DENSITY).cbrt()
}

fn cross(a: V3, b: V3) -> V3 {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

/// Rotate `v` by the unit quaternion `q = (w, u)`.
fn rotate(q: [f64; 4], v: V3) -> V3 {
    let u = [q[1], q[2], q[3]];
    let uv = cross(u, v);
    let uuv = cross(u, uv);
    [
        v[0] + 2.0 * (q[0] * uv[0] + uuv[0]),
        v[1] + 2.0 * (q[0] * uv[1] + uuv[1]),
        v[2] + 2.0 * (q[0] * uv[2] + uuv[2]),
    ]
}

/// Uniform random rotation: a normalised 4-vector of normals.
fn random_quaternion(rng: &mut SplitMix64) -> [f64; 4] {
    loop {
        let q = [rng.normal(), rng.normal(), rng.normal(), rng.normal()];
        let n = q.iter().map(|x| x * x).sum::<f64>().sqrt();
        if n > 1e-6 {
            return [q[0] / n, q[1] / n, q[2] / n, q[3] / n];
        }
    }
}

/// Closest two water oxygens are placed, nm (the first peak of liquid
/// water's O–O distribution sits at 0.28 nm).
pub const WATER_MIN_OO: f64 = 0.26;

/// Points of a cubic periodic box binned into cells, for
/// nearest-neighbour queries within one cell side.
struct HashGrid {
    edge: f64,
    cells: usize,
    buckets: Vec<Vec<V3>>,
}

impl HashGrid {
    /// A grid whose cell side is at least `reach` (and at most 64 cells
    /// per axis).
    fn new(edge: f64, reach: f64) -> Self {
        let cells = ((edge / reach).floor() as usize).clamp(1, 64);
        Self {
            edge,
            cells,
            buckets: vec![Vec::new(); cells * cells * cells],
        }
    }

    fn cell(&self, p: V3) -> [usize; 3] {
        let c = |x: f64| {
            let wrapped = x.rem_euclid(self.edge);
            ((wrapped / self.edge * self.cells as f64) as usize).min(self.cells - 1)
        };
        [c(p[0]), c(p[1]), c(p[2])]
    }

    fn insert(&mut self, p: V3) {
        let c = self.cell(p);
        self.buckets[(c[0] * self.cells + c[1]) * self.cells + c[2]].push(p);
    }

    /// Squared minimum-image distance from `p` to the nearest stored point
    /// in the 27 cells around it (`INFINITY` if they are empty).
    fn nearest_d2(&self, p: V3) -> f64 {
        let c = self.cell(p);
        let n = self.cells;
        let mut best = f64::INFINITY;
        for dx in [n - 1, 0, 1] {
            for dy in [n - 1, 0, 1] {
                for dz in [n - 1, 0, 1] {
                    let idx = (((c[0] + dx) % n) * n + (c[1] + dy) % n) * n + (c[2] + dz) % n;
                    for o in &self.buckets[idx] {
                        let mut d2 = 0.0;
                        for a in 0..3 {
                            let mut d = p[a] - o[a];
                            d -= self.edge * (d / self.edge).round();
                            d2 += d * d;
                        }
                        best = best.min(d2);
                    }
                }
            }
        }
        best
    }
}

fn random_point(edge: f64, rng: &mut SplitMix64) -> V3 {
    [
        rng.range(0.0, edge),
        rng.range(0.0, edge),
        rng.range(0.0, edge),
    ]
}

/// `n` points uniformly placed in a cubic box of edge `edge` with no two
/// closer than `min_sep` under the minimum image (random sequential
/// addition). The result has a liquid-like pair distribution and no
/// lattice periodicity that could alias against a solver's mesh.
pub fn separated_points(n: usize, edge: f64, min_sep: f64, rng: &mut SplitMix64) -> Vec<V3> {
    let mut grid = HashGrid::new(edge, min_sep);
    let mut pos: Vec<V3> = Vec::with_capacity(n);
    while pos.len() < n {
        let p = random_point(edge, rng);
        if grid.nearest_d2(p) >= min_sep * min_sep {
            grid.insert(p);
            pos.push(p);
        }
    }
    pos
}

/// One rigid TIP3P molecule (O, H, H) at `centre`, random orientation.
fn push_water(centre: V3, rng: &mut SplitMix64, pos: &mut Vec<V3>, q: &mut Vec<f64>) {
    let half = ANGLE_HOH_DEG.to_radians() / 2.0;
    let template = [
        [0.0, 0.0, 0.0],
        [R_OH * half.sin(), 0.0, R_OH * half.cos()],
        [-R_OH * half.sin(), 0.0, R_OH * half.cos()],
    ];
    let rot = random_quaternion(rng);
    for (k, t) in template.iter().enumerate() {
        let r = rotate(rot, *t);
        pos.push([centre[0] + r[0], centre[1] + r[1], centre[2] + r[2]]);
        q.push(if k == 0 { Q_O } else { Q_H });
    }
}

/// `n_waters` rigid TIP3P molecules (atom order O, H, H; molecules whole,
/// not wrapped) in a cubic box of edge `edge`: oxygens at least
/// [`WATER_MIN_OO`] apart ([`separated_points`]), uniformly random
/// orientations. Returns positions and charges.
pub fn water_box(n_waters: usize, edge: f64, rng: &mut SplitMix64) -> (Vec<V3>, Vec<f64>) {
    let mut pos = Vec::with_capacity(3 * n_waters);
    let mut q = Vec::with_capacity(3 * n_waters);
    for centre in separated_points(n_waters, edge, WATER_MIN_OO, rng) {
        push_water(centre, rng, &mut pos, &mut q);
    }
    (pos, q)
}

/// Fill a box of edge `tiles · sub_edge` with `tiles³` periodic copies of
/// a water configuration of edge `sub_edge` — how MD packages solvate a
/// box from a small equilibrated one — then add `extra` molecules, each
/// at the most isolated of 2,000 sampled points, so the molecule count
/// can match a target that is not a multiple of the tile.
pub fn tile_waters(
    sub_pos: &[V3],
    sub_edge: f64,
    tiles: usize,
    extra: usize,
    rng: &mut SplitMix64,
) -> (Vec<V3>, Vec<f64>) {
    let edge = sub_edge * tiles as f64;
    let atoms = sub_pos.len() * tiles.pow(3) + 3 * extra;
    let mut pos = Vec::with_capacity(atoms);
    let mut q = Vec::with_capacity(atoms);
    let mut oxygens = HashGrid::new(edge, 2.0 * WATER_MIN_OO);
    for ix in 0..tiles {
        for iy in 0..tiles {
            for iz in 0..tiles {
                let shift = [
                    ix as f64 * sub_edge,
                    iy as f64 * sub_edge,
                    iz as f64 * sub_edge,
                ];
                for (k, p) in sub_pos.iter().enumerate() {
                    let p = [p[0] + shift[0], p[1] + shift[1], p[2] + shift[2]];
                    if k % 3 == 0 {
                        oxygens.insert(p);
                    }
                    pos.push(p);
                    q.push(if k % 3 == 0 { Q_O } else { Q_H });
                }
            }
        }
    }
    for _ in 0..extra {
        let mut best = (random_point(edge, rng), 0.0);
        for _ in 0..2_000 {
            let p = random_point(edge, rng);
            let d2 = oxygens.nearest_d2(p);
            if d2 > best.1 && d2.is_finite() {
                best = (p, d2);
            }
        }
        oxygens.insert(best.0);
        push_water(best.0, rng, &mut pos, &mut q);
    }
    (pos, q)
}

/// `n` alternating ±1 point charges, uniformly placed in a cubic box with
/// no two closer than `min_sep`.
pub fn sparse_charges(
    n: usize,
    edge: f64,
    min_sep: f64,
    rng: &mut SplitMix64,
) -> (Vec<V3>, Vec<f64>) {
    let pos = separated_points(n, edge, min_sep, rng);
    let q = (0..n)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    (pos, q)
}

/// Largest per-axis displacement the between-op jitter applies, nm.
pub const JITTER_NM: f64 = 0.005;

/// Write `base` displaced by a fresh jitter into `out`: every group of
/// `group` consecutive atoms (3 = one rigid water, 1 = a free ion) moves
/// together by up to [`JITTER_NM`] per axis. Jitter is applied to the base
/// positions, not accumulated, so inputs differ between ops but never
/// drift.
pub fn jitter_into(base: &[V3], group: usize, rng: &mut SplitMix64, out: &mut [V3]) {
    for (src, dst) in base.chunks(group).zip(out.chunks_mut(group)) {
        let d = [
            rng.range(-JITTER_NM, JITTER_NM),
            rng.range(-JITTER_NM, JITTER_NM),
            rng.range(-JITTER_NM, JITTER_NM),
        ];
        for (s, o) in src.iter().zip(dst) {
            *o = [s[0] + d[0], s[1] + d[1], s[2] + d[2]];
        }
    }
}

/// `k` distinct indices out of `0..n`, ascending (`k` clamped to `n`).
pub fn sample_indices(n: usize, k: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let k = k.min(n);
    let mut order: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.index(n - i);
        order.swap(i, j);
    }
    order.truncate(k);
    order.sort_unstable();
    order
}

/// Maxwell–Boltzmann velocities (nm/ps) at `t_kelvin` for the given
/// masses (g/mol); the MD driver projects them onto the constraints.
pub fn maxwell_velocities(mass: &[f64], t_kelvin: f64, rng: &mut SplitMix64) -> Vec<V3> {
    const KB: f64 = 8.314_462_618e-3; // kJ/(mol K)
    mass.iter()
        .map(|m| {
            let sigma = (KB * t_kelvin / m).sqrt();
            [
                sigma * rng.normal(),
                sigma * rng.normal(),
                sigma * rng.normal(),
            ]
        })
        .collect()
}

/// Distinct solver plans in the serve request mix: more than one shard's
/// plan-cache capacity (8), so lost routing affinity shows as rebuilds.
pub const MIX_PLANS: usize = 12;
/// Waters per serve request system (648 atoms).
pub const MIX_WATERS: usize = 216;
const MIX_GRID: usize = 16;
const MIX_R_CUT: f64 = 0.9;

/// One solver plan of the serve mix with its base water configuration.
#[derive(Clone, Debug)]
pub struct MixPlan {
    pub params: BackendParams,
    pub edge: f64,
    pub base: Vec<V3>,
    pub q: Vec<f64>,
}

/// The serve workload's request population: [`MIX_PLANS`] plans (even
/// index TME, odd index SPME; each pair on its own slightly different box
/// edge so the plan fingerprints differ) over 216-water boxes.
pub fn mix_plans(seed: u64, fp: &mut Fingerprint) -> Vec<MixPlan> {
    let alpha = tme_core::alpha_from_rtol(MIX_R_CUT, 1e-4);
    (0..MIX_PLANS)
        .map(|k| {
            let edge = water_edge(MIX_WATERS) * (1.0 + 0.004 * (k / 2) as f64);
            let params = if k % 2 == 0 {
                BackendParams::Tme(TmeParams {
                    n: [MIX_GRID; 3],
                    p: 6,
                    levels: 1,
                    gc: 8,
                    m_gaussians: 3,
                    alpha,
                    r_cut: MIX_R_CUT,
                })
            } else {
                BackendParams::Spme(SpmeParams {
                    n: [MIX_GRID; 3],
                    p: 6,
                    alpha,
                    r_cut: MIX_R_CUT,
                })
            };
            let mut rng = SplitMix64::fork(seed, 0x100 + k as u64);
            let (base, q) = water_box(MIX_WATERS, edge, &mut rng);
            fp.u64(params.fingerprint([edge; 3]));
            fp.v3s(&base);
            MixPlan {
                params,
                edge,
                base,
                q,
            }
        })
        .collect()
}

/// What one request of the mix asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixKind {
    /// `Compute` on plan `k` of [`mix_plans`].
    Compute(usize),
    /// `Estimate { steps: 100 }` of a Fig.-9-like machine workload.
    Estimate,
}

/// Share of the mix that is `Compute` on a TME plan, and on an SPME plan;
/// the rest are machine estimates. SPME is kept to a tenth because one
/// SPME request costs ~13 TME requests at the seed commit (its short-range
/// part is the exact-`erfc` all-pairs path): at equal shares the median
/// request would sit on the boundary between two modes 65 ms apart, and
/// the serving layers this workload exists to expose would be under 1 % of
/// it.
pub const MIX_TME_SHARE: f64 = 0.8;
pub const MIX_SPME_SHARE: f64 = 0.1;

/// A `Compute` request on plan `k` with freshly jittered positions.
pub fn compute_request(plan: &MixPlan, rng: &mut SplitMix64) -> Request {
    let mut pos = vec![[0.0; 3]; plan.base.len()];
    jitter_into(&plan.base, 3, rng, &mut pos);
    Request::Compute {
        deadline_ms: 0,
        params: plan.params,
        box_l: [plan.edge; 3],
        pos,
        q: plan.q.clone(),
    }
}

/// The next request of client stream `rng`: [`MIX_TME_SHARE`] TME
/// computes, [`MIX_SPME_SHARE`] SPME computes (plans uniform within a
/// kind) and machine estimates for the rest, each on freshly jittered
/// positions / a fresh atom count.
pub fn next_request(plans: &[MixPlan], rng: &mut SplitMix64) -> (MixKind, Request) {
    let draw = rng.uniform();
    if draw < MIX_TME_SHARE + MIX_SPME_SHARE {
        let pair = rng.index(plans.len() / 2);
        let k = 2 * pair + usize::from(draw >= MIX_TME_SHARE);
        (MixKind::Compute(k), compute_request(&plans[k], rng))
    } else {
        let spec = EstimateSpec {
            backend: BackendKind::Tme,
            n_atoms: 78_000 + rng.index(5_000) as u64,
            grid: 32,
            levels: 1,
            gc: 8,
            m_gaussians: 4,
            r_cut: 1.2,
            box_l: [9.7, 8.3, 10.6],
            steps: 100,
        };
        (
            MixKind::Estimate,
            Request::Estimate {
                deadline_ms: 0,
                spec,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn min_image_dist(a: V3, b: V3, edge: f64) -> f64 {
        let mut d2 = 0.0;
        for k in 0..3 {
            let mut d = a[k] - b[k];
            d -= edge * (d / edge).round();
            d2 += d * d;
        }
        d2.sqrt()
    }

    #[test]
    fn same_seed_same_bits_other_seed_other_bits() {
        let make = |seed| {
            let mut fp = Fingerprint::default();
            let (pos, q) = water_box(64, water_edge(64), &mut SplitMix64::fork(seed, 1));
            fp.v3s(&pos);
            fp.f64s(&q);
            let (ions, _) = sparse_charges(100, 5.0, 0.25, &mut SplitMix64::fork(seed, 2));
            fp.v3s(&ions);
            mix_plans(seed, &mut fp);
            fp.value()
        };
        assert_eq!(make(7), make(7));
        assert_ne!(make(7), make(8));
    }

    #[test]
    fn water_box_is_neutral_rigid_and_at_density() {
        let n = 125;
        let edge = water_edge(n);
        let (pos, q) = water_box(n, edge, &mut SplitMix64::new(3));
        assert_eq!(pos.len(), 3 * n);
        assert!(q.iter().sum::<f64>().abs() < 1e-9);
        assert!((n as f64 / edge.powi(3) - WATER_DENSITY).abs() < 1e-9);
        for m in pos.chunks(3) {
            for h in 1..3 {
                let d: f64 = (0..3).map(|a| (m[0][a] - m[h][a]).powi(2)).sum();
                assert!((d.sqrt() - R_OH).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sparse_charges_respect_the_minimum_separation() {
        let edge = 6.0;
        let (pos, q) = sparse_charges(300, edge, 0.25, &mut SplitMix64::new(11));
        assert_eq!(q.iter().sum::<f64>(), 0.0);
        for i in 0..pos.len() {
            for j in 0..i {
                assert!(min_image_dist(pos[i], pos[j], edge) >= 0.25);
            }
        }
    }

    #[test]
    fn jitter_moves_molecules_rigidly_and_within_bounds() {
        let (base, _) = water_box(27, water_edge(27), &mut SplitMix64::new(5));
        let mut out = vec![[0.0; 3]; base.len()];
        jitter_into(&base, 3, &mut SplitMix64::new(6), &mut out);
        assert_ne!(base, out);
        for (b, o) in base.chunks(3).zip(out.chunks(3)) {
            for a in 0..3 {
                let d = o[0][a] - b[0][a];
                assert!(d.abs() <= JITTER_NM);
                assert!((o[1][a] - b[1][a] - d).abs() < 1e-15);
                assert!((o[2][a] - b[2][a] - d).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn request_mix_has_the_stated_shares_and_distinct_plans() {
        let mut fp = Fingerprint::default();
        let plans = mix_plans(1, &mut fp);
        let mut keys: Vec<u64> = plans
            .iter()
            .map(|p| p.params.fingerprint([p.edge; 3]))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), MIX_PLANS);
        let mut rng = SplitMix64::new(9);
        let (mut tme, mut spme, mut est) = (0, 0, 0);
        for _ in 0..4000 {
            match next_request(&plans, &mut rng).0 {
                MixKind::Compute(k) if k % 2 == 0 => tme += 1,
                MixKind::Compute(_) => spme += 1,
                MixKind::Estimate => est += 1,
            }
        }
        assert!((3100..3300).contains(&tme), "{tme}");
        assert!((330..470).contains(&spme), "{spme}");
        assert!((330..470).contains(&est), "{est}");
    }

    #[test]
    fn sampled_indices_are_distinct_and_sorted() {
        let s = sample_indices(1000, 512, &mut SplitMix64::new(2));
        assert_eq!(s.len(), 512);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sample_indices(5, 9, &mut SplitMix64::new(2)).len(), 5);
    }
}
