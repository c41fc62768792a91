//! Zero-allocation proof for the plan/execute split: after one warm-up
//! call sizes every lazily grown buffer,
//! repeated `Tme::compute_with` calls on a reused [`TmeWorkspace`] — on a
//! 16³ plan whose grid passes run inline and on a 64³, L = 2 plan whose
//! grid passes are dispatched — and
//! repeated `compute_into` calls on every planned backend's
//! `BackendWorkspace`, repeated `NveSim::try_step` calls on the TME
//! backend, and `compute_with` calls on atoms that move between them —
//! must perform **zero** heap allocations: the property that
//! lets the execute phase run at MD-step cadence without allocator jitter.
//!
//! The counting allocator is this test binary's `#[global_allocator]`, so
//! every other binary keeps the stock system allocator. The counter is
//! process-wide, so the binary is a plain `main` (`harness = false`): the
//! libtest harness would run the test beside its own thread, whose
//! bookkeeping allocations land in a measured window whenever the host
//! deschedules it, and beside any other test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tme_core::{alpha_from_rtol, Tme, TmeParams, TmeWorkspace};
use tme_md::backend::{
    plan_backend, BackendParams, PswfParams, SlabParams, SpmeParams, TmeBackend,
};
use tme_md::water::{thermalize, water_box};
use tme_md::NveSim;
use tme_mesh::cells::CellGrid;
use tme_mesh::{CoulombResult, CoulombSystem};
use tme_num::pool::Pool;
use tme_reference::EwaldParams;

/// A [`GlobalAlloc`] that forwards to [`System`] while counting every
/// heap acquisition — `alloc`, `alloc_zeroed` and `realloc` from *any*
/// thread, pool workers included — in one relaxed atomic, so "zero since
/// reset" means the steady-state execute path touched the heap nowhere.
/// Frees are not counted: a `dealloc` without a matching `alloc` after a
/// reset only shrinks the footprint.
struct CountingAllocator {
    allocations: AtomicU64,
}

impl CountingAllocator {
    /// Zero the counter (start of a measured window).
    fn reset(&self) {
        self.allocations.store(0, Ordering::SeqCst);
    }

    /// Allocations observed since the last [`CountingAllocator::reset`].
    fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::SeqCst)
    }
}

// SAFETY: every method forwards the exact layout/pointer arguments to the
// system allocator, which upholds the GlobalAlloc contract; the only added
// behaviour is a relaxed atomic increment, which cannot allocate or panic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds the GlobalAlloc contract; forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds the GlobalAlloc contract; forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator; contract forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator {
    allocations: AtomicU64::new(0),
};

/// 200 atoms (100 ion pairs, exactly neutral) at LCG-random positions.
fn random_neutral_system(n_atoms: usize, box_l: f64, seed: u64) -> CoulombSystem {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let pos = (0..n_atoms)
        .map(|_| [next() * box_l, next() * box_l, next() * box_l])
        .collect();
    let q = (0..n_atoms)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    CoulombSystem::new(pos, q, [box_l; 3])
}

/// Every `BackendParams` variant on one 16³ mesh (the slab's z axis spans
/// its tripled box).
fn every_backend(tme: TmeParams) -> Vec<BackendParams> {
    let TmeParams {
        n, alpha, r_cut, ..
    } = tme;
    vec![
        BackendParams::Tme(tme),
        BackendParams::Spme(SpmeParams {
            n,
            p: 6,
            alpha,
            r_cut,
        }),
        BackendParams::SpmePswf(PswfParams {
            n,
            p: 8,
            alpha,
            r_cut,
            shape: 0.0,
        }),
        BackendParams::Ewald(EwaldParams {
            alpha,
            r_cut,
            n_cut: 6,
        }),
        BackendParams::Slab(SlabParams {
            n: [n[0], n[1], 4 * n[2]],
            p: 6,
            alpha,
            r_cut,
            gamma_top: -1.0,
            gamma_bot: 0.25,
            n_images: 1,
        }),
    ]
}

fn main() {
    steady_state_compute_is_allocation_free();
    moving_atoms_are_allocation_free();
    nve_step_is_allocation_free();
    println!("zero_alloc: every measured window allocated 0 times");
}

fn steady_state_compute_is_allocation_free() {
    let params = TmeParams {
        n: [16; 3],
        p: 6,
        levels: 1,
        gc: 8,
        m_gaussians: 4,
        alpha: 2.0,
        r_cut: 1.2,
    };
    let tme = Tme::new(params, [4.0; 3]);
    let system = random_neutral_system(200, 4.0, 0xA110_C0DE);
    // Two workers so the test exercises the actual dispatch path, not the
    // threads == 1 inline shortcut; pool dispatch itself must not allocate.
    let mut ws = TmeWorkspace::with_pool(&tme, Arc::new(Pool::new(2)));

    // Warm-up: grows the per-worker line buffers, the interpolation and
    // force vectors, and the pairwise scratch to steady-state capacity.
    let reference_bits = tme.compute_with(&mut ws, &system).energy.to_bits();

    ALLOC.reset();
    let mut bits = 0u64;
    for _ in 0..5 {
        bits = tme.compute_with(&mut ws, &system).energy.to_bits();
    }
    let allocs = ALLOC.allocations();
    assert_eq!(
        allocs, 0,
        "steady-state compute_with heap-allocated {allocs} times after warm-up"
    );
    // The warm runs must also still be computing the same answer.
    assert_eq!(bits, reference_bits);

    // The same contract where the grid path is dispatched: on a 64³, L = 2
    // plan the 64³ level's convolution and transfers and the 32³ level's
    // convolution run on the pool, each worker in its own plane buffers,
    // which the warm-up sizes.
    let grid64 = TmeParams {
        n: [64; 3],
        levels: 2,
        m_gaussians: 3,
        ..params
    };
    let tme64 = Tme::new(grid64, [16.0; 3]);
    let system64 = random_neutral_system(400, 16.0, 0x6464_6464);
    let mut ws64 = TmeWorkspace::with_pool(&tme64, Arc::new(Pool::new(2)));
    let reference_bits = tme64.compute_with(&mut ws64, &system64).energy.to_bits();
    ALLOC.reset();
    for _ in 0..3 {
        bits = tme64.compute_with(&mut ws64, &system64).energy.to_bits();
    }
    let allocs = ALLOC.allocations();
    assert_eq!(
        allocs, 0,
        "64³ L 2 compute_with heap-allocated {allocs} times after warm-up"
    );
    assert_eq!(bits, reference_bits);

    // The same contract through the backend layer, for every backend.
    for params in every_backend(params) {
        let plan = plan_backend(&params, system.box_l).expect("valid test configuration");
        let mut ws = plan.make_workspace_with_pool(Arc::new(Pool::new(2)));
        let mut out = CoulombResult::default();
        plan.compute_into(&system, &mut ws, &mut out)
            .expect("warm-up call");
        let reference_bits = out.energy.to_bits();

        ALLOC.reset();
        for _ in 0..5 {
            plan.compute_into(&system, &mut ws, &mut out)
                .expect("steady-state call");
        }
        let allocs = ALLOC.allocations();
        assert_eq!(
            allocs,
            0,
            "{} compute_into heap-allocated {allocs} times after warm-up",
            plan.name()
        );
        assert_eq!(out.energy.to_bits(), reference_bits, "{}", plan.name());
    }
}

/// A warm `Tme::compute_with` on a box of 5³ cells whose atoms move
/// between calls: each cell-kernel part accumulates into a slab over the
/// x-planes it reaches, whose length follows the atoms in those planes
/// and must stay within the capacity the warm-up gave it.
fn moving_atoms_are_allocation_free() {
    let mut system = water_box(1000, 6).coulomb_system();
    let r_cut = 0.6;
    let dims = CellGrid::plan(system.box_l, r_cut).map(|g| g.dims());
    assert_eq!(dims, Some([5; 3]));
    let params = TmeParams {
        n: [16; 3],
        p: 6,
        levels: 1,
        gc: 8,
        m_gaussians: 3,
        alpha: alpha_from_rtol(r_cut, 1e-4),
        r_cut,
    };
    let tme = Tme::new(params, system.box_l);
    let mut ws = TmeWorkspace::with_pool(&tme, Arc::new(Pool::new(2)));
    tme.compute_with(&mut ws, &system);
    let mut state = 0x5EED_u64;
    ALLOC.reset();
    for _ in 0..5 {
        // Every coordinate moves by up to ±0.05 nm.
        for c in system.pos.iter_mut().flatten() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *c += ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.1;
        }
        tme.compute_with(&mut ws, &system);
    }
    let allocs = ALLOC.allocations();
    assert_eq!(
        allocs, 0,
        "compute_with on moving atoms heap-allocated {allocs} times after warm-up"
    );
}

/// A warm `NveSim::try_step` on the TME backend: cell-kernel pairs with
/// the Lennard-Jones lane, exclusions, mesh, bonded terms and SETTLE.
fn nve_step_is_allocation_free() {
    let mut sys = water_box(125, 4);
    thermalize(&mut sys, 300.0, 5);
    let r_cut = 0.75;
    let params = TmeParams {
        n: [16; 3],
        p: 6,
        levels: 1,
        gc: 8,
        m_gaussians: 3,
        alpha: alpha_from_rtol(r_cut, 1e-4),
        r_cut,
    };
    let tme = TmeBackend::new(params, sys.box_l).expect("valid test configuration");
    let mut sim = NveSim::new(sys, &tme, 0.001, r_cut);
    for _ in 0..2 {
        sim.try_step().expect("warm-up step");
    }
    ALLOC.reset();
    for _ in 0..5 {
        sim.try_step().expect("steady-state step");
    }
    let allocs = ALLOC.allocations();
    assert_eq!(
        allocs, 0,
        "NveSim::try_step heap-allocated {allocs} times after warm-up"
    );
}
