//! a5 positive: a backend whose execute path reaches the exact O(N²)
//! pair loop one call down. Analyzed under a fake `crates/md/` path so
//! the real backend entry table matches.
pub struct SlabBackend;

impl SlabBackend {
    pub fn compute_into(&self) {
        real_space();
    }
}

fn real_space() {
    pairwise::short_range_into();
}

mod pairwise {
    pub fn short_range_into() {}
}
