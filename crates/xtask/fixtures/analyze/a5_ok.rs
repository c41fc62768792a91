//! a5 negative: the backend sums through the cell kernel; the exact loop
//! is still there for the Table-1 harness and the tests, neither of which
//! is a backend entry.
pub struct SlabBackend;

impl SlabBackend {
    pub fn compute_into(&self) {
        cells::short_range_cells_into();
    }
}

pub fn table1_oracle() {
    pairwise::short_range_into();
}

mod cells {
    pub fn short_range_cells_into() {}
}

mod pairwise {
    pub fn short_range_into() {}
}

#[cfg(test)]
mod tests {
    #[test]
    fn oracle_may_use_the_loop() {
        super::pairwise::short_range_into();
    }
}
