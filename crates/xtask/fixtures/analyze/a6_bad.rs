//! a6 fixture: public fns that no entry reaches.

pub struct Table {
    len: usize,
}

impl Table {
    pub fn new(len: usize) -> Self {
        Self { len }
    }

    /// Only this module's unit tests call it.
    pub fn capacity(&self) -> usize {
        self.len
    }
}

/// Nothing calls it.
pub fn orphan() -> usize {
    0
}

#[cfg(test)]
mod tests {
    #[test]
    fn capacity_is_len() {
        assert_eq!(super::Table::new(2).capacity(), 2);
    }
}
