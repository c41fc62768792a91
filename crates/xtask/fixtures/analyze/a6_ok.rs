//! a6 fixture: every public fn is reached from an entry.

pub struct Table {
    len: usize,
}

impl Table {
    /// Called by the entry.
    pub fn new(len: usize) -> Self {
        Self { len: checked(len) }
    }

    /// Passed as a value: `.map(Table::len_of)`.
    pub fn len_of(t: &Table) -> usize {
        t.len
    }

    /// Called through a turbofish.
    pub fn spread<const P: usize>(&self) -> usize {
        P * self.len
    }
}

/// Run by the trait (`format!`), never by name.
impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", describe(self))
    }
}

/// Reached only through the `Display` impl.
pub fn describe(t: &Table) -> usize {
    t.len
}

/// Not public: a6 does not judge it.
pub(crate) fn checked(n: usize) -> usize {
    n.max(1)
}
