//! a2 negative: the same shape, but every fallible step degrades
//! gracefully and every access is checked.
pub fn submit_and_wait(steps: usize) {
    for s in 0..steps {
        apply(s);
    }
}

fn apply(step: usize) {
    let doubled = step.checked_mul(2).unwrap_or(usize::MAX);
    let xs = [0.0_f64, 1.0, 2.0];
    let _ = xs.get(doubled % 3).copied().unwrap_or_default();
}
