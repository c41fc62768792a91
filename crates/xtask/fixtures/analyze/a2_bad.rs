//! a2 positive: a transitive `unwrap` below a checkpoint entry point, plus a
//! raw dynamic index in what the fake path marks as a recovery file.
pub fn run_with_checkpoints(steps: usize) {
    for s in 0..steps {
        apply(s);
    }
}

fn apply(step: usize) {
    let plan: Option<usize> = checked(step);
    let _ = plan.unwrap();
}

fn checked(step: usize) -> Option<usize> {
    step.checked_mul(2)
}

pub fn lookup(xs: &[f64], i: usize) -> f64 {
    xs[i]
}
