//! a1 positive through array-typed signatures: every fn on the chain
//! takes or returns `[T; N]`. The `;` inside must not end the signature,
//! or the fn gets no node and no edges and the allocation is never
//! reached.
pub struct Tme;

impl Tme {
    pub fn compute_with(&self) {
        let w = weights([0.5; 3]);
        spread(w);
    }
}

fn weights(x: [f64; 3]) -> Option<[f64; 3]> {
    Some(x)
}

fn spread(w: Option<[f64; 3]>) -> [usize; 3] {
    let mut rows: Vec<([f64; 3], [f64; 3])> = Vec::new();
    if let Some(w) = w {
        rows.push((w, w));
    }
    [rows.len(); 3]
}
