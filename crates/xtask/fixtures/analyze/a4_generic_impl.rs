//! a4 positive, with a4_generic_entry.rs: a codec decode impl, in a file
//! not named like a decode file, indexing the wire buffer raw.
pub struct Params {
    pub order: u8,
}

impl Decode for Params {
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let order = r.buf[r.pos];
        r.pos += 1;
        Some(Params { order })
    }
}
