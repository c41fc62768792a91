//! a4 positive, with a4_generic_impl.rs: the entry decodes a field
//! through a generic cursor method, so the only edge to the field's
//! decoder is a call qualified by a type parameter.
pub struct Request;

impl Request {
    pub fn decode(buf: &[u8]) -> Option<Request> {
        let mut r = Reader { buf, pos: 0 };
        let _params: Params = r.read()?;
        Some(Request)
    }
}

pub trait Decode: Sized {
    fn decode(r: &mut Reader<'_>) -> Option<Self>;
}

pub struct Reader<'a> {
    pub buf: &'a [u8],
    pub pos: usize,
}

impl<'a> Reader<'a> {
    pub fn read<T: Decode>(&mut self) -> Option<T> {
        T::decode(self)
    }
}
