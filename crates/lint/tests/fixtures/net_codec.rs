//! Fixture: an encoder whose methods do not allocate, and a decoder with
//! methods of the same names that do.

pub trait Source {}

pub struct Writer;

impl Writer {
    pub fn str(&mut self, s: &str) -> usize {
        s.len()
    }

    pub fn fixed(&mut self, b: &[u8]) -> usize {
        b.len()
    }
}

pub struct Reader;

impl Reader {
    pub fn str(&mut self, s: &str) -> usize {
        String::from_utf8(s.as_bytes().to_owned()).map_or(0, |s| s.len())
    }

    pub fn fixed(&mut self, b: &[u8]) -> usize {
        b.to_vec().len()
    }
}
