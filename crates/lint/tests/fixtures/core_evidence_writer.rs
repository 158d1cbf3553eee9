//! Fixture: two ALLOC-HOT roots that call methods `Writer` and `Reader`
//! both define. `seal`'s receiver is a parameter written as a `Writer`,
//! so its calls reach `Writer`'s methods alone; `open_and_verify`'s is an
//! `impl` type, which names no type to resolve by.

use tpnr_net::codec::{Source, Writer};

pub fn seal(w: &mut Writer) -> usize {
    w.str("evidence") + w.fixed(&[0; 4])
}

pub fn open_and_verify(r: &mut impl Source) -> usize {
    r.fixed(&[0; 4])
}
