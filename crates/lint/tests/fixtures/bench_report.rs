//! Fixture: a method named like the one `Provider::handle` calls, in a
//! crate that the protocol crates do not depend on. Its panic must not be
//! charged to the protocol entry point.

pub struct JsonParser;

impl JsonParser {
    pub fn array<const N: usize>(&mut self) -> [u8; N] {
        panic!("tpnr-core cannot call tpnr-bench")
    }
}
