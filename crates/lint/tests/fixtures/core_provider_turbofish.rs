//! Fixture: a protocol entry point whose two calls carry turbofishes, a
//! method call and a path call. Each callee panics one crate away; the
//! call graph must see through `::<…>` to report either.

use tpnr_net::frames;

pub struct Provider;

impl Provider {
    /// Protocol entry point: any panic reachable from here is a finding.
    pub fn handle(&self, r: &mut frames::Frames) -> usize {
        r.array::<4>().len() + frames::first::<u8>()
    }
}
