//! Fixture: a protocol entry point whose two calls carry turbofishes, a
//! method call and a path call. Each callee panics one crate away; the
//! call graph must see through `::<…>` to report either. The method's
//! receiver is a local, whose type the call graph does not read, so the
//! call resolves by its name.

use tpnr_net::frames;

pub struct Provider;

impl Provider {
    /// Protocol entry point: any panic reachable from here is a finding.
    pub fn handle(&self, bytes: &[u8]) -> usize {
        let mut r = frames::Frames::over(bytes);
        r.array::<4>().len() + frames::first::<u8>()
    }
}
