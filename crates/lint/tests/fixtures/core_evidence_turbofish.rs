//! Fixture: an ALLOC-HOT root (`core::evidence::seal`) whose two calls
//! carry turbofishes. Each callee allocates one crate away.

use tpnr_net::frames;

pub fn seal(r: &mut frames::Frames) -> usize {
    r.body::<8>() + frames::pad::<u8>()
}
