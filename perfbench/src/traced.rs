//! The `net.transport` layer probe: a [`Transport`] decorator that times
//! the wrapped backend's calls, counts frames and bytes, and keeps the
//! first frames sent so the codec and crypto layers can be replayed on
//! real traffic after the run.

use std::time::Instant;
use tpnr_net::sim::{Envelope, Interceptor, NetEvent, NetStats, NodeId, SimNet, TxnNetStats};
use tpnr_net::tcp::TcpNet;
use tpnr_net::time::SimTime;
use tpnr_net::transport::Transport;
use tpnr_net::Bytes;

/// Frames kept per transport for the codec replay and crypto op counts.
const CAPTURE_FRAMES: usize = 512;

/// What the decorator saw: host seconds inside the wrapped backend, split
/// by the scheduler's three uses of the wire, plus traffic counts.
#[derive(Debug, Default, Clone)]
pub struct NetTrace {
    /// `send` / `send_tagged`.
    pub send_s: f64,
    /// `poll_deliverable`, `next_deliverable_at` and `advance_clock_to`.
    pub poll_s: f64,
    /// `wait_for_activity`: blocking for a real wire's frames or timers.
    pub wait_s: f64,
    /// Frames handed to the backend.
    pub frames: u64,
    /// Payload bytes handed to the backend.
    pub bytes: u64,
    /// The first frames sent, in order (shared handles, not copies).
    pub captured: Vec<Bytes>,
}

impl NetTrace {
    fn capture(&mut self, payload: &Bytes) {
        if self.captured.len() < CAPTURE_FRAMES {
            self.captured.push(payload.clone());
        }
    }

    /// Adds another world's trace; captured frames fill up to the cap.
    pub fn absorb(&mut self, other: NetTrace) {
        self.send_s += other.send_s;
        self.poll_s += other.poll_s;
        self.wait_s += other.wait_s;
        self.frames += other.frames;
        self.bytes += other.bytes;
        for f in &other.captured {
            self.capture(f);
        }
    }
}

/// Times every call into `T` that can do work and forwards every
/// [`Transport`] method, defaulted ones included: a decorator that fell
/// back to the default `wait_for_activity` would stop real-wire settles
/// waiting for frames still in flight.
pub struct Traced<T> {
    inner: T,
    trace: NetTrace,
}

impl<T: Transport> Traced<T> {
    pub fn new(inner: T) -> Self {
        Traced { inner, trace: NetTrace::default() }
    }
}

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64();
    r
}

impl<T: Transport> Transport for Traced<T> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn advance_clock_to(&mut self, t: SimTime) {
        timed(&mut self.trace.poll_s, || self.inner.advance_clock_to(t))
    }

    fn register(&mut self, name: &str) -> NodeId {
        self.inner.register(name)
    }

    fn node_name(&self, node: NodeId) -> Option<&str> {
        self.inner.node_name(node)
    }

    fn send_tagged(&mut self, src: NodeId, dst: NodeId, payload: Bytes, txn: Option<u64>) {
        self.trace.frames += 1;
        self.trace.bytes += payload.len() as u64;
        self.trace.capture(&payload);
        timed(&mut self.trace.send_s, || self.inner.send_tagged(src, dst, payload, txn))
    }

    fn send(&mut self, src: NodeId, dst: NodeId, payload: Bytes) {
        self.trace.frames += 1;
        self.trace.bytes += payload.len() as u64;
        self.trace.capture(&payload);
        timed(&mut self.trace.send_s, || self.inner.send(src, dst, payload))
    }

    fn poll_deliverable(&mut self, now: SimTime) -> Vec<Envelope> {
        timed(&mut self.trace.poll_s, || self.inner.poll_deliverable(now))
    }

    fn next_deliverable_at(&mut self) -> Option<SimTime> {
        timed(&mut self.trace.poll_s, || self.inner.next_deliverable_at())
    }

    fn in_flight(&self) -> bool {
        self.inner.in_flight()
    }

    fn take_events(&mut self) -> Vec<NetEvent> {
        self.inner.take_events()
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }

    fn txn_stats(&self, txn: u64) -> TxnNetStats {
        self.inner.txn_stats(txn)
    }

    fn tagged_txns(&self) -> Vec<u64> {
        self.inner.tagged_txns()
    }

    fn retire_txn(&mut self, txn: u64) -> TxnNetStats {
        self.inner.retire_txn(txn)
    }

    fn set_interceptor(&mut self, i: Box<dyn Interceptor>) {
        self.inner.set_interceptor(i)
    }

    fn clear_interceptor(&mut self) {
        self.inner.clear_interceptor()
    }

    fn set_node_down(&mut self, node: NodeId, down: bool) {
        self.inner.set_node_down(node, down)
    }

    fn wait_for_activity(&mut self, until: Option<SimTime>) -> bool {
        timed(&mut self.trace.wait_s, || self.inner.wait_for_activity(until))
    }

    fn events_lost(&self) -> u64 {
        self.inner.events_lost()
    }
}

/// A backend a workload can run on. Bare backends have nothing to report;
/// the decorator hands over (and resets) what it recorded.
pub trait Probe: Transport + 'static {
    fn take_trace(&mut self) -> NetTrace {
        NetTrace::default()
    }
}

impl Probe for SimNet {}
impl Probe for TcpNet {}
impl<T: Transport + 'static> Probe for Traced<T> {
    fn take_trace(&mut self) -> NetTrace {
        std::mem::take(&mut self.trace)
    }
}

/// Simulator backends, bare or traced, whose links a workload shapes.
pub trait Sim: Probe {
    fn make(seed: u64) -> Self;
    fn sim_mut(&mut self) -> &mut SimNet;
}

impl Sim for SimNet {
    fn make(seed: u64) -> Self {
        SimNet::new(seed)
    }
    fn sim_mut(&mut self) -> &mut SimNet {
        self
    }
}

impl Sim for Traced<SimNet> {
    fn make(seed: u64) -> Self {
        Traced::new(SimNet::new(seed))
    }
    fn sim_mut(&mut self) -> &mut SimNet {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpnr_net::time::SimDuration;

    #[test]
    fn forwards_and_counts_every_frame() {
        let mut t = Traced::new(SimNet::new(5));
        let a = t.register("a");
        let b = t.register("b");
        t.send_tagged(a, b, Bytes::from(vec![1u8; 10]), Some(1));
        t.send(a, b, Bytes::from(vec![2u8; 6]));
        assert!(t.in_flight());
        let at = t.next_deliverable_at().unwrap();
        assert_eq!(at, SimTime::ZERO.after(SimDuration::from_millis(25)));
        t.advance_clock_to(at);
        assert_eq!(t.poll_deliverable(at).len(), 2);
        assert!(!t.wait_for_activity(None));
        assert_eq!(t.stats().delivered, 2);
        assert_eq!(t.txn_stats(1).delivered, 1);
        assert_eq!(t.node_name(b), Some("b"));
        let tr = t.take_trace();
        assert_eq!((tr.frames, tr.bytes, tr.captured.len()), (2, 16, 2));
        assert!(tr.send_s > 0.0 && tr.poll_s > 0.0);
        assert_eq!(t.take_trace().frames, 0, "taking the trace resets it");
    }
}
