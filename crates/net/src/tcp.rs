//! Real-wire [`Transport`] backends: loopback TCP and an in-process
//! channel, sharing one length-prefixed frame format.
//!
//! Two backends live here, both driving the exact same protocol code as
//! the simulator:
//!
//! * [`ChannelNet`] — frames travel through an in-process
//!   `std::sync::mpsc` pipe, encoded and decoded with the same
//!   [`WireFrame`] codec as TCP. Single-threaded, zero-latency,
//!   deterministic: the CI-friendly "real wire".
//! * [`TcpNet`] — frames travel over loopback TCP sockets
//!   (`127.0.0.1:0`): one listener, a lazily-opened stream per sending
//!   node, and a reader thread per accepted connection stamping arrivals
//!   with host-monotonic time. Per-connection FIFO and loss-free (TCP
//!   guarantees), but cross-connection arrival order and exact timing are
//!   up to the host scheduler — runs are *not* bit-reproducible.
//!
//! **NO-WALLCLOCK**: `net::tcp` is, with `net::time`, one of the two
//! modules allowed to touch `std::time` — the whole point of [`TcpNet`] is
//! to put the protocol on a host-monotonic clock. Time still only flows to
//! actors through [`Transport::now`], never read ambiently.
//!
//! Both backends uphold the conservation law
//! `delivered + dropped == sent + duplicated` (neither ever duplicates, so
//! for them `delivered + dropped == sent` once quiescent).

use crate::bytes::Bytes;
use crate::codec::{read_frame, write_frame, CodecError, Reader, Wire, Writer};
use crate::sim::{
    Action, Envelope, Interceptor, NetEvent, NetEventKind, NetStats, NodeId, TxnNetStats,
};
use crate::time::{SimDuration, SimTime};
use crate::transport::Transport;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One message as it crosses a real wire: routing metadata plus the opaque
/// payload, in the canonical length-prefixed codec. The transaction tag
/// rides along so per-txn accounting works on the receiving side exactly
/// like the simulator's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Transaction attribution (`None` = untagged, e.g. adversary
    /// injections).
    pub txn: Option<u64>,
    /// Opaque payload bytes.
    pub payload: Bytes,
}

impl Wire for WireFrame {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.src.0).u32(self.dst.0);
        match self.txn {
            Some(t) => w.bool(true).u64(t),
            None => w.bool(false).u64(0),
        };
        w.bytes(&self.payload);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let src = NodeId(r.u32()?);
        let dst = NodeId(r.u32()?);
        let tagged = r.bool()?;
        let raw = r.u64()?;
        let txn = tagged.then_some(raw);
        let payload = r.bytes_shared()?;
        Ok(WireFrame { src, dst, txn, payload })
    }
}

/// Bookkeeping shared by both real-wire backends: counters, per-txn stats,
/// wire events, node table, outage flags, the adversary hook.
struct WireCore {
    nodes: Vec<String>,
    down: Vec<bool>,
    interceptor: Option<Box<dyn Interceptor>>,
    stats: NetStats,
    txn_stats: BTreeMap<u64, TxnNetStats>,
    events: Vec<NetEvent>,
    events_lost: u64,
    /// Copies accepted for transmission but not yet counted delivered or
    /// dropped (in the pipe, in a socket buffer, or held by a Delay).
    outstanding: u64,
}

/// Same cap as the simulator's: a runner that never drains must not leak.
const EVENT_BUFFER_CAP: usize = 1 << 16;

impl WireCore {
    fn new() -> Self {
        WireCore {
            nodes: Vec::new(),
            down: Vec::new(),
            interceptor: None,
            stats: NetStats::default(),
            txn_stats: BTreeMap::new(),
            events: Vec::new(),
            events_lost: 0,
            outstanding: 0,
        }
    }

    fn register(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(name.to_string());
        self.down.push(false);
        id
    }

    fn push_event(
        &mut self,
        at: SimTime,
        kind: NetEventKind,
        src: NodeId,
        dst: NodeId,
        txn: Option<u64>,
    ) {
        if self.events.len() >= EVENT_BUFFER_CAP {
            self.events_lost += 1;
            return;
        }
        self.events.push(NetEvent { at, src, dst, txn, kind });
    }

    fn drop_copy(&mut self, at: SimTime, src: NodeId, dst: NodeId, txn: Option<u64>) {
        self.stats.dropped += 1;
        if let Some(t) = txn {
            self.txn_stats.entry(t).or_default().dropped += 1;
        }
        self.push_event(at, NetEventKind::Dropped, src, dst, txn);
    }

    fn count_send(&mut self, payload_len: usize, txn: Option<u64>) {
        self.stats.sent += 1;
        self.stats.bytes_sent += payload_len as u64;
        if let Some(t) = txn {
            let ts = self.txn_stats.entry(t).or_default();
            ts.sent += 1;
            ts.bytes_sent += payload_len as u64;
        }
    }

    /// True when both endpoints are nodes this transport registered.
    fn routable(&self, src: NodeId, dst: NodeId) -> bool {
        let n = self.nodes.len();
        (src.0 as usize) < n && (dst.0 as usize) < n
    }

    fn count_delivery(&mut self, at: SimTime, txn: Option<u64>) {
        self.stats.delivered += 1;
        if let Some(t) = txn {
            let ts = self.txn_stats.entry(t).or_default();
            ts.delivered += 1;
            ts.last_delivered_at = at;
        }
    }

    /// Runs the adversary over an outgoing frame. Returns the (possibly
    /// modified) frame to transmit plus any injected frames, or `None` if
    /// the adversary dropped the message (already accounted). The `Delay`
    /// hold-back duration rides along.
    #[allow(clippy::type_complexity)]
    fn apply_interceptor(
        &mut self,
        now: SimTime,
        mut frame: WireFrame,
    ) -> Option<(WireFrame, SimDuration, Vec<WireFrame>)> {
        let action = match self.interceptor.as_mut() {
            Some(i) => i.intercept(frame.src, frame.dst, &frame.payload, now),
            None => Action::Deliver,
        };
        let mut delay = SimDuration::ZERO;
        let mut injected = Vec::new();
        match action {
            Action::Deliver => {}
            Action::Drop => {
                self.drop_copy(now, frame.src, frame.dst, frame.txn);
                return None;
            }
            Action::Modify(p) => {
                self.stats.modified += 1;
                frame.payload = Bytes::from(p);
            }
            Action::InjectAfter(msgs) => {
                self.stats.injected += msgs.len() as u64;
                injected = msgs
                    .into_iter()
                    .map(|(src, dst, p)| WireFrame { src, dst, txn: None, payload: Bytes::from(p) })
                    .collect();
            }
            Action::Delay(d) => delay = d,
        }
        Some((frame, delay, injected))
    }
}

// ---------------------------------------------------------------------------
// ChannelNet
// ---------------------------------------------------------------------------

/// In-process SPSC-channel backend: real frame encode/decode, zero
/// latency, fully deterministic. See the module docs.
pub struct ChannelNet {
    core: WireCore,
    now: SimTime,
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
    /// Frames already pulled off the pipe but not yet delivered.
    ready: VecDeque<Vec<u8>>,
    /// `Action::Delay`ed frames, with the time they go on the wire.
    held: Vec<(SimTime, Vec<u8>)>,
}

impl Default for ChannelNet {
    fn default() -> Self {
        Self::new()
    }
}

impl ChannelNet {
    /// A fresh channel wire at the epoch.
    pub fn new() -> Self {
        let (tx, rx) = mpsc::channel();
        ChannelNet {
            core: WireCore::new(),
            now: SimTime::ZERO,
            tx,
            rx,
            ready: VecDeque::new(),
            held: Vec::new(),
        }
    }

    fn transmit(&mut self, frame: &WireFrame) {
        let bytes = frame.to_wire();
        self.core.outstanding += 1;
        // An in-process pipe to ourselves cannot disconnect; if it somehow
        // does, the copy is accounted as dropped so conservation holds.
        if self.tx.send(bytes).is_err() {
            self.core.outstanding -= 1;
            self.core.drop_copy(self.now, frame.src, frame.dst, frame.txn);
        }
    }

    /// Puts frames whose hold-back expired on the wire, in due order.
    fn flush_held(&mut self, now: SimTime) {
        if self.held.is_empty() {
            return;
        }
        self.held.sort_by_key(|(due, _)| *due);
        while self.held.first().is_some_and(|(due, _)| *due <= now) {
            let (_, bytes) = self.held.remove(0);
            if let Err(lost) = self.tx.send(bytes) {
                // See `transmit`: an impossible disconnect degrades into a
                // counted drop, never a panic mid-settle.
                self.core.outstanding -= 1;
                match WireFrame::from_wire_bytes(&Bytes::from(lost.0)) {
                    Ok(f) => self.core.drop_copy(now, f.src, f.dst, f.txn),
                    Err(_) => self.core.stats.dropped += 1,
                }
            }
        }
    }

    /// Drains the pipe into the ready queue.
    fn pump(&mut self) {
        while let Ok(bytes) = self.rx.try_recv() {
            self.ready.push_back(bytes);
        }
    }
}

impl Transport for ChannelNet {
    fn now(&self) -> SimTime {
        self.now
    }

    fn advance_clock_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    fn register(&mut self, name: &str) -> NodeId {
        self.core.register(name)
    }

    fn node_name(&self, node: NodeId) -> Option<&str> {
        self.core.nodes.get(node.0 as usize).map(String::as_str)
    }

    fn send_tagged(&mut self, src: NodeId, dst: NodeId, payload: Bytes, txn: Option<u64>) {
        assert!((dst.0 as usize) < self.core.nodes.len(), "unknown destination");
        self.core.count_send(payload.len(), txn);
        let now = self.now;
        let Some((frame, delay, injected)) =
            self.core.apply_interceptor(now, WireFrame { src, dst, txn, payload })
        else {
            return;
        };
        if delay > SimDuration::ZERO {
            self.core.outstanding += 1;
            self.held.push((now.after(delay), frame.to_wire()));
        } else {
            self.transmit(&frame);
        }
        for inj in injected {
            self.transmit(&inj);
        }
    }

    fn poll_deliverable(&mut self, now: SimTime) -> Vec<Envelope> {
        self.advance_clock_to(now);
        self.flush_held(now);
        self.pump();
        let mut out = Vec::new();
        while let Some(bytes) = self.ready.pop_front() {
            self.core.outstanding -= 1;
            let wire = Bytes::from(bytes);
            let frame = match WireFrame::from_wire_bytes(&wire) {
                Ok(f) => f,
                Err(_) => {
                    // A corrupt frame cannot appear on an in-process pipe;
                    // if one does, count the copy dropped instead of
                    // panicking mid-settle (conservation stays exact).
                    self.core.stats.dropped += 1;
                    continue;
                }
            };
            if self.core.down[frame.dst.0 as usize] {
                self.core.drop_copy(now, frame.src, frame.dst, frame.txn);
                continue;
            }
            self.core.count_delivery(now, frame.txn);
            out.push(Envelope {
                src: frame.src,
                dst: frame.dst,
                payload: frame.payload,
                delivered_at: now,
                txn: frame.txn,
            });
        }
        out
    }

    fn next_deliverable_at(&mut self) -> Option<SimTime> {
        self.pump();
        if !self.ready.is_empty() {
            return Some(self.now);
        }
        self.held.iter().map(|(due, _)| *due).min()
    }

    fn in_flight(&self) -> bool {
        self.core.outstanding > 0
    }

    fn take_events(&mut self) -> Vec<NetEvent> {
        std::mem::take(&mut self.core.events)
    }

    fn stats(&self) -> NetStats {
        self.core.stats
    }

    fn txn_stats(&self, txn: u64) -> TxnNetStats {
        self.core.txn_stats.get(&txn).copied().unwrap_or_default()
    }

    fn tagged_txns(&self) -> Vec<u64> {
        self.core.txn_stats.keys().copied().collect()
    }

    fn retire_txn(&mut self, txn: u64) -> TxnNetStats {
        self.core.txn_stats.remove(&txn).unwrap_or_default()
    }

    fn set_interceptor(&mut self, i: Box<dyn Interceptor>) {
        self.core.interceptor = Some(i);
    }

    fn clear_interceptor(&mut self) {
        self.core.interceptor = None;
    }

    fn set_node_down(&mut self, node: NodeId, down: bool) {
        self.core.down[node.0 as usize] = down;
    }

    fn events_lost(&self) -> u64 {
        self.core.events_lost
    }
}

// ---------------------------------------------------------------------------
// TcpNet
// ---------------------------------------------------------------------------

/// Arrival queue shared between reader threads and the driver.
struct ArrivalQueue {
    q: Mutex<VecDeque<Envelope>>,
    cv: Condvar,
}

impl ArrivalQueue {
    /// Queues one arrival and wakes the driver.
    fn push(&self, env: Envelope) {
        let mut q = self.q.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        q.push_back(env);
        self.cv.notify_all();
    }
}

/// Loopback-TCP backend: real sockets, real threads, host-monotonic time.
/// See the module docs for the determinism contract (per-connection FIFO,
/// loss-free; cross-connection order is the host scheduler's).
pub struct TcpNet {
    core: WireCore,
    start: std::time::Instant,
    addr: SocketAddr,
    /// Lazily-opened outbound stream per sending node.
    conns: Vec<Option<TcpStream>>,
    arrivals: Arc<ArrivalQueue>,
    /// `Action::Delay`ed frames `(due, src, bytes)`, written when due.
    held: Vec<(SimTime, NodeId, Vec<u8>)>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    reader_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Per-call ceiling on how long [`TcpNet::wait_for_activity`] blocks for
/// in-flight frames before giving up (a stuck peer must not hang settle
/// forever; the conservation gate then exposes the stranded frames).
const QUIESCE_GRACE: SimDuration = SimDuration::from_secs(2);

/// Condvar wait chunk while blocking for activity.
const WAIT_CHUNK: SimDuration = SimDuration::from_millis(10);

impl TcpNet {
    /// Binds a loopback listener and starts the accept thread. Fails if
    /// the host forbids binding `127.0.0.1:0` (report and fall back to
    /// [`ChannelNet`] in that case).
    pub fn new() -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let arrivals =
            Arc::new(ArrivalQueue { q: Mutex::new(VecDeque::new()), cv: Condvar::new() });
        let shutdown = Arc::new(AtomicBool::new(false));
        let reader_threads = Arc::new(Mutex::new(Vec::new()));
        let start = std::time::Instant::now();

        let accept_thread = {
            let arrivals = Arc::clone(&arrivals);
            let shutdown = Arc::clone(&shutdown);
            let readers = Arc::clone(&reader_threads);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    let arrivals = Arc::clone(&arrivals);
                    let shutdown = Arc::clone(&shutdown);
                    let handle = std::thread::spawn(move || {
                        Self::reader_loop(stream, start, arrivals, shutdown);
                    });
                    readers.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(handle);
                }
            })
        };

        Ok(TcpNet {
            core: WireCore::new(),
            start,
            addr,
            conns: Vec::new(),
            arrivals,
            held: Vec::new(),
            shutdown,
            accept_thread: Some(accept_thread),
            reader_threads,
        })
    }

    /// Reads frames off one accepted connection, stamping arrivals with
    /// host-monotonic microseconds since the transport started.
    fn reader_loop(
        mut stream: TcpStream,
        start: std::time::Instant,
        arrivals: Arc<ArrivalQueue>,
        shutdown: Arc<AtomicBool>,
    ) {
        while !shutdown.load(Ordering::SeqCst) {
            let Ok(body) = read_frame(&mut stream) else { break };
            let wire = Bytes::from(body);
            let Ok(frame) = WireFrame::from_wire_bytes(&wire) else { break };
            let at = SimTime(start.elapsed().as_micros() as u64);
            arrivals.push(Envelope {
                src: frame.src,
                dst: frame.dst,
                payload: frame.payload,
                delivered_at: at,
                txn: frame.txn,
            });
        }
    }

    fn host_now(&self) -> SimTime {
        SimTime(self.start.elapsed().as_micros() as u64)
    }

    /// Writes one encoded frame on `src`'s connection, opening it lazily.
    /// A write failure strands the copy as a counted drop (the wire, not
    /// the protocol, lost it).
    fn write_wire(&mut self, src: NodeId, dst: NodeId, txn: Option<u64>, bytes: &[u8]) {
        let slot = src.0 as usize;
        if self.conns[slot].is_none() {
            match TcpStream::connect(self.addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    self.conns[slot] = Some(s);
                }
                Err(_) => {
                    self.core.outstanding -= 1;
                    let at = self.host_now();
                    self.core.drop_copy(at, src, dst, txn);
                    return;
                }
            }
        }
        let ok = match self.conns[slot].as_mut() {
            Some(stream) => write_frame(stream, bytes).is_ok(),
            None => false,
        };
        if !ok {
            self.conns[slot] = None;
            self.core.outstanding -= 1;
            let at = self.host_now();
            self.core.drop_copy(at, src, dst, txn);
        }
    }

    /// Puts frames whose hold-back expired on the wire, in due order.
    fn flush_held(&mut self, now: SimTime) {
        if self.held.is_empty() {
            return;
        }
        self.held.sort_by_key(|(due, _, _)| *due);
        while self.held.first().is_some_and(|(due, _, _)| *due <= now) {
            let (_, src, bytes) = self.held.remove(0);
            // Destination/txn for drop accounting live inside the frame;
            // decode is cheap relative to a socket write.
            let wire = Bytes::from(bytes);
            match WireFrame::from_wire_bytes(&wire) {
                Ok(frame) => self.write_wire(src, frame.dst, frame.txn, &wire),
                Err(_) => {
                    // Self-encoded frames always decode; degrade an
                    // impossible corruption into a counted drop.
                    self.core.outstanding -= 1;
                    self.core.stats.dropped += 1;
                }
            }
        }
    }

    fn next_held_due(&self) -> Option<SimTime> {
        self.held.iter().map(|(due, _, _)| *due).min()
    }
}

impl Drop for TcpNet {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Close outbound streams so reader threads see EOF…
        self.conns.clear();
        // …and poke the accept loop awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let handles = std::mem::take(
            &mut *self.reader_threads.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Transport for TcpNet {
    fn now(&self) -> SimTime {
        self.host_now()
    }

    fn advance_clock_to(&mut self, t: SimTime) {
        // Host time is the clock: "advancing" means waiting for it.
        let now = self.host_now();
        if t > now {
            std::thread::sleep(std::time::Duration::from_micros(t.0 - now.0));
        }
    }

    fn register(&mut self, name: &str) -> NodeId {
        self.conns.push(None);
        self.core.register(name)
    }

    fn node_name(&self, node: NodeId) -> Option<&str> {
        self.core.nodes.get(node.0 as usize).map(String::as_str)
    }

    fn send_tagged(&mut self, src: NodeId, dst: NodeId, payload: Bytes, txn: Option<u64>) {
        assert!((dst.0 as usize) < self.core.nodes.len(), "unknown destination");
        self.core.count_send(payload.len(), txn);
        let now = self.host_now();
        let Some((frame, delay, injected)) =
            self.core.apply_interceptor(now, WireFrame { src, dst, txn, payload })
        else {
            return;
        };
        let bytes = frame.to_wire();
        self.core.outstanding += 1;
        if delay > SimDuration::ZERO {
            self.held.push((now.after(delay), frame.src, bytes));
        } else {
            self.write_wire(frame.src, frame.dst, frame.txn, &bytes);
        }
        for inj in injected {
            let b = inj.to_wire();
            self.core.outstanding += 1;
            self.write_wire(inj.src, inj.dst, inj.txn, &b);
        }
    }

    fn poll_deliverable(&mut self, now: SimTime) -> Vec<Envelope> {
        self.flush_held(now);
        let drained: Vec<Envelope> = {
            let mut q = self.arrivals.q.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            q.drain(..).collect()
        };
        let mut out = Vec::new();
        for env in drained {
            // The listener accepts any loopback peer. A frame naming a node
            // never registered here was not sent by this transport, so it
            // is discarded before any bookkeeping and counted on its own.
            if !self.core.routable(env.src, env.dst) {
                self.core.stats.foreign += 1;
                continue;
            }
            // Frames forging registered ids (out of reach without connection
            // authentication) must still not wrap the in-flight count.
            self.core.outstanding = self.core.outstanding.saturating_sub(1);
            if self.core.down[env.dst.0 as usize] {
                self.core.drop_copy(env.delivered_at, env.src, env.dst, env.txn);
                continue;
            }
            self.core.count_delivery(env.delivered_at, env.txn);
            out.push(env);
        }
        out
    }

    fn next_deliverable_at(&mut self) -> Option<SimTime> {
        self.flush_held(self.host_now());
        {
            let q = self.arrivals.q.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(front) = q.front() {
                return Some(front.delivered_at);
            }
        }
        self.next_held_due()
    }

    fn in_flight(&self) -> bool {
        self.core.outstanding > 0
    }

    fn take_events(&mut self) -> Vec<NetEvent> {
        std::mem::take(&mut self.core.events)
    }

    fn stats(&self) -> NetStats {
        self.core.stats
    }

    fn txn_stats(&self, txn: u64) -> TxnNetStats {
        self.core.txn_stats.get(&txn).copied().unwrap_or_default()
    }

    fn tagged_txns(&self) -> Vec<u64> {
        self.core.txn_stats.keys().copied().collect()
    }

    fn retire_txn(&mut self, txn: u64) -> TxnNetStats {
        self.core.txn_stats.remove(&txn).unwrap_or_default()
    }

    fn set_interceptor(&mut self, i: Box<dyn Interceptor>) {
        self.core.interceptor = Some(i);
    }

    fn clear_interceptor(&mut self) {
        self.core.interceptor = None;
    }

    fn set_node_down(&mut self, node: NodeId, down: bool) {
        self.core.down[node.0 as usize] = down;
    }

    fn wait_for_activity(&mut self, until: Option<SimTime>) -> bool {
        let entered = self.host_now();
        let arrivals = Arc::clone(&self.arrivals);
        loop {
            let now = self.host_now();
            self.flush_held(now);
            // One guard from the emptiness check to the wait: a reader
            // thread cannot push (and notify) in between unseen.
            let q = arrivals.q.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if !q.is_empty() {
                return true;
            }
            match until {
                Some(t) if now >= t => return false,
                None if !self.in_flight() => return false,
                None if now.since(entered) >= QUIESCE_GRACE => return false,
                _ => {}
            }
            // Sleep until the timer, the next held frame, or the chunk
            // boundary — whichever comes first — or a frame arrival.
            let mut wake = now.after(WAIT_CHUNK);
            if let Some(t) = until {
                wake = wake.min(t);
            }
            if let Some(due) = self.next_held_due() {
                wake = wake.min(due);
            }
            let dur = std::time::Duration::from_micros(wake.0.saturating_sub(now.0).max(1));
            let (q, _timeout) = arrivals
                .cv
                .wait_timeout_while(q, dur, |q| q.is_empty())
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if !q.is_empty() {
                return true;
            }
        }
    }

    fn events_lost(&self) -> u64 {
        self.core.events_lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_frame_roundtrip() {
        let f = WireFrame {
            src: NodeId(3),
            dst: NodeId(7),
            txn: Some(42),
            payload: Bytes::from(b"evidence".to_vec()),
        };
        let enc = f.to_wire();
        assert_eq!(WireFrame::from_wire(&enc).unwrap(), f);
        let untagged = WireFrame { txn: None, ..f };
        let enc2 = untagged.to_wire();
        assert_eq!(WireFrame::from_wire(&enc2).unwrap().txn, None);
        // Canonicity: tagged and untagged encodings are distinct and
        // re-encode byte-identically.
        assert_ne!(enc, enc2);
        assert_eq!(WireFrame::from_wire(&enc).unwrap().to_wire(), enc);
    }

    /// Drives any backend to quiescence through the trait, like settle's
    /// delivery arm does.
    fn drain(net: &mut dyn Transport) -> Vec<Envelope> {
        let mut out = Vec::new();
        loop {
            match net.next_deliverable_at() {
                Some(at) => {
                    let now = net.now().max(at);
                    net.advance_clock_to(now);
                    out.extend(net.poll_deliverable(now));
                }
                None => {
                    if !net.wait_for_activity(None) {
                        break;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn channel_delivers_in_fifo_order_with_conservation() {
        let mut net = ChannelNet::new();
        let a = net.register("alice");
        let b = net.register("bob");
        for i in 0..10u8 {
            net.send_tagged(a, b, Bytes::from(vec![i]), Some(1));
        }
        let got = drain(&mut net);
        assert_eq!(got.len(), 10);
        for (i, env) in got.iter().enumerate() {
            assert_eq!(env.payload, vec![i as u8]);
            assert_eq!(env.src, a);
            assert_eq!(env.txn, Some(1));
        }
        let s = net.stats();
        assert_eq!(s.delivered + s.dropped, s.sent + s.duplicated);
        assert!(!net.in_flight());
        let t = Transport::txn_stats(&net, 1);
        assert_eq!((t.sent, t.delivered, t.bytes_sent), (10, 10, 10));
    }

    #[test]
    fn channel_down_node_drops_and_events_surface() {
        let mut net = ChannelNet::new();
        let a = net.register("a");
        let b = net.register("b");
        net.set_node_down(b, true);
        net.send_tagged(a, b, Bytes::from(b"lost".to_vec()), Some(5));
        assert!(drain(&mut net).is_empty());
        let s = net.stats();
        assert_eq!((s.sent, s.delivered, s.dropped), (1, 0, 1));
        let evs = net.take_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, NetEventKind::Dropped);
        assert_eq!(evs[0].txn, Some(5));
        net.set_node_down(b, false);
        net.send(a, b, Bytes::from(b"back".to_vec()));
        assert_eq!(drain(&mut net).len(), 1);
    }

    #[test]
    fn channel_interceptor_full_action_surface() {
        let mut net = ChannelNet::new();
        let a = net.register("a");
        let b = net.register("b");
        net.set_interceptor(Box::new(|s: NodeId, d: NodeId, p: &[u8], _t| match p {
            b"secret" => Action::Modify(b"tampered".to_vec()),
            b"kill" => Action::Drop,
            b"echo" => Action::InjectAfter(vec![(s, d, p.to_vec())]),
            b"slow" => Action::Delay(SimDuration::from_millis(50)),
            _ => Action::Deliver,
        }));
        net.send(a, b, Bytes::from(b"secret".to_vec()));
        net.send(a, b, Bytes::from(b"kill".to_vec()));
        net.send(a, b, Bytes::from(b"echo".to_vec()));
        net.send(a, b, Bytes::from(b"slow".to_vec()));
        let got = drain(&mut net);
        let payloads: Vec<&[u8]> = got.iter().map(|e| &e.payload[..]).collect();
        assert_eq!(payloads, vec![&b"tampered"[..], b"echo", b"echo", b"slow"]);
        // The delayed frame only went on the wire once the clock passed
        // its hold-back.
        assert!(got.last().unwrap().delivered_at >= SimTime(50_000));
        let s = net.stats();
        assert_eq!(s.modified, 1);
        assert_eq!(s.injected, 1);
        assert_eq!(s.delivered + s.dropped, s.sent + s.injected);
    }

    #[test]
    fn tcp_roundtrip_and_conservation() {
        let Ok(mut net) = TcpNet::new() else {
            eprintln!("loopback bind unavailable; skipping tcp test");
            return;
        };
        let a = net.register("alice");
        let b = net.register("bob");
        for i in 0..20u8 {
            net.send_tagged(a, b, Bytes::from(vec![i]), Some(9));
        }
        let got = drain(&mut net);
        assert_eq!(got.len(), 20);
        // Single connection ⇒ FIFO end to end.
        for (i, env) in got.iter().enumerate() {
            assert_eq!(env.payload, vec![i as u8]);
        }
        let s = net.stats();
        assert_eq!(s.delivered + s.dropped, s.sent + s.duplicated);
        assert_eq!(s.delivered, 20);
        assert!(!net.in_flight());
        assert_eq!(Transport::txn_stats(&net, 9).delivered, 20);
    }

    #[test]
    fn tcp_down_node_drops_at_poll() {
        let Ok(mut net) = TcpNet::new() else {
            eprintln!("loopback bind unavailable; skipping tcp test");
            return;
        };
        let a = net.register("a");
        let b = net.register("b");
        net.set_node_down(b, true);
        net.send_tagged(a, b, Bytes::from(b"gone".to_vec()), Some(2));
        assert!(drain(&mut net).is_empty());
        let s = net.stats();
        assert_eq!((s.sent, s.delivered, s.dropped), (1, 0, 1));
        assert_eq!(net.take_events().len(), 1);
    }

    /// A peer that connects to the listener and writes frames naming
    /// unregistered nodes must not disturb the transport: the frames are
    /// discarded and counted apart, conservation stays exact, and honest
    /// traffic keeps flowing afterwards.
    #[test]
    fn tcp_discards_frames_naming_unregistered_nodes() {
        let Ok(mut net) = TcpNet::new() else {
            eprintln!("loopback bind unavailable; skipping tcp test");
            return;
        };
        let a = net.register("alice");
        let b = net.register("bob");
        let mut hostile = TcpStream::connect(net.addr).expect("connect to the listener");
        for (src, dst) in [(a, NodeId(50)), (NodeId(50), b)] {
            let frame = WireFrame { src, dst, txn: Some(1), payload: Bytes::from(b"x".to_vec()) };
            write_frame(&mut hostile, &frame.to_wire()).expect("write a hostile frame");
        }
        // Nothing this transport sent is in flight, so poll until both
        // frames have landed instead of draining.
        let deadline = net.host_now().after(SimDuration::from_secs(5));
        while net.stats().foreign < 2 && net.host_now() < deadline {
            let until = net.host_now().after(SimDuration::from_millis(10));
            net.wait_for_activity(Some(until));
            let now = net.host_now();
            assert!(net.poll_deliverable(now).is_empty(), "a hostile frame was delivered");
        }
        let s = net.stats();
        assert_eq!((s.foreign, s.sent, s.delivered, s.dropped), (2, 0, 0, 0));
        assert!(!net.in_flight());
        // An honest exchange afterwards: request and receipt both arrive.
        net.send_tagged(a, b, Bytes::from(b"transfer".to_vec()), Some(7));
        net.send_tagged(b, a, Bytes::from(b"receipt".to_vec()), Some(7));
        assert_eq!(drain(&mut net).len(), 2);
        let s = net.stats();
        assert_eq!(s.delivered + s.dropped, s.sent + s.duplicated);
        assert_eq!((s.sent, s.delivered, s.foreign), (2, 2, 2));
        assert!(!net.in_flight());
    }

    /// An arrival pushed by another thread while the driver is between
    /// its emptiness check and its condvar wait must still wake it at
    /// once, not after the rest of a `WAIT_CHUNK`. That gap is tens of
    /// nanoseconds wide, so each trial releases the pusher through a
    /// spinning atomic hand-off and then delays the push and the wait by
    /// 0–1 µs each, in 25 ns steps, so that some pushes land in it.
    #[test]
    fn tcp_wait_wakes_on_every_arrival() {
        use std::sync::atomic::AtomicU64;
        use std::time::{Duration, Instant};
        let Ok(mut net) = TcpNet::new() else {
            eprintln!("loopback bind unavailable; skipping tcp test");
            return;
        };
        let a = net.register("a");
        let b = net.register("b");
        const TRIALS: u64 = 6400;
        // `go` = trial released by the driver, `pushed` = trial pushed.
        let (go, pushed) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let await_trial = |counter: &AtomicU64, trial: u64| {
            let mut spins = 0u32;
            while counter.load(Ordering::Acquire) < trial {
                spins += 1;
                if spins.is_multiple_of(1024) {
                    std::thread::yield_now();
                }
                std::hint::spin_loop();
            }
        };
        let spin_for = |nanos: u64| {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_nanos(nanos) {
                std::hint::spin_loop();
            }
        };
        let pusher = {
            let (go, pushed) = (Arc::clone(&go), Arc::clone(&pushed));
            let arrivals = Arc::clone(&net.arrivals);
            std::thread::spawn(move || {
                let mut pushed_at = Vec::new();
                for trial in 1..=TRIALS {
                    await_trial(&go, trial);
                    spin_for(trial % 40 * 25);
                    pushed_at.push(Instant::now());
                    arrivals.push(Envelope {
                        src: a,
                        dst: b,
                        payload: Bytes::from(vec![trial as u8]),
                        delivered_at: SimTime::ZERO,
                        txn: None,
                    });
                    pushed.store(trial, Ordering::Release);
                }
                pushed_at
            })
        };
        let mut woke_at = Vec::new();
        for trial in 1..=TRIALS {
            let until = net.host_now().after(SimDuration::from_secs(1));
            go.store(trial, Ordering::Release);
            spin_for(trial / 40 % 40 * 25);
            assert!(net.wait_for_activity(Some(until)), "the arrival was never seen");
            woke_at.push(Instant::now());
            await_trial(&pushed, trial);
            net.arrivals.q.lock().unwrap().clear();
        }
        let pushed_at = pusher.join().expect("pusher thread");
        let bound = Duration::from_micros(WAIT_CHUNK.0 / 2);
        let slow: Vec<Duration> = woke_at
            .iter()
            .zip(&pushed_at)
            .map(|(w, p)| w.saturating_duration_since(*p))
            .filter(|d| *d >= bound)
            .collect();
        // One slow wake-up can be the host descheduling this thread; a lost
        // wake-up is systematic (dozens per run before the fix).
        assert!(slow.len() <= 1, "wake-ups over {bound:?}: {slow:?}");
    }
}
