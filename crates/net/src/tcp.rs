//! Real-wire links under the wire core: loopback TCP and an in-process
//! pipe, sharing one frame format.
//!
//! Both backends are the same [`Net`] core as the simulator — nodes,
//! outages, the adversary and every counter live there — over a different
//! [`Link`]:
//!
//! * [`ChannelNet`] = `Net<ChannelLink>` — each copy is encoded with the
//!   same [`Envelope`] frame codec as TCP, decoded on the far side and
//!   queued on an in-process FIFO pipe. Single-threaded, zero-latency,
//!   deterministic: the CI-friendly "real wire".
//! * [`TcpNet`] = `Net<TcpLink>` — frames travel over loopback TCP sockets
//!   (`127.0.0.1:0`): one listener, a lazily-opened stream per sending
//!   node, and a reader thread per accepted connection stamping arrivals
//!   with host-monotonic time. Per-connection FIFO and loss-free (TCP
//!   guarantees), but cross-connection arrival order and exact timing are
//!   up to the host scheduler — runs are *not* bit-reproducible.
//!
//! **NO-WALLCLOCK**: `net::tcp` is, with `net::time`, one of the two
//! modules allowed to touch `std::time` — the whole point of [`TcpNet`] is
//! to put the protocol on a host-monotonic clock. Time still only flows to
//! actors through [`Transport::now`](crate::transport::Transport::now),
//! never read ambiently.
//!
//! Neither link ever duplicates, so for both the conservation law reads
//! `delivered + dropped == sent + injected` once quiescent.

use crate::bytes::Bytes;
use crate::codec::{read_frame, write_frame, CodecError, Reader, Wire, Writer};
use crate::sim::{Envelope, NodeId};
use crate::time::{SimDuration, SimTime};
use crate::transport::{Ledger, Link, Net};
use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// The frame form of a copy on a real wire: routing metadata plus the
/// opaque payload, in the canonical codec. The transaction tag rides
/// along so per-txn accounting works on the receiving side exactly like
/// the simulator's: a flag, then the id, all zeros when untagged. A frame
/// whose untagged id is not zero is refused, so each envelope has exactly
/// one frame. `delivered_at` is not on the wire: the receiving side
/// stamps it.
impl Wire for Envelope {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.src.0).u32(self.dst.0);
        match self.txn {
            Some(t) => w.bool(true).u64(t),
            None => w.bool(false).u64(0),
        };
        w.bytes(&self.payload);
    }

    fn encoded_len(&self) -> usize {
        4 + 4 + 1 + 8 + 4 + self.payload.len()
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let src = NodeId(r.u32()?);
        let dst = NodeId(r.u32()?);
        let txn = match (r.bool()?, r.u64()?) {
            (true, t) => Some(t),
            (false, 0) => None,
            (false, t) => return Err(CodecError::BadDiscriminant("untagged txn id", t)),
        };
        let payload = r.bytes_shared()?;
        Ok(Envelope { src, dst, payload, delivered_at: SimTime::ZERO, txn })
    }
}

/// Takes the held copies whose hold-back expired by `now`, in due order.
fn take_due(held: &mut Vec<Envelope>, now: SimTime) -> Vec<Envelope> {
    held.sort_by_key(|env| env.delivered_at);
    let due = held.partition_point(|env| env.delivered_at <= now);
    held.drain(..due).collect()
}

// ---------------------------------------------------------------------------
// ChannelNet
// ---------------------------------------------------------------------------

/// The in-process wire core. See the module docs.
pub type ChannelNet = Net<ChannelLink>;

/// The in-process pipe: a virtual clock that moves only when the runner
/// advances it, and a FIFO of copies that crossed the frame codec.
#[derive(Default)]
pub struct ChannelLink {
    now: SimTime,
    /// Copies on the pipe, decoded on the far side, in send order.
    pipe: VecDeque<Envelope>,
    /// `Action::Delay`ed copies, stamped with the time they enter the pipe.
    held: Vec<Envelope>,
}

impl ChannelLink {
    /// Puts one copy on the pipe through the frame codec, the same
    /// serialization boundary as a socket. A copy the codec could not
    /// carry would be counted lost, never a panic mid-settle.
    fn put(&mut self, ledger: &mut Ledger, env: Envelope) {
        match Envelope::from_wire_bytes(&env.to_wire_bytes()) {
            Ok(copy) => self.pipe.push_back(copy),
            Err(_) => ledger.lost(self.now, &env),
        }
    }
}

impl Link for ChannelLink {
    fn now(&self) -> SimTime {
        self.now
    }

    fn advance_clock_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    fn transmit(&mut self, ledger: &mut Ledger, mut env: Envelope, delay: SimDuration) {
        if delay > SimDuration::ZERO {
            env.delivered_at = self.now.after(delay);
            self.held.push(env);
        } else {
            self.put(ledger, env);
        }
    }

    fn arrivals(&mut self, ledger: &mut Ledger, now: SimTime) -> Vec<Envelope> {
        self.advance_clock_to(now);
        for env in take_due(&mut self.held, now) {
            self.put(ledger, env);
        }
        self.pipe.drain(..).map(|env| Envelope { delivered_at: now, ..env }).collect()
    }

    fn next_due(&mut self, _: &mut Ledger) -> Option<SimTime> {
        if self.pipe.is_empty() {
            self.held.iter().map(|env| env.delivered_at).min()
        } else {
            Some(self.now)
        }
    }
}

impl ChannelNet {
    /// A fresh channel wire at the epoch.
    pub fn new() -> Self {
        Net::with_link(ChannelLink::default())
    }
}

impl Default for ChannelNet {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// TcpNet
// ---------------------------------------------------------------------------

/// The loopback-TCP wire core. See the module docs for the determinism
/// contract (per-connection FIFO, loss-free; cross-connection order is
/// the host scheduler's).
pub type TcpNet = Net<TcpLink>;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arrival queue shared between reader threads and the driver.
struct ArrivalQueue {
    q: Mutex<VecDeque<Envelope>>,
    cv: Condvar,
}

impl ArrivalQueue {
    /// Queues one arrival and wakes the driver.
    fn push(&self, env: Envelope) {
        lock(&self.q).push_back(env);
        self.cv.notify_all();
    }
}

/// Every accepted stream with its reader thread.
type Readers = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// Real sockets, real threads, host-monotonic time.
pub struct TcpLink {
    start: Instant,
    addr: SocketAddr,
    /// Lazily-opened outbound stream per sending node.
    conns: Vec<Option<TcpStream>>,
    arrivals: Arc<ArrivalQueue>,
    /// `Action::Delay`ed copies, stamped with the time they are written.
    held: Vec<Envelope>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    readers: Readers,
}

/// Per-call ceiling on how long [`TcpNet`]'s `wait_for_activity` blocks
/// for in-flight frames before giving up (a stuck peer must not hang
/// settle forever; the conservation gate then exposes the stranded
/// frames).
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
        let readers: Readers = Arc::default();
        let start = Instant::now();

        let accept_thread = {
            let (arrivals, shutdown, readers) =
                (Arc::clone(&arrivals), Arc::clone(&shutdown), Arc::clone(&readers));
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    // Drop shuts this handle down to wake a reader blocked
                    // on a peer that never closes; a connection it cannot
                    // keep one for is refused.
                    let Ok(handle) = stream.try_clone() else { continue };
                    let (arrivals, shutdown) = (Arc::clone(&arrivals), Arc::clone(&shutdown));
                    let reader = std::thread::spawn(move || {
                        TcpLink::read_loop(stream, start, &arrivals, &shutdown);
                    });
                    lock(&readers).push((handle, reader));
                }
            })
        };

        Ok(Net::with_link(TcpLink {
            start,
            addr,
            conns: Vec::new(),
            arrivals,
            held: Vec::new(),
            shutdown,
            accept_thread: Some(accept_thread),
            readers,
        }))
    }
}

impl TcpLink {
    /// Reads frames off one accepted connection, stamping arrivals with
    /// host-monotonic microseconds since the transport started.
    fn read_loop(
        mut stream: TcpStream,
        start: Instant,
        arrivals: &ArrivalQueue,
        shutdown: &AtomicBool,
    ) {
        while !shutdown.load(Ordering::SeqCst) {
            let Ok(body) = read_frame(&mut stream) else { break };
            let Ok(env) = Envelope::from_wire_bytes(&Bytes::from(body)) else { break };
            let delivered_at = SimTime(start.elapsed().as_micros() as u64);
            arrivals.push(Envelope { delivered_at, ..env });
        }
    }

    /// Writes one copy on its sender's connection, opening it lazily. A
    /// failure strands the copy as a counted loss (the wire, not the
    /// protocol, lost it).
    fn write_wire(&mut self, ledger: &mut Ledger, env: Envelope) {
        let slot = env.src.0 as usize;
        if self.conns.len() <= slot {
            self.conns.resize_with(slot + 1, || None);
        }
        if self.conns[slot].is_none() {
            self.conns[slot] = TcpStream::connect(self.addr).ok();
            if let Some(s) = &self.conns[slot] {
                let _ = s.set_nodelay(true);
            }
        }
        let written = self.conns[slot].as_mut().is_some_and(|s| write_frame(s, &env).is_ok());
        if !written {
            self.conns[slot] = None;
            ledger.lost(self.now(), &env);
        }
    }

    /// Writes the held copies whose hold-back expired, in due order.
    fn flush_held(&mut self, ledger: &mut Ledger, now: SimTime) {
        for env in take_due(&mut self.held, now) {
            self.write_wire(ledger, env);
        }
    }
}

impl Link for TcpLink {
    fn now(&self) -> SimTime {
        SimTime(self.start.elapsed().as_micros() as u64)
    }

    fn advance_clock_to(&mut self, t: SimTime) {
        // Host time is the clock: "advancing" means waiting for it.
        let now = self.now();
        if t > now {
            std::thread::sleep(std::time::Duration::from_micros(t.0 - now.0));
        }
    }

    fn transmit(&mut self, ledger: &mut Ledger, mut env: Envelope, delay: SimDuration) {
        if delay > SimDuration::ZERO {
            env.delivered_at = self.now().after(delay);
            self.held.push(env);
        } else {
            self.write_wire(ledger, env);
        }
    }

    fn arrivals(&mut self, ledger: &mut Ledger, now: SimTime) -> Vec<Envelope> {
        self.flush_held(ledger, now);
        lock(&self.arrivals.q).drain(..).collect()
    }

    fn next_due(&mut self, ledger: &mut Ledger) -> Option<SimTime> {
        self.flush_held(ledger, self.now());
        let front = lock(&self.arrivals.q).front().map(|env| env.delivered_at);
        front.or_else(|| self.held.iter().map(|env| env.delivered_at).min())
    }

    fn wait_for_activity(&mut self, ledger: &mut Ledger, until: Option<SimTime>) -> bool {
        let entered = self.now();
        let arrivals = Arc::clone(&self.arrivals);
        loop {
            let now = self.now();
            self.flush_held(ledger, now);
            // One guard from the emptiness check to the wait: a reader
            // thread cannot push (and notify) in between unseen.
            let q = lock(&arrivals.q);
            if !q.is_empty() {
                return true;
            }
            match until {
                Some(t) if now >= t => return false,
                None if ledger.in_flight == 0 => return false,
                None if now.since(entered) >= QUIESCE_GRACE => return false,
                _ => {}
            }
            // Sleep until the timer, the next held frame, or the chunk
            // boundary — whichever comes first — or a frame arrival.
            let mut wake = now.after(WAIT_CHUNK);
            if let Some(t) = until {
                wake = wake.min(t);
            }
            if let Some(due) = self.held.iter().map(|env| env.delivered_at).min() {
                wake = wake.min(due);
            }
            let dur = std::time::Duration::from_micros(wake.0.saturating_sub(now.0).max(1));
            let (q, _timeout) = arrivals
                .cv
                .wait_timeout_while(q, dur, |q| q.is_empty())
                .unwrap_or_else(PoisonError::into_inner);
            if !q.is_empty() {
                return true;
            }
        }
    }
}

/// Shutdown finishes in bounded time, whatever the peers do.
impl Drop for TcpLink {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Close outbound streams so reader threads see EOF…
        self.conns.clear();
        // …poke the accept loop awake…
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // …and cut every accepted stream, so a reader blocked on a peer
        // that never closes (idle, or stalled mid-frame) sees EOF at once.
        for (stream, reader) in std::mem::take(&mut *lock(&self.readers)) {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = reader.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::drain;
    use crate::transport::Transport;
    use std::io::Write;

    #[test]
    fn envelope_frame_roundtrip() {
        let f = Envelope {
            src: NodeId(3),
            dst: NodeId(7),
            txn: Some(42),
            payload: Bytes::from(b"evidence".to_vec()),
            delivered_at: SimTime::ZERO,
        };
        let enc = f.to_wire();
        assert_eq!(Envelope::from_wire(&enc).unwrap(), f);
        let untagged = Envelope { txn: None, ..f };
        let enc2 = untagged.to_wire();
        assert_eq!(Envelope::from_wire(&enc2).unwrap().txn, None);
        // Canonicity: tagged and untagged encodings are distinct and
        // re-encode byte-identically, and an untagged frame whose id field
        // is not zero is refused rather than read as its zeroed twin.
        assert_ne!(enc, enc2);
        assert_eq!(Envelope::from_wire(&enc).unwrap().to_wire(), enc);
        let mut stray = enc2.clone();
        stray[9 + 7] = 1;
        let refused = Envelope::from_wire(&stray).unwrap_err();
        assert_eq!(refused, CodecError::BadDiscriminant("untagged txn id", 1));
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
        let mut hostile = TcpStream::connect(net.link.addr).expect("connect to the listener");
        for (src, dst) in [(a, NodeId(50)), (NodeId(50), b)] {
            let payload = Bytes::from(b"x".to_vec());
            let frame = Envelope { src, dst, txn: Some(1), payload, delivered_at: SimTime::ZERO };
            write_frame(&mut hostile, &frame).expect("write a hostile frame");
        }
        // Nothing this transport sent is in flight, so poll until both
        // frames have landed instead of draining.
        let deadline = net.now().after(SimDuration::from_secs(5));
        while net.stats().foreign < 2 && net.now() < deadline {
            let until = net.now().after(SimDuration::from_millis(10));
            net.wait_for_activity(Some(until));
            let now = net.now();
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

    /// Two peers that never close — one idle, one stalled after a length
    /// prefix — must not hold up the transport's drop: each reader is
    /// blocked in a read only the peer could end.
    #[test]
    fn tcp_drop_finishes_with_silent_peers() {
        let Ok(net) = TcpNet::new() else {
            eprintln!("loopback bind unavailable; skipping tcp test");
            return;
        };
        let _idle = TcpStream::connect(net.link.addr).expect("connect an idle peer");
        let mut stalled = TcpStream::connect(net.link.addr).expect("connect a stalled peer");
        stalled.write_all(&1024u32.to_be_bytes()).expect("write a bare prefix");
        // Both connections have readers before the drop starts.
        let t0 = Instant::now();
        while lock(&net.link.readers).len() < 2 {
            assert!(t0.elapsed() < std::time::Duration::from_secs(5), "never accepted");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let (done, finished) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(net);
            let _ = done.send(());
        });
        let waited = finished.recv_timeout(std::time::Duration::from_secs(2));
        assert!(waited.is_ok(), "drop still blocked after 2 s by peers that never close");
        dropper.join().expect("the dropping thread");
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
        use std::time::Duration;
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
            let arrivals = Arc::clone(&net.link.arrivals);
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
            let until = net.now().after(SimDuration::from_secs(1));
            go.store(trial, Ordering::Release);
            spin_for(trial / 40 % 40 * 25);
            assert!(net.wait_for_activity(Some(until)), "the arrival was never seen");
            woke_at.push(Instant::now());
            await_trial(&pushed, trial);
            net.link.arrivals.q.lock().unwrap().clear();
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
