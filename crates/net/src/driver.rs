//! The live driver: one thread owning a protocol node, its world, and a
//! timer wheel, fed by listener/reader threads over real TCP sockets.
//!
//! The driver is the live-network counterpart of `simnet::Sim::step`. The
//! parity rules it preserves (see DESIGN.md "Transport & runtime"):
//!
//! * **Single-threaded protocol state.** Handlers run only on the driver
//!   thread; socket threads never touch the node. A handler sees the same
//!   exclusive `&mut self` + runtime world it sees under the simulator.
//! * **Self-sends loop back in order.** A message a node sends to itself
//!   is dispatched inline after already-queued work, exactly like the
//!   simulator's zero-latency self-delivery.
//! * **Fail-stop surfaces as `on_send_failed`.** A dial or write failure
//!   invokes the node's failure handler inline, which is how the
//!   simulator's `FaultPlane` reports a dead destination.

use crate::frame::{handshake, parse_handshake, read_frame, write_frame};
use crate::wheel::TimerWheel;
use hypersub_simnet::{Node, NodeRuntime, Payload, ProtoEvent, SimTime, WireMsg};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a dial may block the driver thread. Short on purpose: a dead
/// peer must degrade into `on_send_failed`, not a stall.
const DIAL_TIMEOUT: Duration = Duration::from_millis(500);

/// Configuration for one live node's transport.
pub struct LiveConfig {
    /// This node's index into `peers`.
    pub index: usize,
    /// Transport addresses of every node in the deployment, by index.
    pub peers: Vec<SocketAddr>,
    /// Seed for the node's deterministic RNG stream.
    pub seed: u64,
}

/// The runtime handed to protocol handlers on the driver thread.
///
/// Implements [`NodeRuntime`] over wall-clock time: `now()` is the
/// duration since the driver started, expressed as [`SimTime`] so
/// protocol-level arithmetic (timeouts, lease periods) is unchanged from
/// the simulator. Tracing is off — live observability goes through the
/// world's metric sinks instead of a flight recorder.
pub struct LiveCtx<'a, M, W> {
    me: usize,
    now: SimTime,
    world: &'a mut W,
    rng: &'a mut SmallRng,
    outbox: &'a mut Vec<(usize, M)>,
    timers: &'a mut Vec<(SimTime, u64)>,
}

impl<M, W> NodeRuntime<M, W> for LiveCtx<'_, M, W> {
    fn me(&self) -> usize {
        self.me
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn world(&mut self) -> &mut W {
        self.world
    }

    fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    fn send(&mut self, dst: usize, msg: M) {
        self.outbox.push((dst, msg));
    }

    fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.timers.push((delay, token));
    }

    fn tracing(&self) -> bool {
        false
    }

    fn trace(&mut self, _f: impl FnOnce() -> ProtoEvent) {}
}

/// A closure run on the driver thread with exclusive access to the node
/// and its runtime — the control plane's doorway into protocol state.
pub type Call<N, M, W> = Box<dyn for<'a> FnOnce(&mut N, &mut LiveCtx<'a, M, W>) + Send>;

enum Input<N, M, W> {
    Msg { from: usize, msg: M },
    Call(Call<N, M, W>),
    Shutdown,
}

/// Outbound connection cache: one reused TCP stream per destination,
/// redialed once on write failure before reporting fail-stop.
struct ConnMgr {
    me: usize,
    peers: Vec<SocketAddr>,
    conns: HashMap<usize, TcpStream>,
}

impl ConnMgr {
    fn send(&mut self, dst: usize, frame: &[u8]) -> io::Result<()> {
        if let Some(s) = self.conns.get_mut(&dst) {
            if write_frame(s, frame).is_ok() {
                return Ok(());
            }
            // Stale connection (peer restarted, socket reset): drop the
            // cached stream and fall through to a fresh dial.
            self.conns.remove(&dst);
        }
        let addr = *self
            .peers
            .get(dst)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "unknown peer index"))?;
        let mut s = TcpStream::connect_timeout(&addr, DIAL_TIMEOUT)?;
        s.set_nodelay(true)?;
        write_frame(&mut s, &handshake(self.me))?;
        write_frame(&mut s, frame)?;
        self.conns.insert(dst, s);
        Ok(())
    }
}

/// What a dispatched handler produced, applied by the driver afterwards.
enum Work<M> {
    Deliver { from: usize, msg: M },
    Failed { dst: usize, msg: M },
}

struct Driver<N, M, W> {
    node: N,
    world: W,
    rng: SmallRng,
    wheel: TimerWheel,
    conns: ConnMgr,
    me: usize,
    start: Instant,
    rx: Receiver<Input<N, M, W>>,
}

impl<N, M, W> Driver<N, M, W>
where
    N: Node<M, W>,
    M: WireMsg + Payload,
{
    fn elapsed(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    /// Runs one handler and everything it transitively causes: timers are
    /// armed, remote sends are transmitted (failures re-enter as
    /// `on_send_failed`), and self-sends are delivered inline in FIFO
    /// order — mirroring the simulator's flush semantics.
    fn pump(&mut self, first: Work<M>) {
        let mut queue: VecDeque<Work<M>> = VecDeque::new();
        queue.push_back(first);
        while let Some(work) = queue.pop_front() {
            let now = self.elapsed();
            let mut outbox = Vec::new();
            let mut timers = Vec::new();
            {
                let mut ctx = LiveCtx {
                    me: self.me,
                    now,
                    world: &mut self.world,
                    rng: &mut self.rng,
                    outbox: &mut outbox,
                    timers: &mut timers,
                };
                match work {
                    Work::Deliver { from, msg } => self.node.on_message(&mut ctx, from, msg),
                    Work::Failed { dst, msg } => self.node.on_send_failed(&mut ctx, dst, msg),
                }
            }
            for (delay, token) in timers {
                self.wheel.arm(now + delay, token);
            }
            for (dst, msg) in outbox {
                if dst == self.me {
                    queue.push_back(Work::Deliver { from: dst, msg });
                } else if self.conns.send(dst, &msg.to_wire_bytes()).is_err() {
                    queue.push_back(Work::Failed { dst, msg });
                }
            }
        }
    }

    fn fire_timer(&mut self, token: u64) {
        let now = self.elapsed();
        let mut outbox = Vec::new();
        let mut timers = Vec::new();
        {
            let mut ctx = LiveCtx {
                me: self.me,
                now,
                world: &mut self.world,
                rng: &mut self.rng,
                outbox: &mut outbox,
                timers: &mut timers,
            };
            self.node.on_timer(&mut ctx, token);
        }
        for (delay, t) in timers {
            self.wheel.arm(now + delay, t);
        }
        self.flush(outbox);
    }

    fn call(&mut self, f: Call<N, M, W>) {
        let now = self.elapsed();
        let mut outbox = Vec::new();
        let mut timers = Vec::new();
        {
            let mut ctx = LiveCtx {
                me: self.me,
                now,
                world: &mut self.world,
                rng: &mut self.rng,
                outbox: &mut outbox,
                timers: &mut timers,
            };
            f(&mut self.node, &mut ctx);
        }
        for (delay, t) in timers {
            self.wheel.arm(now + delay, t);
        }
        self.flush(outbox);
    }

    fn flush(&mut self, outbox: Vec<(usize, M)>) {
        for (dst, msg) in outbox {
            if dst == self.me {
                self.pump(Work::Deliver { from: dst, msg });
            } else if self.conns.send(dst, &msg.to_wire_bytes()).is_err() {
                self.pump(Work::Failed { dst, msg });
            }
        }
    }

    fn run(mut self) {
        loop {
            // Fire everything already due before blocking.
            loop {
                let now = self.elapsed();
                match self.wheel.pop_due(now) {
                    Some(token) => self.fire_timer(token),
                    None => break,
                }
            }
            let input = match self.wheel.next_deadline() {
                Some(at) => {
                    let now = self.elapsed();
                    let wait = Duration::from_micros(at.saturating_sub(now).as_micros());
                    match self.rx.recv_timeout(wait) {
                        Ok(input) => input,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                }
                None => match self.rx.recv() {
                    Ok(input) => input,
                    Err(_) => return,
                },
            };
            match input {
                Input::Msg { from, msg } => self.pump(Work::Deliver { from, msg }),
                Input::Call(f) => self.call(f),
                Input::Shutdown => return,
            }
        }
    }
}

/// Handle to a node started by [`spawn`]: enqueue work onto the driver
/// thread and shut it down.
pub struct NetHandle<N, M, W> {
    tx: Sender<Input<N, M, W>>,
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    driver: Option<JoinHandle<()>>,
}

impl<N, M, W> NetHandle<N, M, W>
where
    N: Node<M, W> + Send + 'static,
    M: WireMsg + Payload + Send + 'static,
    W: Send + 'static,
{
    /// The transport address this node accepts connections on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Runs `f` on the driver thread with exclusive node + runtime access;
    /// sends and timers it issues are flushed like any handler's.
    pub fn invoke(&self, f: impl for<'a> FnOnce(&mut N, &mut LiveCtx<'a, M, W>) + Send + 'static) {
        let _ = self.tx.send(Input::Call(Box::new(f)));
    }

    /// Like [`NetHandle::invoke`] but blocks for a result computed on the
    /// driver thread.
    pub fn query<R: Send + 'static>(
        &self,
        f: impl for<'a> FnOnce(&mut N, &mut LiveCtx<'a, M, W>) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = mpsc::channel();
        self.invoke(move |node, ctx| {
            let _ = tx.send(f(node, ctx));
        });
        rx.recv().expect("driver thread gone")
    }

    /// Stops the driver thread and the accept loop.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.tx.send(Input::Shutdown);
        // Wake the accept loop so it can observe the stop flag.
        let _ = TcpStream::connect_timeout(&self.local, DIAL_TIMEOUT);
        if let Some(h) = self.driver.take() {
            let _ = h.join();
        }
    }
}

/// Spawns the live runtime for one node: a driver thread owning
/// `node` + `world`, an accept loop on `listener`, and one reader thread
/// per inbound connection.
pub fn spawn<N, M, W>(
    node: N,
    world: W,
    listener: TcpListener,
    cfg: LiveConfig,
) -> NetHandle<N, M, W>
where
    N: Node<M, W> + Send + 'static,
    M: WireMsg + Payload + Send + 'static,
    W: Send + 'static,
{
    let local = listener.local_addr().expect("listener has a local addr");
    let (tx, rx) = mpsc::channel();
    let stop = Arc::new(AtomicBool::new(false));

    let driver = Driver {
        node,
        world,
        rng: SmallRng::seed_from_u64(
            cfg.seed ^ (cfg.index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ),
        wheel: TimerWheel::default(),
        conns: ConnMgr {
            me: cfg.index,
            peers: cfg.peers,
            conns: HashMap::new(),
        },
        me: cfg.index,
        start: Instant::now(),
        rx,
    };
    let driver = thread::spawn(move || driver.run());

    let accept_tx = tx.clone();
    let accept_stop = Arc::clone(&stop);
    thread::spawn(move || {
        for conn in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                return;
            }
            let Ok(conn) = conn else { continue };
            let _ = conn.set_nodelay(true);
            let reader_tx = accept_tx.clone();
            thread::spawn(move || {
                let mut r = BufReader::new(conn);
                let Ok(hs) = read_frame(&mut r) else { return };
                let Ok(from) = parse_handshake(&hs) else {
                    return;
                };
                while let Ok(frame) = read_frame(&mut r) {
                    let Ok(msg) = M::from_wire_bytes(&frame) else {
                        // Corrupt or foreign-version frame: drop the
                        // connection; the peer redials.
                        return;
                    };
                    if reader_tx.send(Input::Msg { from, msg }).is_err() {
                        return;
                    }
                }
            });
        }
    });

    NetHandle {
        tx,
        local,
        stop,
        driver: Some(driver),
    }
}
