//! Readiness-based I/O primitives, dependency-free.
//!
//! The service's event loop needs four things the standard library does
//! not expose: a readiness selector (`epoll`), a cross-thread waker
//! (`eventfd`), a timer wheel for progress deadlines, and the process fd
//! limit for sizing connection sweeps. All of them are built here on
//! hand-rolled `extern "C"` declarations against the C library — the same
//! idiom [`crate::signal`] uses for `signal(2)` — so the crate stays free
//! of external dependencies.
//!
//! Design notes:
//!
//! - **Level-triggered, not edge-triggered.** The event loop drains reads
//!   until `WouldBlock` anyway, and level-triggered `epoll` cannot lose a
//!   wakeup when a handler defers work (e.g. when ingest is paused for
//!   backpressure and `EPOLLIN` interest is dropped instead).
//! - **Tokens, not pointers.** Registrations carry an opaque `u64` token
//!   (the event loop packs a slab slot + generation into it); the
//!   selector never dereferences anything on behalf of the caller, so a
//!   stale event for a recycled slot is detected by a generation mismatch
//!   rather than corrupting memory.
//! - **The timer wheel is lazy.** Entries past the horizon park in the
//!   last slot and re-insert themselves when the cursor reaches them, so
//!   a sweep of the wheel costs O(expired + horizon re-inserts), never
//!   O(registered timers). That property is what makes deadline reaping
//!   of a 10k-connection idle swarm cheap — and the adversarial suite's
//!   slowloris-at-scale test holds us to it.
//!
//! The service is Linux-only. Elsewhere the crate still compiles, but
//! [`Selector::new`] and [`Waker::new`] return
//! [`std::io::ErrorKind::Unsupported`], which the server surfaces from
//! `start()`.

use std::time::{Duration, Instant};

pub use imp::{fd_limit, listener_fd, stream_fd, Selector, Waker};

/// Raw file descriptor alias.
pub type RawFd = i32;

/// Which readiness classes a registration subscribes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both classes.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness notification out of [`Selector::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (includes peer hang-up: a read will not block).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hang-up condition; the owner should read to collect the
    /// error / EOF rather than trusting this flag alone.
    pub error: bool,
}

#[cfg(target_os = "linux")]
mod imp {
    use std::io;
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    use super::{Event, Interest, RawFd};

    /// Upper bound on events drained per `wait` call; readiness is
    /// level-triggered, so anything beyond the bound is re-reported next
    /// sweep rather than lost.
    const MAX_EVENTS: usize = 1024;

    pub(super) fn timeout_ms(timeout: Duration) -> i32 {
        // Round up so a 100µs deadline does not busy-spin as a 0ms wait.
        let ms = timeout.as_millis().saturating_add(u128::from(
            !timeout.subsec_nanos().is_multiple_of(1_000_000),
        ));
        i32::try_from(ms.min(i32::MAX as u128)).expect("clamped to i32::MAX")
    }

    mod sys {
        use std::os::raw::{c_int, c_void};

        // `epoll_event` is packed on x86_64 (12 bytes) and naturally
        // aligned (16 bytes) on other architectures — getting this wrong
        // corrupts every second event in the kernel-filled array.
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        #[repr(C)]
        pub struct RLimit {
            pub cur: u64,
            pub max: u64,
        }

        pub const EPOLL_CLOEXEC: c_int = 0x8_0000;
        pub const EPOLL_CTL_ADD: c_int = 1;
        pub const EPOLL_CTL_DEL: c_int = 2;
        pub const EPOLL_CTL_MOD: c_int = 3;
        pub const EPOLLIN: u32 = 0x1;
        pub const EPOLLOUT: u32 = 0x4;
        pub const EPOLLERR: u32 = 0x8;
        pub const EPOLLHUP: u32 = 0x10;
        pub const EPOLLRDHUP: u32 = 0x2000;

        pub const EFD_NONBLOCK: c_int = 0x800;
        pub const EFD_CLOEXEC: c_int = 0x8_0000;

        pub const RLIMIT_NOFILE: c_int = 7;

        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout_ms: c_int,
            ) -> c_int;
            pub fn eventfd(initval: u32, flags: c_int) -> c_int;
            pub fn close(fd: c_int) -> c_int;
            pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
            pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
            pub fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        }
    }

    /// The soft `RLIMIT_NOFILE` fd limit for this process, when knowable.
    ///
    /// Connection sweeps use this to clamp their top idle tier instead of
    /// dying on `EMFILE` halfway through a benchmark.
    #[must_use]
    pub fn fd_limit() -> Option<u64> {
        let mut lim = sys::RLimit { cur: 0, max: 0 };
        // SAFETY: `getrlimit` writes the two-u64 struct we hand it and
        // nothing else.
        let rc = unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) };
        (rc == 0).then_some(lim.cur)
    }

    /// The raw fd of a listener.
    #[must_use]
    pub fn listener_fd(l: &std::net::TcpListener) -> RawFd {
        l.as_raw_fd()
    }

    /// The raw fd of a stream.
    #[must_use]
    pub fn stream_fd(s: &std::net::TcpStream) -> RawFd {
        s.as_raw_fd()
    }

    /// Level-triggered `epoll` readiness selector.
    ///
    /// One instance is owned by one event-loop thread; it is not `Sync`
    /// and never needs to be ([`Waker`] is the cross-thread entry point).
    pub struct Selector {
        epfd: RawFd,
        buf: Vec<sys::EpollEvent>,
    }

    impl Selector {
        /// Opens an `epoll` instance.
        ///
        /// # Errors
        ///
        /// The underlying syscall error.
        pub fn new() -> io::Result<Selector> {
            // SAFETY: plain syscall; the returned fd is owned by this
            // struct and closed in Drop.
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Selector {
                epfd,
                buf: vec![sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
            })
        }

        /// Registers `fd` under `token` with the given interest.
        ///
        /// # Errors
        ///
        /// The underlying syscall error.
        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Changes the interest set (and/or token) of a registered fd.
        ///
        /// # Errors
        ///
        /// The underlying syscall error.
        pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Removes a registration. Must be called before the fd is closed.
        ///
        /// # Errors
        ///
        /// The underlying syscall error.
        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let none = Interest {
                readable: false,
                writable: false,
            };
            self.ctl(sys::EPOLL_CTL_DEL, fd, 0, none)
        }

        fn ctl(&mut self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut mask = sys::EPOLLRDHUP;
            if interest.readable {
                mask |= sys::EPOLLIN;
            }
            if interest.writable {
                mask |= sys::EPOLLOUT;
            }
            let mut ev = sys::EpollEvent {
                events: mask,
                data: token,
            };
            let evp = if op == sys::EPOLL_CTL_DEL {
                std::ptr::null_mut()
            } else {
                &mut ev
            };
            // SAFETY: `epfd` and `fd` are live descriptors; the event
            // struct outlives the call (epoll copies it).
            if unsafe { sys::epoll_ctl(self.epfd, op, fd, evp) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Blocks until readiness or `timeout`, filling `events` (cleared
        /// first). A signal interruption returns an empty set, not an
        /// error.
        ///
        /// # Errors
        ///
        /// The underlying syscall error.
        pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            events.clear();
            // SAFETY: `buf` is MAX_EVENTS structs the kernel fills; `n`
            // caps how many we read back.
            let n = unsafe {
                sys::epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    MAX_EVENTS as i32,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for raw in &self.buf[..n as usize] {
                // Copy out of the (possibly packed) struct before touching
                // fields.
                let raw = *raw;
                let mask = raw.events;
                events.push(Event {
                    token: raw.data,
                    readable: mask & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                    writable: mask & sys::EPOLLOUT != 0,
                    error: mask & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Selector {
        fn drop(&mut self) {
            // SAFETY: closing the epoll fd we created.
            unsafe {
                sys::close(self.epfd);
            }
        }
    }

    /// Cross-thread wakeup for a [`Selector`]: shard workers and
    /// `shutdown()` call [`Waker::wake`]; the event loop registers
    /// [`Waker::fd`] for readability and calls [`Waker::drain`] when it
    /// fires.
    ///
    /// A nonblocking, `CLOEXEC` `eventfd`: wakes add to its counter (a
    /// saturated counter already guarantees a pending wakeup, so `wake`
    /// never blocks) and one read resets it.
    pub struct Waker {
        fd: RawFd,
    }

    impl Waker {
        /// Opens a waker.
        ///
        /// # Errors
        ///
        /// The underlying syscall error.
        pub fn new() -> io::Result<Waker> {
            // SAFETY: plain syscall; fd owned here, closed in Drop.
            let fd = unsafe { sys::eventfd(0, sys::EFD_NONBLOCK | sys::EFD_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Waker { fd })
        }

        /// The fd to register for readability.
        #[must_use]
        pub fn fd(&self) -> RawFd {
            self.fd
        }

        /// Wakes the selector. Callable from any thread, never blocks.
        pub fn wake(&self) {
            let buf: [u8; 8] = 1u64.to_ne_bytes();
            // SAFETY: writing 8 bytes from a stack buffer to an fd we own;
            // EAGAIN (already-pending wakeup) is success for our purposes.
            unsafe {
                sys::write(self.fd, buf.as_ptr().cast(), buf.len());
            }
        }

        /// Consumes pending wakeups so level-triggered readiness stops
        /// firing.
        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            // SAFETY: reading 8 bytes into a stack buffer from a
            // nonblocking fd we own; one read resets an eventfd.
            unsafe {
                sys::read(self.fd, buf.as_mut_ptr().cast(), buf.len());
            }
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            // SAFETY: closing the eventfd we opened.
            unsafe {
                sys::close(self.fd);
            }
        }
    }
}

/// Off Linux there is no backend: the constructors fail with
/// `Unsupported`, so no selector or waker ever exists and the remaining
/// methods are unreachable.
#[cfg(not(target_os = "linux"))]
#[allow(missing_docs)]
mod imp {
    use std::io;
    use std::time::Duration;

    use super::{Event, Interest, RawFd};

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "the service reactor requires Linux (epoll + eventfd)",
        )
    }

    #[must_use]
    pub fn fd_limit() -> Option<u64> {
        None
    }

    #[must_use]
    pub fn listener_fd(_: &std::net::TcpListener) -> RawFd {
        -1
    }

    #[must_use]
    pub fn stream_fd(_: &std::net::TcpStream) -> RawFd {
        -1
    }

    pub enum Selector {}

    impl Selector {
        pub fn new() -> io::Result<Selector> {
            Err(unsupported())
        }
        pub fn register(&mut self, _: RawFd, _: u64, _: Interest) -> io::Result<()> {
            match *self {}
        }
        pub fn reregister(&mut self, _: RawFd, _: u64, _: Interest) -> io::Result<()> {
            match *self {}
        }
        pub fn deregister(&mut self, _: RawFd) -> io::Result<()> {
            match *self {}
        }
        pub fn wait(&mut self, _: &mut Vec<Event>, _: Duration) -> io::Result<()> {
            match *self {}
        }
    }

    pub enum Waker {}

    impl Waker {
        pub fn new() -> io::Result<Waker> {
            Err(unsupported())
        }
        #[must_use]
        pub fn fd(&self) -> RawFd {
            match *self {}
        }
        pub fn wake(&self) {
            match *self {}
        }
        pub fn drain(&self) {
            match *self {}
        }
    }
}

// ---- timer wheel ---------------------------------------------------------

/// Hashed timer wheel with lazy re-insertion.
///
/// `insert` hashes a deadline to a slot (deadlines past the horizon park
/// in the furthest slot); `advance` sweeps only the slots the cursor
/// passes, firing expired entries and re-inserting unexpired ones. There
/// is no `cancel`: the event loop re-validates fired tokens against the
/// connection's authoritative deadline, so stale entries cost one
/// comparison, not a search. A connection with no deadline simply never
/// inserts — the wheel for an idle swarm is empty.
pub struct TimerWheel {
    slots: Vec<Vec<(u64, Instant)>>,
    granularity: Duration,
    cursor: usize,
    cursor_time: Instant,
    len: usize,
}

impl TimerWheel {
    /// Number of slots; with granularity clamped to ≥1ms this gives a
    /// horizon of at least 256ms before lazy re-insertion kicks in.
    const SLOTS: usize = 256;

    /// Builds a wheel whose granularity suits `deadline` (deadline/32,
    /// clamped to 1ms..250ms).
    #[must_use]
    pub fn for_deadline(deadline: Duration, now: Instant) -> TimerWheel {
        let gran = (deadline / 32)
            .max(Duration::from_millis(1))
            .min(Duration::from_millis(250));
        TimerWheel::new(gran, now)
    }

    /// Builds a wheel with an explicit granularity.
    #[must_use]
    pub fn new(granularity: Duration, now: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..TimerWheel::SLOTS).map(|_| Vec::new()).collect(),
            granularity: granularity.max(Duration::from_micros(100)),
            cursor: 0,
            cursor_time: now,
            len: 0,
        }
    }

    /// Number of armed entries (stale ones included until swept).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are armed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sleep budget until the next armed slot could fire, if any entry is
    /// armed. The event loop takes `min(read_slice, next_tick)` as its
    /// wait timeout.
    #[must_use]
    pub fn next_tick(&self, now: Instant) -> Option<Duration> {
        if self.len == 0 {
            return None;
        }
        for ahead in 0..TimerWheel::SLOTS {
            let at = (self.cursor + ahead) % TimerWheel::SLOTS;
            if !self.slots[at].is_empty() {
                // The slot at distance `ahead` drains after `ahead` cursor
                // steps (insert never targets the cursor slot itself).
                let fire_at = self.cursor_time + self.granularity * (ahead.max(1) as u32);
                return Some(fire_at.saturating_duration_since(now));
            }
        }
        None
    }

    /// Arms `token` to fire at `deadline`.
    pub fn insert(&mut self, token: u64, deadline: Instant) {
        let ticks = deadline
            .saturating_duration_since(self.cursor_time)
            .as_nanos()
            .div_ceil(self.granularity.as_nanos().max(1));
        // Past-due entries land in the next slot; far-future ones park at
        // the horizon and re-insert when swept.
        let ahead = (ticks.max(1) as usize).min(TimerWheel::SLOTS - 1);
        let at = (self.cursor + ahead) % TimerWheel::SLOTS;
        self.slots[at].push((token, deadline));
        self.len += 1;
    }

    /// Sweeps slots the cursor has passed, appending expired tokens to
    /// `fired` and re-inserting unexpired (horizon-parked) entries.
    pub fn advance(&mut self, now: Instant, fired: &mut Vec<u64>) {
        let mut reinsert: Vec<(u64, Instant)> = Vec::new();
        while self.cursor_time + self.granularity <= now {
            self.cursor_time += self.granularity;
            self.cursor = (self.cursor + 1) % TimerWheel::SLOTS;
            for (token, deadline) in self.slots[self.cursor].drain(..) {
                self.len -= 1;
                if deadline <= now {
                    fired.push(token);
                } else {
                    reinsert.push((token, deadline));
                }
            }
        }
        for (token, deadline) in reinsert {
            self.insert(token, deadline);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn fd_limit_is_knowable_on_unix() {
        assert!(fd_limit().expect("getrlimit works") > 0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn default_selector_reports_readiness() {
        use std::io::{Read, Write};
        use std::net::{TcpListener, TcpStream};

        let mut sel = Selector::new().expect("selector");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (mut server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        sel.register(stream_fd(&server), 42, Interest::READABLE)
            .expect("register");
        let mut events = Vec::new();

        // Nothing pending: a short wait returns empty.
        sel.wait(&mut events, Duration::from_millis(10))
            .expect("wait");
        assert!(events.is_empty(), "spurious events: {events:?}");

        client.write_all(b"ping").expect("write");
        sel.wait(&mut events, Duration::from_millis(2000))
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).expect("read"), 4);

        // Toggle to write interest: a healthy socket is instantly
        // writable.
        sel.reregister(stream_fd(&server), 43, Interest::WRITABLE)
            .expect("reregister");
        sel.wait(&mut events, Duration::from_millis(2000))
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 43 && e.writable));

        // Peer hang-up surfaces as readable (EOF) under read interest.
        sel.reregister(stream_fd(&server), 44, Interest::READABLE)
            .expect("reregister");
        drop(client);
        sel.wait(&mut events, Duration::from_millis(2000))
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 44 && e.readable));

        sel.deregister(stream_fd(&server)).expect("deregister");
        sel.wait(&mut events, Duration::from_millis(10))
            .expect("wait");
        assert!(events.is_empty(), "events after deregister: {events:?}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn waker_unblocks_wait_from_another_thread() {
        let mut sel = Selector::new().expect("selector");
        let waker = std::sync::Arc::new(Waker::new().expect("waker"));
        sel.register(waker.fd(), 7, Interest::READABLE)
            .expect("register");
        let remote = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            remote.wake();
            remote.wake(); // coalesces, must not block
        });
        let mut events = Vec::new();
        let start = Instant::now();
        sel.wait(&mut events, Duration::from_millis(5000))
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        assert!(start.elapsed() < Duration::from_millis(4000));
        // Join before draining: `wait` may return between the two wakes,
        // and a wake landing after the drain would re-arm readiness.
        handle.join().expect("join");
        waker.drain();
        // Drained: readiness stops firing.
        sel.wait(&mut events, Duration::from_millis(10))
            .expect("wait");
        assert!(events.is_empty(), "waker still ready after drain");
    }

    #[test]
    fn timer_wheel_fires_expired_only() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), t0);
        wheel.insert(1, t0 + Duration::from_millis(25));
        wheel.insert(2, t0 + Duration::from_millis(250));
        assert_eq!(wheel.len(), 2);

        let mut fired = Vec::new();
        wheel.advance(t0 + Duration::from_millis(12), &mut fired);
        assert!(fired.is_empty());

        wheel.advance(t0 + Duration::from_millis(40), &mut fired);
        assert_eq!(fired, vec![1]);
        assert_eq!(wheel.len(), 1);

        fired.clear();
        wheel.advance(t0 + Duration::from_millis(300), &mut fired);
        assert_eq!(fired, vec![2]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn timer_wheel_reinserts_beyond_horizon() {
        let t0 = Instant::now();
        // 1ms granularity, 256 slots => 256ms horizon; a 2s deadline must
        // survive several laps without firing early.
        let mut wheel = TimerWheel::new(Duration::from_millis(1), t0);
        wheel.insert(9, t0 + Duration::from_secs(2));
        let mut fired = Vec::new();
        for step in 1..=7 {
            wheel.advance(t0 + Duration::from_millis(step * 255), &mut fired);
            assert!(fired.is_empty(), "fired early at step {step}");
            assert_eq!(wheel.len(), 1);
        }
        wheel.advance(t0 + Duration::from_millis(2100), &mut fired);
        assert_eq!(fired, vec![9]);
    }

    #[test]
    fn timer_wheel_sweep_cost_tracks_expiry_not_population() {
        // The slowloris-at-scale property, unit-sized: with N armed
        // timers none of which are due, a sweep touches no entries.
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), t0);
        for i in 0..10_000 {
            wheel.insert(i, t0 + Duration::from_secs(3600));
        }
        let mut fired = Vec::new();
        wheel.advance(t0 + Duration::from_millis(11), &mut fired);
        assert!(fired.is_empty());
        assert_eq!(wheel.len(), 10_000);
        // Past-due entries fire on the very next sweep even when inserted
        // late.
        wheel.insert(99_999, t0);
        wheel.advance(t0 + Duration::from_millis(22), &mut fired);
        assert_eq!(fired, vec![99_999]);
    }

    #[test]
    fn timer_wheel_next_tick_bounds_the_sleep() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), t0);
        assert!(wheel.next_tick(t0).is_none());
        wheel.insert(1, t0 + Duration::from_millis(35));
        let tick = wheel.next_tick(t0).expect("armed");
        assert!(tick <= Duration::from_millis(40), "tick {tick:?}");
        assert!(tick >= Duration::from_millis(5), "tick {tick:?}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn timeout_ms_rounds_up() {
        use imp::timeout_ms;

        assert_eq!(timeout_ms(Duration::from_micros(100)), 1);
        assert_eq!(timeout_ms(Duration::from_millis(3)), 3);
        assert_eq!(timeout_ms(Duration::ZERO), 0);
    }
}
