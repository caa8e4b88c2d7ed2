//! Offline shim for the subset of `crossbeam` this workspace uses:
//! `channel` (MPMC bounded/unbounded queues built on `Mutex` + `Condvar`).
//!
//! A send or receive signals the other side's condvar only when a thread
//! is blocked on it. Each channel counts, under its mutex, the threads
//! waiting in `recv`/`recv_timeout` and those waiting in a blocking
//! `send`; a waiter increments its count before it waits and decrements
//! it once it holds the lock again, so the count is exact whenever the
//! other side looks at it. On Linux `notify_one` is a futex syscall even
//! when nobody waits (0.19–0.21 µs a call on a 2-vCPU Linux 6.18 VM,
//! against 14–18 ns for the uncontended lock itself), and the daemon's
//! hand-offs — `try_send` into a queue its
//! consumer polls with `try_recv`, or a `recv` on a queue that is rarely
//! empty — mostly have no waiter. Dropping the last sender or receiver
//! still wakes every waiter (`notify_all`).

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
        /// Threads blocked in `recv`/`recv_timeout` on `not_empty`.
        recv_waiters: usize,
        /// Threads blocked in `send` on `not_full`.
        send_waiters: usize,
    }

    impl<T> State<T> {
        /// Enqueue `value` and wake one blocked receiver, if any.
        fn push(&mut self, value: T, not_empty: &Condvar) {
            self.queue.push_back(value);
            if self.recv_waiters > 0 {
                not_empty.notify_one();
            }
        }

        /// Dequeue the oldest value and wake one blocked sender, if any.
        fn pop(&mut self, not_full: &Condvar) -> Option<T> {
            let v = self.queue.pop_front()?;
            if self.send_waiters > 0 {
                not_full.notify_one();
            }
            Some(v)
        }
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Like real crossbeam, Debug does not require `T: Debug` — the payload
    // is elided so channels of non-Debug commands still `unwrap()`.
    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    #[derive(PartialEq, Eq)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    impl<T> std::fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(match self {
                TrySendError::Full(_) => "Full(..)",
                TrySendError::Disconnected(_) => "Disconnected(..)",
            })
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    fn new_channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
                recv_waiters: 0,
                send_waiters: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    /// Channel holding at most `cap` in-flight messages; `send` blocks and
    /// `try_send` returns `Full` when it is at capacity.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        new_channel(Some(cap))
    }

    /// Channel with no capacity bound.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_channel(None)
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().expect("channel poisoned").senders += 1;
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            st.senders -= 1;
            if st.senders == 0 {
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared
                .state
                .lock()
                .expect("channel poisoned")
                .receivers += 1;
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            st.receivers -= 1;
            if st.receivers == 0 {
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                let full = st.cap.is_some_and(|c| st.queue.len() >= c);
                if !full {
                    st.push(value, &self.shared.not_empty);
                    return Ok(());
                }
                st.send_waiters += 1;
                st = self.shared.not_full.wait(st).expect("channel poisoned");
                st.send_waiters -= 1;
            }
        }

        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if st.cap.is_some_and(|c| st.queue.len() >= c) {
                return Err(TrySendError::Full(value));
            }
            st.push(value, &self.shared.not_empty);
            Ok(())
        }

        pub fn len(&self) -> usize {
            self.shared
                .state
                .lock()
                .expect("channel poisoned")
                .queue
                .len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            loop {
                if let Some(v) = st.pop(&self.shared.not_full) {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st.recv_waiters += 1;
                st = self.shared.not_empty.wait(st).expect("channel poisoned");
                st.recv_waiters -= 1;
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            if let Some(v) = st.pop(&self.shared.not_full) {
                return Ok(v);
            }
            if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.shared.state.lock().expect("channel poisoned");
            loop {
                if let Some(v) = st.pop(&self.shared.not_full) {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st.recv_waiters += 1;
                let (guard, _res) = self
                    .shared
                    .not_empty
                    .wait_timeout(st, deadline - now)
                    .expect("channel poisoned");
                st = guard;
                st.recv_waiters -= 1;
            }
        }

        pub fn len(&self) -> usize {
            self.shared
                .state
                .lock()
                .expect("channel poisoned")
                .queue
                .len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Drain everything currently queued without blocking.
        pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.try_recv().ok())
        }
    }

    /// A sender or receiver that skips `notify_one` when nobody waits must
    /// still wake every thread that does. Each test runs under a watchdog,
    /// so a lost wakeup fails it instead of hanging the suite, and forces
    /// its interleaving by watching the waiter counts, not by sleeping.
    #[cfg(test)]
    mod waiter_tests {
        use super::*;

        /// Run `body` on its own thread; fail if it has not finished
        /// within ten seconds.
        fn watchdog(body: impl FnOnce() + Send + 'static) {
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let worker = std::thread::spawn(move || {
                body();
                let _ = done_tx.send(());
            });
            match done_rx.recv_timeout(Duration::from_secs(10)) {
                Ok(()) => worker.join().expect("test body"),
                // The body panicked: surface its panic.
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    worker.join().expect("test body");
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    panic!("a blocked thread was never woken (lost wakeup)")
                }
            }
        }

        /// `(recv_waiters, send_waiters)` of the channel behind `shared`.
        fn waiters<T>(shared: &Shared<T>) -> (usize, usize) {
            let st = shared.state.lock().expect("channel poisoned");
            (st.recv_waiters, st.send_waiters)
        }

        /// Spin until the channel's waiter counts read `want`.
        fn await_waiters<T>(shared: &Shared<T>, want: (usize, usize)) {
            while waiters(shared) != want {
                std::thread::yield_now();
            }
        }

        #[test]
        fn blocked_recv_wakes_on_try_send() {
            watchdog(|| {
                let (tx, rx) = unbounded::<u32>();
                let shared = rx.shared.clone();
                let receiver = std::thread::spawn(move || rx.recv());
                await_waiters(&shared, (1, 0));
                tx.try_send(7).unwrap();
                assert_eq!(receiver.join().unwrap(), Ok(7));
                assert_eq!(waiters(&tx.shared), (0, 0));
            });
        }

        #[test]
        fn blocked_send_on_a_full_channel_wakes_on_try_recv() {
            watchdog(|| {
                let (tx, rx) = bounded::<u32>(1);
                tx.send(1).unwrap();
                let shared = tx.shared.clone();
                let sender = std::thread::spawn(move || tx.send(2));
                await_waiters(&shared, (0, 1));
                assert_eq!(rx.try_recv(), Ok(1));
                assert_eq!(sender.join().unwrap(), Ok(()));
                assert_eq!(rx.try_recv(), Ok(2));
                assert_eq!(waiters(&rx.shared), (0, 0));
            });
        }

        #[test]
        fn timed_out_recv_leaves_no_stale_count() {
            watchdog(|| {
                let (tx, rx) = bounded::<u32>(4);
                assert_eq!(
                    rx.recv_timeout(Duration::from_millis(10)),
                    Err(RecvTimeoutError::Timeout)
                );
                assert_eq!(waiters(&rx.shared), (0, 0));
                let shared = rx.shared.clone();
                let receiver = std::thread::spawn(move || rx.recv());
                await_waiters(&shared, (1, 0));
                tx.try_send(3).unwrap();
                assert_eq!(receiver.join().unwrap(), Ok(3));
            });
        }

        #[test]
        fn many_producers_and_consumers_hand_over_every_item_once() {
            const PRODUCERS: u64 = 4;
            const ITEMS: u64 = 10_000;
            watchdog(|| {
                let (tx, rx) = bounded::<u64>(8);
                let mut got: Vec<u64> = std::thread::scope(|s| {
                    for p in 0..PRODUCERS {
                        let tx = tx.clone();
                        s.spawn(move || {
                            for i in 0..ITEMS {
                                tx.send(p * ITEMS + i).unwrap();
                            }
                        });
                    }
                    drop(tx);
                    let consumers: Vec<_> = (0..2)
                        .map(|_| {
                            let rx = rx.clone();
                            s.spawn(move || {
                                std::iter::from_fn(|| rx.recv().ok()).collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    consumers
                        .into_iter()
                        .flat_map(|c| c.join().unwrap())
                        .collect()
                });
                got.sort_unstable();
                assert_eq!(got, (0..PRODUCERS * ITEMS).collect::<Vec<_>>());
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;
    use std::time::Duration;

    #[test]
    fn unbounded_fifo_across_threads() {
        let (tx, rx) = channel::unbounded();
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
                drop(tx.clone()); // exercise clone + drop accounting
            });
            let got: Vec<i32> = (0..100).map(|_| rx.recv().unwrap()).collect();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn bounded_try_send_reports_full() {
        let (tx, rx) = channel::bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(
            tx.try_send(3),
            Err(channel::TrySendError::Full(3))
        ));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn recv_timeout_times_out_then_disconnects() {
        let (tx, rx) = channel::bounded::<u8>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn send_errors_after_receiver_drop() {
        let (tx, rx) = channel::unbounded();
        drop(rx);
        assert_eq!(tx.send(9), Err(channel::SendError(9)));
    }

    #[test]
    fn bounded_send_blocks_until_room() {
        let (tx, rx) = channel::bounded(1);
        tx.send(0).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| tx.send(1).unwrap());
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(0));
            assert_eq!(rx.recv(), Ok(1));
        });
    }
}
