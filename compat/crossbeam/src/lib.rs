//! Offline shim for the subset of `crossbeam` this workspace uses:
//! `channel` (MPMC bounded/unbounded queues built on `Mutex` + `Condvar`).

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
                    st.queue.push_back(value);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                st = self.shared.not_full.wait(st).expect("channel poisoned");
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
            st.queue.push_back(value);
            self.shared.not_empty.notify_one();
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
                if let Some(v) = st.queue.pop_front() {
                    self.shared.not_full.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.shared.not_empty.wait(st).expect("channel poisoned");
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            if let Some(v) = st.queue.pop_front() {
                self.shared.not_full.notify_one();
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
                if let Some(v) = st.queue.pop_front() {
                    self.shared.not_full.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _res) = self
                    .shared
                    .not_empty
                    .wait_timeout(st, deadline - now)
                    .expect("channel poisoned");
                st = guard;
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
