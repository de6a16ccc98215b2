//! A one-shot reply slot: one [`Sender`] settles it once, one [`Receiver`]
//! takes the value once.
//!
//! Every decision's reply travels through one of these, whether a local
//! shard worker or a fact-net reader thread answers it. Per reply this is
//! one small allocation by the caller; a std channel would add a
//! cache-aligned allocation plus a block the answering thread allocates
//! and the caller frees, which cost CPU and fragmented the caller's heap
//! under load.
//!
//! The slot closes when its sender is dropped unsettled and once its value
//! has been taken, so a receiver never waits on an answer nobody can give.
//! The sender signals the receiver only while it is parked.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why a [`Receiver`] returned no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No value arrived in time; the slot is still open.
    Timeout,
    /// The sender was dropped without sending, or the value was already
    /// taken.
    Closed,
}

/// Create a slot and its two ends.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let slot = Arc::new(Slot {
        state: Mutex::new(State {
            value: Value::Pending,
            parked: false,
        }),
        arrived: Condvar::new(),
    });
    (Sender(Some(Arc::clone(&slot))), Receiver(slot))
}

struct Slot<T> {
    state: Mutex<State<T>>,
    arrived: Condvar,
}

struct State<T> {
    value: Value<T>,
    /// The receiver is waiting on `arrived`; the sender signals only then.
    parked: bool,
}

enum Value<T> {
    Pending,
    Arrived(T),
    Closed,
}

impl<T> Slot<T> {
    /// Runs from `Drop`, so it must not panic: every update of the state
    /// is one assignment, so a poisoned lock still guards a valid state.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Settle the slot. Only its one sender calls this, once, so the value
    /// is still pending here.
    fn settle(&self, value: Value<T>) {
        let mut state = self.lock();
        state.value = value;
        if state.parked {
            self.arrived.notify_one();
        }
    }
}

/// Take what the slot holds, leaving it closed.
fn take<T>(value: &mut Value<T>) -> Result<T, RecvError> {
    match std::mem::replace(value, Value::Closed) {
        Value::Arrived(v) => Ok(v),
        _ => Err(RecvError::Closed),
    }
}

/// The answering end. Sending consumes it; dropping it unsent closes the
/// slot.
pub struct Sender<T>(Option<Arc<Slot<T>>>);

impl<T> Sender<T> {
    /// Settle the slot with `value`, waking the receiver if it is parked.
    /// A receiver that is already gone simply never takes it.
    pub fn send(mut self, value: T) {
        if let Some(slot) = self.0.take() {
            slot.settle(Value::Arrived(value));
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            slot.settle(Value::Closed);
        }
    }
}

/// The waiting end.
pub struct Receiver<T>(Arc<Slot<T>>);

impl<T> Receiver<T> {
    /// Block until the value arrives, the slot closes, or `timeout`
    /// passes. A timeout too large to add to the clock (e.g.
    /// [`Duration::MAX`]) waits with no deadline. `&mut self` keeps the
    /// waiter single, so one `parked` flag is enough.
    pub fn wait(&mut self, timeout: Duration) -> Result<T, RecvError> {
        let deadline = Instant::now().checked_add(timeout);
        let mut state = self.0.lock();
        while matches!(state.value, Value::Pending) {
            state.parked = true;
            state = match deadline {
                None => self
                    .0
                    .arrived
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner()),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        state.parked = false;
                        return Err(RecvError::Timeout);
                    }
                    let waited = self.0.arrived.wait_timeout(state, left);
                    waited.unwrap_or_else(|e| e.into_inner()).0
                }
            };
            state.parked = false;
        }
        take(&mut state.value)
    }

    /// Non-blocking poll: `None` while the value is still pending, then
    /// `Some(Ok(value))` once, then `Some(Err(Closed))`.
    pub fn try_wait(&self) -> Option<Result<T, RecvError>> {
        let mut state = self.0.lock();
        match state.value {
            Value::Pending => None,
            _ => Some(take(&mut state.value)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn a_value_sent_from_another_thread_wakes_a_parked_waiter() {
        let (tx, mut rx) = channel();
        let sender = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            tx.send(7u32);
        });
        assert_eq!(rx.wait(Duration::from_secs(10)), Ok(7));
        sender.join().unwrap();
    }

    #[test]
    fn silence_times_out_and_leaves_the_slot_open() {
        let (tx, mut rx) = channel::<u32>();
        assert_eq!(rx.wait(Duration::from_millis(5)), Err(RecvError::Timeout));
        assert_eq!(rx.try_wait(), None);
        tx.send(1);
        assert_eq!(rx.wait(Duration::ZERO), Ok(1));
    }

    #[test]
    fn a_dropped_sender_closes_the_slot() {
        let (tx, mut rx) = channel::<u32>();
        drop(tx);
        assert_eq!(rx.try_wait(), Some(Err(RecvError::Closed)));
        assert_eq!(rx.wait(Duration::from_secs(10)), Err(RecvError::Closed));
        // and wakes a waiter parked before the drop
        let (tx, mut rx) = channel::<u32>();
        let dropper = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            drop(tx);
        });
        assert_eq!(rx.wait(Duration::MAX), Err(RecvError::Closed));
        dropper.join().unwrap();
    }

    #[test]
    fn a_taken_value_polls_closed() {
        let (tx, mut rx) = channel();
        assert_eq!(rx.try_wait(), None);
        tx.send(3u32);
        assert_eq!(rx.try_wait(), Some(Ok(3)));
        assert_eq!(rx.try_wait(), Some(Err(RecvError::Closed)));
        // closed, not a timeout: nothing is left to wait for
        assert_eq!(rx.wait(Duration::ZERO), Err(RecvError::Closed));
    }

    #[test]
    fn an_unrepresentable_timeout_waits_with_no_deadline() {
        let (tx, mut rx) = channel();
        tx.send(5u32);
        assert_eq!(rx.wait(Duration::MAX), Ok(5));
        let (tx, mut rx) = channel();
        let sender = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            tx.send(6u32);
        });
        assert_eq!(rx.wait(Duration::MAX), Ok(6));
        sender.join().unwrap();
    }

    #[test]
    fn every_value_arrives_exactly_once_under_racing_sends() {
        const PAIRS: usize = 10_000;
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..PAIRS).map(|_| channel()).unzip();
        // the receiver announces each pair as it starts on it and the
        // sender sends that pair's value at once, so every send races the
        // receiver's decision to park
        let started = Arc::new(AtomicUsize::new(0));
        let announced = Arc::clone(&started);
        let sending = thread::spawn(move || {
            for (i, tx) in senders.into_iter().enumerate() {
                while started.load(Ordering::Acquire) <= i {
                    thread::yield_now();
                }
                tx.send(i);
            }
        });
        let mut seen = vec![0u32; PAIRS];
        for (i, mut rx) in receivers.into_iter().enumerate() {
            announced.store(i + 1, Ordering::Release);
            let value = if i % 2 == 0 {
                rx.wait(Duration::from_secs(10))
            } else {
                loop {
                    if let Some(v) = rx.try_wait() {
                        break v;
                    }
                    thread::yield_now();
                }
            };
            seen[value.expect("every sent value arrives")] += 1;
            assert_eq!(rx.try_wait(), Some(Err(RecvError::Closed)));
        }
        sending.join().unwrap();
        assert!(seen.iter().all(|&n| n == 1));
    }
}
