//! Experience replay buffer.

use rand::rngs::StdRng;
use rand::Rng;

/// One `(s, α, r, s′, done)` transition, as stored by Algorithm 1's
/// `D.store(s, α_clip, r, s_next, done)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// State before the action.
    pub state: Vec<f64>,
    /// The (clipped) action taken.
    pub action: Vec<f64>,
    /// Reward received.
    pub reward: f64,
    /// State after the action.
    pub next_state: Vec<f64>,
    /// Whether the episode terminated.
    pub done: bool,
}

/// A fixed-capacity ring buffer of transitions with uniform sampling.
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    capacity: usize,
    buf: Vec<Transition>,
    next: usize,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be nonzero");
        Self {
            capacity,
            buf: Vec::with_capacity(capacity.min(4096)),
            next: 0,
        }
    }

    /// Stores a transition, evicting the oldest once full.
    pub fn push(&mut self, t: Transition) {
        if self.buf.len() < self.capacity {
            self.buf.push(t);
        } else {
            self.buf[self.next] = t;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of transitions the buffer can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples `n` transitions uniformly with replacement, one index
    /// draw per transition as the iterator advances.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub fn sample<'a>(
        &'a self,
        rng: &'a mut StdRng,
        n: usize,
    ) -> impl Iterator<Item = &'a Transition> + 'a {
        assert!(!self.buf.is_empty(), "cannot sample from an empty buffer");
        (0..n).map(move |_| &self.buf[rng.gen_range(0..self.buf.len())])
    }
}

impl mtat_snapshot::Snap for Transition {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        self.state.snap(w);
        self.action.snap(w);
        self.reward.snap(w);
        self.next_state.snap(w);
        self.done.snap(w);
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        Ok(Self {
            state: Vec::unsnap(r)?,
            action: Vec::unsnap(r)?,
            reward: f64::unsnap(r)?,
            next_state: Vec::unsnap(r)?,
            done: bool::unsnap(r)?,
        })
    }
}

/// The ring write pointer `next` travels with the contents — a restored
/// buffer must evict the same slots the crashed one would have, or
/// replay sampling diverges once the buffer wraps.
impl mtat_snapshot::Snap for ReplayBuffer {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        self.capacity.snap(w);
        self.buf.snap(w);
        self.next.snap(w);
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        use mtat_snapshot::SnapError;
        let capacity = usize::unsnap(r)?;
        let buf = Vec::<Transition>::unsnap(r)?;
        let next = usize::unsnap(r)?;
        if capacity == 0 || buf.len() > capacity || next >= capacity.max(1) {
            return Err(SnapError::Malformed("replay buffer shape"));
        }
        Ok(Self {
            capacity,
            buf,
            next,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn t(r: f64) -> Transition {
        Transition {
            state: vec![r],
            action: vec![0.0],
            reward: r,
            next_state: vec![r + 1.0],
            done: false,
        }
    }

    #[test]
    fn push_and_len() {
        let mut b = ReplayBuffer::new(3);
        assert!(b.is_empty());
        b.push(t(1.0));
        b.push(t(2.0));
        assert_eq!(b.len(), 2);
        assert_eq!(b.capacity(), 3);
    }

    #[test]
    fn ring_eviction_keeps_newest() {
        let mut b = ReplayBuffer::new(2);
        b.push(t(1.0));
        b.push(t(2.0));
        b.push(t(3.0)); // evicts t(1.0)
        assert_eq!(b.len(), 2);
        let rewards: Vec<f64> = b.buf.iter().map(|x| x.reward).collect();
        assert!(rewards.contains(&2.0) && rewards.contains(&3.0));
    }

    #[test]
    fn sampling_covers_buffer() {
        let mut b = ReplayBuffer::new(16);
        for i in 0..16 {
            b.push(t(i as f64));
        }
        let mut rng = StdRng::seed_from_u64(0);
        let samples: Vec<&Transition> = b.sample(&mut rng, 500).collect();
        assert_eq!(samples.len(), 500);
        let distinct: std::collections::HashSet<u64> =
            samples.iter().map(|s| s.reward as u64).collect();
        assert!(distinct.len() > 10, "sampling should reach most entries");
    }

    #[test]
    #[should_panic(expected = "empty buffer")]
    fn sample_empty_panics() {
        let b = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = b.sample(&mut rng, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _ = ReplayBuffer::new(0);
    }
}
