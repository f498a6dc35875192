// Seeded defect: a guard returned from a helper function held across a
// blocking pump wait (line 15) — invisible to any `let … = x.lock();`
// pattern match.

struct Sync;

impl Sync {
    fn buffer(&self) -> MutexGuard<'_, Buffer> {
        self.inner.lock()
    }

    fn drain(&self) {
        let buf = self.buffer();
        buf.compact();
        self.inbox.wait_drain();
    }
}
