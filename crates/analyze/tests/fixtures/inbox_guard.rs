// Seeded defect: a ReqSync-style drain that holds its buffer lock while
// blocking on the pump inbox (line 12). The wait after the guard is
// dropped (line 15) is fine.

struct Patcher;

impl Patcher {
    fn await_completions(&self) {
        let buffered = self.buffered.lock();
        self.inbox.watch(&buffered.unwatched);
        let done = self
            .inbox.wait_drain();
        buffered.patch(done);
        drop(buffered);
        let more = self.inbox.wait_drain();
        self.patch(more);
    }
}
