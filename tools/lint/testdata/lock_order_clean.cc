// lock-order: non-firing look-alikes. Nested locking is fine as long as
// every path agrees on one global order.

#include "util/mutex.h"

namespace monkeydb {

namespace {
// Generic helper locking a caller-supplied mutex: the parameter aliases
// a lock already represented at the call site, so it forms no node.
void FlushCounters(Mutex* mu) {
  MutexLock lock(mu);
}
}  // namespace

class Dispatcher {
 public:
  // Direct nesting in the canonical order: intake before dispatch.
  void Enqueue(int item) {
    MutexLock intake_lock(&intake_mu_);
    intake_depth_ += item;
    MutexLock dispatch_lock(&dispatch_mu_);
    dispatch_depth_++;
  }

  // Interprocedural edge in the same direction: still acyclic.
  void Promote() {
    MutexLock intake_lock(&intake_mu_);
    intake_depth_--;
    LockedDispatchCount();
  }

  int LockedDispatchCount() {
    MutexLock dispatch_lock(&dispatch_mu_);
    return dispatch_depth_;
  }

  // Needs the locks in the wrong order, so it releases dispatch_mu_
  // around the intake acquisition: the ScopedUnlock window means no
  // reverse edge is recorded.
  void Requeue() {
    MutexLock dispatch_lock(&dispatch_mu_);
    dispatch_depth_--;
    {
      ScopedUnlock window(&dispatch_mu_);
      MutexLock intake_lock(&intake_mu_);
      intake_depth_++;
    }
  }

  // Calling the generic helper while holding intake_mu_ adds no edge:
  // the helper's lock is not a resolvable global node.
  void ReportLoad() {
    MutexLock intake_lock(&intake_mu_);
    FlushCounters(&dispatch_mu_);
  }

 private:
  Mutex intake_mu_;
  Mutex dispatch_mu_;
};

// Calls resolve by name, so sink_->Drain() also reaches Journal::Drain,
// which takes journal_mu_ and then sink_mu_. Append holds sink_mu_, so
// the unannotated call would close a journal_mu_ <-> sink_mu_ cycle; the
// annotation vouches that this call takes no lock, and no edge is added.
class Sink {
 public:
  void Drain() {}
};

class Journal {
 public:
  void Drain() {
    MutexLock journal_lock(&journal_mu_);
    WriteOut();
  }

  void WriteOut() {
    MutexLock sink_lock(&sink_mu_);
    pending_ = 0;
  }

  void Append() {
    MutexLock sink_lock(&sink_mu_);
    pending_++;
    // monkey-lint: lock-order — Sink::Drain takes no lock.
    sink_->Drain();
  }

 private:
  Mutex journal_mu_;
  Mutex sink_mu_;
  Sink* sink_ = nullptr;
  int pending_ = 0;
};

}  // namespace monkeydb
