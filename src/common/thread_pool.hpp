// A small chunked thread pool for data-parallel batch work (no external
// dependencies). Workers are started once and reused across calls;
// parallel_for() hands out index chunks from a shared atomic counter so
// uneven per-item cost self-balances (work sharing — the chunked cousin of
// work stealing, which a single shared queue makes unnecessary here).
//
// The calling thread participates as worker 0, so a pool constructed with
// `threads == 1` spawns no OS threads at all and parallel_for() degrades
// to a plain loop — the sequential and parallel code paths are the same
// code. Worker indices are stable within a call, which is what lets
// callers keep per-worker scratch arenas (see core/batch_route_engine.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

#include "common/mutex.hpp"

namespace dbn {

class ThreadPool {
 public:
  /// Body of a parallel loop: half-open index range [begin, end) plus the
  /// executing worker's index in [0, thread_count()).
  ///
  /// A non-owning view rather than a std::function: parallel_for only
  /// borrows the callable for the duration of the (blocking) call, and a
  /// std::function would heap-allocate for every capture-heavy lambda —
  /// which would break the batch engine's zero-allocation steady state
  /// (pinned by the operator-new counting tests).
  class ChunkBody {
   public:
    template <typename F>
    ChunkBody(const F& f)  // NOLINT(google-explicit-constructor)
        : ctx_(&f), invoke_([](const void* ctx, std::size_t begin,
                               std::size_t end, std::size_t worker) {
            (*static_cast<const F*>(ctx))(begin, end, worker);
          }) {}

    void operator()(std::size_t begin, std::size_t end,
                    std::size_t worker) const {
      invoke_(ctx_, begin, end, worker);
    }

   private:
    const void* ctx_;
    void (*invoke_)(const void*, std::size_t, std::size_t, std::size_t);
  };

  /// A pool of `threads` workers total (the caller counts as one);
  /// 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Runs `body` over [0, total) in chunks of `chunk_size` (clamped to
  /// >= 1), dynamically scheduled across all workers. Blocks until every
  /// chunk is done. The first exception thrown by any chunk aborts the
  /// remaining chunks and is rethrown on the calling thread. Not
  /// reentrant: one parallel_for at a time per pool.
  void parallel_for(std::size_t total, std::size_t chunk_size,
                    const ChunkBody& body);

  /// Resolves the constructor's `threads` argument the way the pool does.
  static std::size_t resolve_thread_count(std::size_t threads);

  /// The worker index of the pool chunk executing on this thread, or
  /// `no_worker` outside of one. Lets instrumentation deep inside a chunk
  /// body find its lane without plumbing the index through every call.
  static constexpr std::size_t no_worker = static_cast<std::size_t>(-1);
  static std::size_t current_worker();

 private:
  void worker_main(std::size_t worker_index);
  // DBN_NO_THREAD_SAFETY_ANALYSIS: the one sanctioned unchecked reader of
  // the job fields — run_chunks executes between a generation_ observation
  // and the active_workers_ decrement, both under mutex_, so body_/total_/
  // chunk_size_ are frozen for its whole execution (the happens-before
  // rationale on the fields below).
  void run_chunks(std::size_t worker_index) DBN_NO_THREAD_SAFETY_ANALYSIS;  // dbn-lint: allow(tsa-exemption) job fields are frozen while it runs (see above)

  std::vector<std::thread> workers_;

  Mutex mutex_;
  CondVar start_cv_;
  CondVar done_cv_;
  bool stopping_ DBN_GUARDED_BY(mutex_) = false;
  // Bumped per parallel_for; wakes workers.
  std::uint64_t generation_ DBN_GUARDED_BY(mutex_) = 0;
  // Helpers still inside the current job.
  std::size_t active_workers_ DBN_GUARDED_BY(mutex_) = 0;

  // Current job (valid while active_workers_ > 0 or the caller is inside
  // parallel_for). Concurrency audit: the plain fields are written by
  // parallel_for under mutex_ and read by workers (run_chunks, exempted
  // above) only after they observe the matching generation_ bump under the
  // same mutex, so the lock — not the atomic — provides the happens-before
  // edge. `next_` is the lone cross-thread atomic and is used purely as a
  // work counter with relaxed ordering (rationale at each use in
  // thread_pool.cpp and in docs/static_analysis.md).
  const ChunkBody* body_ DBN_GUARDED_BY(mutex_) = nullptr;
  std::size_t total_ DBN_GUARDED_BY(mutex_) = 0;
  std::size_t chunk_size_ DBN_GUARDED_BY(mutex_) = 1;
  std::atomic<std::size_t> next_{0};
  std::exception_ptr first_error_ DBN_GUARDED_BY(mutex_);
};

}  // namespace dbn
