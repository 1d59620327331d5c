#ifndef TRAJ2HASH_SERVE_COALESCER_H_
#define TRAJ2HASH_SERVE_COALESCER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/deadline.h"
#include "common/thread_pool.h"
#include "core/model.h"
#include "serve/stats.h"
#include "traj/trajectory.h"

namespace traj2hash::serve {

struct BatchCoalescerOptions {
  /// Flush as soon as this many queries are pending.
  int max_batch = 8;
  /// Bounded wait: a batch never forms for longer than this past its first
  /// query's arrival, even when more arrivals keep trickling in.
  int64_t max_wait_us = 200;
  /// Deadline guard: the batch also never waits past any pending query's
  /// deadline minus this margin (the margin buys the encode itself time).
  int64_t deadline_margin_us = 100;
  /// Optional: number of queries currently admitted anywhere in the serving
  /// pipeline (the engine wires AdmissionController::in_flight here). With
  /// it, the idle flush — which skips the bounded wait — only fires when
  /// every admitted query is already in the forming batch: a truly idle
  /// engine keeps the lone-query latency of an uncoalesced encode, while
  /// under load queries mid-probe/rank count as "more arrivals are coming"
  /// and the leader lingers for them (still bounded by max_wait and the
  /// deadline guard). Unset (the default), only BeginApproach announcements
  /// and in-flight encodes suppress the idle flush.
  std::function<int()> engine_load = nullptr;
};

/// Groups concurrently arriving single-query encodes into one
/// `Traj2Hash::EmbedBatch` call (DESIGN.md §15). The first query of a
/// generation becomes the *leader*: it waits — bounded as above — for
/// companions, then encodes the whole batch on the caller's thread (fanning
/// over the worker pool via EmbedBatch) and hands each follower its
/// embedding.
/// Leadership is released before the encode runs, so the next generation
/// forms while the previous one is still encoding.
///
/// The wait ends immediately when waiting buys nothing — when the encode
/// resource is idle AND no further arrival is en route. Callers announce an
/// admitted query with `BeginApproach` before calling `Embed` (which
/// consumes the announcement), so "pending == everyone en route" is
/// detectable; a caller that bails between the two (cache hit, expired
/// deadline) must call `EndApproach` instead. While a previous generation
/// is still encoding, the leader keeps lingering (bounded by max_wait and
/// the deadline guard) even with nobody en route: the encode resource is
/// busy anyway, so the wait is free and every arrival it absorbs is one
/// forward pass saved — this is what makes batches form under concurrent
/// load, where closed-loop arrivals rarely overlap inside the microseconds
/// between admission and Embed.
///
/// Bit-identity: EmbedBatch runs the same per-trajectory forward pass as
/// `Traj2Hash::Embed`, so a coalesced embedding (and its sign-packed code)
/// equals the uncoalesced one bit for bit, and the probe/rank stages behave
/// identically downstream.
///
/// Threading: `Embed` must only be called from external threads (never
/// from inside the worker pool — it both blocks on the leader and calls
/// ThreadPool::RunAll, see that class's deadlock note). Any number of
/// external threads may call it concurrently.
class BatchCoalescer {
 public:
  /// `model` and `pool` must outlive the coalescer.
  BatchCoalescer(const core::Traj2Hash* model, ThreadPool* pool,
                 const BatchCoalescerOptions& options);

  /// Announces one admitted query headed for Embed (see class comment).
  void BeginApproach();
  /// Withdraws an announcement whose query will not reach Embed.
  void EndApproach();

  /// Blocks until this query's embedding is ready — possibly encoding a
  /// whole batch on this thread as the leader. Requires a prior
  /// BeginApproach (consumed here).
  std::vector<float> Embed(const traj::Trajectory& query,
                           const Deadline& deadline);

  /// Queries per flushed batch (exact integer percentiles).
  OccupancyHistogram::Summary occupancy() const {
    return occupancy_.Summarize();
  }
  /// Flush-cause counters: batch full / bounded wait elapsed / no further
  /// arrival en route.
  uint64_t flushes_full() const {
    return flushes_full_.load(std::memory_order_relaxed);
  }
  uint64_t flushes_deadline() const {
    return flushes_deadline_.load(std::memory_order_relaxed);
  }
  uint64_t flushes_idle() const {
    return flushes_idle_.load(std::memory_order_relaxed);
  }

  const BatchCoalescerOptions& options() const { return options_; }

 private:
  struct Slot {
    const traj::Trajectory* query = nullptr;
    Deadline deadline;
    std::vector<float> embedding;
    bool taken = false;  ///< absorbed into a flushed batch
    bool done = false;   ///< embedding is ready
  };

  /// Runs one generation as its leader: bounded wait, flush, encode,
  /// deliver. Entered and left with `lock` held.
  void LeadLocked(std::unique_lock<std::mutex>& lock);

  const core::Traj2Hash* model_;
  ThreadPool* pool_;
  const BatchCoalescerOptions options_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot*> pending_;  // the forming generation
  bool leader_active_ = false;
  /// Queries announced via BeginApproach that have not yet joined
  /// `pending_` (or withdrawn). The idle-flush rule: when this is zero AND
  /// no flushed batch is still encoding, nobody else is coming, the encode
  /// resource is free, and waiting buys nothing.
  int en_route_ = 0;
  /// Flushed batches currently inside their encode (Embed/EmbedBatch).
  /// While positive, a forming generation's leader lingers instead of
  /// idle-flushing — see the class comment.
  int encoding_ = 0;

  OccupancyHistogram occupancy_;
  std::atomic<uint64_t> flushes_full_{0};
  std::atomic<uint64_t> flushes_deadline_{0};
  std::atomic<uint64_t> flushes_idle_{0};
};

}  // namespace traj2hash::serve

#endif  // TRAJ2HASH_SERVE_COALESCER_H_
