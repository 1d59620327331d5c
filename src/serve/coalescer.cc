#include "serve/coalescer.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"

namespace traj2hash::serve {

BatchCoalescer::BatchCoalescer(const core::Traj2Hash* model, ThreadPool* pool,
                               const BatchCoalescerOptions& options)
    : model_(model), pool_(pool), options_(options) {
  T2H_CHECK(model != nullptr);
  T2H_CHECK_GE(options.max_batch, 1);
}

void BatchCoalescer::BeginApproach() {
  std::lock_guard<std::mutex> lock(mu_);
  ++en_route_;
}

void BatchCoalescer::EndApproach() {
  std::lock_guard<std::mutex> lock(mu_);
  --en_route_;
  // The withdrawal may have made the forming batch complete ("nobody else
  // is coming"); wake the leader to re-evaluate.
  cv_.notify_all();
}

std::vector<float> BatchCoalescer::Embed(const traj::Trajectory& query,
                                         const Deadline& deadline) {
  Slot slot;
  slot.query = &query;
  slot.deadline = deadline;

  std::unique_lock<std::mutex> lock(mu_);
  pending_.push_back(&slot);
  --en_route_;  // consumed the BeginApproach announcement
  cv_.notify_all();
  while (!slot.done) {
    if (!slot.taken && !leader_active_) {
      LeadLocked(lock);
    } else {
      cv_.wait(lock);
    }
  }
  return std::move(slot.embedding);
}

void BatchCoalescer::LeadLocked(std::unique_lock<std::mutex>& lock) {
  leader_active_ = true;
  using Clock = Deadline::Clock;
  const Clock::time_point gen_start = Clock::now();
  const auto max_wait = std::chrono::microseconds(options_.max_wait_us);
  const auto margin = std::chrono::microseconds(options_.deadline_margin_us);

  std::atomic<uint64_t>* cause = nullptr;
  while (cause == nullptr) {
    if (static_cast<int>(pending_.size()) >= options_.max_batch) {
      cause = &flushes_full_;
      break;
    }
    if (en_route_ <= 0 && encoding_ == 0 &&
        (!options_.engine_load ||
         options_.engine_load() <= static_cast<int>(pending_.size()))) {
      // Truly idle: nobody announced, no batch encoding, and every admitted
      // query is already in this batch — waiting cannot buy a companion.
      cause = &flushes_idle_;
      break;
    }
    // Bounded wait: never past the generation's max_wait, and never past
    // any pending deadline minus the margin (the margin buys encode time).
    Clock::time_point flush_by = gen_start + max_wait;
    for (const Slot* s : pending_) {
      if (!s->deadline.infinite()) {
        flush_by = std::min(flush_by, s->deadline.when_or(flush_by) - margin);
      }
    }
    if (Clock::now() >= flush_by) {
      cause = &flushes_deadline_;
      break;
    }
    cv_.wait_until(lock, flush_by);
  }

  std::vector<Slot*> batch = std::move(pending_);
  pending_.clear();
  for (Slot* s : batch) s->taken = true;
  ++encoding_;
  // Release leadership before encoding so the next generation can form
  // (and flush) while this one runs — arrivals never stall behind us.
  leader_active_ = false;
  cv_.notify_all();
  lock.unlock();

  cause->fetch_add(1, std::memory_order_relaxed);
  occupancy_.Record(static_cast<int>(batch.size()));
  if (batch.size() == 1) {
    // Identical to the batch path below, minus the copy into a batch vector.
    batch[0]->embedding = model_->Embed(*batch[0]->query);
  } else {
    std::vector<traj::Trajectory> queries;
    queries.reserve(batch.size());
    for (const Slot* s : batch) queries.push_back(*s->query);
    std::vector<std::vector<float>> embeddings =
        model_->EmbedBatch(queries, pool_);
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i]->embedding = std::move(embeddings[i]);
    }
  }

  lock.lock();
  --encoding_;  // may re-arm the next generation's idle flush
  for (Slot* s : batch) s->done = true;
  cv_.notify_all();
}

}  // namespace traj2hash::serve
