#include "serve/engine.h"

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"

namespace traj2hash::serve {

namespace {

/// A result that did not run to completion: shed, or past its deadline.
QueryResult Incomplete(Status status) {
  QueryResult result;
  result.complete = false;
  result.status = std::move(status);
  return result;
}

}  // namespace

QueryEngine::QueryEngine(const core::Traj2Hash* model,
                         const QueryEngineOptions& options)
    : model_(model),
      options_(options),
      index_(options.num_shards, model != nullptr ? model->config().dim : 1,
             options.strategy, options.mih_substrings,
             options.compact_min_ops, options.compact_ratio, options.quantize,
             model != nullptr ? model->config().dim : 1),
      pool_(options.num_threads),
      admission_(options.queue_depth, options.overload_policy) {
  T2H_CHECK(model != nullptr);
  if (options.enable_coalescing) {
    BatchCoalescerOptions copts;
    copts.max_batch = options.max_batch;
    copts.max_wait_us = options.max_wait_us;
    // Pipeline-aware idle flush: queries mid-probe/rank (or served from the
    // cache) count as load, so a leader lingers for them instead of
    // flushing a singleton the moment the encode resource looks free.
    copts.engine_load = [this] { return admission_.in_flight(); };
    coalescer_ = std::make_unique<BatchCoalescer>(model, &pool_, copts);
  }
  if (options.cache_entries > 0) {
    cache_ = std::make_unique<ResultCache>(options.cache_entries,
                                           options.cache_max_bytes);
  }
}

Result<int> QueryEngine::Insert(const traj::Trajectory& t) {
  std::vector<float> embedding = model_->Embed(t);
  search::Code code = search::PackSigns(embedding);
  Result<int> id = index_.Insert(std::move(code), std::move(embedding));
  if (id.ok()) MaybeScheduleCompaction();
  return id;
}

Status QueryEngine::InsertAll(const std::vector<traj::Trajectory>& ts) {
  if (ts.empty()) return Status::Ok();
  // Encode in parallel on the pool (the dominant cost), then insert as one
  // batch: global ids follow input order, a WAL commits the whole batch
  // with one fsync, and each shard applies its rows in one bulk call
  // (ShardedIndex::InsertBatch).
  std::vector<std::vector<float>> embeddings = model_->EmbedBatch(ts, &pool_);
  std::vector<search::Code> codes;
  codes.reserve(embeddings.size());
  for (const std::vector<float>& embedding : embeddings) {
    codes.push_back(search::PackSigns(embedding));
  }
  const Status inserted =
      index_.InsertBatch(std::move(codes), std::move(embeddings));
  if (inserted.ok()) MaybeScheduleCompaction();
  return inserted;
}

Status QueryEngine::Remove(int id) {
  const Status removed = index_.Remove(id);
  if (removed.ok()) MaybeScheduleCompaction();
  return removed;
}

Status QueryEngine::Update(int id, const traj::Trajectory& t) {
  std::vector<float> embedding = model_->Embed(t);
  search::Code code = search::PackSigns(embedding);
  const Status updated =
      index_.Update(id, std::move(code), std::move(embedding));
  if (updated.ok()) MaybeScheduleCompaction();
  return updated;
}

void QueryEngine::MaybeScheduleCompaction() {
  for (int s = 0; s < index_.num_shards(); ++s) {
    // ClaimCompaction is single-flight per shard, so at most one rebuild of
    // a shard is ever queued; the claim obliges the task to run.
    if (index_.ClaimCompaction(s)) {
      pool_.Submit([this, s] { index_.RunClaimedCompaction(s); });
    }
  }
}

std::string QueryEngine::CacheKey(Kind kind, const traj::Trajectory& query,
                                  int k) const {
  std::string key;
  key.reserve(query.points.size() * 2 * sizeof(double) + 16);
  ResultCache::AppendCanonicalKey(static_cast<int32_t>(k), &key);
  ResultCache::AppendCanonicalKey(static_cast<uint8_t>(index_.strategy()),
                                  &key);
  ResultCache::AppendCanonicalKey(static_cast<uint8_t>(kind), &key);
  ResultCache::AppendCanonicalKey(query, &key);
  return key;
}

QueryResult QueryEngine::Run(Kind kind, bool in_pool,
                             const traj::Trajectory& query, int k,
                             const QueryOptions& options) {
  T2H_CHECK_GE(k, 1);
  // A pool task must never wait on the pool, so it never joins a coalescer
  // generation (the leader blocks on EmbedBatch's RunAll).
  BatchCoalescer* const coalescer = in_pool ? nullptr : coalescer_.get();
  if (coalescer != nullptr) coalescer->BeginApproach();
  Stopwatch total;
  QueryResult result;
  // Fail fast: a deadline that is already gone buys nothing from encoding.
  if (options.deadline.Expired()) {
    if (coalescer != nullptr) coalescer->EndApproach();
    return Incomplete(
        Status::DeadlineExceeded("deadline expired before the encode stage"));
  }

  // Cache: a hit answers without encoding or probing. An external caller
  // takes the single-flight Acquire — a leader owns the probe (and the
  // Publish duty), a follower that could not reuse the flight's result falls
  // through and computes for itself. A pool task takes a plain Lookup: as a
  // blocked flight follower it could starve a leader's RunAll fan-out.
  ResultCache::Ticket ticket;
  ResultCache::Outcome outcome = ResultCache::Outcome::kMiss;
  uint64_t epoch_before = 0;
  std::string key;
  if (cache_ != nullptr) {
    epoch_before = index_.mutation_epoch();
    key = CacheKey(kind, query, k);
    if (!in_pool) {
      outcome = cache_->Acquire(key, epoch_before, options.deadline,
                                &result.neighbors, &ticket);
    } else if (cache_->Lookup(key, epoch_before, &result.neighbors)) {
      outcome = ResultCache::Outcome::kHit;
    }
  }

  if (outcome == ResultCache::Outcome::kHit) {
    // Complete and OK: exactly what the probe would return.
    if (coalescer != nullptr) coalescer->EndApproach();
  } else {
    Stopwatch stage;
    const std::vector<float> embedding =
        coalescer != nullptr
            ? coalescer->Embed(query, options.deadline)  // consumes approach
            : model_->Embed(query);
    const search::Code code = search::PackSigns(embedding);
    stats_.Record(Stage::kEncode, stage.ElapsedMicros());

    stage.Restart();
    const int s = index_.num_shards();
    const int candidates = options_.rerank_candidates > 0
                               ? options_.rerank_candidates
                               : std::max(8 * k, 64);
    std::vector<std::vector<search::Neighbor>> per_shard(s);
    // Per-shard completion flags (uint8_t: pool tasks write them
    // concurrently, which vector<bool> cannot take). A shard is incomplete if
    // the deadline expired before its probe started (the fault point
    // faults::kShardProbe) or mid-probe inside MIH; the re-rank runs to
    // completion once started (bounded by `candidates`).
    std::vector<uint8_t> shard_complete(s, 0);
    // Probes shard i unless the deadline is gone; false = skipped.
    const auto probe = [&](int i) {
      if (options.deadline.Expired(faults::kShardProbe)) return false;
      bool complete = true;
      per_shard[i] =
          kind == Kind::kHamming
              ? index_.ShardTopK(i, code, k, options.deadline, &complete)
              : index_.shard(i).RerankTopK(code, embedding, k, candidates);
      shard_complete[i] = complete ? 1 : 0;
      return true;
    };
    if (!in_pool && s > 1) {
      std::vector<std::function<void()>> tasks;
      tasks.reserve(s);
      for (int i = 0; i < s; ++i) tasks.push_back([&probe, i] { probe(i); });
      pool_.RunAll(std::move(tasks));
    } else {
      // Expired between shards: the remaining shards are skipped, so the
      // merge below degrades to "completed shards only".
      for (int i = 0; i < s && probe(i); ++i) {
      }
    }
    stats_.Record(Stage::kProbe, stage.ElapsedMicros());

    stage.Restart();
    const bool all_complete =
        std::all_of(shard_complete.begin(), shard_complete.end(),
                    [](uint8_t c) { return c != 0; });
    if (!all_complete) {
      result = Incomplete(Status::DeadlineExceeded(
          "deadline expired mid-probe; " +
          std::string(options.allow_partial
                          ? "returning best-effort partial result"
                          : "partial results disallowed")));
    }
    if (all_complete || options.allow_partial) {
      // A partial result is still the k best of everything that was
      // collected, in the same (distance, id) order a complete one uses.
      result.neighbors = ShardedIndex::MergeTopK(per_shard, k);
    }
    stats_.Record(Stage::kRank, stage.ElapsedMicros());

    if (cache_ != nullptr) {
      const uint64_t epoch_after = index_.mutation_epoch();
      const bool usable = result.complete && result.status.ok();
      if (outcome == ResultCache::Outcome::kLead) {
        cache_->Publish(&ticket, epoch_before, epoch_after, usable,
                        result.neighbors);
      } else if (usable) {
        // No flight to publish (pool task, or a fallen-back follower), but
        // the result is still cacheable under the same stable-epoch rule.
        cache_->Insert(key, epoch_before, epoch_after, result.neighbors);
      }
    }
  }
  stats_.Record(Stage::kTotal, total.ElapsedMicros());
  return result;
}

QueryResult QueryEngine::Serve(Kind kind, const traj::Trajectory& query, int k,
                               const QueryOptions& options) {
  const Status admitted = admission_.Admit();
  if (!admitted.ok()) return Incomplete(admitted);
  QueryResult result = Run(kind, /*in_pool=*/false, query, k, options);
  admission_.Release();
  return result;
}

QueryResult QueryEngine::Query(const traj::Trajectory& query, int k,
                               const QueryOptions& options) {
  return Serve(Kind::kHamming, query, k, options);
}

QueryResult QueryEngine::QueryRerank(const traj::Trajectory& query, int k,
                                     const QueryOptions& options) {
  return Serve(Kind::kRerank, query, k, options);
}

std::vector<QueryResult> QueryEngine::QueryBatch(
    const std::vector<traj::Trajectory>& queries, int k,
    const QueryOptions& options) {
  const size_t n = queries.size();
  std::vector<QueryResult> results(n);
  // Admission. Under a bounded kReject queue the whole batch is admitted up
  // front on this thread (Admit never blocks under kReject), which makes the
  // shed pattern deterministic — the first `queue_depth` queries are
  // admitted, every later one is shed — and no shed query is ever encoded.
  // Unbounded and kBlock engines never shed batch queries; they admit each
  // one just before submitting it (kBlock must: admitting the whole batch up
  // front would deadlock against its own not-yet-submitted tasks).
  const bool reject_bounded =
      options_.queue_depth > 0 &&
      options_.overload_policy == OverloadPolicy::kReject;
  if (reject_bounded) {
    for (QueryResult& r : results) r.status = admission_.Admit();
  }

  // One pool task per admitted query, each running the staged path with
  // serial shard fan-out. Tasks are submitted one by one (not through the
  // RunAll barrier) so kBlock admission cannot deadlock: admitted tasks are
  // already running and release their slots as workers finish them.
  std::mutex mu;
  std::condition_variable all_done;
  int outstanding = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!reject_bounded) results[i].status = admission_.Admit();
    if (!results[i].status.ok()) {
      results[i].complete = false;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      ++outstanding;
    }
    pool_.Submit([this, &queries, &results, i, k, &options, &mu, &all_done,
                  &outstanding] {
      results[i] =
          Run(Kind::kHamming, /*in_pool=*/true, queries[i], k, options);
      admission_.Release();
      std::lock_guard<std::mutex> lock(mu);
      if (--outstanding == 0) all_done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  all_done.wait(lock, [&outstanding] { return outstanding == 0; });
  return results;
}

FrontendSnapshot QueryEngine::frontend_stats() const {
  FrontendSnapshot s;
  s.coalescing = coalescer_ != nullptr;
  s.caching = cache_ != nullptr;
  if (coalescer_ != nullptr) {
    s.occupancy = coalescer_->occupancy();
    s.flushes_full = coalescer_->flushes_full();
    s.flushes_deadline = coalescer_->flushes_deadline();
    s.flushes_idle = coalescer_->flushes_idle();
  }
  if (cache_ != nullptr) {
    const ResultCache::Stats cs = cache_->stats();
    s.cache_lookups = cs.lookups;
    s.cache_hits = cs.hits;
    s.cache_misses = cs.misses;
    s.cache_stale = cs.stale;
    s.flight_waits = cs.flight_waits;
    s.flight_served = cs.flight_served;
    s.cache_insertions = cs.insertions;
    s.cache_evictions = cs.evictions;
    s.cache_bytes = cache_->bytes();
  }
  s.epoch = index_.mutation_epoch();
  return s;
}

QuantSnapshot QueryEngine::quant_stats() const {
  QuantSnapshot s;
  s.quantize = index_.quantize();
  s.resident_bytes = index_.embedding_resident_bytes();
  const quant::RerankSnapshot r = index_.rerank_stats();
  s.rerank_queries = r.queries;
  s.rerank_candidates = r.candidates;
  s.rechecked = r.rechecked;
  s.band_violations = r.band_violations;
  s.requant_recheck_rate = r.recheck_rate();
  s.band_width = r.mean_band_width();
  return s;
}

}  // namespace traj2hash::serve
