#ifndef TRAJ2HASH_SERVE_ENGINE_H_
#define TRAJ2HASH_SERVE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/model.h"
#include "search/knn.h"
#include "search/strategy.h"
#include "serve/admission.h"
#include "serve/coalescer.h"
#include "serve/result_cache.h"
#include "serve/sharded_index.h"
#include "serve/stats.h"
#include "traj/trajectory.h"

namespace traj2hash::serve {

struct QueryEngineOptions {
  int num_threads = 4;  ///< worker pool size
  int num_shards = 4;   ///< database partitions (fixed for the engine's life)
  /// Per-shard Hamming engine (DESIGN.md §9). All strategies return
  /// bit-identical results; kMih is the fast default, kRadius2 / kBrute are
  /// the reference oracles.
  search::SearchStrategy strategy = search::SearchStrategy::kMih;
  int mih_substrings = 0;  ///< MIH substring count (0 = ceil(B/16))
  /// Admission control (DESIGN.md §11): at most this many queries in flight
  /// at once; extra arrivals are shed (kReject -> kUnavailable) or block
  /// the submitter (kBlock). 0 = unbounded, the historical behaviour.
  int queue_depth = 0;
  OverloadPolicy overload_policy = OverloadPolicy::kReject;
  /// Per-shard background-compaction trigger (ingest::LiveIndexOptions):
  /// rebuild a shard's base once this many rows are tombstoned or sitting in
  /// the delta AND they exceed `compact_ratio` of the shard's physical rows.
  int compact_min_ops = 64;
  double compact_ratio = 0.25;
  /// Query front-end (DESIGN.md §15). Coalescing groups concurrently
  /// admitted Query()/QueryRerank() calls into one EmbedBatch forward pass
  /// under a deadline-aware bounded wait; results stay bit-identical to the
  /// uncoalesced path. Off by default (the historical behaviour).
  bool enable_coalescing = false;
  int max_batch = 8;          ///< coalescer flush size
  int64_t max_wait_us = 200;  ///< coalescer bounded wait per batch
  /// Epoch-keyed result cache capacity (entries); 0 disables caching.
  /// Cached results are invalidated by the index mutation epoch, so churn
  /// can never serve stale neighbours.
  int cache_entries = 0;
  /// Result-cache byte budget (approximate, per-entry size accounted: key
  /// geometry + k neighbours + node overhead); 0 = unbounded. Applies on
  /// top of cache_entries, so long-geometry workloads cannot blow past the
  /// budget while staying under the entry count.
  size_t cache_max_bytes = 0;
  /// Quantized embedding store (DESIGN.md §17): embeddings live as per-dim
  /// int8 rows (~4× fewer resident bytes) and QueryRerank runs the
  /// two-stage quantized re-ranker, bit-identical to a float scan over the
  /// stored lattice. Hamming serving (Query/QueryBatch) is unaffected —
  /// codes are never quantized.
  bool quantize = false;
  /// Hamming candidates each shard re-ranks per QueryRerank;
  /// 0 = max(8·k, 64).
  int rerank_candidates = 0;
};

/// Per-query degradation knobs, threaded through every query entry point
/// down to the per-shard probe loop. Defaults (infinite deadline, partials
/// allowed) reproduce the historical behaviour bit-for-bit.
struct QueryOptions {
  /// Stop probing once this expires; MIH additionally checks it between
  /// radius rounds inside a shard. Infinite by default.
  Deadline deadline;
  /// On expiry: true returns the best-effort merge of the completed shard
  /// probes (sorted, possibly missing true neighbours); false returns an
  /// empty result. Either way `QueryResult::complete` is false and `status`
  /// is kDeadlineExceeded.
  bool allow_partial = true;
};

/// Result of one top-k query.
struct QueryResult {
  std::vector<search::Neighbor> neighbors;  ///< sorted by (distance, id)
  /// False when the result may be missing neighbours: the deadline expired
  /// mid-query (status kDeadlineExceeded) or admission shed the query
  /// before it ran (status kUnavailable, neighbors empty).
  bool complete = true;
  Status status;  ///< OK exactly when `complete`
};

/// Concurrent query-serving engine over a trained Traj2Hash model and a
/// sharded Hamming index. `Query`, `QueryRerank` and `QueryBatch` share one
/// staged path (DESIGN.md §7): deadline fail-fast -> cache -> encode ->
/// probe (per-shard top-k, or per-shard re-rank for QueryRerank) -> rank
/// (deterministic merge) -> cache publish. Every executed request records
/// its own encode, probe, rank and total latency into a `ServeStats` that
/// can be snapshot while serving; a cache hit records total only.
///
/// Concurrency model: `Insert`, `Remove`, `Update`, `Query`, `QueryRerank`
/// and `QueryBatch` are all safe to call from any number of external
/// threads at once; shard compactions triggered by mutations run as
/// background pool tasks without blocking readers. A single `Query` or
/// `QueryRerank` fans its shard probes out across the worker pool;
/// `QueryBatch` instead runs one pool task per query (each probing its
/// shards serially), which is the throughput-optimal shape when queries
/// outnumber workers. Model encoding is read-only over the trained
/// parameters, so it parallelises freely.
///
/// Robustness (DESIGN.md §11): queries carry an optional deadline and
/// degrade to explicit partial results instead of blocking; admission
/// control bounds in-flight queries; the encoded corpus can be checkpointed
/// to a crash-safe snapshot and restored on boot.
class QueryEngine {
 public:
  /// `model` must be trained (or at least constructed) and outlive the
  /// engine. The code width is taken from the model config (d_h = dim).
  QueryEngine(const core::Traj2Hash* model, const QueryEngineOptions& options);

  /// Encodes, hashes and stores one trajectory; returns its global id.
  /// Thread-safe against concurrent queries and mutations. Only fails when
  /// a WAL is attached (Recover) and the record cannot be made durable.
  Result<int> Insert(const traj::Trajectory& t);

  /// Bulk load: trajectories are encoded in parallel on the worker pool but
  /// inserted in order (one group commit under a WAL), so ids always equal
  /// the input positions (offset by the current size). Must not be called
  /// from inside a pool task.
  Status InsertAll(const std::vector<traj::Trajectory>& ts);

  /// Tombstones entry `id`; it stops appearing in query results
  /// immediately. kNotFound if `id` was never assigned or already removed.
  /// May schedule a background compaction of the affected shard.
  Status Remove(int id);

  /// Re-encodes `t` and replaces entry `id` in place (same global id).
  /// kNotFound if `id` is not live.
  Status Update(int id, const traj::Trajectory& t);

  /// Single top-k query with parallel shard fan-out. Must not be called
  /// from inside a pool task (see ThreadPool::RunAll); external callers may
  /// overlap freely. Subject to admission control; an admitted query with
  /// the default options always returns complete.
  QueryResult Query(const traj::Trajectory& query, int k,
                    const QueryOptions& options = QueryOptions());

  /// Batched top-k: one worker task per admitted query runs the same
  /// staged path as Query, encoding directly and probing its shards
  /// serially, so results are bit-identical to Query's. Results are
  /// positionally aligned with `queries`. Under a bounded kReject queue the
  /// shed pattern is deterministic — the first `queue_depth` queries are
  /// admitted, later ones shed with kUnavailable — and shed queries are
  /// never encoded. Must not be called from inside a pool task (it waits
  /// for the tasks it submits).
  std::vector<QueryResult> QueryBatch(
      const std::vector<traj::Trajectory>& queries, int k,
      const QueryOptions& options = QueryOptions());

  /// Euclidean re-rank query: embeds `query`, takes each shard's
  /// `rerank_candidates` Hamming-nearest entries and re-ranks them by
  /// embedding distance (bit-identical to ShardedIndex::QueryRerankTopK —
  /// the two-stage quantized re-ranker under `quantize`, the exact float
  /// scan otherwise). Same path and rules as Query: admission control, the
  /// deadline (checked before encoding and before each shard; a started
  /// shard re-rank runs to completion), the coalescer and the result cache,
  /// where re-rank results live under their own keys.
  QueryResult QueryRerank(const traj::Trajectory& query, int k,
                          const QueryOptions& options = QueryOptions());

  /// Checkpoints the encoded corpus (codes + embeddings, crash-safely) /
  /// restores it without re-encoding. Load requires an empty engine; see
  /// ShardedIndex::{Save,Load}Snapshot for the format and failure modes.
  Status SaveSnapshot(const std::string& path) const {
    return index_.SaveSnapshot(path);
  }
  Status LoadSnapshot(const std::string& path) {
    return index_.LoadSnapshot(path);
  }

  /// Boot-time recovery (DESIGN.md §12): loads `snapshot_path` if that file
  /// exists, replays `wal_path`, and keeps the WAL attached — every later
  /// mutation is then logged + fsynced before it is acknowledged. Requires
  /// an empty engine.
  Status Recover(const std::string& snapshot_path, const std::string& wal_path) {
    return index_.Recover(snapshot_path, wal_path);
  }

  /// Durable checkpoint: snapshot + WAL reset as one cut (see
  /// ShardedIndex::Checkpoint). Without a WAL this is just SaveSnapshot.
  Status Checkpoint(const std::string& path) { return index_.Checkpoint(path); }

  /// Synchronously rebuilds every shard's strategy base from its delta +
  /// tombstones. Mutations normally compact in the background once the
  /// per-shard trigger fires; this forces the rebuild now — e.g. right
  /// after a bulk load, so queries hit the strategy engine instead of the
  /// delta's flat scan.
  void CompactAll() { index_.CompactAll(); }

  /// Per-stage latency snapshot (thread-safe while serving).
  ServeStats::Snapshot stats() const { return stats_.Summarize(); }

  /// Front-end (coalescer + result cache) counters, plus the current
  /// mutation epoch. Zeros where the corresponding feature is disabled.
  FrontendSnapshot frontend_stats() const;

  /// Quantized-store gauge + two-stage re-ranker counters (DESIGN.md §17).
  /// `resident_bytes` is meaningful in float mode too — it is the
  /// comparison baseline for the ~4× cut.
  QuantSnapshot quant_stats() const;

  /// Index mutation epoch (see ShardedIndex::mutation_epoch).
  uint64_t mutation_epoch() const { return index_.mutation_epoch(); }

  /// Clears stage statistics. Safe while serving (see
  /// LatencyHistogram::Reset); in-flight queries may contribute a few
  /// samples to the new epoch.
  void ResetStats() { stats_.Reset(); }

  const ShardedIndex& index() const { return index_; }
  /// Mutable index access for the replication layer: replica::Primary wraps
  /// this index so its WAL doubles as the shipping stream (DESIGN.md §13).
  /// Ordinary mutation must still go through Insert/Remove/Update above.
  ShardedIndex* mutable_index() { return &index_; }
  int size() const { return index_.size(); }
  /// Entries currently live (size() minus removals).
  int live_size() const { return index_.live_size(); }
  /// Physical tombstoned rows awaiting compaction.
  int tombstone_count() const { return index_.tombstone_count(); }
  int num_threads() const { return pool_.num_threads(); }
  /// Queries shed by admission control since construction.
  int64_t shed_count() const { return admission_.shed_count(); }

 private:
  /// What each shard computes for a request: its Hamming top-k, or its
  /// Hamming candidates re-ranked by embedding distance.
  enum class Kind : uint8_t { kHamming, kRerank };

  /// The one staged query path (DESIGN.md §7), run by an admitted request:
  /// deadline fail-fast -> cache -> encode -> probe (per-shard fan-out) ->
  /// rank (merge) -> cache publish, recording each stage once. An external
  /// caller (`in_pool` false) fans its shards out on the pool, encodes
  /// through the coalescer and takes the cache's single-flight Acquire; a
  /// pool task probes serially, encodes directly and uses plain
  /// Lookup/Insert, so it never waits on the pool or on another request.
  QueryResult Run(Kind kind, bool in_pool, const traj::Trajectory& query,
                  int k, const QueryOptions& options);

  /// Admit -> Run on the caller's thread -> release (Query, QueryRerank).
  QueryResult Serve(Kind kind, const traj::Trajectory& query, int k,
                    const QueryOptions& options);

  /// Canonical cache key: k + strategy + kind + the query's geometry bytes.
  std::string CacheKey(Kind kind, const traj::Trajectory& query, int k) const;

  /// After a mutation: claims any shard whose compaction trigger fired and
  /// rebuilds it on the worker pool, off the mutator's thread. Queries keep
  /// serving the old base until the new one is installed.
  void MaybeScheduleCompaction();

  const core::Traj2Hash* model_;
  const QueryEngineOptions options_;
  ShardedIndex index_;
  ThreadPool pool_;
  AdmissionController admission_;
  ServeStats stats_;
  std::unique_ptr<BatchCoalescer> coalescer_;  // null = coalescing off
  std::unique_ptr<ResultCache> cache_;         // null = caching off
};

}  // namespace traj2hash::serve

#endif  // TRAJ2HASH_SERVE_ENGINE_H_
