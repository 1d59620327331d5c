#ifndef TRAJ2HASH_SERVE_SHARDED_INDEX_H_
#define TRAJ2HASH_SERVE_SHARDED_INDEX_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "ingest/live_index.h"
#include "ingest/wal.h"
#include "search/code.h"
#include "search/knn.h"
#include "search/strategy.h"

namespace traj2hash::serve {

/// Partitions a live code + embedding database across S shards, each an
/// `ingest::LiveIndex` (immutable base + mutable delta + tombstones, its own
/// reader/writer lock). Queries fan out with per-shard shared locks, so
/// concurrent reads never block each other; mutations lock one shard
/// exclusively. Global ids are assigned round-robin (`shard = id % S`) and
/// never reused, which makes a sequentially-filled ShardedIndex return
/// results bit-identical to a single index over the same data, for any
/// shard count — the merge ranks by the repo-wide (distance, id) order
/// (`search::NeighborLess`).
///
/// The per-shard engine is selected by `search::SearchStrategy`
/// (kMih by default; kRadius2 / kBrute kept as reference oracles). Every
/// strategy's per-shard top-k equals the shard's brute-force top-k over its
/// live entries, so the fan-out + merge result is strategy-independent.
///
/// Durability (DESIGN.md §12): with a WAL attached (AttachWal / Recover),
/// every mutation is appended + fsynced to the log *before* it is applied
/// and acknowledged, under one commit mutex — so the log order equals the
/// apply order and a crash at any point loses no acknowledged mutation.
/// `Recover` = load snapshot (if present) + idempotently replay the whole
/// WAL; `Checkpoint` = snapshot + WAL reset under the commit mutex. Without
/// a WAL, mutations keep the historical lock-free-per-shard fast path.
class ShardedIndex {
 public:
  /// An empty index of `num_shards` shards for `num_bits`-bit codes.
  /// `mih_substrings` tunes the MIH substring count (0 = ceil(B/16)) and is
  /// ignored by the other strategies. `compact_min_ops`/`compact_ratio`
  /// set the per-shard compaction trigger (ingest::LiveIndexOptions).
  /// `quantize` stores embeddings as per-dim int8 rows (requires
  /// `embedding_dim` > 0; DESIGN.md §17) — queries through
  /// QueryRerankTopK stay bit-identical to a float scan over the stored
  /// lattice, and snapshots switch to the quantized v3 format.
  ShardedIndex(int num_shards, int num_bits,
               search::SearchStrategy strategy = search::SearchStrategy::kMih,
               int mih_substrings = 0, int compact_min_ops = 64,
               double compact_ratio = 0.25, bool quantize = false,
               int embedding_dim = 0);

  /// Inserts one entry; returns its global id (monotone, insertion-ordered).
  /// Thread-safe; without a WAL, concurrent inserts to different shards do
  /// not contend. With a WAL, fails (kIoError) when the record cannot be
  /// made durable — the entry is then not applied and no id is consumed,
  /// but the WAL is poisoned and needs a Recover before further mutations.
  /// `embedding` may be empty if only Hamming serving is needed.
  Result<int> Insert(search::Code code, std::vector<float> embedding);

  /// Bulk insert: ids are assigned as one contiguous block, in input order.
  /// With a WAL all records are appended under one fsync (group commit).
  /// The entries are then applied with one ingest::LiveIndex::InsertBatch
  /// per shard, so a quantize-mode shard calibrates once per batch.
  Status InsertBatch(std::vector<search::Code> codes,
                     std::vector<std::vector<float>> embeddings);

  /// Tombstones a live entry, routed by global id. kNotFound if `id` was
  /// never assigned or is already removed.
  Status Remove(int id);

  /// Replaces a live entry's code + embedding in place (same global id).
  /// kNotFound if `id` is not live.
  Status Update(int id, search::Code code, std::vector<float> embedding);

  /// Fan-out top-k over all shards, merged deterministically by
  /// (distance, global id). With a `pool`, shard probes run as pool tasks
  /// (must not itself be called from inside that pool — see
  /// ThreadPool::RunAll); without one they run serially on the caller.
  std::vector<search::Neighbor> QueryTopK(const search::Code& query, int k,
                                          ThreadPool* pool = nullptr) const;

  /// Euclidean re-rank fan-out: each shard re-ranks its `num_candidates`
  /// (≥ k) Hamming-nearest live entries by embedding distance
  /// (ingest::LiveIndex::RerankTopK — the two-stage quantized re-ranker in
  /// quantize mode, the exact float scan otherwise), and the per-shard
  /// top-ks merge under (distance, global id). Entries without embeddings
  /// are skipped.
  std::vector<search::Neighbor> QueryRerankTopK(
      const search::Code& query, const std::vector<float>& query_embedding,
      int k, int num_candidates, ThreadPool* pool = nullptr) const;

  bool quantize() const { return quantize_; }
  int embedding_dim() const { return embedding_dim_; }

  /// Bytes resident for embedding storage, summed over shards (the gauge
  /// behind the quantized store's ~4× cut).
  size_t embedding_resident_bytes() const;

  /// Two-stage re-ranker counters, summed over shards.
  quant::RerankSnapshot rerank_stats() const;

  /// Top-k of one shard (global ids). Exposed so the engine can instrument
  /// the probe stage per shard.
  std::vector<search::Neighbor> ShardTopK(int shard,
                                          const search::Code& query,
                                          int k) const;

  /// Deadline-aware variant: the MIH strategy checks `deadline` between its
  /// radius rounds and degrades to a best-effort (still sorted) partial
  /// result, reported through `*complete`; the single-shot strategies
  /// (brute, radius2) run to completion once started. An infinite deadline
  /// makes this identical to the plain overload.
  std::vector<search::Neighbor> ShardTopK(int shard,
                                          const search::Code& query, int k,
                                          const Deadline& deadline,
                                          bool* complete) const;

  /// Serialises every live entry (global id order, explicit ids, codes +
  /// embeddings) into a versioned, CRC32-checksummed snapshot written
  /// crash-safely (temp file + fsync + atomic rename): a crash or failure
  /// at any point leaves an existing snapshot at `path` untouched. Removed
  /// ids appear as gaps below the stored next-id watermark. Safe to call
  /// while serving (each shard's contribution is internally consistent);
  /// for an exact point-in-time cut under concurrent durable mutations use
  /// Checkpoint.
  Status SaveSnapshot(const std::string& path) const;

  /// Rebuilds the index from a snapshot written by SaveSnapshot — this
  /// format (v2, explicit ids + tombstone gaps) or the legacy v1 (dense
  /// ids). The index must be empty (kFailedPrecondition otherwise); the
  /// shard count and strategy may differ from the writer's, because
  /// id-routed placement and the strategy-independent probe make results
  /// bit-identical either way. Truncated or bit-flipped files fail with
  /// kDataLoss, files of an unknown format version with
  /// kFailedPrecondition, and a num_bits mismatch with kInvalidArgument —
  /// in every case the index stays empty.
  Status LoadSnapshot(const std::string& path);

  /// Boot-time recovery: loads `snapshot_path` if the file exists (a
  /// missing snapshot is a cold start, any other load failure aborts the
  /// recovery), then opens `wal_path` (creating it, truncating a torn
  /// tail) and replays every record idempotently — upsert semantics make
  /// the result independent of which prefix the snapshot already contained.
  /// On success the WAL stays attached: all further mutations are durable.
  /// Requires an empty index with no WAL attached.
  Status Recover(const std::string& snapshot_path,
                 const std::string& wal_path);

  /// Attaches a WAL without a snapshot (fresh database). Equivalent to
  /// `Recover("", wal_path)`.
  Status AttachWal(const std::string& wal_path);

  /// Replication apply path (DESIGN.md §13): applies one WAL record shipped
  /// from a primary, with the same idempotent upsert / tolerant-remove
  /// semantics as boot-time replay. Refused (kFailedPrecondition) when this
  /// index has its own WAL attached — a replica must never re-log the
  /// primary's records, or a checkpoint race could fork the two histories.
  /// Thread-safe against concurrent queries; the caller (one ship loop per
  /// replica) serialises apply order.
  Status ApplyShipped(const ingest::WalRecord& record);

  /// Highest WAL sequence number committed (appended + fsynced + applied)
  /// so far; 0 without a WAL. Taken under the commit mutex, so it never
  /// reports a record that is still mid-commit — a replica caught up to
  /// this seq has applied every acknowledged mutation.
  uint64_t wal_last_seq() const;

  /// Durable checkpoint: under the commit mutex (no mutation can be mid-
  /// commit), saves a snapshot and then resets the WAL. A crash between the
  /// two steps is safe — recovery replays the whole WAL over the new
  /// snapshot, and replay is idempotent. Without a WAL this is just
  /// SaveSnapshot.
  Status Checkpoint(const std::string& path);

  /// Deterministic merge used by QueryTopK: the k smallest candidates of the
  /// union under (distance, id); duplicate-free inputs assumed (shards are
  /// disjoint).
  static std::vector<search::Neighbor> MergeTopK(
      const std::vector<std::vector<search::Neighbor>>& per_shard, int k);

  /// Copy of the stored embedding of `id` (empty if none was supplied or
  /// the entry is no longer live). `id` must have been assigned.
  std::vector<float> EmbeddingOf(int id) const;

  /// Ids assigned so far (monotone watermark; includes removed entries).
  int size() const { return next_id_.load(std::memory_order_acquire); }
  /// Entries currently live (size() minus removals and burned ids).
  int live_size() const;
  /// Physical tombstoned rows awaiting compaction, summed over shards.
  int tombstone_count() const;
  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_bits() const { return num_bits_; }
  search::SearchStrategy strategy() const { return strategy_; }
  bool wal_attached() const { return wal_ != nullptr; }
  /// Completed compactions, summed over shards.
  int compactions_run() const;

  /// Monotonic mutation epoch, summed over shards. Each shard's counter
  /// only grows, so the sum is monotone and two equal reads bracketing a
  /// probe prove every shard was untouched in between — the invariant the
  /// result cache's stable-epoch insertion rule relies on (DESIGN.md §15).
  /// Relaxed per-shard reads; see ingest::LiveIndex::mutation_epoch.
  uint64_t mutation_epoch() const {
    uint64_t sum = 0;
    for (const auto& shard : shards_) sum += shard->mutation_epoch();
    return sum;
  }

  /// Background-compaction hooks (see ingest::LiveIndex): a mutator's owner
  /// claims a shard whose trigger fired, then runs the rebuild off-thread.
  bool ClaimCompaction(int shard) {
    return shards_[shard]->ClaimCompaction();
  }
  void RunClaimedCompaction(int shard) {
    shards_[shard]->RunClaimedCompaction();
  }
  /// Synchronously compacts every shard (tests/tools).
  void CompactAll();

  /// Direct access to one shard (tests; the engine's per-shard re-rank).
  const ingest::LiveIndex& shard(int i) const { return *shards_[i]; }

 private:
  int ShardOf(int global_id) const {
    return global_id % static_cast<int>(shards_.size());
  }

  /// Applies one replayed WAL record (idempotent: upsert / tolerant
  /// remove), advancing the id watermark past every mentioned id.
  /// kDataLoss on structurally impossible records (negative id, wrong code
  /// width).
  Status ApplyReplayed(const ingest::WalRecord& record);

  /// Applies entries whose ids are fresh and unique: one
  /// LiveIndex::InsertBatch per shard, rows in input order within a shard.
  /// Shared by InsertBatch and LoadSnapshot.
  void ApplyFresh(const std::vector<int>& ids,
                  std::vector<search::Code> codes,
                  std::vector<std::vector<float>> embeddings);

  /// Appends `records` to the WAL and fsyncs once. Caller holds wal_mu_.
  Status CommitLocked(std::vector<ingest::WalRecord> records);

  const int num_bits_;
  const search::SearchStrategy strategy_;
  const bool quantize_;
  const int embedding_dim_;
  // Heap-allocated so the LiveIndex's internal mutex never moves.
  std::vector<std::unique_ptr<ingest::LiveIndex>> shards_;
  std::atomic<int> next_id_{0};

  /// Commit mutex: held across WAL append + fsync + in-memory apply of
  /// every durable mutation, and across Checkpoint's snapshot + reset — so
  /// the WAL order equals the apply order and a checkpoint can never drop a
  /// racing acknowledged write. Queries never take it.
  mutable std::mutex wal_mu_;
  std::unique_ptr<ingest::Wal> wal_;
};

}  // namespace traj2hash::serve

#endif  // TRAJ2HASH_SERVE_SHARDED_INDEX_H_
