#ifndef TRAJ2HASH_INGEST_LIVE_INDEX_H_
#define TRAJ2HASH_INGEST_LIVE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "quant/quantized_matrix.h"
#include "quant/rerank.h"
#include "search/code.h"
#include "search/flat_storage.h"
#include "search/hamming_index.h"
#include "search/knn.h"
#include "search/mih.h"
#include "search/strategy.h"

namespace traj2hash::ingest {

struct LiveIndexOptions {
  int num_bits = 0;
  search::SearchStrategy strategy = search::SearchStrategy::kMih;
  int mih_substrings = 0;  ///< MIH substring count (0 = ceil(B/16))
  /// Compaction trigger (DESIGN.md §12): rebuild the base once at least
  /// `compact_min_ops` rows are reclaimable (tombstones) or bypassed (delta
  /// rows) AND they exceed `compact_ratio` of all physical rows. Both gates
  /// keep tiny indexes from compacting on every mutation.
  int compact_min_ops = 64;
  double compact_ratio = 0.25;
  /// Store embeddings as per-dimension int8 rows (quant::QuantizedMatrix,
  /// DESIGN.md §17) instead of float vectors — ~4× fewer resident bytes.
  /// Delta rows are quantized on insert under the shard's current params;
  /// while the store is all-delta (before the first compacted base holds an
  /// embedding row) out-of-range rows widen the params in place (InsertBatch
  /// calibrates once over the whole batch), and afterwards they saturate
  /// until a compaction rebuilds the scales. Requires `embedding_dim`.
  bool quantize = false;
  /// Embedding width; required (> 0) when `quantize` is on, so the int8
  /// stores can be sized before the first row arrives.
  int embedding_dim = 0;
};

/// One shard of a mutable Hamming database: an immutable base (indexed by
/// the configured search strategy) plus a small append-only delta (flat
/// scan) and tombstone flags over both. Ids are arbitrary non-negative
/// integers assigned by the caller (serve::ShardedIndex passes global ids),
/// never reused, and unique among live entries.
///
/// Exactness: `TopK` merges the strategy engine's probe of base∖tombstones
/// with a flat scan of delta∖tombstones under the repo-wide (distance, id)
/// order — bit-identical to a brute-force scan of the logical corpus (the
/// live entries), for every strategy. Two invariants make the per-part
/// selections composable: base rows are ordered by ascending id (compaction
/// sorts), so the engines' (distance, row) tie-break equals (distance, id);
/// and the delta scan tie-breaks on the mapped id directly, because
/// concurrent ingest can append delta rows out of id order.
///
/// Concurrency: all methods are thread-safe behind an internal
/// `shared_mutex` — queries share, mutations are exclusive and O(delta
/// append). Compaction (RunClaimedCompaction) rebuilds the base *outside*
/// the lock from an epoch snapshot (`shared_ptr` base + copied delta), then
/// installs under one short exclusive section that reconciles mutations
/// that raced the rebuild; readers are never blocked by the rebuild itself.
class LiveIndex {
 public:
  explicit LiveIndex(const LiveIndexOptions& options);

  /// Adds a new entry: a one-row InsertBatch. kInvalidArgument if `id` is
  /// already live (ids of removed entries may be re-inserted; the serving
  /// layer never does).
  Status Insert(int id, search::Code code, std::vector<float> embedding);

  /// Bulk apply: inserts entry i = (ids[i], codes[i], embeddings[i]) for
  /// every i under one exclusive section. Validates first: an id that is
  /// live or repeated in the batch, or (quantize mode) a non-finite
  /// embedding, fails the whole call with kInvalidArgument and no state
  /// change. In quantize mode an all-delta shard calibrates ONCE over
  /// (current range ∪ every batch row), requantizes the existing delta at
  /// most once, and quantizes each batch row once from its float — so every
  /// batch row lands within half a step of its original and the lattice
  /// does not depend on the batch order. With a compacted embedding base,
  /// the params stay fixed and out-of-range rows saturate. Advances the
  /// mutation epoch once.
  Status InsertBatch(const std::vector<int>& ids,
                     std::vector<search::Code> codes,
                     std::vector<std::vector<float>> embeddings);

  /// Tombstones a live entry. kNotFound if `id` is not live.
  Status Remove(int id);

  /// Replaces a live entry's code + embedding, keeping its id. kNotFound if
  /// `id` is not live.
  Status Update(int id, search::Code code, std::vector<float> embedding);

  /// Replay-idempotent mutation pair: Upsert inserts or replaces, and
  /// RemoveIfPresent returns whether anything was removed. Re-applying a
  /// whole WAL through these converges to the final state (last op per id
  /// wins) regardless of which prefix a snapshot already contains.
  void Upsert(int id, search::Code code, std::vector<float> embedding);
  bool RemoveIfPresent(int id);

  /// Exact top-k over the live entries; `Neighbor::index` is the entry id.
  std::vector<search::Neighbor> TopK(const search::Code& query, int k) const;

  /// Deadline-aware variant: the MIH base probe checks `deadline` between
  /// radius rounds (see search::MihIndex::TopK); the delta scan always runs
  /// to completion. `*complete` is false when the base probe was cut short.
  std::vector<search::Neighbor> TopK(const search::Code& query, int k,
                                     const Deadline& deadline,
                                     bool* complete) const;

  /// Euclidean top-k over the embeddings of the `num_candidates` (≥ k)
  /// Hamming-nearest live entries: the serving re-rank surface. In quantize
  /// mode this is the two-stage re-ranker (quantized-L2 scan over the
  /// gathered candidate rows, exact float re-check of the boundary band —
  /// quant::RerankTopK); in float mode it is the exact float scan. Either
  /// way the result is bit-identical to a float top-k over the candidates'
  /// stored (lattice) embeddings, ties by ascending id. Candidates without
  /// a stored embedding are skipped.
  std::vector<search::Neighbor> RerankTopK(
      const search::Code& query, const std::vector<float>& query_embedding,
      int k, int num_candidates) const;

  bool quantize() const { return options_.quantize; }

  /// Bytes resident for embedding storage (int8 rows + params in quantize
  /// mode; float row payloads otherwise) — the gauge behind the ~4× cut.
  size_t embedding_resident_bytes() const;

  /// Two-stage re-ranker counters (quantize mode; zeros otherwise).
  quant::RerankSnapshot rerank_stats() const {
    return quant::SnapshotCounters(rerank_counters_);
  }

  /// Copy of the shard's current quantization params (empty until the first
  /// embedding-bearing insert). Snapshot/replica writers requantize under
  /// their own global params, so this is a diagnostics surface.
  quant::QuantizationParams ParamsSnapshot() const;

  bool Contains(int id) const;

  /// Copy of the stored embedding of a live `id` (empty if none was
  /// supplied, or if `id` is not live).
  std::vector<float> EmbeddingOf(int id) const;

  /// One live entry as stored.
  struct Entry {
    int id = -1;
    search::Code code;
    std::vector<float> embedding;
  };

  /// All live entries, ascending id — the shard's contribution to a
  /// snapshot, internally consistent under the shard lock.
  std::vector<Entry> SnapshotEntries() const;

  int live_size() const;
  /// Physical dead rows (base + delta) pending compaction; drops to zero
  /// after a completed compaction.
  int tombstone_count() const;
  int delta_size() const;
  int compactions_run() const {
    return compactions_run_.load(std::memory_order_acquire);
  }

  /// Monotonic mutation epoch: advances on every successful Insert /
  /// InsertBatch / Remove / Update / Upsert (RemoveIfPresent counts via
  /// Remove) and on every compaction install. A cheap relaxed read —
  /// consumers (the serve-side result cache, DESIGN.md §15) need only
  /// monotonicity; visibility rides the shard lock, because the increment
  /// happens inside the exclusive section of the mutation it stamps.
  uint64_t mutation_epoch() const {
    return mutation_epoch_.load(std::memory_order_relaxed);
  }

  /// True when the compaction trigger (see LiveIndexOptions) is met.
  bool NeedsCompaction() const;

  /// Single-flight claim: true when the trigger is met and no compaction is
  /// in flight — the caller then owns the obligation to call
  /// RunClaimedCompaction (typically as a background pool task).
  bool ClaimCompaction();

  /// Rebuilds the base from base+delta−tombstones and installs it. Must be
  /// paired with a successful ClaimCompaction. Honours
  /// faults::kCompactionInstall (the rebuilt base is abandoned before the
  /// install, as a crash there would; the index keeps serving unchanged).
  void RunClaimedCompaction();

  /// Synchronous convenience for tests/tools: claim-if-idle + run,
  /// regardless of the trigger.
  void Compact();

  int num_bits() const { return options_.num_bits; }

 private:
  /// The immutable base epoch: codes indexed by the strategy engine, plus
  /// id/embedding sidecars by row. Ids are ascending by row (see class
  /// comment). Never mutated after construction — compaction installs a
  /// fresh one and readers/compactors pin the old epoch via shared_ptr.
  struct Base {
    explicit Base(const LiveIndexOptions& options);
    const search::PackedCodes& codes() const;
    int size() const { return static_cast<int>(ids.size()); }

    std::unique_ptr<search::MihIndex> mih;        // kMih
    std::unique_ptr<search::HammingIndex> hybrid; // kRadius2
    search::PackedCodes brute_codes;              // kBrute
    std::vector<int> ids;                         // row -> id
    std::vector<std::vector<float>> embeddings;   // row -> embedding (float)
    /// Quantize mode: int8 rows (one per base row, zero-filled when the
    /// entry carries no embedding) + per-row has-embedding flags, and the
    /// count of rows with the flag set — while it is zero the whole lattice
    /// still lives in the delta and the params may widen in place (see
    /// QuantizeForAppendLocked).
    std::unique_ptr<quant::QuantizedMatrix> qrows;
    std::vector<uint8_t> has_emb;
    int emb_rows = 0;
  };

  /// Where a live id is stored.
  struct Loc {
    bool in_delta = false;
    int row = -1;
  };

  /// Appends one delta row. Quantize mode: `qrow` is the row's int8 values
  /// under the current params, nullptr for an entry without an embedding.
  void AppendDeltaLocked(int id, search::Code code,
                         std::vector<float> embedding, const int8_t* qrow);
  /// Quantizes `embedding` under the shard params for an Update/Upsert
  /// delta append, calibrating on this one row when CalibrateIfNeededLocked
  /// says so (per-row widening). kInvalidArgument on non-finite
  /// values, kind of failure the caller must surface BEFORE mutating
  /// anything. `*qrow` stays empty for an empty embedding (entry without
  /// one).
  Status QuantizeForAppendLocked(const std::vector<float>& embedding,
                                 std::vector<int8_t>* qrow);
  /// True when any value of `row` falls outside the current calibration
  /// range (NaN compares false on purpose: QuantizeRow rejects it later
  /// without touching the params).
  bool RowExpandsRangeLocked(const float* row) const;
  /// The one "when to calibrate" policy, shared by every append path:
  /// calibrates at cold start (no params yet), and while the base holds no
  /// embedding rows also when any of `rows` falls outside the range — base
  /// epochs are read outside the lock by compaction and can never be
  /// rewritten, so afterwards rows saturate. Calibrating rebuilds the
  /// params over (current range ∪ `rows`) — just `rows` at cold start — in
  /// one ParamsBuilder pass and requantizes every delta row in place onto
  /// the new lattice (each stored value moves by at most half a new step).
  /// kInvalidArgument (state untouched) on a non-finite row.
  Status CalibrateIfNeededLocked(const std::vector<const float*>& rows);
  bool NeedsCompactionLocked() const;
  std::vector<search::Neighbor> BaseTopKLocked(const search::Code& query,
                                               int k, const Deadline& deadline,
                                               bool* complete) const;
  std::vector<search::Neighbor> DeltaTopKLocked(const search::Code& query,
                                                int k) const;

  const LiveIndexOptions options_;

  mutable std::shared_mutex mu_;
  std::shared_ptr<const Base> base_;     // guarded by mu_ (swap on install)
  std::vector<uint8_t> base_dead_;       // by base row
  int base_dead_count_ = 0;
  search::PackedCodes delta_codes_;
  std::vector<int> delta_ids_;           // delta row -> id
  std::vector<uint8_t> delta_dead_;      // by delta row
  int delta_dead_count_ = 0;
  std::vector<std::vector<float>> delta_embeddings_;
  // Quantize mode: the delta's int8 rows + has-embedding flags (row-aligned
  // with delta_ids_; delta_embeddings_ stays empty), and the ONE param set
  // every row of the shard (base + delta) is quantized under — zero-points
  // must cancel in quantized distances, which only holds within one param
  // set. Compaction installs rebuilt params together with the new base.
  quant::QuantizationParams qparams_;
  std::unique_ptr<quant::QuantizedMatrix> delta_qrows_;
  std::vector<uint8_t> delta_has_emb_;
  mutable quant::RerankCounters rerank_counters_;
  std::unordered_map<int, Loc> loc_;     // live ids only

  std::atomic<bool> compaction_in_flight_{false};
  std::atomic<int> compactions_run_{0};
  std::atomic<uint64_t> mutation_epoch_{0};
};

}  // namespace traj2hash::ingest

#endif  // TRAJ2HASH_INGEST_LIVE_INDEX_H_
