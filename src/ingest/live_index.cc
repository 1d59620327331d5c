#include "ingest/live_index.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "search/kernels.h"

namespace traj2hash::ingest {

LiveIndex::Base::Base(const LiveIndexOptions& options)
    : brute_codes(options.num_bits) {
  if (options.quantize) {
    qrows = std::make_unique<quant::QuantizedMatrix>(options.embedding_dim);
  }
  switch (options.strategy) {
    case search::SearchStrategy::kMih:
      mih = std::make_unique<search::MihIndex>(options.num_bits,
                                               options.mih_substrings);
      break;
    case search::SearchStrategy::kRadius2:
      hybrid = std::make_unique<search::HammingIndex>(options.num_bits);
      break;
    case search::SearchStrategy::kBrute:
      break;  // brute scans need only the packed rows
  }
}

const search::PackedCodes& LiveIndex::Base::codes() const {
  if (mih != nullptr) return mih->codes();
  if (hybrid != nullptr) return hybrid->codes();
  return brute_codes;
}

LiveIndex::LiveIndex(const LiveIndexOptions& options)
    : options_(options),
      base_(std::make_shared<const Base>(options)),
      delta_codes_(options.num_bits) {
  T2H_CHECK_GT(options.num_bits, 0);
  T2H_CHECK_GE(options.compact_min_ops, 1);
  T2H_CHECK_GT(options.compact_ratio, 0.0);
  if (options.quantize) {
    T2H_CHECK_MSG(options.embedding_dim > 0,
                  "quantize requires embedding_dim");
    delta_qrows_ =
        std::make_unique<quant::QuantizedMatrix>(options.embedding_dim);
  }
}

Status LiveIndex::QuantizeForAppendLocked(const std::vector<float>& embedding,
                                          std::vector<int8_t>* qrow) {
  qrow->clear();
  if (!options_.quantize || embedding.empty()) return Status::Ok();
  T2H_CHECK_EQ(static_cast<int>(embedding.size()), options_.embedding_dim);
  const float* row = embedding.data();
  if (const Status s = CalibrateIfNeededLocked({row}); !s.ok()) return s;
  qrow->resize(embedding.size());
  return qparams_.QuantizeRow(row, qrow->data());
}

bool LiveIndex::RowExpandsRangeLocked(const float* row) const {
  for (int j = 0; j < options_.embedding_dim; ++j) {
    // Range edges recovered from the params: q = ∓128/127 dequantize to
    // s·(zp − 128) and s·(zp + 127) = lo + 255·s.
    const float lo = qparams_.scale[j] * (qparams_.zero_point[j] - 128.0f);
    const float hi = lo + 255.0f * qparams_.scale[j];
    if (row[j] < lo || row[j] > hi) return true;
  }
  return false;
}

Status LiveIndex::CalibrateIfNeededLocked(
    const std::vector<const float*>& rows) {
  // Widen in place only while the whole lattice lives in the delta; once a
  // base holds embedding rows, out-of-range rows saturate until the next
  // compaction rebuild.
  if (rows.empty()) return Status::Ok();
  const bool needed =
      qparams_.empty() ||
      (base_->emb_rows == 0 &&
       std::any_of(rows.begin(), rows.end(), [this](const float* row) {
         return RowExpandsRangeLocked(row);
       }));
  if (!needed) return Status::Ok();
  const int dim = options_.embedding_dim;
  // New range = old range ∪ rows, rebuilt through the normal builder so the
  // zero-range widening and scale_sq derivation stay in one place.
  quant::ParamsBuilder builder(dim);
  if (!qparams_.empty()) {
    std::vector<float> corner_lo(dim);
    std::vector<float> corner_hi(dim);
    for (int j = 0; j < dim; ++j) {
      corner_lo[j] = qparams_.scale[j] * (qparams_.zero_point[j] - 128.0f);
      corner_hi[j] = corner_lo[j] + 255.0f * qparams_.scale[j];
    }
    T2H_CHECK(builder.Add(corner_lo.data()).ok());  // finite by construction
    T2H_CHECK(builder.Add(corner_hi.data()).ok());
  }
  for (const float* row : rows) {
    if (const Status s = builder.Add(row); !s.ok()) return s;  // non-finite
  }
  auto built = builder.Build();
  if (!built.ok()) return built.status();
  quant::QuantizationParams next = std::move(built.value());

  // Requantize every delta row onto the new lattice (none at cold start).
  // The exclusive lock makes the in-place overwrite safe: readers are
  // excluded, and an in-flight compaction rebuild works on its own phase-1
  // copy of the delta (its install then requantizes the live suffix under
  // whatever qparams_ holds at install time — which this keeps consistent
  // for every row).
  if (!qparams_.empty()) {
    std::vector<float> deq(dim);
    std::vector<int8_t> req(dim);
    for (int r = 0; r < delta_qrows_->rows(); ++r) {
      if (delta_has_emb_[r] == 0) continue;
      qparams_.DequantizeRow(delta_qrows_->row(r), deq.data());
      T2H_CHECK(next.QuantizeRow(deq.data(), req.data()).ok());
      delta_qrows_->OverwriteRow(r, req.data());
    }
  }
  qparams_ = std::move(next);
  return Status::Ok();
}

void LiveIndex::AppendDeltaLocked(int id, search::Code code,
                                  std::vector<float> embedding,
                                  const int8_t* qrow) {
  const int row = delta_codes_.Append(code);
  delta_ids_.push_back(id);
  delta_dead_.push_back(0);
  if (options_.quantize) {
    if (qrow == nullptr) {
      const std::vector<int8_t> zeros(options_.embedding_dim, 0);
      delta_qrows_->Append(zeros.data());
      delta_has_emb_.push_back(0);
    } else {
      delta_qrows_->Append(qrow);
      delta_has_emb_.push_back(1);
    }
  } else {
    delta_embeddings_.push_back(std::move(embedding));
  }
  loc_[id] = Loc{/*in_delta=*/true, row};
}

Status LiveIndex::Insert(int id, search::Code code,
                         std::vector<float> embedding) {
  std::vector<search::Code> codes;
  codes.push_back(std::move(code));
  std::vector<std::vector<float>> embeddings;
  embeddings.push_back(std::move(embedding));
  return InsertBatch({id}, std::move(codes), std::move(embeddings));
}

Status LiveIndex::InsertBatch(const std::vector<int>& ids,
                              std::vector<search::Code> codes,
                              std::vector<std::vector<float>> embeddings) {
  T2H_CHECK_EQ(ids.size(), codes.size());
  T2H_CHECK_EQ(ids.size(), embeddings.size());
  if (ids.empty()) return Status::Ok();
  const int dim = options_.embedding_dim;
  std::vector<const float*> rows;  // quantize mode: embedding-bearing rows
  for (size_t i = 0; i < ids.size(); ++i) {
    T2H_CHECK_GE(ids[i], 0);
    T2H_CHECK_EQ(codes[i].num_bits, options_.num_bits);
    if (options_.quantize && !embeddings[i].empty()) {
      T2H_CHECK_EQ(static_cast<int>(embeddings[i].size()), dim);
      rows.push_back(embeddings[i].data());
    }
  }
  std::vector<int> sorted_ids = ids;
  std::sort(sorted_ids.begin(), sorted_ids.end());
  const auto repeated =
      std::adjacent_find(sorted_ids.begin(), sorted_ids.end());
  if (repeated != sorted_ids.end()) {
    return Status::InvalidArgument("id " + std::to_string(*repeated) +
                                   " appears twice in the batch");
  }
  for (const float* row : rows) {
    for (int j = 0; j < dim; ++j) {
      if (!std::isfinite(row[j])) {
        return Status::InvalidArgument(
            "non-finite embedding value at dim " + std::to_string(j) +
            " cannot be quantized");
      }
    }
  }

  std::unique_lock<std::shared_mutex> lock(mu_);
  for (const int id : ids) {
    if (loc_.find(id) != loc_.end()) {
      return Status::InvalidArgument("id " + std::to_string(id) +
                                     " is already live");
    }
  }
  // Calibrate once: while the lattice is all-delta, the final range is
  // (current range ∪ every batch row), so one rebuild — and at most one
  // requantization of the existing delta — replaces the per-row widenings
  // a row-at-a-time load would do. A compacted embedding base pins the
  // params; then rows saturate.
  T2H_CHECK(CalibrateIfNeededLocked(rows).ok());  // validated above
  std::vector<int8_t> qrow(options_.quantize ? dim : 0);
  for (size_t i = 0; i < ids.size(); ++i) {
    const bool quantized = options_.quantize && !embeddings[i].empty();
    if (quantized) {
      T2H_CHECK(qparams_.QuantizeRow(embeddings[i].data(), qrow.data()).ok());
    }
    AppendDeltaLocked(ids[i], std::move(codes[i]), std::move(embeddings[i]),
                      quantized ? qrow.data() : nullptr);
  }
  mutation_epoch_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status LiveIndex::Remove(int id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  const auto it = loc_.find(id);
  if (it == loc_.end()) {
    return Status::NotFound("id " + std::to_string(id) + " is not live");
  }
  const Loc loc = it->second;
  if (loc.in_delta) {
    delta_dead_[loc.row] = 1;
    ++delta_dead_count_;
  } else {
    base_dead_[loc.row] = 1;
    ++base_dead_count_;
  }
  loc_.erase(it);
  mutation_epoch_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status LiveIndex::Update(int id, search::Code code,
                         std::vector<float> embedding) {
  T2H_CHECK_EQ(code.num_bits, options_.num_bits);
  std::unique_lock<std::shared_mutex> lock(mu_);
  const auto it = loc_.find(id);
  if (it == loc_.end()) {
    return Status::NotFound("id " + std::to_string(id) + " is not live");
  }
  std::vector<int8_t> qrow;
  if (const Status s = QuantizeForAppendLocked(embedding, &qrow); !s.ok()) {
    return s;  // reject before tombstoning — the old entry stays intact
  }
  // Tombstone the old row, re-point the id at a fresh delta row.
  const Loc loc = it->second;
  if (loc.in_delta) {
    delta_dead_[loc.row] = 1;
    ++delta_dead_count_;
  } else {
    base_dead_[loc.row] = 1;
    ++base_dead_count_;
  }
  loc_.erase(it);
  AppendDeltaLocked(id, std::move(code), std::move(embedding),
                    qrow.empty() ? nullptr : qrow.data());
  mutation_epoch_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

void LiveIndex::Upsert(int id, search::Code code,
                       std::vector<float> embedding) {
  T2H_CHECK_GE(id, 0);
  T2H_CHECK_EQ(code.num_bits, options_.num_bits);
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::vector<int8_t> qrow;
  // WAL replay / replica apply ships float embeddings and re-quantizes
  // here, under THIS shard's params. A non-finite embedding would already
  // have been rejected at original ingest, so it is a hard fault on replay.
  T2H_CHECK_MSG(QuantizeForAppendLocked(embedding, &qrow).ok(),
                "non-finite embedding in upsert");
  const auto it = loc_.find(id);
  if (it != loc_.end()) {
    const Loc loc = it->second;
    if (loc.in_delta) {
      delta_dead_[loc.row] = 1;
      ++delta_dead_count_;
    } else {
      base_dead_[loc.row] = 1;
      ++base_dead_count_;
    }
    loc_.erase(it);
  }
  AppendDeltaLocked(id, std::move(code), std::move(embedding),
                    qrow.empty() ? nullptr : qrow.data());
  mutation_epoch_.fetch_add(1, std::memory_order_relaxed);
}

bool LiveIndex::RemoveIfPresent(int id) { return Remove(id).ok(); }

std::vector<search::Neighbor> LiveIndex::BaseTopKLocked(
    const search::Code& query, int k, const Deadline& deadline,
    bool* complete) const {
  const Base& base = *base_;
  if (base.size() == 0) return {};
  const uint8_t* skip = base_dead_count_ > 0 ? base_dead_.data() : nullptr;
  std::vector<search::Neighbor> out;
  switch (options_.strategy) {
    case search::SearchStrategy::kBrute:
      out = search::TopKHamming(base.codes(), query, k, skip);
      break;
    case search::SearchStrategy::kRadius2:
      out = base.hybrid->HybridTopK(query, k, skip);
      break;
    case search::SearchStrategy::kMih:
      out = base.mih->TopK(query, k, deadline, complete, skip,
                           base_dead_count_);
      break;
  }
  // Base rows are ascending by id (compaction sorts), so the engines'
  // (distance, row) selection already equals (distance, id); the map below
  // is monotone and order-preserving.
  for (search::Neighbor& n : out) n.index = base.ids[n.index];
  return out;
}

std::vector<search::Neighbor> LiveIndex::DeltaTopKLocked(
    const search::Code& query, int k) const {
  const int n = delta_codes_.size();
  if (n == 0) return {};
  std::vector<int32_t> dist(n);
  search::kernels::HammingScan(delta_codes_.data(), query.words.data(), n,
                               delta_codes_.words_per_code(),
                               delta_codes_.stride_words(), dist.data());
  std::vector<int> rows;
  rows.reserve(n - delta_dead_count_);
  for (int i = 0; i < n; ++i) {
    if (delta_dead_[i] == 0) rows.push_back(i);
  }
  const int live = static_cast<int>(rows.size());
  k = std::min(k, live);
  if (k <= 0) return {};
  // Delta rows can arrive out of id order under concurrent ingest, so the
  // tie-break selects on the mapped id, not the row.
  const auto less = [&](int a, int b) {
    if (dist[a] != dist[b]) return dist[a] < dist[b];
    return delta_ids_[a] < delta_ids_[b];
  };
  if (k < live) {
    std::nth_element(rows.begin(), rows.begin() + (k - 1), rows.end(), less);
    rows.resize(k);
  }
  std::sort(rows.begin(), rows.end(), less);
  std::vector<search::Neighbor> out;
  out.reserve(k);
  for (const int row : rows) {
    out.push_back({delta_ids_[row], static_cast<double>(dist[row])});
  }
  return out;
}

std::vector<search::Neighbor> LiveIndex::TopK(const search::Code& query,
                                              int k) const {
  bool complete = true;
  return TopK(query, k, Deadline::Infinite(), &complete);
}

std::vector<search::Neighbor> LiveIndex::TopK(const search::Code& query,
                                              int k, const Deadline& deadline,
                                              bool* complete) const {
  T2H_CHECK_GE(k, 1);
  T2H_CHECK_EQ(query.num_bits, options_.num_bits);
  *complete = true;
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<search::Neighbor> merged =
      BaseTopKLocked(query, k, deadline, complete);
  const std::vector<search::Neighbor> delta_part = DeltaTopKLocked(query, k);
  // Both parts are the exact top-k of their half under (distance, id); the
  // k best of their union is the logical corpus' top-k.
  merged.insert(merged.end(), delta_part.begin(), delta_part.end());
  std::sort(merged.begin(), merged.end(), search::NeighborLess);
  if (static_cast<int>(merged.size()) > k) merged.resize(k);
  return merged;
}

bool LiveIndex::Contains(int id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return loc_.find(id) != loc_.end();
}

std::vector<float> LiveIndex::EmbeddingOf(int id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = loc_.find(id);
  if (it == loc_.end()) return {};
  const Loc loc = it->second;
  if (options_.quantize) {
    const bool has = loc.in_delta ? delta_has_emb_[loc.row] != 0
                                  : base_->has_emb[loc.row] != 0;
    if (!has) return {};
    std::vector<float> out(options_.embedding_dim);
    const int8_t* row = loc.in_delta ? delta_qrows_->row(loc.row)
                                     : base_->qrows->row(loc.row);
    qparams_.DequantizeRow(row, out.data());
    return out;
  }
  return loc.in_delta ? delta_embeddings_[loc.row]
                      : base_->embeddings[loc.row];
}

std::vector<search::Neighbor> LiveIndex::RerankTopK(
    const search::Code& query, const std::vector<float>& query_embedding,
    int k, int num_candidates) const {
  T2H_CHECK_GE(k, 1);
  T2H_CHECK_EQ(query.num_bits, options_.num_bits);
  num_candidates = std::max(num_candidates, k);
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Stage 0 — Hamming candidate generation over the live entries (the same
  // merge TopK performs, under our lock).
  bool complete = true;
  std::vector<search::Neighbor> cand =
      BaseTopKLocked(query, num_candidates, Deadline::Infinite(), &complete);
  const std::vector<search::Neighbor> delta_part =
      DeltaTopKLocked(query, num_candidates);
  cand.insert(cand.end(), delta_part.begin(), delta_part.end());
  std::sort(cand.begin(), cand.end(), search::NeighborLess);
  if (static_cast<int>(cand.size()) > num_candidates) {
    cand.resize(num_candidates);
  }
  // Ascending ids make the gathered scratch rows id-ordered, so the
  // re-ranker's row-index tie-break equals the repo-wide id tie-break.
  std::vector<int> ids;
  ids.reserve(cand.size());
  for (const search::Neighbor& n : cand) ids.push_back(n.index);
  std::sort(ids.begin(), ids.end());

  if (options_.quantize) {
    if (qparams_.empty()) return {};
    quant::QuantizedMatrix scratch(options_.embedding_dim);
    std::vector<int> scratch_ids;
    scratch_ids.reserve(ids.size());
    for (const int id : ids) {
      const Loc loc = loc_.at(id);
      const bool has = loc.in_delta ? delta_has_emb_[loc.row] != 0
                                    : base_->has_emb[loc.row] != 0;
      if (!has) continue;
      scratch.Append(loc.in_delta ? delta_qrows_->row(loc.row)
                                  : base_->qrows->row(loc.row));
      scratch_ids.push_back(id);
    }
    if (scratch.rows() == 0) return {};
    std::vector<search::Neighbor> out = quant::RerankTopK(
        scratch, qparams_, query_embedding, k, /*candidates=*/nullptr,
        /*num_candidates=*/0, &rerank_counters_);
    for (search::Neighbor& n : out) n.index = scratch_ids[n.index];
    return out;
  }
  const int dim = static_cast<int>(query_embedding.size());
  search::FlatMatrix scratch(dim);
  std::vector<int> scratch_ids;
  scratch_ids.reserve(ids.size());
  for (const int id : ids) {
    const Loc loc = loc_.at(id);
    const std::vector<float>& emb = loc.in_delta
                                        ? delta_embeddings_[loc.row]
                                        : base_->embeddings[loc.row];
    if (static_cast<int>(emb.size()) != dim) continue;
    scratch.Append(emb);
    scratch_ids.push_back(id);
  }
  if (scratch.rows() == 0) return {};
  std::vector<search::Neighbor> out =
      search::TopKEuclidean(scratch, query_embedding, k);
  for (search::Neighbor& n : out) n.index = scratch_ids[n.index];
  return out;
}

size_t LiveIndex::embedding_resident_bytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (options_.quantize) {
    return base_->qrows->resident_bytes() + delta_qrows_->resident_bytes() +
           3 * static_cast<size_t>(qparams_.dim()) * sizeof(float);
  }
  size_t bytes = 0;
  for (const std::vector<float>& e : base_->embeddings) {
    bytes += e.size() * sizeof(float);
  }
  for (const std::vector<float>& e : delta_embeddings_) {
    bytes += e.size() * sizeof(float);
  }
  return bytes;
}

quant::QuantizationParams LiveIndex::ParamsSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return qparams_;
}

std::vector<LiveIndex::Entry> LiveIndex::SnapshotEntries() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<Entry> out;
  out.reserve(loc_.size());
  for (const auto& [id, loc] : loc_) {
    Entry e;
    e.id = id;
    e.code = loc.in_delta ? delta_codes_.CodeAt(loc.row)
                          : base_->codes().CodeAt(loc.row);
    if (options_.quantize) {
      // Snapshots carry float embeddings (the dequantized lattice values);
      // the writer / a replica requantizes under its own params.
      const bool has = loc.in_delta ? delta_has_emb_[loc.row] != 0
                                    : base_->has_emb[loc.row] != 0;
      if (has) {
        e.embedding.resize(options_.embedding_dim);
        qparams_.DequantizeRow(loc.in_delta ? delta_qrows_->row(loc.row)
                                            : base_->qrows->row(loc.row),
                               e.embedding.data());
      }
    } else {
      e.embedding = loc.in_delta ? delta_embeddings_[loc.row]
                                 : base_->embeddings[loc.row];
    }
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });
  return out;
}

int LiveIndex::live_size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return static_cast<int>(loc_.size());
}

int LiveIndex::tombstone_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return base_dead_count_ + delta_dead_count_;
}

int LiveIndex::delta_size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return delta_codes_.size();
}

bool LiveIndex::NeedsCompactionLocked() const {
  // Rows a compaction would reclaim (tombstones) or index properly (delta
  // rows — each counted once even when both apply).
  const int pending = base_dead_count_ + delta_codes_.size();
  const int total = base_->size() + delta_codes_.size();
  return pending >= options_.compact_min_ops &&
         pending > options_.compact_ratio * total;
}

bool LiveIndex::NeedsCompaction() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return NeedsCompactionLocked();
}

bool LiveIndex::ClaimCompaction() {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (!NeedsCompactionLocked()) return false;
  }
  return !compaction_in_flight_.exchange(true, std::memory_order_acq_rel);
}

void LiveIndex::Compact() {
  // No-op when a background compaction is already in flight — it will fold
  // in everything this call would have.
  if (compaction_in_flight_.exchange(true, std::memory_order_acq_rel)) return;
  RunClaimedCompaction();
}

void LiveIndex::RunClaimedCompaction() {
  // Phase 1 — capture an epoch snapshot under the shared lock: the base
  // pointer (immutable; the shared_ptr pins it against a racing install,
  // though claims are single-flight anyway), copies of the tombstone flags
  // and the current delta prefix. Mutations keep flowing while we build.
  std::shared_ptr<const Base> base;
  std::vector<uint8_t> base_dead;
  int captured_delta = 0;
  search::PackedCodes delta_codes(options_.num_bits);
  std::vector<int> delta_ids;
  std::vector<uint8_t> delta_dead;
  // Quantize mode: the captured delta's int8 rows + flags and the params
  // they were quantized under (1 byte/dim per row — cheap to copy).
  quant::QuantizationParams old_params;
  std::unique_ptr<quant::QuantizedMatrix> delta_qrows;
  std::vector<uint8_t> delta_has_emb;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    base = base_;
    base_dead = base_dead_;
    captured_delta = delta_codes_.size();
    delta_ids.assign(delta_ids_.begin(), delta_ids_.begin() + captured_delta);
    delta_dead.assign(delta_dead_.begin(),
                      delta_dead_.begin() + captured_delta);
    for (int row = 0; row < captured_delta; ++row) {
      delta_codes.Append(delta_codes_.CodeAt(row));
    }
    if (options_.quantize) {
      old_params = qparams_;
      delta_qrows =
          std::make_unique<quant::QuantizedMatrix>(options_.embedding_dim);
      for (int row = 0; row < captured_delta; ++row) {
        delta_qrows->Append(delta_qrows_->row(row));
      }
      delta_has_emb.assign(delta_has_emb_.begin(),
                           delta_has_emb_.begin() + captured_delta);
    }
  }

  // Phase 2 — build the new base outside any lock: captured live entries,
  // sorted by id so the new base rows are ascending by id (the invariant
  // BaseTopKLocked relies on). Embeddings are fetched at install time from
  // the live arrays via loc_, so none are copied twice here.
  struct Pending {
    int id;
    bool from_delta;
    int row;
  };
  std::vector<Pending> live;
  live.reserve(base->size() + captured_delta);
  for (int row = 0; row < base->size(); ++row) {
    if (base_dead[row] == 0) live.push_back({base->ids[row], false, row});
  }
  for (int row = 0; row < captured_delta; ++row) {
    if (delta_dead[row] == 0) live.push_back({delta_ids[row], true, row});
  }
  std::sort(live.begin(), live.end(),
            [](const Pending& a, const Pending& b) { return a.id < b.id; });
  auto fresh = std::make_shared<Base>(options_);
  fresh->ids.reserve(live.size());
  if (!options_.quantize) fresh->embeddings.resize(live.size());

  // Quantize mode: rebuild the scales from the captured rows (ISSUE: the
  // delta only ever saturates against stale params; compaction is where the
  // calibration range catches up). One streaming pass dequantizes each
  // captured live row under the old params into the builder, then a second
  // requantizes it under the new — per-row temporaries only, never a float
  // copy of the corpus.
  quant::QuantizationParams new_params;
  std::vector<float> deq;
  const auto captured_qrow = [&](const Pending& p) {
    return p.from_delta ? delta_qrows->row(p.row) : base->qrows->row(p.row);
  };
  const auto captured_has_emb = [&](const Pending& p) {
    return p.from_delta ? delta_has_emb[p.row] != 0
                        : base->has_emb[p.row] != 0;
  };
  if (options_.quantize) {
    deq.resize(options_.embedding_dim);
    quant::ParamsBuilder builder(options_.embedding_dim);
    for (const Pending& p : live) {
      if (!captured_has_emb(p)) continue;
      old_params.DequantizeRow(captured_qrow(p), deq.data());
      T2H_CHECK(builder.Add(deq.data()).ok());  // lattice values are finite
    }
    if (builder.rows_seen() > 0) {
      auto built = builder.Build();
      T2H_CHECK(built.ok());
      new_params = std::move(built.value());
    }
    // No embedding-bearing captured row: keep the params as they are at
    // install time (a cold start may have happened during the rebuild).
  }

  std::vector<int8_t> req(options_.quantize ? options_.embedding_dim : 0);
  const std::vector<int8_t> zeros(req.size(), 0);
  for (const Pending& p : live) {
    const search::Code code = p.from_delta ? delta_codes.CodeAt(p.row)
                                           : base->codes().CodeAt(p.row);
    switch (options_.strategy) {
      case search::SearchStrategy::kMih:
        fresh->mih->Insert(code);
        break;
      case search::SearchStrategy::kRadius2:
        fresh->hybrid->Insert(code);
        break;
      case search::SearchStrategy::kBrute:
        fresh->brute_codes.Append(code);
        break;
    }
    fresh->ids.push_back(p.id);
    if (options_.quantize) {
      if (captured_has_emb(p)) {
        old_params.DequantizeRow(captured_qrow(p), deq.data());
        T2H_CHECK(new_params.QuantizeRow(deq.data(), req.data()).ok());
        fresh->qrows->Append(req.data());
        fresh->has_emb.push_back(1);
        ++fresh->emb_rows;
      } else {
        fresh->qrows->Append(zeros.data());
        fresh->has_emb.push_back(0);
      }
    }
  }

  // Simulated crash of the compacting thread: abandon the rebuilt base.
  // Nothing was installed, so the index keeps serving base+delta unchanged
  // and a later compaction (or recovery) redoes the work.
  if (FaultInjector::Fire(faults::kCompactionInstall)) {
    compaction_in_flight_.store(false, std::memory_order_release);
    return;
  }

  // Phase 3 — install under one short exclusive section, reconciling
  // mutations that raced the rebuild through loc_: an id is live in the new
  // base iff it is still live *and* not superseded by a delta row appended
  // after the capture (an update/re-insert during the rebuild).
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    const int new_n = fresh->size();
    std::vector<uint8_t> new_base_dead(new_n, 0);
    int new_base_dead_count = 0;
    for (int row = 0; row < new_n; ++row) {
      const int id = fresh->ids[row];
      const auto it = loc_.find(id);
      const bool alive =
          it != loc_.end() &&
          !(it->second.in_delta && it->second.row >= captured_delta);
      if (alive) {
        const Loc old = it->second;
        if (!options_.quantize) {
          fresh->embeddings[row] = old.in_delta
                                       ? std::move(delta_embeddings_[old.row])
                                       : base_->embeddings[old.row];
        }
        // (quantize mode: the row is already in fresh->qrows — delta rows
        // are immutable once written, so the captured copy is current.)
        it->second = Loc{/*in_delta=*/false, row};
      } else {
        new_base_dead[row] = 1;
        ++new_base_dead_count;
      }
    }
    // The new delta is the suffix appended while we were building. In
    // quantize mode its rows were quantized under the pre-compaction params,
    // so they are requantized onto the new lattice here (the whole shard
    // must share one param set for zero-points to cancel).
    const bool install_params = options_.quantize && !new_params.empty();
    const int cur = delta_codes_.size();
    search::PackedCodes new_delta_codes(options_.num_bits);
    std::vector<int> new_delta_ids;
    std::vector<uint8_t> new_delta_dead;
    std::vector<std::vector<float>> new_delta_embeddings;
    std::unique_ptr<quant::QuantizedMatrix> new_delta_qrows;
    std::vector<uint8_t> new_delta_has_emb;
    if (options_.quantize) {
      new_delta_qrows =
          std::make_unique<quant::QuantizedMatrix>(options_.embedding_dim);
    }
    new_delta_ids.reserve(cur - captured_delta);
    int new_delta_dead_count = 0;
    for (int old_row = captured_delta; old_row < cur; ++old_row) {
      const int new_row = new_delta_codes.Append(delta_codes_.CodeAt(old_row));
      const int id = delta_ids_[old_row];
      new_delta_ids.push_back(id);
      new_delta_dead.push_back(delta_dead_[old_row]);
      if (delta_dead_[old_row] != 0) ++new_delta_dead_count;
      if (options_.quantize) {
        const bool has = delta_has_emb_[old_row] != 0;
        if (has && install_params) {
          qparams_.DequantizeRow(delta_qrows_->row(old_row), deq.data());
          T2H_CHECK(new_params.QuantizeRow(deq.data(), req.data()).ok());
          new_delta_qrows->Append(req.data());
        } else {
          new_delta_qrows->Append(delta_qrows_->row(old_row));
        }
        new_delta_has_emb.push_back(has ? 1 : 0);
      } else {
        new_delta_embeddings.push_back(std::move(delta_embeddings_[old_row]));
      }
      const auto it = loc_.find(id);
      if (it != loc_.end() && it->second.in_delta &&
          it->second.row == old_row) {
        it->second.row = new_row;
      }
    }
    base_ = std::move(fresh);
    base_dead_ = std::move(new_base_dead);
    base_dead_count_ = new_base_dead_count;
    delta_codes_ = std::move(new_delta_codes);
    delta_ids_ = std::move(new_delta_ids);
    delta_dead_ = std::move(new_delta_dead);
    delta_dead_count_ = new_delta_dead_count;
    delta_embeddings_ = std::move(new_delta_embeddings);
    if (options_.quantize) {
      delta_qrows_ = std::move(new_delta_qrows);
      delta_has_emb_ = std::move(new_delta_has_emb);
      if (install_params) qparams_ = std::move(new_params);
    }
    // The install changes physical layout (what a racing cached probe could
    // have been computed against), so it advances the mutation epoch too —
    // conservatively invalidating result-cache entries even though the
    // logical corpus is unchanged.
    mutation_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  compactions_run_.fetch_add(1, std::memory_order_acq_rel);
  compaction_in_flight_.store(false, std::memory_order_release);
}

}  // namespace traj2hash::ingest
