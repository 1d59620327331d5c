#include "serve/sharded_index.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>

#include "common/check.h"
#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/serialize.h"

namespace traj2hash::serve {

ShardedIndex::ShardedIndex(int num_shards, int num_bits,
                           search::SearchStrategy strategy, int mih_substrings,
                           int compact_min_ops, double compact_ratio,
                           bool quantize, int embedding_dim)
    : num_bits_(num_bits),
      strategy_(strategy),
      quantize_(quantize),
      embedding_dim_(embedding_dim) {
  T2H_CHECK_GE(num_shards, 1);
  T2H_CHECK_GT(num_bits, 0);
  ingest::LiveIndexOptions options;
  options.num_bits = num_bits;
  options.strategy = strategy;
  options.mih_substrings = mih_substrings;
  options.compact_min_ops = compact_min_ops;
  options.compact_ratio = compact_ratio;
  options.quantize = quantize;
  options.embedding_dim = embedding_dim;
  shards_.reserve(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<ingest::LiveIndex>(options));
  }
}

Status ShardedIndex::CommitLocked(std::vector<ingest::WalRecord> records) {
  for (ingest::WalRecord& record : records) {
    const Status appended = wal_->Append(std::move(record));
    if (!appended.ok()) return appended;
  }
  // Group commit: one durability barrier for the whole batch.
  return wal_->Sync();
}

Result<int> ShardedIndex::Insert(search::Code code,
                                 std::vector<float> embedding) {
  T2H_CHECK_EQ(code.num_bits, num_bits_);
  if (wal_ == nullptr) {
    // Historical fast path: inserts to different shards never contend.
    const int id = next_id_.fetch_add(1, std::memory_order_acq_rel);
    const Status applied =
        shards_[ShardOf(id)]->Insert(id, std::move(code),
                                     std::move(embedding));
    T2H_CHECK_MSG(applied.ok(), "fresh global ids cannot collide");
    return id;
  }
  std::lock_guard<std::mutex> lock(wal_mu_);
  const int id = next_id_.load(std::memory_order_acquire);
  ingest::WalRecord record;
  record.type = ingest::WalRecordType::kInsert;
  record.id = id;
  record.code = code;
  record.embedding = embedding;
  std::vector<ingest::WalRecord> batch;
  batch.push_back(std::move(record));
  const Status committed = CommitLocked(std::move(batch));
  // Not durable => not applied and the id was not consumed: the index is
  // exactly as if the call never happened (though the WAL needs a reopen).
  if (!committed.ok()) return committed;
  next_id_.store(id + 1, std::memory_order_release);
  if (FaultInjector::Fire(faults::kWalApply)) {
    return Status::Internal(
        "injected crash between WAL append and index apply");
  }
  const Status applied =
      shards_[ShardOf(id)]->Insert(id, std::move(code), std::move(embedding));
  T2H_CHECK_MSG(applied.ok(), "fresh global ids cannot collide");
  return id;
}

Status ShardedIndex::InsertBatch(std::vector<search::Code> codes,
                                 std::vector<std::vector<float>> embeddings) {
  T2H_CHECK_EQ(codes.size(), embeddings.size());
  if (codes.empty()) return Status::Ok();
  for (const search::Code& code : codes) {
    T2H_CHECK_EQ(code.num_bits, num_bits_);
  }
  const int n = static_cast<int>(codes.size());
  std::vector<int> ids(n);
  if (wal_ == nullptr) {
    // One contiguous id block; concurrent inserts take ids around it.
    const int first = next_id_.fetch_add(n, std::memory_order_acq_rel);
    for (int i = 0; i < n; ++i) ids[i] = first + i;
    ApplyFresh(ids, std::move(codes), std::move(embeddings));
    return Status::Ok();
  }
  std::lock_guard<std::mutex> lock(wal_mu_);
  const int first = next_id_.load(std::memory_order_acquire);
  std::vector<ingest::WalRecord> batch;
  batch.reserve(n);
  for (int i = 0; i < n; ++i) {
    ids[i] = first + i;
    ingest::WalRecord record;
    record.type = ingest::WalRecordType::kInsert;
    record.id = ids[i];
    record.code = codes[i];
    record.embedding = embeddings[i];
    batch.push_back(std::move(record));
  }
  const Status committed = CommitLocked(std::move(batch));
  if (!committed.ok()) return committed;
  next_id_.store(first + n, std::memory_order_release);
  if (FaultInjector::Fire(faults::kWalApply)) {
    return Status::Internal(
        "injected crash between WAL append and index apply");
  }
  ApplyFresh(ids, std::move(codes), std::move(embeddings));
  return Status::Ok();
}

void ShardedIndex::ApplyFresh(const std::vector<int>& ids,
                              std::vector<search::Code> codes,
                              std::vector<std::vector<float>> embeddings) {
  const int num_shards = static_cast<int>(shards_.size());
  std::vector<std::vector<int>> shard_ids(num_shards);
  std::vector<std::vector<search::Code>> shard_codes(num_shards);
  std::vector<std::vector<std::vector<float>>> shard_embeddings(num_shards);
  for (size_t i = 0; i < ids.size(); ++i) {
    const int s = ShardOf(ids[i]);
    shard_ids[s].push_back(ids[i]);
    shard_codes[s].push_back(std::move(codes[i]));
    shard_embeddings[s].push_back(std::move(embeddings[i]));
  }
  for (int s = 0; s < num_shards; ++s) {
    const Status applied = shards_[s]->InsertBatch(
        shard_ids[s], std::move(shard_codes[s]),
        std::move(shard_embeddings[s]));
    T2H_CHECK_MSG(applied.ok(), applied.message().c_str());
  }
}

Status ShardedIndex::Remove(int id) {
  if (id < 0 || id >= size()) {
    return Status::NotFound("id " + std::to_string(id) +
                            " was never assigned");
  }
  if (wal_ == nullptr) return shards_[ShardOf(id)]->Remove(id);
  std::lock_guard<std::mutex> lock(wal_mu_);
  // Liveness is checked before logging so a no-op remove never reaches the
  // log (replay would otherwise tombstone an id a racing recovery inserted).
  if (!shards_[ShardOf(id)]->Contains(id)) {
    return Status::NotFound("id " + std::to_string(id) + " is not live");
  }
  ingest::WalRecord record;
  record.type = ingest::WalRecordType::kRemove;
  record.id = id;
  std::vector<ingest::WalRecord> batch;
  batch.push_back(std::move(record));
  const Status committed = CommitLocked(std::move(batch));
  if (!committed.ok()) return committed;
  if (FaultInjector::Fire(faults::kWalApply)) {
    return Status::Internal(
        "injected crash between WAL append and index apply");
  }
  const Status applied = shards_[ShardOf(id)]->Remove(id);
  T2H_CHECK_MSG(applied.ok(), "liveness was checked under the commit mutex");
  return Status::Ok();
}

Status ShardedIndex::Update(int id, search::Code code,
                            std::vector<float> embedding) {
  T2H_CHECK_EQ(code.num_bits, num_bits_);
  if (id < 0 || id >= size()) {
    return Status::NotFound("id " + std::to_string(id) +
                            " was never assigned");
  }
  if (wal_ == nullptr) {
    return shards_[ShardOf(id)]->Update(id, std::move(code),
                                        std::move(embedding));
  }
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (!shards_[ShardOf(id)]->Contains(id)) {
    return Status::NotFound("id " + std::to_string(id) + " is not live");
  }
  ingest::WalRecord record;
  record.type = ingest::WalRecordType::kUpdate;
  record.id = id;
  record.code = code;
  record.embedding = embedding;
  std::vector<ingest::WalRecord> batch;
  batch.push_back(std::move(record));
  const Status committed = CommitLocked(std::move(batch));
  if (!committed.ok()) return committed;
  if (FaultInjector::Fire(faults::kWalApply)) {
    return Status::Internal(
        "injected crash between WAL append and index apply");
  }
  const Status applied = shards_[ShardOf(id)]->Update(id, std::move(code),
                                                      std::move(embedding));
  T2H_CHECK_MSG(applied.ok(), "liveness was checked under the commit mutex");
  return Status::Ok();
}

std::vector<search::Neighbor> ShardedIndex::ShardTopK(
    int shard_id, const search::Code& query, int k) const {
  bool complete = true;
  return ShardTopK(shard_id, query, k, Deadline::Infinite(), &complete);
}

std::vector<search::Neighbor> ShardedIndex::ShardTopK(
    int shard_id, const search::Code& query, int k, const Deadline& deadline,
    bool* complete) const {
  T2H_CHECK(shard_id >= 0 && shard_id < num_shards());
  *complete = true;
  return shards_[shard_id]->TopK(query, k, deadline, complete);
}

std::vector<search::Neighbor> ShardedIndex::MergeTopK(
    const std::vector<std::vector<search::Neighbor>>& per_shard, int k) {
  std::vector<search::Neighbor> all;
  size_t total = 0;
  for (const auto& list : per_shard) total += list.size();
  all.reserve(total);
  for (const auto& list : per_shard) {
    all.insert(all.end(), list.begin(), list.end());
  }
  std::sort(all.begin(), all.end(), search::NeighborLess);
  if (static_cast<int>(all.size()) > k) all.resize(k);
  return all;
}

std::vector<search::Neighbor> ShardedIndex::QueryTopK(
    const search::Code& query, int k, ThreadPool* pool) const {
  T2H_CHECK_GE(k, 1);
  const int s = num_shards();
  std::vector<std::vector<search::Neighbor>> per_shard(s);
  if (pool == nullptr || s == 1) {
    for (int i = 0; i < s; ++i) per_shard[i] = ShardTopK(i, query, k);
  } else {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(s);
    for (int i = 0; i < s; ++i) {
      tasks.push_back(
          [this, i, &query, k, &per_shard] {
            per_shard[i] = ShardTopK(i, query, k);
          });
    }
    pool->RunAll(std::move(tasks));
  }
  return MergeTopK(per_shard, k);
}

std::vector<search::Neighbor> ShardedIndex::QueryRerankTopK(
    const search::Code& query, const std::vector<float>& query_embedding,
    int k, int num_candidates, ThreadPool* pool) const {
  T2H_CHECK_GE(k, 1);
  const int s = num_shards();
  std::vector<std::vector<search::Neighbor>> per_shard(s);
  const auto probe = [&](int i) {
    per_shard[i] =
        shards_[i]->RerankTopK(query, query_embedding, k, num_candidates);
  };
  if (pool == nullptr || s == 1) {
    for (int i = 0; i < s; ++i) probe(i);
  } else {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(s);
    for (int i = 0; i < s; ++i) {
      tasks.push_back([&probe, i] { probe(i); });
    }
    pool->RunAll(std::move(tasks));
  }
  return MergeTopK(per_shard, k);
}

size_t ShardedIndex::embedding_resident_bytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->embedding_resident_bytes();
  }
  return total;
}

quant::RerankSnapshot ShardedIndex::rerank_stats() const {
  quant::RerankSnapshot sum;
  for (const auto& shard : shards_) {
    const quant::RerankSnapshot s = shard->rerank_stats();
    sum.queries += s.queries;
    sum.candidates += s.candidates;
    sum.rechecked += s.rechecked;
    sum.band_violations += s.band_violations;
    sum.banded_queries += s.banded_queries;
    sum.band_width_sum += s.band_width_sum;
  }
  return sum;
}

namespace {

// Snapshot file layout (all integers little-endian, the only platform this
// project targets):
//   u64 magic "T2HSNAP1" | u32 version | u32 crc32 of everything after it |
//   version 3 (quantized payload, written by quantize-mode indexes;
//     DESIGN.md §17): u32 num_bits | u64 next_id | u32 dim |
//     dim f32 scales | dim f32 zero-points | u64 count |
//     count entries of { u64 global_id, u8 has_embedding,
//                        words_per_code u64 code words,
//                        dim int8 values when has_embedding } in ascending
//     global-id order. The writer requantizes every embedding under the ONE
//     global param set stored in the header (per-shard params differ); the
//     loader dequantizes back to floats and feeds the normal insert path,
//     so either mode can read it. dim = 0 when no entry carries an
//     embedding (then no params and no per-entry values are stored).
//   version 2 (current float format): u32 num_bits | u64 next_id |
//     u64 count | count entries of { u64 global_id, u32 embedding_len,
//                        words_per_code u64 code words, embedding floats }
//     in ascending global-id order. Ids in [0, next_id) that are absent are
//     tombstones — removed (or never-applied) entries stay removed across a
//     reload, and next_id keeps new inserts from reusing their ids.
//   version 1 (legacy, read-only): u32 num_bits | u64 count | count entries
//     without the id field; ids are dense 0..count-1.
constexpr uint64_t kSnapshotMagic = 0x31'50'41'4E'53'48'32'54ull;  // T2HSNAP1
constexpr uint32_t kSnapshotVersionQuantized = 3;
constexpr uint32_t kSnapshotVersion = 2;
constexpr uint32_t kSnapshotVersionLegacy = 1;

}  // namespace

Status ShardedIndex::SaveSnapshot(const std::string& path) const {
  // Each shard's contribution is captured under its own lock, so every
  // entry is internally consistent; Checkpoint holds the commit mutex for a
  // point-in-time cut across shards.
  const uint64_t watermark = static_cast<uint64_t>(size());
  std::vector<ingest::LiveIndex::Entry> entries;
  for (const std::unique_ptr<ingest::LiveIndex>& shard : shards_) {
    std::vector<ingest::LiveIndex::Entry> part = shard->SnapshotEntries();
    entries.insert(entries.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
  }
  std::sort(entries.begin(), entries.end(),
            [](const ingest::LiveIndex::Entry& a,
               const ingest::LiveIndex::Entry& b) { return a.id < b.id; });
  uint64_t next_id = watermark;
  if (!entries.empty()) {
    next_id = std::max(next_id,
                       static_cast<uint64_t>(entries.back().id) + 1);
  }

  std::string buffer;
  AppendPod(buffer, kSnapshotMagic);
  AppendPod(buffer,
            quantize_ ? kSnapshotVersionQuantized : kSnapshotVersion);
  const size_t crc_pos = buffer.size();
  AppendPod(buffer, uint32_t{0});  // CRC placeholder, patched below
  AppendPod(buffer, static_cast<uint32_t>(num_bits_));
  AppendPod(buffer, next_id);
  if (quantize_) {
    // One GLOBAL param set over every embedding-bearing entry: the shards'
    // own params differ (each calibrated from its own rows), so the writer
    // requantizes the dequantized lattice values onto a shared lattice.
    quant::ParamsBuilder builder(embedding_dim_);
    for (const ingest::LiveIndex::Entry& e : entries) {
      if (static_cast<int>(e.embedding.size()) != embedding_dim_) continue;
      T2H_CHECK(builder.Add(e.embedding.data()).ok());
    }
    quant::QuantizationParams params;
    uint32_t dim = 0;
    if (builder.rows_seen() > 0) {
      auto built = builder.Build();
      T2H_CHECK(built.ok());
      params = std::move(built.value());
      dim = static_cast<uint32_t>(embedding_dim_);
    }
    AppendPod(buffer, dim);
    buffer.append(reinterpret_cast<const char*>(params.scale.data()),
                  params.scale.size() * sizeof(float));
    buffer.append(reinterpret_cast<const char*>(params.zero_point.data()),
                  params.zero_point.size() * sizeof(float));
    AppendPod(buffer, static_cast<uint64_t>(entries.size()));
    std::vector<int8_t> qrow(embedding_dim_);
    for (const ingest::LiveIndex::Entry& e : entries) {
      AppendPod(buffer, static_cast<uint64_t>(e.id));
      const bool has =
          dim > 0 && static_cast<int>(e.embedding.size()) == embedding_dim_;
      AppendPod(buffer, static_cast<uint8_t>(has ? 1 : 0));
      buffer.append(reinterpret_cast<const char*>(e.code.words.data()),
                    e.code.words.size() * sizeof(uint64_t));
      if (has) {
        T2H_CHECK(params.QuantizeRow(e.embedding.data(), qrow.data()).ok());
        buffer.append(reinterpret_cast<const char*>(qrow.data()),
                      qrow.size() * sizeof(int8_t));
      }
    }
  } else {
    AppendPod(buffer, static_cast<uint64_t>(entries.size()));
    for (const ingest::LiveIndex::Entry& e : entries) {
      AppendPod(buffer, static_cast<uint64_t>(e.id));
      AppendPod(buffer, static_cast<uint32_t>(e.embedding.size()));
      buffer.append(reinterpret_cast<const char*>(e.code.words.data()),
                    e.code.words.size() * sizeof(uint64_t));
      buffer.append(reinterpret_cast<const char*>(e.embedding.data()),
                    e.embedding.size() * sizeof(float));
    }
  }
  const uint32_t crc = Crc32(buffer.data() + crc_pos + sizeof(uint32_t),
                             buffer.size() - crc_pos - sizeof(uint32_t));
  std::memcpy(buffer.data() + crc_pos, &crc, sizeof(crc));
  return AtomicWriteFile(path, buffer);
}

Status ShardedIndex::LoadSnapshot(const std::string& path) {
  if (size() != 0) {
    return Status::FailedPrecondition(
        "LoadSnapshot requires an empty index (current size " +
        std::to_string(size()) + ")");
  }
  Result<std::string> read = ReadFileToString(path);
  if (!read.ok()) return read.status();
  const std::string& buffer = read.value();

  constexpr size_t kHeaderEnd =
      sizeof(kSnapshotMagic) + sizeof(uint32_t) + sizeof(uint32_t);
  PayloadReader header(buffer, 0);
  const auto magic = header.Read<uint64_t>();
  const auto version = header.Read<uint32_t>();
  const auto stored_crc = header.Read<uint32_t>();
  if (!header.ok() || magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a traj2hash snapshot file: " + path);
  }
  if (version != kSnapshotVersion && version != kSnapshotVersionLegacy &&
      version != kSnapshotVersionQuantized) {
    return Status::FailedPrecondition(
        "snapshot " + path + " has format version " +
        std::to_string(version) + ", this build reads versions " +
        std::to_string(kSnapshotVersionLegacy) + " through " +
        std::to_string(kSnapshotVersionQuantized));
  }
  const uint32_t actual_crc =
      Crc32(buffer.data() + kHeaderEnd, buffer.size() - kHeaderEnd);
  if (actual_crc != stored_crc) {
    return Status::DataLoss("snapshot checksum mismatch (torn write or "
                            "bit-flip corruption): " + path);
  }

  PayloadReader reader(buffer, kHeaderEnd);
  const auto num_bits = reader.Read<uint32_t>();
  const uint64_t next_id =
      version != kSnapshotVersionLegacy ? reader.Read<uint64_t>() : 0;
  // Version 3: the global quantization params the payload rows were written
  // under; the entries are dequantized right here and flow through the
  // same bulk apply as float entries (which re-quantizes per shard when
  // this index runs in quantize mode).
  quant::QuantizationParams v3_params;
  uint32_t v3_dim = 0;
  if (version == kSnapshotVersionQuantized) {
    v3_dim = reader.Read<uint32_t>();
    v3_params.scale.resize(v3_dim);
    v3_params.zero_point.resize(v3_dim);
    reader.ReadBytes(v3_params.scale.data(), v3_dim * sizeof(float));
    reader.ReadBytes(v3_params.zero_point.data(), v3_dim * sizeof(float));
  }
  const auto count = reader.Read<uint64_t>();
  if (reader.ok() && static_cast<int>(num_bits) != num_bits_) {
    return Status::InvalidArgument(
        "snapshot " + path + " stores " + std::to_string(num_bits) +
        "-bit codes, index expects " + std::to_string(num_bits_));
  }
  const int words_per_code = (num_bits_ + 63) / 64;
  std::vector<int> ids;
  std::vector<search::Code> codes;
  std::vector<std::vector<float>> embeddings;
  if (reader.ok()) {
    ids.reserve(count);
    codes.reserve(count);
    embeddings.reserve(count);
  }
  int64_t previous_id = -1;
  std::vector<int8_t> qrow(v3_dim);
  for (uint64_t i = 0; reader.ok() && i < count; ++i) {
    const int id = version != kSnapshotVersionLegacy
                       ? static_cast<int>(reader.Read<uint64_t>())
                       : static_cast<int>(i);
    search::Code code;
    std::vector<float> embedding;
    if (version == kSnapshotVersionQuantized) {
      const auto has = reader.Read<uint8_t>();
      code.num_bits = num_bits_;
      code.words.resize(words_per_code);
      reader.ReadBytes(code.words.data(), words_per_code * sizeof(uint64_t));
      if (has != 0) {
        reader.ReadBytes(qrow.data(), v3_dim * sizeof(int8_t));
        embedding.resize(v3_dim);
        if (reader.ok()) {
          v3_params.DequantizeRow(qrow.data(), embedding.data());
        }
      }
    } else {
      const auto embedding_len = reader.Read<uint32_t>();
      code.num_bits = num_bits_;
      code.words.resize(words_per_code);
      reader.ReadBytes(code.words.data(), words_per_code * sizeof(uint64_t));
      embedding.resize(embedding_len);
      reader.ReadBytes(embedding.data(), embedding_len * sizeof(float));
    }
    if (!reader.ok()) break;
    // The CRC vouches for the bytes, so structurally impossible ids mean
    // writer/reader disagreement: surface as data loss, load nothing.
    if (id <= previous_id ||
        (version != kSnapshotVersionLegacy &&
         static_cast<uint64_t>(id) >= next_id)) {
      return Status::DataLoss("snapshot ids are not ascending below the "
                              "next-id watermark: " + path);
    }
    previous_id = id;
    ids.push_back(id);
    codes.push_back(std::move(code));
    embeddings.push_back(std::move(embedding));
  }
  if (!reader.at_end()) {
    return Status::DataLoss("snapshot payload is malformed: " + path);
  }
  // The index is only mutated after the full parse, so every failure path
  // above leaves it empty. Ids ascend, so they are unique.
  ApplyFresh(ids, std::move(codes), std::move(embeddings));
  next_id_.store(version != kSnapshotVersionLegacy
                     ? static_cast<int>(next_id)
                     : static_cast<int>(count),
                 std::memory_order_release);
  return Status::Ok();
}

Status ShardedIndex::ApplyReplayed(const ingest::WalRecord& record) {
  const int id = record.id;
  if (id < 0) {
    return Status::DataLoss("WAL record has negative id " +
                            std::to_string(id));
  }
  if (record.type == ingest::WalRecordType::kRemove) {
    // Tolerant: the snapshot may already reflect this remove.
    shards_[ShardOf(id)]->RemoveIfPresent(id);
  } else {
    if (record.code.num_bits != num_bits_) {
      return Status::DataLoss(
          "WAL record stores " + std::to_string(record.code.num_bits) +
          "-bit codes, index expects " + std::to_string(num_bits_));
    }
    // Upsert: the snapshot may already contain this record's effect (or an
    // older code for the same id) — last record per id wins either way.
    shards_[ShardOf(id)]->Upsert(id, record.code, record.embedding);
  }
  if (id >= next_id_.load(std::memory_order_acquire)) {
    next_id_.store(id + 1, std::memory_order_release);
  }
  return Status::Ok();
}

Status ShardedIndex::Recover(const std::string& snapshot_path,
                             const std::string& wal_path) {
  T2H_CHECK_MSG(!wal_path.empty(), "Recover needs a WAL path");
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("a WAL is already attached");
  }
  if (size() != 0) {
    return Status::FailedPrecondition(
        "Recover requires an empty index (current size " +
        std::to_string(size()) + ")");
  }
  if (!snapshot_path.empty() && FileExists(snapshot_path)) {
    const Status loaded = LoadSnapshot(snapshot_path);
    if (!loaded.ok()) return loaded;
  }
  ingest::WalReplay replay;
  Result<std::unique_ptr<ingest::Wal>> opened =
      ingest::Wal::Open(wal_path, &replay);
  if (!opened.ok()) return opened.status();
  for (const ingest::WalRecord& record : replay.records) {
    const Status applied = ApplyReplayed(record);
    if (!applied.ok()) return applied;
  }
  wal_ = std::move(opened).value();
  return Status::Ok();
}

Status ShardedIndex::AttachWal(const std::string& wal_path) {
  return Recover("", wal_path);
}

Status ShardedIndex::ApplyShipped(const ingest::WalRecord& record) {
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    if (wal_ != nullptr) {
      return Status::FailedPrecondition(
          "ApplyShipped on an index with its own WAL: a replica must not "
          "re-log the primary's records");
    }
  }
  return ApplyReplayed(record);
}

uint64_t ShardedIndex::wal_last_seq() const {
  std::lock_guard<std::mutex> lock(wal_mu_);
  return wal_ != nullptr ? wal_->last_seq() : 0;
}

Status ShardedIndex::Checkpoint(const std::string& path) {
  if (wal_ == nullptr) return SaveSnapshot(path);
  // Under the commit mutex no mutation can be between its WAL append and
  // its apply, so the snapshot is an exact cut; resetting the log after a
  // successful save cannot drop an acknowledged write. A crash between the
  // two steps merely replays the whole (idempotent) log over the snapshot.
  std::lock_guard<std::mutex> lock(wal_mu_);
  const Status saved = SaveSnapshot(path);
  if (!saved.ok()) return saved;
  return wal_->Reset();
}

std::vector<float> ShardedIndex::EmbeddingOf(int id) const {
  T2H_CHECK(id >= 0 && id < size());
  return shards_[ShardOf(id)]->EmbeddingOf(id);
}

int ShardedIndex::live_size() const {
  int total = 0;
  for (const auto& shard : shards_) total += shard->live_size();
  return total;
}

int ShardedIndex::tombstone_count() const {
  int total = 0;
  for (const auto& shard : shards_) total += shard->tombstone_count();
  return total;
}

int ShardedIndex::compactions_run() const {
  int total = 0;
  for (const auto& shard : shards_) total += shard->compactions_run();
  return total;
}

void ShardedIndex::CompactAll() {
  for (const auto& shard : shards_) shard->Compact();
}

}  // namespace traj2hash::serve
