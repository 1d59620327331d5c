#include "oracle.h"

#include <algorithm>
#include <bit>

#include "search/flat_storage.h"

namespace perfbench {

namespace {

int Hamming(const Code& a, const Code& b) {
  int d = 0;
  for (size_t w = 0; w < a.words.size(); ++w) {
    d += std::popcount(a.words[w] ^ b.words[w]);
  }
  return d;
}

}  // namespace

std::vector<Neighbor> BruteHammingTopK(const std::vector<Entry>& db,
                                       const Code& query, int k) {
  std::vector<Neighbor> all;
  all.reserve(db.size());
  for (const Entry& e : db) {
    all.push_back({e.id, static_cast<double>(Hamming(e.code, query))});
  }
  const size_t keep = std::min(all.size(), static_cast<size_t>(k));
  std::partial_sort(all.begin(), all.begin() + keep, all.end(),
                    traj2hash::search::NeighborLess);
  // A fresh k-sized vector: callers keep these, and `all` holds the whole
  // database's capacity.
  return std::vector<Neighbor>(all.begin(), all.begin() + keep);
}

std::vector<Neighbor> RerankOracle(
    const std::vector<std::vector<Entry>>& shards, const Code& query,
    const std::vector<float>& query_embedding, int k, int candidates) {
  std::vector<Neighbor> merged;
  for (const std::vector<Entry>& shard : shards) {
    std::vector<Neighbor> cand =
        BruteHammingTopK(shard, query, std::max(candidates, k));
    std::vector<int> ids;
    for (const Neighbor& n : cand) ids.push_back(n.index);
    std::sort(ids.begin(), ids.end());
    traj2hash::search::FlatMatrix rows(
        static_cast<int>(query_embedding.size()));
    std::vector<int> row_ids;
    for (const int id : ids) {
      const auto it = std::lower_bound(
          shard.begin(), shard.end(), id,
          [](const Entry& e, int want) { return e.id < want; });
      if (it->embedding.size() != query_embedding.size()) continue;
      rows.Append(it->embedding);
      row_ids.push_back(id);
    }
    if (row_ids.empty()) continue;
    for (Neighbor n : traj2hash::search::TopKEuclidean(rows, query_embedding,
                                                       k)) {
      n.index = row_ids[n.index];
      merged.push_back(n);
    }
  }
  std::sort(merged.begin(), merged.end(), traj2hash::search::NeighborLess);
  if (static_cast<int>(merged.size()) > k) merged.resize(k);
  return merged;
}

bool SameAnswer(const std::vector<Neighbor>& a,
                const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || a[i].distance != b[i].distance) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
