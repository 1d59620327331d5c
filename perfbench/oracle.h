// Brute-force oracles the benchmark checks served answers against. They
// share no search code with the engine: Hamming top-k is a popcount loop over
// every live code, and the re-rank oracle rebuilds each shard's candidate set
// that way before scoring the stored (dequantized) embeddings.
#ifndef T2H_PERFBENCH_ORACLE_H_
#define T2H_PERFBENCH_ORACLE_H_

#include <vector>

#include "ingest/live_index.h"
#include "search/code.h"
#include "search/knn.h"

namespace perfbench {

using Entry = traj2hash::ingest::LiveIndex::Entry;
using traj2hash::search::Code;
using traj2hash::search::Neighbor;

/// The k nearest of `db` to `query` in Hamming distance, ordered by
/// (distance, id) — what QueryEngine::Query must return, bit for bit.
std::vector<Neighbor> BruteHammingTopK(const std::vector<Entry>& db,
                                       const Code& query, int k);

/// What QueryEngine::QueryRerank must return: per shard, the `candidates`
/// Hamming-nearest live entries are scored by exact float L2 over their
/// stored embeddings (the dequantized lattice under `quantize`), and the
/// per-shard top-k lists merge under (distance, id).
std::vector<Neighbor> RerankOracle(
    const std::vector<std::vector<Entry>>& shards, const Code& query,
    const std::vector<float>& query_embedding, int k, int candidates);

/// Bit-identical comparison (ids and distances, in order).
bool SameAnswer(const std::vector<Neighbor>& a, const std::vector<Neighbor>& b);

}  // namespace perfbench

#endif  // T2H_PERFBENCH_ORACLE_H_
