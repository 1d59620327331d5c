// traj2hash command-line tool: generate synthetic data, train models, run
// top-k similar trajectory queries, and bench the concurrent serving engine
// from CSV files.
//
//   t2h_cli generate    --city porto --count 2000 --out trips.csv
//   t2h_cli train       --data trips.csv --measure frechet --out model.bin
//   t2h_cli query       --data trips.csv --model model.bin --query-id 5 --k 10
//   t2h_cli distance    --data trips.csv --a 3 --b 7
//   t2h_cli serve-bench --data trips.csv --threads 4 --shards 4
//   t2h_cli serve-bench --data trips.csv --churn 500 --stats-json stats.json
//   t2h_cli wal-replay  --wal serve.wal
//
// `train` and `query` must be given the same --data / --dim / --measure
// flags: the model file stores parameters only, while normaliser and grid
// statistics are re-fitted deterministically from the data file.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_features.h"
#include "common/file_util.h"
#include "common/parse.h"
#include "common/retry.h"
#include "common/stopwatch.h"
#include "common/zipf.h"
#include "ingest/wal.h"
#include "replica/replica.h"
#include "replica/router.h"
#include "core/trainer.h"
#include "distance/distance.h"
#include "search/hamming_index.h"
#include "search/knn.h"
#include "search/mih.h"
#include "search/strategy.h"
#include "serve/engine.h"
#include "traj/io.h"
#include "traj/synthetic.h"

namespace t2h = traj2hash;

namespace {

/// Strict --flag value parser; flags may appear in any order. Malformed
/// input (a positional argument, a flag without a value) is collected as an
/// error instead of being silently skipped or misread as the previous
/// flag's value; commands additionally reject flags they do not know.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        errors_.push_back("unexpected positional argument '" + arg + "'");
        continue;
      }
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        errors_.push_back("flag " + arg + " is missing a value");
        continue;
      }
      values_[arg.substr(2)] = argv[i + 1];
      ++i;
    }
  }

  /// Parse errors plus any flag outside `known`, or empty when clean.
  std::vector<std::string> Validate(const std::set<std::string>& known) const {
    std::vector<std::string> errors = errors_;
    for (const auto& [key, value] : values_) {
      if (known.count(key) == 0) {
        errors.push_back("unknown flag --" + key);
      }
    }
    return errors;
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it != values_.end() ? it->second : fallback;
  }
  int GetInt(const std::string& key, int fallback) const {
    const auto it = values_.find(key);
    return it != values_.end() ? std::atoi(it->second.c_str()) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> errors_;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// One-line description of the resolved kernel dispatch, for startup logs
/// and `version`: which ISA the kernels run on, what the CPU would support,
/// why this one was chosen, and which backends this binary carries.
std::string KernelIsaLine() {
  const t2h::KernelIsaSelection sel = t2h::CurrentKernelIsa();
  std::string line = "kernel isa: selected=";
  line += t2h::KernelIsaName(sel.selected);
  line += " detected=";
  line += t2h::KernelIsaName(sel.detected);
  line += " source=";
  line += sel.source;
  line += " available=";
  bool first = true;
  for (int i = 0; i < t2h::kNumKernelIsas; ++i) {
    const auto isa = static_cast<t2h::KernelIsa>(i);
    if (!t2h::KernelIsaAvailable(isa)) continue;
    if (!first) line += ",";
    line += t2h::KernelIsaName(isa);
    first = false;
  }
  return line;
}

/// Applies --kernel-isa before any kernel dispatch. An unknown name or an
/// ISA this binary/CPU cannot run is a hard error — the dispatcher never
/// silently falls back to a different path than the one asked for.
t2h::Status ApplyKernelIsaFlag(const Args& args) {
  const std::string name = args.Get("kernel-isa", "");
  if (name.empty()) return t2h::Status::Ok();
  const t2h::Result<t2h::KernelIsa> isa = t2h::ParseKernelIsa(name);
  if (!isa.ok()) return isa.status();
  return t2h::SetKernelIsa(isa.value(), "cli:--kernel-isa");
}

int RunVersion(const Args&) {
  std::printf("t2h_cli (traj2hash)\n%s\n", KernelIsaLine().c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: t2h_cli <command> [--flag value]...\n"
               "  generate --out F [--city porto|chengdu] [--count N]"
               " [--max-points N] [--seed S]\n"
               "  train    --data F --out MODEL [--measure frechet|hausdorff"
               "|dtw]\n"
               "           [--seeds N] [--epochs N] [--dim D] [--seed S]"
               " [--threads T]\n"
               "  query    --data F --model MODEL --query-id ID [--k K]\n"
               "           [--space euclid|hamming|hybrid] [--dim D]"
               " [--seed S]\n"
               "           [--strategy brute|radius2|mih]"
               " [--mih-substrings M]\n"
               "  distance --data F --a ID --b ID\n"
               "  serve-bench --data F [--model MODEL] [--threads T]"
               " [--shards S]\n"
               "           [--k K] [--queries N] [--rounds R] [--dim D]"
               " [--seed S]\n"
               "           [--strategy brute|radius2|mih]"
               " [--mih-substrings M]\n"
               "           [--deadline-ms MS] [--queue-depth N]"
               " [--overload reject|block]\n"
               "           [--snapshot F]  (load encoded db from F if it"
               " exists, else build+save)\n"
               "           [--wal F]       (durable mode: recover from"
               " snapshot+WAL, fsync every\n"
               "                            mutation, checkpoint at exit"
               " when --snapshot is set)\n"
               "           [--churn OPS]   (run OPS concurrent mutations"
               " during the query rounds,\n"
               "                            then verify queries stayed"
               " exact)\n"
               "           [--query-dist uniform|zipf:<s>] (query key"
               " distribution; zipf skews\n"
               "                            the load onto hot keys with"
               " exponent s)\n"
               "           [--replicas N]  (requires --wal: ship the log to"
               " N replicas and route\n"
               "                            the query rounds across them;"
               " DESIGN.md 13)\n"
               "           [--drill none|rolling|kill|netsplit] (with"
               " --replicas: rolling-restart,\n"
               "                            crash+rebootstrap one replica, or"
               " sever the socket\n"
               "                            transport mid-burst)\n"
               "           [--transport inproc|socket] (with --replicas: ship"
               " the WAL in-process\n"
               "                            or over framed loopback TCP;"
               " DESIGN.md 16)\n"
               "           [--max-lag-records N] [--max-lag-ms M] (staleness"
               " bound: demote a\n"
               "                            replica lagging past either limit"
               " from routing)\n"
               "           [--clients C]   (drive rounds from C concurrent"
               " client threads calling\n"
               "                            Query() instead of QueryBatch)\n"
               "           [--batch-wait-us U] (requires --clients: coalesce"
               " concurrent queries\n"
               "                            into one encode batch, waiting at"
               " most U us)\n"
               "           [--max-batch B] (coalescer flush size, default"
               " 8)\n"
               "           [--cache-entries N] (epoch-keyed result cache"
               " capacity; 0 = off)\n"
               "           [--quantize 0|1] (int8 embedding store + a round"
               " of two-stage\n"
               "                            Euclidean re-rank queries;"
               " DESIGN.md 17)\n"
               "           [--rerank-candidates N] (Hamming candidates"
               " re-ranked per shard;\n"
               "                            0 = max(8k, 64))\n"
               "           [--stats-json F] (dump the per-stage latency"
               " snapshot as JSON)\n"
               "  wal-replay --wal F  (walk a write-ahead log, print its"
               " records and tail state;\n"
               "                       exit 3 when a torn tail was found)\n"
               "           [--from-seq N] (print only the suffix with seq"
               " >= N)\n"
               "  version  (print build info and the resolved kernel ISA)\n"
               "train/query/serve-bench/version also take\n"
               "  [--kernel-isa scalar|sse2|avx2] (force the SIMD kernel"
               " backend; errors if\n"
               "                            unavailable — same as the"
               " T2H_KERNEL_ISA env var)\n");
  return 2;
}

/// Reports accumulated parse errors / unknown flags for one command; returns
/// true when the command should abort.
bool RejectBadFlags(const Args& args, const std::set<std::string>& known) {
  const std::vector<std::string> errors = args.Validate(known);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "error: %s\n", e.c_str());
  }
  return !errors.empty();
}

t2h::Result<std::vector<t2h::traj::Trajectory>> LoadData(const Args& args) {
  const std::string path = args.Get("data", "");
  if (path.empty()) {
    return t2h::Status::InvalidArgument("--data is required");
  }
  return t2h::traj::LoadCsv(path);
}

t2h::core::Traj2HashConfig ConfigFromArgs(const Args& args) {
  t2h::core::Traj2HashConfig config;
  config.dim = args.GetInt("dim", 16);
  config.num_heads = config.dim % 4 == 0 ? 4 : 2;
  config.epochs = args.GetInt("epochs", 10);
  config.samples_per_anchor = 8;
  config.batch_size = 16;
  return config;
}

int RunGenerate(const Args& args) {
  const std::string out = args.Get("out", "");
  if (out.empty()) return Fail("--out is required");
  t2h::traj::CityConfig city = args.Get("city", "porto") == "chengdu"
                                   ? t2h::traj::CityConfig::ChengduLike()
                                   : t2h::traj::CityConfig::PortoLike();
  city.max_points = args.GetInt("max-points", 24);
  t2h::Rng rng(args.GetInt("seed", 42));
  const auto trips =
      GenerateTrips(city, args.GetInt("count", 2000), rng);
  if (const t2h::Status s = t2h::traj::SaveCsv(trips, out); !s.ok()) {
    return Fail(s.ToString());
  }
  std::printf("wrote %zu %s-like trajectories to %s\n", trips.size(),
              city.name.c_str(), out.c_str());
  return 0;
}

int RunTrain(const Args& args) {
  const std::string out = args.Get("out", "");
  if (out.empty()) return Fail("--out is required");
  auto loaded = LoadData(args);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const std::vector<t2h::traj::Trajectory> corpus =
      std::move(loaded).value();
  const auto measure = t2h::dist::ParseMeasure(args.Get("measure", "frechet"));
  if (!measure.ok()) return Fail(measure.status().ToString());

  const int num_seeds =
      std::min<int>(args.GetInt("seeds", 60), corpus.size());
  const std::vector<t2h::traj::Trajectory> seeds(corpus.begin(),
                                                 corpus.begin() + num_seeds);
  std::printf("computing %dx%d exact %s distances...\n", num_seeds, num_seeds,
              t2h::dist::MeasureName(measure.value()).c_str());
  const auto distances = t2h::dist::PairwiseMatrix(
      seeds, t2h::dist::GetDistance(measure.value()));

  t2h::Rng rng(args.GetInt("seed", 42));
  auto created =
      t2h::core::Traj2Hash::Create(ConfigFromArgs(args), corpus, rng);
  if (!created.ok()) return Fail(created.status().ToString());
  auto model = std::move(created).value();
  model->PretrainGrids({}, rng);

  t2h::core::TrainingData data;
  data.seeds = seeds;
  data.seed_distances = distances;
  data.triplet_corpus = corpus;
  const int threads = args.GetInt("threads", 1);
  if (threads < 1) return Fail("--threads must be positive");
  std::printf("training (%d epochs + refinement, %d thread%s)...\n",
              model->config().epochs, threads, threads == 1 ? "" : "s");
  t2h::core::TrainerOptions trainer_options;
  trainer_options.num_threads = threads;
  t2h::core::Trainer trainer(model.get(), trainer_options);
  const auto report = trainer.Fit(data, rng);
  if (!report.ok()) return Fail(report.status().ToString());
  if (const t2h::Status s = model->Save(out); !s.ok()) {
    return Fail(s.ToString());
  }
  std::printf("model written to %s (final WMSE %.5f, %d triplets used)\n",
              out.c_str(), report.value().epochs.back().wmse,
              report.value().num_triplets_used);
  return 0;
}

int RunQuery(const Args& args) {
  auto loaded = LoadData(args);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const std::vector<t2h::traj::Trajectory> corpus =
      std::move(loaded).value();
  const int query_id = args.GetInt("query-id", -1);
  if (query_id < 0 || query_id >= static_cast<int>(corpus.size())) {
    return Fail("--query-id out of range");
  }
  t2h::Rng rng(args.GetInt("seed", 42));
  auto created =
      t2h::core::Traj2Hash::Create(ConfigFromArgs(args), corpus, rng);
  if (!created.ok()) return Fail(created.status().ToString());
  auto model = std::move(created).value();
  if (const t2h::Status s = model->Load(args.Get("model", ""));
      !s.ok()) {
    return Fail(s.ToString() + " (same --data/--dim as training?)");
  }

  const int k = args.GetInt("k", 10);
  const std::string space = args.Get("space", "hybrid");
  const t2h::traj::Trajectory& query = corpus[query_id];
  std::vector<t2h::search::Neighbor> result;
  std::string how = space;
  if (space == "euclid") {
    result = t2h::search::TopKEuclidean(t2h::core::EmbedAll(*model, corpus),
                                        model->Embed(query), k + 1);
  } else if (space == "hamming" || space == "hybrid") {
    // All strategies return bit-identical results (DESIGN.md §9); --strategy
    // only picks the probe mechanics. Without it, the legacy spaces map to
    // their historical engines: hamming = brute scan, hybrid = radius-2.
    const auto strategy = t2h::search::ParseStrategy(
        args.Get("strategy", space == "hybrid" ? "radius2" : "brute"));
    if (!strategy.ok()) return Fail(strategy.status().ToString());
    const int mih_substrings = args.GetInt("mih-substrings", 0);
    if (mih_substrings < 0) return Fail("--mih-substrings must be >= 0");
    const std::vector<t2h::search::Code> codes =
        t2h::core::HashAll(*model, corpus);
    const t2h::search::Code query_code = model->HashCode(query);
    switch (strategy.value()) {
      case t2h::search::SearchStrategy::kBrute:
        result = t2h::search::TopKHamming(codes, query_code, k + 1);
        break;
      case t2h::search::SearchStrategy::kRadius2:
        result = t2h::search::HammingIndex(codes).HybridTopK(query_code,
                                                             k + 1);
        break;
      case t2h::search::SearchStrategy::kMih:
        result = t2h::search::MihIndex(codes, mih_substrings)
                     .TopK(query_code, k + 1);
        break;
    }
    how = space + "/" + t2h::search::StrategyName(strategy.value());
  } else {
    return Fail("--space must be euclid, hamming or hybrid");
  }
  std::printf("top-%d most similar to trajectory %d (%s space):\n", k,
              query_id, how.c_str());
  int printed = 0;
  for (const t2h::search::Neighbor& n : result) {
    if (n.index == query_id) continue;  // skip the query itself
    std::printf("  id=%-6lld distance=%.4f\n",
                static_cast<long long>(corpus[n.index].id), n.distance);
    if (++printed == k) break;
  }
  return 0;
}

int RunDistance(const Args& args) {
  auto loaded = LoadData(args);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const auto corpus = std::move(loaded).value();
  const int a = args.GetInt("a", -1);
  const int b = args.GetInt("b", -1);
  if (a < 0 || b < 0 || a >= static_cast<int>(corpus.size()) ||
      b >= static_cast<int>(corpus.size())) {
    return Fail("--a/--b out of range");
  }
  const auto& ta = corpus[a];
  const auto& tb = corpus[b];
  std::printf("DTW        %.2f\n", t2h::dist::Dtw(ta, tb));
  std::printf("Frechet    %.2f\n", t2h::dist::Frechet(ta, tb));
  std::printf("Hausdorff  %.2f\n", t2h::dist::Hausdorff(ta, tb));
  std::printf("ERP        %.2f\n", t2h::dist::Erp(ta, tb));
  std::printf("LCSS(100m) %.4f\n", t2h::dist::LcssDistance(ta, tb, 100.0));
  std::printf("EDR(100m)  %.2f\n", t2h::dist::Edr(ta, tb, 100.0));
  std::printf("endpoint lower bound %.2f\n",
              t2h::dist::EndpointLowerBound(ta, tb));
  return 0;
}

int RunServeBench(const Args& args) {
  // Self-describing startup: which kernel backend every scan below runs on.
  std::printf("%s\n", KernelIsaLine().c_str());
  auto loaded = LoadData(args);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const std::vector<t2h::traj::Trajectory> corpus =
      std::move(loaded).value();
  const int num_queries =
      std::min<int>(args.GetInt("queries", 64), corpus.size());
  if (num_queries < 1) return Fail("need at least one trajectory");

  t2h::Rng rng(args.GetInt("seed", 42));
  auto created =
      t2h::core::Traj2Hash::Create(ConfigFromArgs(args), corpus, rng);
  if (!created.ok()) return Fail(created.status().ToString());
  auto model = std::move(created).value();
  const std::string model_path = args.Get("model", "");
  if (!model_path.empty()) {
    if (const t2h::Status s = model->Load(model_path); !s.ok()) {
      return Fail(s.ToString() + " (same --data/--dim as training?)");
    }
  }

  const int threads = args.GetInt("threads", 4);
  const int shards = args.GetInt("shards", 4);
  const int k = args.GetInt("k", 10);
  const int rounds = args.GetInt("rounds", 3);
  if (threads < 1 || shards < 1 || k < 1 || rounds < 1) {
    return Fail("--threads/--shards/--k/--rounds must be positive");
  }
  const auto strategy =
      t2h::search::ParseStrategy(args.Get("strategy", "mih"));
  if (!strategy.ok()) return Fail(strategy.status().ToString());
  const int mih_substrings = args.GetInt("mih-substrings", 0);
  if (mih_substrings < 0) return Fail("--mih-substrings must be >= 0");
  const int deadline_ms = args.GetInt("deadline-ms", 0);
  const int queue_depth = args.GetInt("queue-depth", 0);
  if (deadline_ms < 0 || queue_depth < 0) {
    return Fail("--deadline-ms/--queue-depth must be >= 0");
  }
  const auto policy =
      t2h::serve::ParseOverloadPolicy(args.Get("overload", "reject"));
  if (!policy.ok()) return Fail(policy.status().ToString());
  const int replicas = args.GetInt("replicas", 0);
  if (replicas < 0) return Fail("--replicas must be >= 0");
  const std::string drill = args.Get("drill", "none");
  if (drill != "none" && drill != "rolling" && drill != "kill" &&
      drill != "netsplit") {
    return Fail("--drill must be none, rolling, kill or netsplit");
  }
  if ((drill == "rolling" || drill == "kill") && replicas < 2) {
    return Fail("--drill needs --replicas >= 2 (survivors must keep serving)");
  }
  const std::string transport = args.Get("transport", "inproc");
  if (transport != "inproc" && transport != "socket") {
    return Fail("--transport must be inproc or socket");
  }
  if (drill == "netsplit") {
    // A netsplit partitions the shipping network; replicas keep serving
    // reads from their applied state, so one replica suffices.
    if (transport != "socket") {
      return Fail("--drill netsplit needs --transport socket (there is no"
                  " network to sever in-process)");
    }
    if (replicas < 1) return Fail("--drill netsplit needs --replicas >= 1");
  }
  const int max_lag_records = args.GetInt("max-lag-records", 0);
  const double max_lag_ms = std::atof(args.Get("max-lag-ms", "0").c_str());
  if (max_lag_records < 0 || max_lag_ms < 0.0) {
    return Fail("--max-lag-records/--max-lag-ms must be >= 0");
  }
  // --query-dist uniform (historical first-N replay) or zipf:<s> (hot-key
  // skew: rank r of the first N trajectories drawn with P ∝ 1/(r+1)^s).
  const std::string query_dist = args.Get("query-dist", "uniform");
  double zipf_s = -1.0;
  if (query_dist.rfind("zipf:", 0) == 0) {
    zipf_s = std::atof(query_dist.substr(5).c_str());
    if (zipf_s < 0.0) return Fail("--query-dist zipf:<s> needs s >= 0");
  } else if (query_dist != "uniform") {
    return Fail("--query-dist must be uniform or zipf:<s>");
  }
  // Query front-end (DESIGN.md §15): --batch-wait-us >= 0 turns on encode
  // coalescing with that bounded wait (needs --clients, the concurrent
  // open-loop mode); --cache-entries > 0 turns on the epoch-keyed result
  // cache (engine side and, with --replicas, per-replica router caches).
  const int batch_wait_us = args.GetInt("batch-wait-us", -1);
  const int max_batch = args.GetInt("max-batch", 8);
  const int cache_entries = args.GetInt("cache-entries", 0);
  const int clients = args.GetInt("clients", 0);
  if (max_batch < 1) return Fail("--max-batch must be >= 1");
  if (cache_entries < 0 || clients < 0) {
    return Fail("--cache-entries/--clients must be >= 0");
  }
  if (batch_wait_us >= 0 && clients == 0) {
    return Fail("--batch-wait-us needs --clients >= 1 (coalescing batches"
                " concurrent Query() callers)");
  }
  // Quantized embedding store (DESIGN.md §17): --quantize 1 stores
  // embeddings as per-dim int8 and adds a round of two-stage re-rank
  // queries after the Hamming rounds.
  const int quantize_flag = args.GetInt("quantize", 0);
  if (quantize_flag != 0 && quantize_flag != 1) {
    return Fail("--quantize must be 0 or 1");
  }
  const bool quantize = quantize_flag == 1;
  const int rerank_candidates = args.GetInt("rerank-candidates", 0);
  if (rerank_candidates < 0) return Fail("--rerank-candidates must be >= 0");

  t2h::serve::QueryEngine engine(model.get(),
                                 {.num_threads = threads,
                                  .num_shards = shards,
                                  .strategy = strategy.value(),
                                  .mih_substrings = mih_substrings,
                                  .queue_depth = queue_depth,
                                  .overload_policy = policy.value(),
                                  .enable_coalescing = batch_wait_us >= 0,
                                  .max_batch = max_batch,
                                  .max_wait_us = batch_wait_us >= 0
                                      ? batch_wait_us
                                      : 0,
                                  .cache_entries = cache_entries,
                                  .quantize = quantize,
                                  .rerank_candidates = rerank_candidates});
  if (quantize) {
    // Self-describing startup, like the kernel-isa line: which embedding
    // store this run serves from and how wide the re-rank pool is.
    std::printf("quantize: int8 embedding store on,"
                " rerank candidates/shard %d\n",
                rerank_candidates > 0 ? rerank_candidates
                                      : std::max(8 * k, 64));
  }

  // With --snapshot, a readable snapshot replaces the encode-heavy
  // InsertAll; otherwise the database is built and then checkpointed (the
  // save retries with backoff: a transient IO failure should not waste the
  // encode work just done). A present-but-corrupt snapshot is an error —
  // silently rebuilding would mask data loss.
  const std::string snapshot_path = args.Get("snapshot", "");
  const std::string wal_path = args.Get("wal", "");
  if (replicas > 0 && wal_path.empty()) {
    return Fail("--replicas needs --wal: the WAL is the shipping stream");
  }
  t2h::Stopwatch ingest;
  bool restored = false;
  if (!wal_path.empty()) {
    // Durable mode: boot from snapshot + WAL replay, then keep logging.
    // Every mutation below (ingest and --churn) is fsynced before it is
    // acknowledged; `t2h_cli wal-replay --wal F` can inspect the log after.
    if (const t2h::Status s = engine.Recover(snapshot_path, wal_path);
        !s.ok()) {
      return Fail("cannot recover: " + s.ToString());
    }
    restored = engine.size() > 0;
  } else if (!snapshot_path.empty()) {
    const t2h::Status s = engine.LoadSnapshot(snapshot_path);
    if (s.ok()) {
      restored = true;
    } else if (s.code() != t2h::StatusCode::kIoError) {
      return Fail("cannot restore snapshot: " + s.ToString());
    }
  }
  if (!restored) {
    if (const t2h::Status s = engine.InsertAll(corpus); !s.ok()) {
      return Fail("ingest failed: " + s.ToString());
    }
    if (!snapshot_path.empty() && wal_path.empty()) {
      t2h::Rng retry_rng(args.GetInt("seed", 42) + 1);
      const t2h::Status s = t2h::RetryWithBackoff(
          t2h::RetryOptions{}, retry_rng,
          [&] { return engine.SaveSnapshot(snapshot_path); });
      if (!s.ok()) return Fail("cannot save snapshot: " + s.ToString());
      std::printf("snapshot written to %s\n", snapshot_path.c_str());
    }
  }
  std::printf("%s %d trajectories into %d shards in %.2f s\n",
              restored ? "restored" : "ingested", engine.size(), shards,
              ingest.ElapsedSeconds());
  if (engine.size() < num_queries) return Fail("snapshot smaller than --queries");

  // Query load over the first --queries trajectories of the database:
  // uniform replays them in order (the historical load); zipf draws
  // --queries ranks from that prefix so a few hot keys dominate, which is
  // what real query streams look like.
  std::vector<t2h::traj::Trajectory> queries;
  queries.reserve(num_queries);
  if (zipf_s >= 0.0) {
    const t2h::ZipfSampler sampler(num_queries, zipf_s);
    t2h::Rng query_rng(args.GetInt("seed", 42) + 3);
    for (int i = 0; i < num_queries; ++i) {
      queries.push_back(corpus[sampler.Sample(query_rng)]);
    }
  } else {
    queries.assign(corpus.begin(), corpus.begin() + num_queries);
  }
  auto run_round = [&] {
    t2h::serve::QueryOptions options;
    if (deadline_ms > 0) {
      options.deadline = t2h::Deadline::AfterMillis(deadline_ms);
    }
    // Shed queries also report complete=false; count only genuine
    // deadline expiries here (the shed total comes from the engine).
    int64_t incomplete = 0;
    if (clients > 0) {
      // Open-loop client mode: --clients threads each issue Query() over an
      // interleaved slice of the load. This is the shape the coalescer
      // batches (concurrent single-query arrivals); QueryBatch below runs
      // its queries as pool tasks, which never coalesce.
      std::atomic<int64_t> bad{0};
      std::vector<std::thread> workers;
      workers.reserve(clients);
      for (int c = 0; c < clients; ++c) {
        workers.emplace_back([&engine, &queries, &options, &bad, c, clients,
                              k] {
          for (size_t i = c; i < queries.size();
               i += static_cast<size_t>(clients)) {
            const t2h::serve::QueryResult r =
                engine.Query(queries[i], k, options);
            if (!r.complete &&
                r.status.code() != t2h::StatusCode::kUnavailable) {
              bad.fetch_add(1, std::memory_order_relaxed);
            }
          }
        });
      }
      for (std::thread& w : workers) w.join();
      incomplete = bad.load(std::memory_order_relaxed);
    } else {
      for (const t2h::serve::QueryResult& r :
           engine.QueryBatch(queries, k, options)) {
        if (!r.complete &&
            r.status.code() != t2h::StatusCode::kUnavailable) {
          ++incomplete;
        }
      }
    }
    return incomplete;
  };
  const int churn_ops = args.GetInt("churn", 0);
  if (churn_ops < 0) return Fail("--churn must be >= 0");

  run_round();  // warm-up
  engine.ResetStats();
  // With --churn, a mutator thread interleaves inserts / removes / updates
  // with the query rounds — the live-mutation serving shape (DESIGN.md §12).
  std::atomic<int64_t> mutations{0};
  std::thread mutator;
  if (churn_ops > 0) {
    mutator = std::thread([&engine, &corpus, &mutations, churn_ops, &args] {
      t2h::Rng mut_rng(args.GetInt("seed", 42) + 7);
      for (int i = 0; i < churn_ops; ++i) {
        const double dice = mut_rng.Uniform(0.0, 1.0);
        t2h::Status s;
        if (dice < 0.5) {
          const auto& t = corpus[i % corpus.size()];
          s = engine.Insert(t).status();
        } else {
          const int id = static_cast<int>(mut_rng.Uniform(
              0.0, static_cast<double>(engine.size())));
          s = dice < 0.75 ? engine.Remove(id)
                          : engine.Update(id, corpus[i % corpus.size()]);
        }
        // kNotFound just means the randomly picked id was already removed.
        if (s.ok()) mutations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  t2h::Stopwatch wall;
  int64_t incomplete = 0;
  for (int r = 0; r < rounds; ++r) incomplete += run_round();
  const double seconds = wall.ElapsedSeconds();
  if (mutator.joinable()) mutator.join();
  const int total = rounds * num_queries;

  std::printf("%d queries (top-%d, %d threads, %d shards, %s): %.1f QPS\n",
              total, k, threads, shards,
              t2h::search::StrategyName(strategy.value()), total / seconds);
  if (deadline_ms > 0 || queue_depth > 0) {
    std::printf("degraded: %lld partial/deadline-expired, %lld shed\n",
                static_cast<long long>(incomplete),
                static_cast<long long>(engine.shed_count()));
  }
  if (churn_ops > 0) {
    // The index is quiescent again: every query must now be bit-identical
    // to a brute-force oracle over the surviving entries.
    std::vector<int> oracle_ids;
    std::vector<t2h::search::Code> oracle_codes;
    for (int s = 0; s < engine.index().num_shards(); ++s) {
      for (const auto& entry : engine.index().shard(s).SnapshotEntries()) {
        oracle_ids.push_back(entry.id);
        oracle_codes.push_back(entry.code);
      }
    }
    bool exact = true;
    for (int q = 0; q < std::min(num_queries, 16) && exact; ++q) {
      const t2h::search::Code code = model->HashCode(corpus[q]);
      std::vector<t2h::search::Neighbor> want;
      for (size_t i = 0; i < oracle_codes.size(); ++i) {
        want.push_back({oracle_ids[i],
                        static_cast<double>(t2h::search::HammingDistance(
                            oracle_codes[i], code))});
      }
      std::sort(want.begin(), want.end(), t2h::search::NeighborLess);
      if (static_cast<int>(want.size()) > k) want.resize(k);
      const auto got = engine.index().QueryTopK(code, k);
      exact = got.size() == want.size();
      for (size_t i = 0; exact && i < want.size(); ++i) {
        exact = got[i].index == want[i].index &&
                got[i].distance == want[i].distance;
      }
    }
    std::printf("churn: %lld mutations applied concurrently; live %d of %d"
                " assigned ids; post-churn queries %s\n",
                static_cast<long long>(mutations.load()), engine.live_size(),
                engine.size(), exact ? "exact" : "NOT EXACT");
    if (!exact) return Fail("post-churn queries diverged from brute force");
  }
  std::printf("%s", engine.stats().ToString().c_str());
  if (batch_wait_us >= 0 || cache_entries > 0) {
    const t2h::serve::FrontendSnapshot fs = engine.frontend_stats();
    std::printf(
        "frontend: %llu batches (occupancy mean %.2f p50 %d p95 %d),"
        " cache %llu hits / %llu lookups (%llu stale)\n",
        static_cast<unsigned long long>(fs.occupancy.batches),
        fs.occupancy.mean, fs.occupancy.p50, fs.occupancy.p95,
        static_cast<unsigned long long>(fs.cache_hits),
        static_cast<unsigned long long>(fs.cache_lookups),
        static_cast<unsigned long long>(fs.cache_stale));
  }
  if (quantize) {
    // A round of Euclidean re-rank traffic through the two-stage quantized
    // re-ranker — the path --quantize exists for. Serial on purpose: the
    // per-query band/recheck counters below are the product, not QPS.
    t2h::Stopwatch rerank_wall;
    int64_t rerank_bad = 0;
    for (const auto& q : queries) {
      const t2h::serve::QueryResult r = engine.QueryRerank(q, k);
      if (!r.complete) ++rerank_bad;
    }
    const double rerank_seconds = rerank_wall.ElapsedSeconds();
    if (rerank_bad > 0) {
      return Fail("QueryRerank returned " + std::to_string(rerank_bad) +
                  " incomplete results");
    }
    const t2h::serve::QuantSnapshot qs = engine.quant_stats();
    std::printf(
        "quant: %llu rerank queries at %.1f QPS, resident %llu bytes,"
        " recheck rate %.4f, band width %.4f, %llu band violations\n",
        static_cast<unsigned long long>(qs.rerank_queries),
        queries.size() / rerank_seconds,
        static_cast<unsigned long long>(qs.resident_bytes),
        qs.requant_recheck_rate, qs.band_width,
        static_cast<unsigned long long>(qs.band_violations));
  }

  // --replicas: ship the primary's WAL to a replica group and route the
  // same query load through a health-aware ReadRouter (DESIGN.md §13),
  // optionally running a failover drill mid-burst. The primary keeps
  // mutating underneath (another --churn burst) so the replicas chase a
  // moving log; afterwards every replica must be caught up and bit-identical
  // to the primary — which the --churn block above already proved exact
  // against a brute-force oracle.
  double replica_qps = 0.0;
  int64_t replica_dropped = 0;
  int64_t replica_total = 0;
  std::vector<long long> replica_routed;
  std::vector<long long> replica_lag_records;
  std::vector<double> replica_lag_ms;
  long long replica_failovers = 0;
  long long replica_reconnects = 0;
  long long replica_stale_demotions = 0;
  bool replicas_caught_up = false;
  t2h::serve::ResultCache::Stats replica_cache;
  if (replicas > 0) {
    t2h::replica::Primary primary(engine.mutable_index(), wal_path);
    // --transport socket: ship over framed loopback TCP (DESIGN.md §16)
    // instead of the in-process cursor; same replication contract, plus a
    // network that can be severed (--drill netsplit).
    std::unique_ptr<t2h::replica::ShipServer> ship_server;
    if (transport == "socket") {
      ship_server = std::make_unique<t2h::replica::ShipServer>(&primary);
      if (const t2h::Status s = ship_server->Start(); !s.ok()) {
        return Fail("cannot start ship server: " + s.ToString());
      }
    }
    std::vector<std::unique_ptr<t2h::replica::Replica>> group;
    for (int i = 0; i < replicas; ++i) {
      const auto opts = t2h::replica::ReplicaOptions{.num_shards = shards};
      const std::string name = "replica-" + std::to_string(i);
      if (ship_server != nullptr) {
        t2h::replica::SocketTailerOptions topts;
        topts.seed = static_cast<uint64_t>(args.GetInt("seed", 42) + i);
        group.push_back(std::make_unique<t2h::replica::Replica>(
            &primary,
            std::make_unique<t2h::replica::SocketTransport>(
                "127.0.0.1", ship_server->port(), topts),
            opts, name));
      } else {
        group.push_back(
            std::make_unique<t2h::replica::Replica>(&primary, opts, name));
      }
      if (const t2h::Status s =
              group.back()->Bootstrap(wal_path + ".boot.snap");
          !s.ok()) {
        return Fail("replica bootstrap failed: " + s.ToString());
      }
    }
    std::vector<t2h::replica::Replica*> members;
    for (const auto& r : group) members.push_back(r.get());
    t2h::replica::ReadRouter router(
        members, {.max_attempts = replicas + 1,
                  .queue_depth = queue_depth,
                  .overload_policy = policy.value(),
                  .cache_entries = cache_entries,
                  .max_lag_records = max_lag_records,
                  .max_lag_ms = max_lag_ms});

    // Continuous ship loop: one thread tails the log for every replica.
    std::atomic<bool> stop_ship{false};
    std::thread shipper([&group, &stop_ship] {
      while (!stop_ship.load(std::memory_order_acquire)) {
        for (const auto& r : group) {
          if (r->state() != t2h::replica::ReplicaState::kDown) {
            (void)r->PollApplyOnce();
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    // The primary keeps committing while replicas serve (the replication
    // shape of --churn). Reuses the corpus; kNotFound from racing removes
    // is expected.
    std::atomic<bool> stop_churn{false};
    std::thread replica_mutator;
    if (churn_ops > 0) {
      replica_mutator = std::thread([&engine, &corpus, &stop_churn, &args] {
        t2h::Rng mut_rng(args.GetInt("seed", 42) + 11);
        while (!stop_churn.load(std::memory_order_acquire)) {
          const auto& t = corpus[mut_rng.UniformInt(
              0, static_cast<int>(corpus.size()) - 1)];
          if (mut_rng.Bernoulli(0.5)) {
            (void)engine.Insert(t);
          } else {
            (void)engine.Remove(mut_rng.UniformInt(0, engine.size() - 1));
          }
        }
      });
    }
    // Failover drill mid-burst: rolling = zero-downtime checkpoint+restart
    // of replica 0 through the router; kill = abrupt crash, then recovery
    // via a fresh bootstrap. Either way the survivors carry the load.
    std::thread drill_thread;
    if (drill == "rolling") {
      drill_thread = std::thread([&router, &wal_path] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        const t2h::Status s =
            router.RollingRestart(0, wal_path + ".replica0.snap");
        if (!s.ok()) {
          std::fprintf(stderr, "rolling restart failed: %s\n",
                       s.ToString().c_str());
        }
      });
    } else if (drill == "kill") {
      drill_thread = std::thread([&router, &group, &wal_path] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        group[0]->SimulateCrash();  // router notices on the next query
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        router.MarkDown(0);
        if (const t2h::Status s =
                group[0]->Bootstrap(wal_path + ".boot.snap");
            s.ok()) {
          router.MarkHealthy(0);
        } else {
          std::fprintf(stderr, "replica re-bootstrap failed: %s\n",
                       s.ToString().c_str());
        }
      });
    } else if (drill == "netsplit") {
      // Partition drill: refuse new connections, then sever every live one.
      // Replicas keep serving reads from their applied state (stale but
      // healthy); tailers back off and reconnect once the partition heals,
      // resuming at their seq watermark — no re-bootstrap, no dropped query.
      t2h::replica::ShipServer* server = ship_server.get();
      drill_thread = std::thread([server] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        server->set_refuse_connections(true);
        server->Sever();
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        server->set_refuse_connections(false);
      });
    }

    std::vector<t2h::search::Code> query_codes;
    query_codes.reserve(queries.size());
    for (const auto& q : queries) query_codes.push_back(model->HashCode(q));
    t2h::Stopwatch replica_wall;
    for (int r = 0; r < rounds; ++r) {
      for (const t2h::search::Code& code : query_codes) {
        const t2h::replica::RoutedRead read = router.Query(code, k);
        ++replica_total;
        if (!read.status.ok()) ++replica_dropped;
      }
    }
    const double replica_seconds = replica_wall.ElapsedSeconds();
    if (drill_thread.joinable()) drill_thread.join();
    stop_churn.store(true, std::memory_order_release);
    if (replica_mutator.joinable()) replica_mutator.join();
    stop_ship.store(true, std::memory_order_release);
    shipper.join();

    // Drain: every replica must reach the primary's final commit seq, then
    // answer bit-identically to it.
    replicas_caught_up = true;
    for (const auto& r : group) {
      if (const t2h::Status s = r->CatchUp(); !s.ok()) {
        return Fail("replica " + r->name() +
                    " cannot catch up: " + s.ToString());
      }
      replicas_caught_up = replicas_caught_up &&
                           r->applied_seq() == primary.committed_seq();
    }
    bool identical = true;
    for (size_t q = 0; q < query_codes.size() && q < 16 && identical; ++q) {
      const auto want = engine.index().QueryTopK(query_codes[q], k);
      for (const auto& r : group) {
        const auto epoch = r->index();
        const auto got = epoch->QueryTopK(query_codes[q], k);
        identical = got.size() == want.size();
        for (size_t i = 0; identical && i < want.size(); ++i) {
          identical = got[i].index == want[i].index &&
                      got[i].distance == want[i].distance;
        }
        if (!identical) break;
      }
    }
    replica_qps = replica_total / replica_seconds;
    for (int i = 0; i < replicas; ++i) {
      replica_routed.push_back(router.routed_to(i));
      replica_lag_records.push_back(group[i]->lag_records());
      replica_lag_ms.push_back(group[i]->lag_ms());
    }
    replica_failovers = router.failovers();
    replica_stale_demotions = router.stale_demotions();
    replica_cache = router.cache_stats();
    for (const auto& r : group) {
      replica_reconnects +=
          r->transport().counters().reconnects.load(std::memory_order_acquire);
    }
    std::printf(
        "replication: %d replicas over %s, %lld routed reads at %.1f QPS,"
        " %lld dropped, %lld failovers, %lld reconnects, %lld stale"
        " demotions (drill=%s); caught up: %s; results %s\n",
        replicas, transport.c_str(), static_cast<long long>(replica_total),
        replica_qps, static_cast<long long>(replica_dropped),
        replica_failovers, replica_reconnects, replica_stale_demotions,
        drill.c_str(), replicas_caught_up ? "yes" : "NO",
        identical ? "bit-identical to primary" : "DIVERGED");
    if (!identical) return Fail("replica results diverged from the primary");
    if (!replicas_caught_up) return Fail("a replica failed to catch up");
    // Every drill must be invisible to callers: rolling/kill fail over onto
    // survivors, netsplit serves from applied state — no query may surface
    // an error.
    if (drill != "none" && replica_dropped > 0) {
      return Fail("failover drill dropped " +
                  std::to_string(replica_dropped) +
                  " queries; zero-downtime contract violated");
    }
    if (drill == "netsplit") {
      // The partition healed before the drain, so every tailer must have
      // re-handshaked at its watermark — without refetching a snapshot.
      if (replica_reconnects < replicas) {
        return Fail("netsplit drill: expected every replica to reconnect,"
                    " saw " + std::to_string(replica_reconnects) +
                    " reconnects across " + std::to_string(replicas));
      }
      for (const auto& r : group) {
        if (r->transport().counters().snapshots_fetched.load(
                std::memory_order_acquire) != 1) {
          return Fail("netsplit drill: " + r->name() +
                      " re-bootstrapped; the log still covered its watermark"
                      " so reconnect alone should have caught it up");
        }
      }
    }
  }

  if (!wal_path.empty() && !snapshot_path.empty()) {
    // Fold the log into the snapshot so the next boot replays nothing.
    if (const t2h::Status s = engine.Checkpoint(snapshot_path); !s.ok()) {
      return Fail("checkpoint failed: " + s.ToString());
    }
    std::printf("checkpointed to %s (WAL reset)\n", snapshot_path.c_str());
  }

  const std::string stats_json = args.Get("stats-json", "");
  if (!stats_json.empty()) {
    const auto snapshot = engine.stats();
    std::string json = "{\n  \"bench\": \"serve\",\n";
    char buf[256];
    const t2h::KernelIsaSelection isa_sel = t2h::CurrentKernelIsa();
    std::snprintf(buf, sizeof(buf),
                  "  \"kernel_isa\": {\"selected\": \"%s\", \"detected\":"
                  " \"%s\", \"source\": \"%s\"},\n",
                  t2h::KernelIsaName(isa_sel.selected),
                  t2h::KernelIsaName(isa_sel.detected),
                  isa_sel.source.c_str());
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"threads\": %d, \"shards\": %d, \"k\": %d,"
                  " \"queries\": %d, \"qps\": %.1f,\n",
                  threads, shards, k, total, total / seconds);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"size\": %d, \"live_size\": %d, \"churn_mutations\":"
                  " %lld,\n",
                  engine.size(), engine.live_size(),
                  static_cast<long long>(mutations.load()));
    json += buf;
    if (replicas > 0) {
      std::snprintf(buf, sizeof(buf),
                    "  \"replication\": {\"replicas\": %d, \"transport\":"
                    " \"%s\", \"read_qps\": %.1f, \"dropped\": %lld,"
                    " \"failovers\": %lld, \"reconnects\": %lld,"
                    " \"stale_demotions\": %lld, \"caught_up\": %s,"
                    " \"drill\": \"%s\",\n",
                    replicas, transport.c_str(), replica_qps,
                    static_cast<long long>(replica_dropped),
                    replica_failovers, replica_reconnects,
                    replica_stale_demotions,
                    replicas_caught_up ? "true" : "false", drill.c_str());
      json += buf;
      json += "    \"lag_records\": [";
      for (int i = 0; i < replicas; ++i) {
        std::snprintf(buf, sizeof(buf), "%s%lld", i ? ", " : "",
                      replica_lag_records[i]);
        json += buf;
      }
      json += "], \"lag_ms\": [";
      for (int i = 0; i < replicas; ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.2f", i ? ", " : "",
                      replica_lag_ms[i]);
        json += buf;
      }
      json += "], \"routed\": [";
      for (int i = 0; i < replicas; ++i) {
        std::snprintf(buf, sizeof(buf), "%s%lld", i ? ", " : "",
                      replica_routed[i]);
        json += buf;
      }
      std::snprintf(buf, sizeof(buf),
                    "], \"cache_lookups\": %llu, \"cache_hits\": %llu},\n",
                    static_cast<unsigned long long>(replica_cache.lookups),
                    static_cast<unsigned long long>(replica_cache.hits));
      json += buf;
    }
    json += "  \"frontend\": " +
            t2h::serve::FrontendJson(engine.frontend_stats()) + ",\n";
    json += "  \"quant\": " +
            t2h::serve::QuantJson(engine.quant_stats()) + ",\n";
    json += "  \"stages\": {\n";
    for (int i = 0; i < t2h::serve::kNumStages; ++i) {
      const auto& s =
          snapshot.Of(static_cast<t2h::serve::Stage>(i));
      std::snprintf(
          buf, sizeof(buf),
          "    \"%s\": {\"count\": %llu, \"mean_us\": %.2f, \"p50_us\":"
          " %.2f, \"p95_us\": %.2f, \"p99_us\": %.2f, \"max_us\": %.2f}%s\n",
          t2h::serve::StageName(static_cast<t2h::serve::Stage>(i)).c_str(),
          static_cast<unsigned long long>(s.count), s.mean_us, s.p50_us,
          s.p95_us, s.p99_us, s.max_us,
          i + 1 < t2h::serve::kNumStages ? "," : "");
      json += buf;
    }
    json += "  }\n}\n";
    if (const t2h::Status s = t2h::AtomicWriteFile(stats_json, json);
        !s.ok()) {
      return Fail("cannot write --stats-json: " + s.ToString());
    }
    std::printf("stats written to %s\n", stats_json.c_str());
  }
  return 0;
}

int RunWalReplay(const Args& args) {
  const std::string path = args.Get("wal", "");
  if (path.empty()) return Fail("--wal is required");
  // Strict parse: --from-seq is an operator-facing cut point, and a typo
  // ("1O0") silently parsed as 1 would replay the wrong suffix.
  uint64_t from_seq = 0;
  if (const std::string from = args.Get("from-seq", ""); !from.empty()) {
    const auto parsed = t2h::ParseUint64(from);
    if (!parsed.ok()) {
      return Fail("--from-seq must be a non-negative integer, got '" + from +
                  "'");
    }
    from_seq = parsed.value();
  }
  // Read-only walk: prints what boot-time recovery would replay without
  // touching the file (Wal::Open would truncate a torn tail; this does not).
  const auto replayed = t2h::ingest::Wal::Replay(path);
  if (!replayed.ok()) return Fail(replayed.status().ToString());
  const t2h::ingest::WalReplay& replay = replayed.value();
  size_t skipped = 0;
  size_t shown = 0;
  uint64_t first_shown = 0;
  for (const t2h::ingest::WalRecord& r : replay.records) {
    if (r.seq < from_seq) {
      ++skipped;
      continue;
    }
    if (shown == 0) first_shown = r.seq;
    ++shown;
    if (r.type == t2h::ingest::WalRecordType::kRemove) {
      std::printf("seq=%-8llu %-6s id=%d\n",
                  static_cast<unsigned long long>(r.seq),
                  t2h::ingest::WalRecordTypeName(r.type), r.id);
    } else {
      std::printf("seq=%-8llu %-6s id=%-8d bits=%d emb_len=%zu\n",
                  static_cast<unsigned long long>(r.seq),
                  t2h::ingest::WalRecordTypeName(r.type), r.id,
                  r.code.num_bits, r.embedding.size());
    }
  }
  if (skipped > 0) {
    std::printf("skipped %zu records below seq=%llu\n", skipped,
                static_cast<unsigned long long>(from_seq));
  }
  if (shown == 0) {
    std::printf("replayed 0 records, durable_bytes=%llu\n",
                static_cast<unsigned long long>(replay.valid_bytes));
  } else {
    std::printf("replayed seq=%llu..%llu (%zu records),"
                " durable_bytes=%llu\n",
                static_cast<unsigned long long>(first_shown),
                static_cast<unsigned long long>(replay.last_seq), shown,
                static_cast<unsigned long long>(replay.valid_bytes));
  }
  if (replay.tail_truncated) {
    // A torn tail is a real (if expected) loss signal: the final append was
    // interrupted and its mutation was never acknowledged. Exit non-zero so
    // scripts notice; recovery (Wal::Open) will truncate the tail.
    std::fprintf(stderr,
                 "warning: torn tail after byte %llu — a crash interrupted"
                 " the final append; recovery will truncate it\n",
                 static_cast<unsigned long long>(replay.valid_bytes));
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Args args(argc, argv);
  static const std::map<std::string, std::set<std::string>> kKnownFlags = {
      {"generate", {"out", "city", "count", "max-points", "seed"}},
      {"train",
       {"data", "out", "measure", "seeds", "epochs", "dim", "seed",
        "threads", "kernel-isa"}},
      {"query",
       {"data", "model", "query-id", "k", "space", "dim", "seed", "strategy",
        "mih-substrings", "kernel-isa"}},
      {"distance", {"data", "a", "b"}},
      {"serve-bench",
       {"data", "model", "threads", "shards", "k", "queries", "rounds",
        "dim", "seed", "strategy", "mih-substrings", "deadline-ms",
        "queue-depth", "overload", "snapshot", "wal", "churn",
        "query-dist", "replicas", "drill", "transport", "max-lag-records",
        "max-lag-ms", "stats-json", "kernel-isa",
        "batch-wait-us", "max-batch", "cache-entries", "clients",
        "quantize", "rerank-candidates"}},
      {"wal-replay", {"wal", "from-seq"}},
      {"version", {"kernel-isa"}},
  };
  const auto known = kKnownFlags.find(command);
  if (known == kKnownFlags.end()) return Usage();
  if (RejectBadFlags(args, known->second)) return 2;
  if (const t2h::Status s = ApplyKernelIsaFlag(args); !s.ok()) {
    return Fail("--kernel-isa: " + s.ToString());
  }
  if (command == "version") return RunVersion(args);
  if (command == "generate") return RunGenerate(args);
  if (command == "train") return RunTrain(args);
  if (command == "query") return RunQuery(args);
  if (command == "distance") return RunDistance(args);
  if (command == "serve-bench") return RunServeBench(args);
  if (command == "wal-replay") return RunWalReplay(args);
  return Usage();
}
