// Serving benchmark driver: boots a trained Traj2Hash model behind
// serve::QueryEngine, replays one named workload against it, checks every
// answer it can against a brute-force oracle, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics of a traced pass).
//
//   perfbench_driver --workload uncached|hot_cache|live_rerank --seed N
//                    --seconds S --trace 0|1 [--size tiny]
//                    [--corrupt-every N] [--commit SHA]
//
// The last line of standard output is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero when any answer disagreed with its oracle.
// perfbench/README.md describes the workloads and every metric.
#include <sched.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "core/model.h"
#include "core/trainer.h"
#include "distance/distance.h"
#include "distance/exact_search.h"
#include "nn/tensor.h"
#include "oracle.h"
#include "search/code.h"
#include "serve/engine.h"
#include "trace.h"
#include "traj/synthetic.h"

namespace {

namespace t2h = traj2hash;
namespace fs = std::filesystem;
using perfbench::Entry;
using perfbench::NowNanos;
using perfbench::ScopedSpan;
using perfbench::Tracer;
using t2h::search::Code;
using t2h::search::Neighbor;
using t2h::traj::Trajectory;

constexpr int kTopK = 10;
constexpr uint64_t kTraceSalt = 0x7452414345ULL;
/// Cap on uncached answers re-encoded for the oracle after the timed phases
/// (each check costs one Embed).
constexpr size_t kMaxVerified = 4000;
/// QueryRerank candidates per shard: the engine default max(8k, 64).
constexpr int kRerankCandidates = std::max(8 * kTopK, 64);

// ---------------------------------------------------------------------------
// Configuration

/// The one deployment every workload shares.
t2h::core::Traj2HashConfig ModelConfig() {
  t2h::core::Traj2HashConfig cfg;  // paper: d=64, m=2 blocks, 4 heads
  cfg.epochs = 2;                  // small fixed training budget (see Train)
  return cfg;
}

t2h::serve::QueryEngineOptions EngineOptions() {
  t2h::serve::QueryEngineOptions o;
  o.num_threads = 4;
  o.num_shards = 4;
  o.strategy = t2h::search::SearchStrategy::kMih;
  o.cache_entries = 4096;  // holds the 1,000-query hot pool several times
  o.quantize = true;
  // Compaction trigger low enough that live_rerank's writes compact shards
  // in the background during the run.
  o.compact_min_ops = 128;
  o.compact_ratio = 0.02;
  return o;  // coalescer off (its default)
}

t2h::traj::CityConfig City() {
  t2h::traj::CityConfig city = t2h::traj::CityConfig::PortoLike();
  city.max_points = 24;  // the CLI's serving default
  return city;
}

/// Input sizes. `tiny` is the benchmark's own smoke test, not a workload.
struct Sizes {
  int db = 20000;
  int train_corpus = 2000;
  int train_seeds = 60;
  int pretrain_samples = 10000;
  int refine_epochs = 6;
  int hr_queries = 1000;
  int hot_pool = 1000;
  int write_pool = 4000;
  int trace_requests = 200;
  int trace_writes = 64;
  int setups = 3;
  int fresh_per_second = 8000;  ///< fresh-query pool per measured second

  static Sizes Tiny() {
    Sizes s;
    s.db = 600;
    s.train_corpus = 200;
    s.train_seeds = 20;
    s.pretrain_samples = 2000;
    s.refine_epochs = 2;
    s.hr_queries = 10;
    s.hot_pool = 50;
    s.write_pool = 400;
    s.trace_requests = 10;
    s.trace_writes = 8;
    s.setups = 2;
    return s;
  }
};

/// What distinguishes the workloads: their traffic only.
struct Workload {
  const char* name;
  int closed_clients;  ///< closed-loop reader clients
  double open_rate;    ///< open-phase arrivals per second (paced); 0 = none
  int open_workers;    ///< open-phase threads (bounds in-flight arrivals)
  double write_rate;   ///< concurrent writes per second; 0 = reads only
  bool rerank;         ///< reads are QueryRerank (else Hamming Query)
  bool hot;            ///< reads draw Zipf:1.1 from the hot pool
};

constexpr Workload kWorkloads[] = {
    {"uncached", 4, 1800.0, 16, 0.0, false, false},
    {"hot_cache", 4, 0.0, 0, 0.0, false, true},
    {"live_rerank", 3, 900.0, 16, 250.0, true, false},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  int corrupt_every = 0;
  std::string commit = "unknown";
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) try {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) Die("unknown workload " + value);
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "tiny" && value != "full") Die("--size is tiny or full");
      a.tiny = value == "tiny";
    } else if (flag == "--corrupt-every") {
      a.corrupt_every = std::stoi(value);
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload == nullptr) Die("--workload is required");
  if (a.seconds <= 0) Die("--seconds must be positive");
  return a;
} catch (const std::exception& e) {
  Die(std::string("bad argument: ") + e.what());
}

// ---------------------------------------------------------------------------
// Small statistics helpers

/// Linear-interpolated q-quantile (the definition numpy uses by default).
template <typename T>
double Quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) / 1e9;
}

/// Resident set size of this process, in MiB.
double ResidentMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long pages = 0;
  long resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

std::string FilesystemOf(const std::string& path) {
  struct statfs s;
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle bookkeeping

/// Compares served answers with oracle answers and counts the comparisons.
/// `corrupt_every` > 0 damages every N-th served answer before the
/// comparison — the benchmark's own test uses it to prove a wrong answer is
/// caught.
class Checker {
 public:
  explicit Checker(int corrupt_every) : corrupt_every_(corrupt_every) {}

  bool Matches(std::vector<Neighbor> served,
               const std::vector<Neighbor>& expected) {
    const int64_t n = calls_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (corrupt_every_ > 0 && n % corrupt_every_ == 0) {
      if (served.empty()) {
        served.push_back({-1, 0.0});
      } else {
        served.front().index += 1;
      }
    }
    return perfbench::SameAnswer(served, expected);
  }

  int64_t checked() const { return calls_.load(); }

 private:
  const int corrupt_every_;
  std::atomic<int64_t> calls_{0};
};

/// A served answer that is only verified after the timed phases.
struct Served {
  const Trajectory* query = nullptr;
  std::vector<Neighbor> answer;
};

/// Every live entry of the index, per shard (ascending id) and all together.
struct IndexContents {
  std::vector<std::vector<Entry>> shards;
  std::vector<Entry> all;
};

IndexContents ReadContents(const t2h::serve::ShardedIndex& index) {
  IndexContents c;
  for (int s = 0; s < index.num_shards(); ++s) {
    c.shards.push_back(index.shard(s).SnapshotEntries());
    c.all.insert(c.all.end(), c.shards.back().begin(), c.shards.back().end());
  }
  return c;
}

/// Runs fn(i) for i in [0, n) on `threads` threads (static interleave).
void ParallelFor(int n, int threads, const std::function<void(int)>& fn) {
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([t, n, threads, &fn] {
      for (int i = t; i < n; i += threads) fn(i);
    });
  }
  for (std::thread& w : workers) w.join();
}

// ---------------------------------------------------------------------------
// Inputs

struct Inputs {
  std::vector<Trajectory> db;
  std::vector<Trajectory> train;
  std::vector<Trajectory> hr_queries;
  std::vector<Trajectory> hot_pool;
  std::vector<Trajectory> fresh;       ///< closed-loop fresh queries
  std::vector<Trajectory> fresh_open;  ///< one fresh query per open arrival
  std::vector<Trajectory> writes;      ///< trips for Insert/Update
  std::vector<Trajectory> trace_pool;  ///< fresh queries for the traced pass
};

/// Every trip comes from one GenerateTrips stream with a fixed seed, so all
/// runs see the same city (GenerateTrips draws its hubs from that stream, and
/// a longer stream only appends trips). The first trips are the training
/// corpus, so the model is the same on every run: it is part of the
/// deployment, like the engine options. The workload seed shuffles the next
/// pool (1.5 times the size needed) into the database, queries and writes,
/// which are therefore the same for a seed on every workload. Fresh queries
/// (uncached, live_rerank) come from a pool after that, each used once: the
/// closed loop draws from `fresh_per_second` per measured second, the open
/// loop has one per arrival.
constexpr uint64_t kCitySeed = 20240501;
constexpr uint64_t kModelSeed = 20240502;

Inputs MakeInputs(const Sizes& sizes, const Args& args, const Workload& wl) {
  Inputs in;
  const int fresh =
      wl.hot ? 0 : static_cast<int>(std::ceil(args.seconds * sizes.fresh_per_second));
  const int fresh_open =
      wl.hot ? 0 : static_cast<int>(std::ceil(wl.open_rate * args.seconds / 2));
  struct Part {
    std::vector<Trajectory>* out;
    int count;
  };
  const std::vector<std::vector<Part>> pools = {
      {{&in.db, sizes.db},
       {&in.hr_queries, sizes.hr_queries},
       {&in.hot_pool, sizes.hot_pool},
       {&in.writes, sizes.write_pool},
       {&in.trace_pool, 2 * sizes.trace_requests}},
      {{&in.fresh, fresh}, {&in.fresh_open, fresh_open}},
  };
  std::vector<int> pool_sizes;
  int total = sizes.train_corpus;
  for (const auto& parts : pools) {
    int need = 0;
    for (const Part& p : parts) need += p.count;
    pool_sizes.push_back(need + need / 2);
    total += pool_sizes.back();
  }
  t2h::Rng city_rng(kCitySeed);
  std::vector<Trajectory> stream = GenerateTrips(City(), total, city_rng);
  in.train.assign(std::make_move_iterator(stream.begin()),
                  std::make_move_iterator(stream.begin() + sizes.train_corpus));
  int begin = sizes.train_corpus;
  for (size_t p = 0; p < pools.size(); ++p) {
    std::vector<int> order(pool_sizes[p]);
    for (int i = 0; i < pool_sizes[p]; ++i) order[i] = begin + i;
    t2h::Rng rng(args.seed * 2 + p);
    rng.Shuffle(order);
    size_t next = 0;
    for (const Part& part : pools[p]) {
      for (int i = 0; i < part.count; ++i) {
        part.out->push_back(std::move(stream[order[next++]]));
      }
    }
    begin += pool_sizes[p];
  }
  for (size_t i = 0; i < in.db.size(); ++i) in.db[i].id = static_cast<int>(i);
  return in;
}

/// Creates the model skeleton: normaliser and grids fitted on the training
/// corpus, parameters freshly initialised (Load or training fills them).
std::unique_ptr<t2h::core::Traj2Hash> CreateModel(const Inputs& in,
                                                  t2h::Rng& rng) {
  auto created = t2h::core::Traj2Hash::Create(ModelConfig(), in.train, rng);
  if (!created.ok()) Die("model create: " + created.status().ToString());
  return std::move(created).value();
}

/// Trains the model with a small fixed budget and saves it; returns the
/// training wall time in seconds. Training is deterministic (fixed seed and
/// corpus; the trainer is bit-identical for any thread count).
double Train(const Inputs& in, const Sizes& sizes, const std::string& path) {
  const int64_t start = NowNanos();
  t2h::Rng rng(kModelSeed);
  std::unique_ptr<t2h::core::Traj2Hash> model = CreateModel(in, rng);
  t2h::embedding::GridPretrainOptions pretrain;
  pretrain.samples_per_epoch = sizes.pretrain_samples;
  pretrain.epochs = 1;
  model->PretrainGrids(pretrain, rng);

  t2h::core::TrainingData data;
  data.seeds.assign(in.train.begin(), in.train.begin() + sizes.train_seeds);
  data.seed_distances = t2h::dist::PairwiseMatrix(
      data.seeds, t2h::dist::GetDistance(t2h::dist::Measure::kFrechet));
  data.triplet_corpus = in.train;
  t2h::core::TrainerOptions options;
  options.num_threads = 4;
  options.refine_epochs = sizes.refine_epochs;
  t2h::core::Trainer trainer(model.get(), options);
  const auto report = trainer.Fit(data, rng);
  if (!report.ok()) Die("training: " + report.status().ToString());
  if (const t2h::Status s = model->Save(path); !s.ok()) {
    Die("model save: " + s.ToString());
  }
  return SecondsSince(start);
}

// ---------------------------------------------------------------------------
// Boot

struct Deployment {
  std::unique_ptr<t2h::core::Traj2Hash> model;
  std::unique_ptr<t2h::serve::QueryEngine> engine;
  std::string wal_path;
};

struct SetupTimes {
  double total_s = 0.0;
  double model_load_ms = 0.0;
  double insert_all_us_per_entry = 0.0;
  double compact_all_ms = 0.0;
};

/// Boot to ready: model Load, Recover with an empty WAL, InsertAll of the
/// database, then CompactAll — ready once every shard's delta is folded in.
Deployment Boot(const Inputs& in, const std::string& model_path,
                const std::string& wal_path, SetupTimes* times) {
  std::error_code ignored;
  fs::remove(wal_path, ignored);
  const int64_t start = NowNanos();
  Deployment d;
  d.wal_path = wal_path;
  t2h::Rng rng(kModelSeed);
  d.model = CreateModel(in, rng);
  int64_t t = NowNanos();
  if (const t2h::Status s = d.model->Load(model_path); !s.ok()) {
    Die("model load: " + s.ToString());
  }
  times->model_load_ms = static_cast<double>(NowNanos() - t) / 1e6;
  d.engine = std::make_unique<t2h::serve::QueryEngine>(d.model.get(),
                                                       EngineOptions());
  if (const t2h::Status s = d.engine->Recover("", wal_path); !s.ok()) {
    Die("recover: " + s.ToString());
  }
  t = NowNanos();
  if (const t2h::Status s = d.engine->InsertAll(in.db); !s.ok()) {
    Die("insert all: " + s.ToString());
  }
  times->insert_all_us_per_entry =
      static_cast<double>(NowNanos() - t) / 1e3 / in.db.size();
  t = NowNanos();
  d.engine->CompactAll();
  // InsertAll may already have claimed background compactions, which make
  // CompactAll return early; ready means every delta has been folded in.
  for (;;) {
    bool settled = true;
    for (int s = 0; s < d.engine->index().num_shards(); ++s) {
      settled &= d.engine->index().shard(s).delta_size() == 0;
    }
    if (settled) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  times->compact_all_ms = static_cast<double>(NowNanos() - t) / 1e6;
  times->total_s = SecondsSince(start);
  return d;
}

// ---------------------------------------------------------------------------
// Traffic

/// Length of one measurement window. A shared cloud host can run a process
/// ~1.7x slower for a few hundred milliseconds at a time (a busy neighbour on
/// the sibling hardware thread), and the share of slow time drifts between
/// runs; short windows let a phase's figure come from its better-running
/// windows instead of from that share.
constexpr double kWindowSeconds = 0.25;

/// Latencies of one phase, bucketed into kWindowSeconds windows (by
/// completion time, or by due time in the open loop). Stored as floats so a
/// phase of millions of cache hits stays small next to the engine's memory.
struct PhaseResult {
  explicit PhaseResult(double span_s)
      : seconds(span_s),
        windows(std::max<size_t>(
            1, static_cast<size_t>(std::lround(span_s / kWindowSeconds)))) {}

  void Add(double offset_s, double latency_us) {
    const int w = std::clamp(
        static_cast<int>(offset_s / seconds * static_cast<double>(windows.size())),
        0, static_cast<int>(windows.size()) - 1);
    windows[w].push_back(static_cast<float>(latency_us));
  }

  void Merge(PhaseResult& other) {
    for (size_t w = 0; w < windows.size(); ++w) {
      windows[w].insert(windows[w].end(), other.windows[w].begin(),
                        other.windows[w].end());
      other.windows[w] = {};
    }
    lateness_us.insert(lateness_us.end(), other.lateness_us.begin(),
                       other.lateness_us.end());
    attempted += other.attempted;
    failed += other.failed;
  }

  size_t samples() const {
    size_t n = 0;
    for (const auto& w : windows) n += w.size();
    return n;
  }

  double seconds;
  std::vector<std::vector<float>> windows;
  std::vector<float> lateness_us;  ///< open loop: send time minus due time
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// The q-quantile of a latency phase: consecutive windows are grouped until
/// each group holds enough samples to put ten beyond its q-quantile; the
/// figure is the lower quartile of the groups' quantiles (the phase's
/// better-running quarter of time). A phase too short for two groups yields
/// its plain q-quantile.
double PhaseQuantile(const PhaseResult& r, double q) {
  const size_t need = static_cast<size_t>(std::ceil(10.0 / (1.0 - q)));
  std::vector<std::vector<float>> groups(1);
  for (const auto& w : r.windows) {
    if (groups.back().size() >= need) groups.emplace_back();
    groups.back().insert(groups.back().end(), w.begin(), w.end());
  }
  if (groups.size() > 1 && groups.back().size() < need) {
    auto& prev = groups[groups.size() - 2];
    prev.insert(prev.end(), groups.back().begin(), groups.back().end());
    groups.pop_back();
  }
  std::vector<double> per;
  for (const auto& g : groups) {
    if (!g.empty()) per.push_back(Quantile(g, q));
  }
  return Quantile(per, 0.25);
}

/// Completions per second of a closed phase: the upper quartile over its
/// windows (the better-running quarter of time, as in PhaseQuantile).
double PhaseRate(const PhaseResult& r) {
  std::vector<double> per;
  const double span = r.seconds / static_cast<double>(r.windows.size());
  for (const auto& w : r.windows) {
    per.push_back(static_cast<double>(w.size()) / span);
  }
  return Quantile(per, 0.75);
}

/// One request: returns false when it failed (status, completeness, or an
/// inline oracle check).
using Request = std::function<bool(int client, int64_t seq)>;

/// Closed loop: `clients` threads each issue their next request as soon as
/// the previous one completes. `next(client)` picks the request sequence
/// number; a negative value ends that client (input exhausted), and the
/// phase then keeps only the windows that ended before that.
PhaseResult RunClosed(int clients, double seconds,
                      const std::function<int64_t(int)>& next,
                      const Request& request) {
  std::vector<PhaseResult> per(clients, PhaseResult(seconds));
  const int64_t start = NowNanos();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::atomic<int64_t> exhausted{end};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PhaseResult& mine = per[c];
      for (;;) {
        if (NowNanos() >= end) break;
        const int64_t seq = next(c);
        if (seq < 0) {
          const int64_t now = NowNanos();
          int64_t seen = exhausted.load();
          while (now < seen && !exhausted.compare_exchange_weak(seen, now)) {
          }
          break;
        }
        const int64_t t0 = NowNanos();
        const bool ok = request(c, seq);
        const int64_t t1 = NowNanos();
        ++mine.attempted;
        if (!ok) ++mine.failed;
        mine.Add(static_cast<double>(t1 - start) / 1e9,
                 static_cast<double>(t1 - t0) / 1e3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult r(seconds);
  for (PhaseResult& p : per) r.Merge(p);
  if (exhausted.load() < end) {
    const double window_s = seconds / static_cast<double>(r.windows.size());
    const size_t keep = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(exhausted.load() - start) /
                               1e9 / window_s));
    r.windows.resize(std::min(keep, r.windows.size()));
    r.seconds = window_s * static_cast<double>(r.windows.size());
    std::printf("# warning: query input exhausted after %.2f s of a %.2f s "
                "closed phase\n",
                static_cast<double>(exhausted.load() - start) / 1e9, seconds);
  }
  return r;
}

/// Open loop: arrivals are due at a fixed interval (`rate`/s for
/// `seconds`), whether or not earlier ones have completed; `workers` threads
/// pick up arrivals in order and wait for the due time. Each latency is timed
/// from the due time, so a stall also charges the requests queued behind it.
/// (Paced rather than Poisson arrivals: bursts would make the tail mostly a
/// measure of the arrival draw.)
PhaseResult RunOpen(int workers, double rate, double seconds,
                    const Request& request) {
  std::vector<int64_t> due;
  for (int64_t i = 0; static_cast<double>(i) / rate < seconds; ++i) {
    due.push_back(static_cast<int64_t>(static_cast<double>(i) / rate * 1e9));
  }
  std::atomic<size_t> cursor{0};
  std::vector<PhaseResult> per(workers, PhaseResult(seconds));
  const int64_t start = NowNanos() + 2'000'000;  // let the workers start
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      PhaseResult& mine = per[w];
      for (;;) {
        const size_t i = cursor.fetch_add(1);
        if (i >= due.size()) break;
        const int64_t at = start + due[i];
        // Sleep most of the way, yield, then busy-wait the last stretch:
        // sleep alone overshoots by tens of microseconds and a yield costs
        // a system call, both large next to a cache hit.
        const int64_t early = at - NowNanos() - 150'000;
        if (early > 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(early));
        }
        while (NowNanos() < at - 20'000) std::this_thread::yield();
        while (NowNanos() < at) {
        }
        const int64_t sent = NowNanos();
        const bool ok = request(w, static_cast<int64_t>(i));
        const int64_t done = NowNanos();
        ++mine.attempted;
        if (!ok) ++mine.failed;
        mine.lateness_us.push_back(static_cast<float>(sent - at) / 1e3f);
        mine.Add(static_cast<double>(due[i]) / 1e9,
                 static_cast<double>(done - at) / 1e3);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  PhaseResult r(seconds);
  for (PhaseResult& p : per) r.Merge(p);
  return r;
}

/// The single writer: a seeded mix of Insert (50%), Update (30%) and Remove
/// (20%) over live ids, each acknowledged only once fsynced to the WAL.
class Writer {
 public:
  Writer(t2h::serve::QueryEngine* engine, const std::vector<Trajectory>* trips,
         int db_size, uint64_t seed)
      : engine_(engine), trips_(trips), rng_(seed) {
    live_.reserve(db_size);
    for (int i = 0; i < db_size; ++i) live_.push_back(i);
  }

  /// Writes at a fixed rate until `stop` is set; `span_s` is the expected
  /// duration (it sets the measurement windows).
  PhaseResult RunAtRate(double rate, double span_s,
                        const std::atomic<bool>& stop) {
    PhaseResult r(span_s);
    const int64_t start = NowNanos();
    const int64_t interval = static_cast<int64_t>(1e9 / rate);
    for (int64_t i = 0; !stop.load(); ++i) {
      const int64_t wait = start + i * interval - NowNanos();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      WriteOne(&r, start);
    }
    return r;
  }

  int64_t writes() const { return writes_; }

 private:
  void WriteOne(PhaseResult* r, int64_t start) {
    const double u = rng_.Uniform(0.0, 1.0);
    const Trajectory& trip = (*trips_)[next_trip_++ % trips_->size()];
    const int64_t t0 = NowNanos();
    bool ok = false;
    if (u < 0.5 || live_.size() < 2 * kTopK) {
      const t2h::Result<int> id = engine_->Insert(trip);
      ok = id.ok();
      if (ok) live_.push_back(id.value());
    } else {
      const size_t pick = static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int>(live_.size()) - 1));
      if (u < 0.8) {
        ok = engine_->Update(live_[pick], trip).ok();
      } else {
        ok = engine_->Remove(live_[pick]).ok();
        if (ok) {
          live_[pick] = live_.back();
          live_.pop_back();
        }
      }
    }
    const double us = static_cast<double>(NowNanos() - t0) / 1e3;
    ++writes_;
    ++r->attempted;
    if (ok) {
      r->Add(SecondsSince(start), us);
    } else {
      ++r->failed;
    }
  }

  t2h::serve::QueryEngine* engine_;
  const std::vector<Trajectory>* trips_;
  t2h::Rng rng_;
  std::vector<int> live_;
  size_t next_trip_ = 0;
  int64_t writes_ = 0;
};

// ---------------------------------------------------------------------------
// Report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("#   %-26s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Matmul FLOPs of one Embed of an n-point trajectory (2 per multiply-add;
/// elementwise ops not counted): per direction the input projection, each
/// block's Q/K/V/O projections, attention scores and weighted sum and
/// d→2d→d MLP, the grid channel's d→d→d MLP, the fuse layer (one row, 2d→d)
/// and the projector (one row, d→d/2); reverse augmentation doubles it.
double EmbedFlops(const t2h::core::Traj2HashConfig& cfg, int n) {
  const double d = cfg.dim;
  const double pts = n;
  const double block = 16.0 * pts * d * d + 4.0 * pts * pts * d;
  const double one_direction = 4.0 * pts * d + cfg.num_blocks * block +
                               4.0 * pts * d * d + 4.0 * d * d + d * d;
  return 2.0 * one_direction;
}

/// The traced pass: a serial sample of the workload's read requests, each
/// wrapped in spans around the calls into every layer, followed by a few
/// traced durable inserts. Each request also runs one untraced Query of a
/// twin request (alternating which goes first) for the tracing overhead.
/// Returns the span-derived per-layer metrics by name.
std::map<std::string, double> TracedPass(
    const Workload& wl, const Sizes& sizes, uint64_t seed, const Inputs& in,
    const t2h::ZipfSampler& zipf, const t2h::core::Traj2Hash& model,
    t2h::serve::QueryEngine* engine, Checker* checker, int64_t* attempted,
    int64_t* failed) {
  const int requests = sizes.trace_requests;
  t2h::Rng rng(seed ^ kTraceSalt);
  std::vector<const Trajectory*> twin, traced;
  for (int i = 0; i < 2 * requests; ++i) {
    const Trajectory* q =
        wl.hot ? &in.hot_pool[zipf.Sample(rng)] : &in.trace_pool[i];
    (i % 2 == 0 ? twin : traced).push_back(q);
  }
  const t2h::serve::ShardedIndex& index = engine->index();
  const int shards = index.num_shards();
  engine->ResetStats();
  Tracer tracer;
  std::vector<double> untraced_us, query_us, embed_us, slowest_us, merge_us;
  std::vector<double> blocking_embed, blocking_slowest, blocking_merge;
  std::vector<double> unattributed_us;
  double flops = 0.0;
  for (int r = 0; r < requests; ++r) {
    const Trajectory& q = *traced[r];
    auto untraced_query = [&] {
      const int64_t t0 = NowNanos();
      engine->Query(*twin[r], kTopK);
      untraced_us.push_back(static_cast<double>(NowNanos() - t0) / 1e3);
    };
    if (r % 2 == 0) untraced_query();
    ScopedSpan root(&tracer, "request", -1, r);
    const int parent = root.index();
    const uint64_t hits_before = engine->frontend_stats().cache_hits;
    t2h::serve::QueryResult result;
    int query_span = -1;
    {
      ScopedSpan s(&tracer, "serve.query", parent, r);
      query_span = s.index();
      result = engine->Query(q, kTopK);
    }
    const bool hit = engine->frontend_stats().cache_hits > hits_before;
    if (r % 2 == 1) untraced_query();
    {
      ScopedSpan s(&tracer, "traj.normalize", parent, r);
      (void)model.normalizer().Apply(q);
    }
    {
      ScopedSpan s(&tracer, "traj.grid_map", parent, r);
      (void)model.fine_grid().Map(q);
    }
    std::vector<float> emb;
    int embed_span = -1;
    {
      ScopedSpan s(&tracer, "core.embed", parent, r);
      embed_span = s.index();
      emb = model.Embed(q);
    }
    flops += EmbedFlops(model.config(), q.size());
    {
      t2h::nn::NoGradGuard no_grad;
      std::pair<t2h::nn::Tensor, t2h::nn::Tensor> fused;
      {
        ScopedSpan s(&tracer, "core.encode_fused", parent, r);
        fused = model.EncodeFused(q);
      }
      ScopedSpan s(&tracer, "core.project", parent, r);
      (void)model.ProjectFused(fused.first, fused.second);
    }
    Code code;
    {
      ScopedSpan s(&tracer, "search.pack", parent, r);
      code = t2h::search::PackSigns(emb);
    }
    std::vector<std::vector<Neighbor>> per(shards);
    double slowest = 0.0;
    for (int s = 0; s < shards; ++s) {
      ScopedSpan span(&tracer, "search.shard_probe", parent, r);
      const int64_t t0 = NowNanos();
      per[s] = index.ShardTopK(s, code, kTopK);
      slowest = std::max(slowest, static_cast<double>(NowNanos() - t0) / 1e3);
    }
    std::vector<Neighbor> merged;
    int merge_span = -1;
    {
      ScopedSpan s(&tracer, "search.merge", parent, r);
      merge_span = s.index();
      merged = t2h::serve::ShardedIndex::MergeTopK(per, kTopK);
    }
    {
      ScopedSpan s(&tracer, "quant.rerank", parent, r);
      (void)index.QueryRerankTopK(code, emb, kTopK, kRerankCandidates);
    }
    // The layer-by-layer replay must agree with what the engine served (on
    // hot_cache: a cached answer equals a fresh computation).
    ++*attempted;
    if (!result.complete || !checker->Matches(result.neighbors, merged)) {
      ++*failed;
    }
    const double q_us = tracer.spans()[query_span].micros();
    const double e_us = tracer.spans()[embed_span].micros();
    const double m_us = tracer.spans()[merge_span].micros();
    query_us.push_back(q_us);
    embed_us.push_back(e_us);
    slowest_us.push_back(slowest);
    merge_us.push_back(m_us);
    // A cache hit's blocking path is the front end alone.
    blocking_embed.push_back(hit ? 0.0 : e_us);
    blocking_slowest.push_back(hit ? 0.0 : slowest);
    blocking_merge.push_back(hit ? 0.0 : m_us);
    unattributed_us.push_back(q_us - blocking_embed.back() -
                              blocking_slowest.back() - blocking_merge.back());
  }
  const t2h::serve::ServeStats::Snapshot stats = engine->stats();

  // Traced writes: one durable ShardedIndex::Insert each.
  for (int w = 0; w < sizes.trace_writes; ++w) {
    const Trajectory& t = in.writes[in.writes.size() - 1 - w];
    std::vector<float> emb = model.Embed(t);
    Code code = t2h::search::PackSigns(emb);
    ScopedSpan s(&tracer, "ingest.commit", -1, requests + w);
    ++*attempted;
    if (!engine->mutable_index()->Insert(std::move(code), std::move(emb))
             .ok()) {
      ++*failed;
    }
  }
  const std::string spans_path = ".bench_run/spans-" + std::string(wl.name) +
                                 "-" + std::to_string(seed) + ".jsonl";
  if (!tracer.Write(spans_path)) Die("cannot write " + spans_path);

  const double overhead = Median(query_us) / Median(untraced_us) - 1.0;
  const double sum = Mean(blocking_embed) + Mean(blocking_slowest) +
                     Mean(blocking_merge) + Mean(unattributed_us);
  std::printf("# ledger (%s): traced Query = blocking-path layers + "
              "unattributed, mean over %d requests\n",
              wl.name, requests);
  std::printf("#   core.embed             %10.2f us\n", Mean(blocking_embed));
  std::printf("#   search.slowest_shard   %10.2f us\n",
              Mean(blocking_slowest));
  std::printf("#   search.merge           %10.2f us\n", Mean(blocking_merge));
  std::printf("#   serve.unattributed     %10.2f us\n", Mean(unattributed_us));
  std::printf("#   sum                    %10.2f us = traced Query %.2f us\n",
              sum, Mean(query_us));
  std::printf("#   trace.overhead_frac    %10.4f (traced Query median %.2f us, "
              "untraced %.2f us)\n",
              overhead, Median(query_us), Median(untraced_us));
  std::printf("# spans: %zu written to %s\n", tracer.spans().size(),
              spans_path.c_str());

  auto mean_of = [&tracer](const char* name) {
    return Mean(tracer.Durations(name));
  };
  auto stage = [&stats](t2h::serve::Stage s) { return stats.Of(s).mean_us; };
  return {
      {"traj.normalize_us", mean_of("traj.normalize")},
      {"traj.grid_map_us", mean_of("traj.grid_map")},
      {"core.embed_us", Mean(embed_us)},
      {"core.encode_fused_us", mean_of("core.encode_fused")},
      {"core.project_us", mean_of("core.project")},
      {"core.embed_gflops",
       flops / (Mean(embed_us) * static_cast<double>(requests) * 1e3)},
      {"search.pack_us", mean_of("search.pack")},
      {"search.shard_probe_us", mean_of("search.shard_probe")},
      {"search.slowest_shard_us", Mean(slowest_us)},
      {"search.merge_us", Mean(merge_us)},
      {"quant.rerank_us", mean_of("quant.rerank")},
      {"serve.encode_us", stage(t2h::serve::Stage::kEncode)},
      {"serve.probe_us", stage(t2h::serve::Stage::kProbe)},
      {"serve.rank_us", stage(t2h::serve::Stage::kRank)},
      {"serve.total_us", stage(t2h::serve::Stage::kTotal)},
      {"serve.unattributed_us", Mean(unattributed_us)},
      {"ingest.commit_us", mean_of("ingest.commit")},
      {"trace.overhead_frac", overhead},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& wl = *args.workload;
  const Sizes sizes = args.tiny ? Sizes::Tiny() : Sizes();
  const t2h::core::Traj2HashConfig cfg = ModelConfig();
  const t2h::serve::QueryEngineOptions eopts = EngineOptions();

  const std::string run_dir = ".bench_run/" + std::string(wl.name) + "-" +
                              std::to_string(args.seed) + "-" +
                              std::to_string(getpid());
  std::error_code ec;
  fs::create_directories(run_dir, ec);
  if (ec) Die("cannot create " + run_dir + ": " + ec.message());
  const std::string model_path = run_dir + "/model.bin";

  // Header: everything a later reader needs to attribute the numbers.
  {
    char date[64];
    const std::time_t now = std::time(nullptr);
    std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
    const t2h::KernelIsaSelection isa = t2h::CurrentKernelIsa();
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d size=%s\n",
                wl.name, static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0, args.tiny ? "tiny" : "full");
    std::printf("# commit=%s date=%s nproc=%d kernel_isa=%s (detected=%s, "
                "source=%s)\n",
                args.commit.c_str(), date, CpuCount(),
                t2h::KernelIsaName(isa.selected),
                t2h::KernelIsaName(isa.detected), isa.source.c_str());
    std::printf("# model: d=%d blocks=%d heads=%d code_bits=%d readout=first "
                "rev_aug=%d grid_channel=%d\n",
                cfg.dim, cfg.num_blocks, cfg.num_heads, cfg.dim,
                cfg.use_rev_aug ? 1 : 0, cfg.use_grid_channel ? 1 : 0);
    std::printf("# data: porto-like max_points=%d db=%d hot_pool=%d "
                "hr_queries=%d k=%d\n",
                City().max_points, sizes.db, sizes.hot_pool, sizes.hr_queries,
                kTopK);
    std::printf("# engine: threads=%d shards=%d strategy=mih cache_entries=%d "
                "quantize=%d coalescer=%d queue_depth=%d compact_min_ops=%d "
                "compact_ratio=%g rerank_candidates=default\n",
                eopts.num_threads, eopts.num_shards, eopts.cache_entries,
                eopts.quantize ? 1 : 0, eopts.enable_coalescing ? 1 : 0,
                eopts.queue_depth, eopts.compact_min_ops, eopts.compact_ratio);
    std::printf("# wal: flush=fsync-per-write filesystem=%s dir=%s\n",
                FilesystemOf(run_dir).c_str(), run_dir.c_str());
    std::printf("# traffic: closed_clients=%d open_rate=%g/s open_workers=%d "
                "write_rate=%s reads=%s queries=%s\n",
                wl.closed_clients, wl.open_rate, wl.open_workers,
                wl.write_rate > 0 ? (std::to_string(static_cast<int>(
                                         wl.write_rate)) + "/s").c_str()
                                  : "none",
                wl.rerank ? "QueryRerank" : "Query",
                wl.hot ? "zipf:1.1 over hot pool" : "fresh trips");
    std::fflush(stdout);
  }

  // Inputs and the model (input generation, not set-up).
  const int64_t inputs_start = NowNanos();
  const Inputs in = MakeInputs(sizes, args, wl);
  const double inputs_s = SecondsSince(inputs_start);
  const double train_s = Train(in, sizes, model_path);

  // Set-up, several times; the last deployment serves.
  std::vector<SetupTimes> setups(sizes.setups);
  Deployment dep;
  for (int i = 0; i < sizes.setups; ++i) {
    dep.engine.reset();  // tear the previous one down before timing
    dep.model.reset();
    fs::remove(run_dir + "/wal-" + std::to_string(i - 1) + ".log", ec);
    dep = Boot(in, model_path, run_dir + "/wal-" + std::to_string(i) + ".log",
               &setups[i]);
  }
  auto setup_median = [&setups](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(v);
  };
  t2h::serve::QueryEngine& engine = *dep.engine;
  const t2h::core::Traj2Hash& model = *dep.model;
  Checker checker(args.corrupt_every);
  int64_t attempted = 0;
  int64_t failed = 0;

  // HR@10 of the served answers against exact Fréchet top-10 (untimed).
  double hr10 = 0.0;
  const int64_t hr10_start = NowNanos();
  {
    const int n = static_cast<int>(in.hr_queries.size());
    std::vector<double> hits(n);
    ParallelFor(n, 4, [&](int i) {
      const auto exact = t2h::dist::ExactTopKWithLowerBound(
          in.hr_queries[i], in.db, t2h::dist::Measure::kFrechet, kTopK);
      const t2h::serve::QueryResult served =
          wl.rerank ? engine.QueryRerank(in.hr_queries[i], kTopK)
                    : engine.Query(in.hr_queries[i], kTopK);
      int hit = 0;
      for (const Neighbor& s : served.neighbors) {
        for (const Neighbor& e : exact.neighbors) hit += s.index == e.index;
      }
      hits[i] = static_cast<double>(hit) / kTopK;
    });
    hr10 = Mean(hits);
  }
  const double hr10_s = SecondsSince(hr10_start);

  // Hot pool: oracle answers (brute force over the booted codes), then a
  // warm-up pass so every pool query is cached before timing.
  const t2h::ZipfSampler zipf(static_cast<int>(in.hot_pool.size()), 1.1);
  std::vector<std::vector<Neighbor>> hot_expected(in.hot_pool.size());
  if (wl.hot) {
    const IndexContents booted = ReadContents(engine.index());
    ParallelFor(static_cast<int>(in.hot_pool.size()), 4, [&](int i) {
      hot_expected[i] = perfbench::BruteHammingTopK(
          booted.all, model.HashCode(in.hot_pool[i]), kTopK);
    });
    for (const Trajectory& q : in.hot_pool) engine.Query(q, kTopK);
  }

  // Read traffic. Closed clients record into slots [0, closed_clients),
  // open workers into the slots after them.
  std::atomic<int64_t> fresh_cursor{0};
  std::vector<std::vector<Served>> served(wl.closed_clients + wl.open_workers);
  std::vector<t2h::Rng> client_rng;
  for (int c = 0; c < wl.closed_clients; ++c) {
    client_rng.emplace_back(args.seed * 1000003 + c);
  }
  const int open_slot = wl.closed_clients;
  // One read; `hot_index` >= 0 names a hot-pool query (checked inline).
  auto read = [&](int slot, const Trajectory& q, int hot_index) -> bool {
    const t2h::serve::QueryResult r =
        wl.rerank ? engine.QueryRerank(q, kTopK) : engine.Query(q, kTopK);
    if (!r.complete || !r.status.ok() ||
        static_cast<int>(r.neighbors.size()) != kTopK) {
      return false;
    }
    if (hot_index >= 0) {
      return checker.Matches(r.neighbors, hot_expected[hot_index]);
    }
    if (!wl.rerank) served[slot].push_back({&q, r.neighbors});
    return true;
  };
  auto next_closed = [&](int client) -> int64_t {
    if (wl.hot) return zipf.Sample(client_rng[client]);
    const int64_t i = fresh_cursor.fetch_add(1);
    return i < static_cast<int64_t>(in.fresh.size()) ? i : -1;
  };
  auto closed_request = [&](int client, int64_t seq) {
    return wl.hot ? read(client, in.hot_pool[seq], static_cast<int>(seq))
                  : read(client, in.fresh[seq], -1);
  };
  auto open_request = [&](int worker, int64_t seq) {
    return read(open_slot + worker, in.fresh_open[seq % in.fresh_open.size()],
                -1);
  };


  // Warm-up (untimed): fills allocator pools and CPU caches.
  RunClosed(wl.closed_clients, std::min(0.5, args.seconds / 4), next_closed,
            closed_request);
  for (auto& s : served) s.clear();

  const t2h::serve::FrontendSnapshot fe_before = engine.frontend_stats();
  const int compactions_before = engine.index().compactions_run();
  const uintmax_t wal_before = fs::file_size(dep.wal_path, ec);

  // Resident memory is sampled through the traffic; rss_mb is the median.
  std::atomic<bool> stop_rss{false};
  std::vector<double> rss_samples;
  std::thread rss_thread([&] {
    while (!stop_rss.load()) {
      rss_samples.push_back(ResidentMb());
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  });

  std::atomic<bool> stop_writer{false};
  Writer writer(&engine, &in.writes, sizes.db, args.seed ^ 0x5EED);
  PhaseResult writes(args.seconds);
  std::thread writer_thread;
  if (wl.write_rate > 0) {
    writer_thread = std::thread(
        [&] { writes = writer.RunAtRate(wl.write_rate, args.seconds, stop_writer); });
  }
  // With an open phase, each phase gets half of --seconds.
  const double phase_s = wl.open_rate > 0 ? args.seconds / 2 : args.seconds;
  PhaseResult closed =
      RunClosed(wl.closed_clients, phase_s, next_closed, closed_request);
  PhaseResult open = wl.open_rate > 0 ? RunOpen(wl.open_workers, wl.open_rate,
                                                phase_s, open_request)
                                      : PhaseResult(phase_s);
  if (writer_thread.joinable()) {
    stop_writer = true;
    writer_thread.join();
  }
  stop_rss = true;
  rss_thread.join();
  // WAL bytes the writer appended (the traced pass's inserts come later).
  const uintmax_t writer_wal_bytes = fs::file_size(dep.wal_path, ec) - wal_before;
  const t2h::serve::FrontendSnapshot fe_after = engine.frontend_stats();
  attempted += closed.attempted + open.attempted;
  failed += closed.failed + open.failed;

  // The database the fresh-query answers are verified against.
  const IndexContents after_reads = !wl.rerank && !wl.hot
                                        ? ReadContents(engine.index())
                                        : IndexContents();

  std::map<std::string, double> traced;
  if (args.trace) {
    traced = TracedPass(wl, sizes, args.seed, in, zipf, model, &engine,
                        &checker, &attempted, &failed);
  }

  // Write phase of the read-only workloads.
  attempted += writes.attempted;
  failed += writes.failed;
  const int compactions = engine.index().compactions_run() - compactions_before;
  const int tombstones = engine.tombstone_count();

  const int64_t verify_start = NowNanos();
  // Verify the fresh-query answers served during the timed phases: all of
  // them up to kMaxVerified, else an even sample across every client.
  if (!wl.rerank && !wl.hot) {
    std::vector<const Served*> all;
    for (const auto& list : served) {
      for (const Served& s : list) all.push_back(&s);
    }
    if (all.size() > kMaxVerified) {
      std::vector<const Served*> sample;
      for (size_t i = 0; i < kMaxVerified; ++i) {
        sample.push_back(all[i * all.size() / kMaxVerified]);
      }
      all = std::move(sample);
    }
    std::atomic<int64_t> bad{0};
    ParallelFor(static_cast<int>(all.size()), 4, [&](int i) {
      const Code code = model.HashCode(*all[i]->query);
      if (!checker.Matches(all[i]->answer,
                           perfbench::BruteHammingTopK(after_reads.all, code,
                                                       kTopK))) {
        bad.fetch_add(1);
      }
    });
    failed += bad.load();
  }
  // live_rerank: a sample checked at the quiescent end state, against the
  // brute-force Hamming oracle and the float-lattice re-rank oracle.
  if (wl.rerank) {
    const IndexContents end = ReadContents(engine.index());
    const int n = std::min<int>(static_cast<int>(in.trace_pool.size()),
                                sizes.trace_requests);
    std::atomic<int64_t> bad{0};
    ParallelFor(n, 4, [&](int i) {
      const Trajectory& q = in.trace_pool[i];
      const std::vector<float> emb = model.Embed(q);
      const Code code = t2h::search::PackSigns(emb);
      const auto rerank = engine.QueryRerank(q, kTopK);
      const auto hamming = engine.Query(q, kTopK);
      const bool ok =
          rerank.complete && hamming.complete &&
          checker.Matches(rerank.neighbors,
                          perfbench::RerankOracle(end.shards, code, emb, kTopK,
                                                  kRerankCandidates)) &&
          checker.Matches(hamming.neighbors,
                          perfbench::BruteHammingTopK(end.all, code, kTopK));
      if (!ok) bad.fetch_add(1);
    });
    attempted += n;
    failed += bad.load();
  }

  std::printf("# untimed work: inputs %.2f s, training %.2f s, hr10 %.2f s, "
              "oracle %.2f s\n",
              inputs_s, train_s, hr10_s, SecondsSince(verify_start));
  const size_t closed_n = closed.samples();
  const size_t open_n = open.samples();
  const size_t writes_n = writes.samples();
  // The metrics BENCHMARK.json gates, then those only reported: their
  // run-to-run spread on a shared host is wider than any allowed bound.
  const std::vector<Metric> e2e = {
      {"setup_s", setup_median(&SetupTimes::total_s), "s"},
      {"qps", PhaseRate(closed), "1/s"},
      {"p50_us", PhaseQuantile(closed, 0.50), "us"},
      {"p99_us", PhaseQuantile(closed, 0.99), "us"},
      {"rss_mb", Median(rss_samples), "MB"},
      {"hr10", hr10, "ratio"},
  };
  std::vector<Metric> reported = {
      {"failed_frac",
       attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
       "ratio"},
  };
  if (open.samples() > 0) {
    reported.push_back({"open_p50_us", PhaseQuantile(open, 0.50), "us"});
    reported.push_back({"open_p99_us", PhaseQuantile(open, 0.99), "us"});
  }
  if (writes.samples() > 0) {
    reported.push_back({"write_p50_us", PhaseQuantile(writes, 0.50), "us"});
    reported.push_back({"write_p99_us", PhaseQuantile(writes, 0.99), "us"});
  }

  std::vector<Metric> layer;
  if (args.trace) {
    const t2h::serve::QuantSnapshot qs = engine.quant_stats();
    const uint64_t lookups = fe_after.cache_lookups - fe_before.cache_lookups;
    auto t = [&traced](const char* name) { return traced.at(name); };
    layer = {
        {"traj.normalize_us", t("traj.normalize_us"), "us"},
        {"traj.grid_map_us", t("traj.grid_map_us"), "us"},
        {"core.embed_us", t("core.embed_us"), "us"},
        {"core.encode_fused_us", t("core.encode_fused_us"), "us"},
        {"core.project_us", t("core.project_us"), "us"},
        {"core.embed_gflops", t("core.embed_gflops"), "GFLOP/s"},
        {"core.embed_batch_us",
         setup_median(&SetupTimes::insert_all_us_per_entry), "us"},
        {"core.model_load_ms", setup_median(&SetupTimes::model_load_ms), "ms"},
        {"search.pack_us", t("search.pack_us"), "us"},
        {"search.shard_probe_us", t("search.shard_probe_us"), "us"},
        {"search.slowest_shard_us", t("search.slowest_shard_us"), "us"},
        {"search.merge_us", t("search.merge_us"), "us"},
        {"quant.rerank_us", t("quant.rerank_us"), "us"},
        {"quant.recheck_rate", qs.requant_recheck_rate, "ratio"},
        {"quant.band_violations", static_cast<double>(qs.band_violations),
         "count"},
        {"quant.resident_mb",
         static_cast<double>(qs.resident_bytes) / (1024.0 * 1024.0), "MB"},
        {"serve.encode_us", t("serve.encode_us"), "us"},
        {"serve.probe_us", t("serve.probe_us"), "us"},
        {"serve.rank_us", t("serve.rank_us"), "us"},
        {"serve.total_us", t("serve.total_us"), "us"},
        {"serve.cache_hit_rate",
         lookups > 0 ? static_cast<double>(fe_after.cache_hits -
                                           fe_before.cache_hits) /
                           static_cast<double>(lookups)
                     : 0.0,
         "ratio"},
        {"serve.cache_evictions",
         static_cast<double>(fe_after.cache_evictions -
                             fe_before.cache_evictions),
         "count"},
        {"serve.unattributed_us", t("serve.unattributed_us"), "us"},
        {"ingest.commit_us", t("ingest.commit_us"), "us"},
        {"ingest.compactions", static_cast<double>(compactions), "count"},
        {"ingest.tombstones", static_cast<double>(tombstones), "count"},
        {"ingest.compact_all_ms", setup_median(&SetupTimes::compact_all_ms),
         "ms"},
        {"ingest.wal_bytes_per_write",
         writer.writes() > 0 ? static_cast<double>(writer_wal_bytes) /
                                   static_cast<double>(writer.writes())
                             : 0.0,
         "B"},
        {"gen.late_p99_us", Quantile(open.lateness_us, 0.99), "us"},
        {"gen.train_s", train_s, "s"},
        {"trace.overhead_frac", t("trace.overhead_frac"), "ratio"},
    };
  }

  std::printf("# samples: closed=%zu open=%zu writes=%zu oracle_checks=%lld\n",
              closed_n, open_n, writes_n,
              static_cast<long long>(checker.checked()));
  PrintTable("end-to-end", e2e);
  PrintTable("end-to-end, reported only", reported);
  std::printf("# failed %lld of %lld attempted\n",
              static_cast<long long>(failed),
              static_cast<long long>(attempted));
  if (args.trace) PrintTable("per-layer", layer);

  fs::remove_all(run_dir, ec);
  const bool correct = failed == 0;
  PrintResult(correct, attempted, failed, args.trace ? layer : e2e);
  return correct ? 0 : 1;
}
