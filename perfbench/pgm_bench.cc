// pgm_bench: the benchmark of the shipping periodic-gap miner.
//
// One process runs one workload; perfbench/run.py starts one process per
// workload, so the peak RSS it reports is that workload's. A run has five
// phases:
//   set-up   the program-side set-up, repeated on every CPU (TimeSetup):
//            setup_s;
//   warm-up  one untimed operation (skipped by --smoke);
//   timed    operations with no observer attached until --seconds have
//            passed and at least kMinReps ran: wall_s, request_p99_ms,
//            rss_peak_mb and pil_peak_mb, each the median over the
//            operations of one value per operation;
//   traced   with --trace 1, each timed operation is followed by one with the
//            MiningObserver attached and bench-side spans around every layer
//            call; the per-layer metrics are medians over these;
//   checks   digests, support recounts and standalone re-mines.
// Every metric is printed as `workload metric value unit`; the last line of
// stdout is one JSON object (see perfbench/README.md).

#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/maximal.h"
#include "analysis/report.h"
#include "core/kernel.h"
#include "core/miner.h"
#include "core/trace.h"
#include "core/verifier.h"
#include "corpus/executor.h"
#include "corpus/plan.h"
#include "datagen/presets.h"
#include "perfbench/spans.h"
#include "seq/fasta.h"
#include "seq/fragmenter.h"
#include "serve/service.h"
#include "util/digest.h"
#include "util/flags.h"
#include "util/io.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace pgm::perfbench {
namespace {

// Set-up runs at least kSetupRepeats times and for at least kSetupSeconds on
// each CPU (see TimeSetup): the mining workloads' set-up takes microseconds,
// and only a median over many repeats reads the same from one process to
// the next.
constexpr int kSetupRepeats = 15;
constexpr double kSetupSeconds = 0.05;
constexpr int kMinReps = 3;
constexpr int kRecountSamples = 32;
constexpr double kMiB = 1024.0 * 1024.0;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; `run.py --smoke` checks that they do.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"request_p99_ms", "ms"},
    {"rss_peak_mb", "MiB"},
    {"pil_peak_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.em.busy_s", "s"},
    {"core.em.share", "ratio"},
    {"core.join.busy_s", "s"},
    {"core.join.fill_s", "s"},
    {"core.join.merge_s", "s"},
    {"core.join.stall_s", "s"},
    {"core.join.unattributed_s", "s"},
    {"core.join.candidates", "count"},
    {"core.join.candidates_per_s", "1/s"},
    {"core.join.peak_level", "level"},
    {"core.join.peak_level_s", "s"},
    {"core.level1.busy_s", "s"},
    {"core.levelwise.residual_s", "s"},
    {"core.prune.retained_ratio", "ratio"},
    {"core.prune.frequent_ratio", "ratio"},
    {"analysis.maximal_s", "s"},
    {"analysis.maximal_kept_ratio", "ratio"},
    {"analysis.emit_s", "s"},
    {"analysis.emit_bytes", "bytes"},
    {"corpus.plan_s", "s"},
    {"corpus.fragment_p50_s", "s"},
    {"corpus.fragment_max_s", "s"},
    {"corpus.fragment_sum_s", "s"},
    {"corpus.fanout_efficiency", "ratio"},
    {"corpus.critical_path_s", "s"},
    {"corpus.ledger_peak_bytes", "bytes"},
    {"serve.submit_us_p50", "us"},
    {"serve.exec_p50_ms", "ms"},
    {"serve.exec_p99_ms", "ms"},
    {"serve.exec_hit_us_p50", "us"},
    {"serve.exec_miss_ms_p50", "ms"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.cache.evictions", "count"},
    {"serve.queue.depth_peak", "count"},
    {"serve.jobs.shed", "count"},
    {"serve.jobs.failed", "count"},
    {"serve.mine_share", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

struct Options {
  std::string workload;
  std::int64_t seed = 42;
  double seconds = 10.0;
  std::int64_t trace = 0;
  std::string out;
  std::string work = ".bench_build/work";
  bool smoke = false;
};

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

// Median and quartiles; the quartiles follow Python's
// statistics.quantiles(values, n=4) (the "exclusive" method), so the
// numbers here and run.py's comparisons agree.
Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n < 2) {
    s.q1 = s.q3 = values[0];
    return s;
  }
  auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::uint64_t DeriveSeed(std::int64_t seed, std::uint64_t salt) {
  std::uint64_t state = static_cast<std::uint64_t>(seed) ^
                        (salt * 0x9E3779B97F4A7C15ull);
  return SplitMix64(state);
}

template <typename T>
void Shuffle(std::vector<T>& values, Rng& rng) {
  for (std::size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.UniformInt(i)]);
  }
}

// Worker count: the CPUs this process may run on, as `nproc` reports them.
std::int64_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return std::max<std::int64_t>(1, std::thread::hardware_concurrency());
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  return std::string(Trim(brand));
#else
  return "unknown";
#endif
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;  // KiB on Linux
}

// Resets the peak RSS that getrusage reports to the current RSS (Linux 4.0
// and later), so that PeakRssMiB() after an operation reads that
// operation's peak. The process's lifetime peak would be the largest of all
// operations' peaks, and corpus_s7's peak moves by ±7% from one operation to
// the next with which fragments the workers hold at the same time.
Status ResetPeakRss() {
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  const bool ok = file != nullptr && std::fputs("5", file) >= 0;
  if ((file != nullptr && std::fclose(file) != 0) || !ok) {
    return Status::IoError("cannot reset the peak RSS through "
                           "/proc/self/clear_refs");
  }
  return Status::OK();
}

// Attempted/failed tally of operations and output checks.
class Tally {
 public:
  void Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "pgm_bench: check failed: %s\n", what.c_str());
    }
  }
  void Add(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

using LayerSample = std::map<std::string, double>;

// What one operation produced.
struct OpResult {
  double seconds = 0.0;
  std::uint64_t attempted = 1;  // the jobs inside the op for serve_mixed
  std::uint64_t failed = 0;
  std::string failure;
  /// Digest of the op's deterministic output.
  std::uint64_t digest = 0;
  double pil_peak_bytes = 0.0;
  /// Latency of each request the op served, a request being what one
  /// caller waits for: the whole op for the mining and corpus workloads
  /// (one `pgm mine` or `pgm corpus` run), each job for serve_mixed.
  std::vector<double> requests_ms;
  /// Per-layer values; filled for traced ops only.
  LayerSample layers;
};

// The core layers' view of one or more mining runs, accumulated from their
// results and trace events.
struct CoreTally {
  double em_s = 0.0;
  double mine_s = 0.0;
  double join_s = 0.0;
  double fill_s = 0.0;
  double merge_s = 0.0;
  double stall_s = 0.0;
  double generated = 0.0;
  double evaluated = 0.0;
  double frequent = 0.0;
  double retained = 0.0;
  std::map<std::int64_t, double> level_s;

  void AddRun(const MiningResult& result) {
    em_s += result.em_seconds;
    mine_s += result.total_seconds;
  }

  // Each shard_timing event becomes a program span under `parent`, or under
  // fragment_spans[ordinal] once a corpus fragment_start was seen.
  void AddEvents(const std::vector<TraceEvent>& events, SpanRecorder* spans,
                 int parent, int run,
                 const std::vector<int>* fragment_spans = nullptr) {
    for (const TraceEvent& event : events) {
      switch (event.kind) {
        case TraceEventKind::kFragmentStart:
          if (fragment_spans != nullptr) {
            parent =
                (*fragment_spans)[static_cast<std::size_t>(event.fragment)];
          }
          break;
        case TraceEventKind::kShardTiming:
          join_s += event.seconds;
          fill_s += event.fill_seconds;
          merge_s += event.merge_seconds;
          stall_s += event.stall_seconds;
          level_s[event.level] += event.seconds;
          if (spans != nullptr) {
            spans->AddProgram("core.join", parent, run, event.seconds);
          }
          break;
        case TraceEventKind::kLevelEnd:
          generated += static_cast<double>(event.candidates);
          evaluated += static_cast<double>(event.evaluated);
          frequent += static_cast<double>(event.frequent);
          retained += static_cast<double>(event.retained);
          break;
        default:
          break;
      }
    }
  }

  void Fill(LayerSample* out) const {
    LayerSample& m = *out;
    m["core.em.busy_s"] = em_s;
    m["core.em.share"] = Ratio(em_s, mine_s);
    m["core.join.busy_s"] = join_s;
    m["core.join.fill_s"] = fill_s;
    m["core.join.merge_s"] = merge_s;
    m["core.join.stall_s"] = stall_s;
    m["core.join.unattributed_s"] = join_s - fill_s - merge_s - stall_s;
    m["core.join.candidates"] = evaluated;
    m["core.join.candidates_per_s"] = Ratio(evaluated, join_s);
    auto peak = std::max_element(
        level_s.begin(), level_s.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    if (peak != level_s.end()) {
      m["core.join.peak_level"] = static_cast<double>(peak->first);
      m["core.join.peak_level_s"] = peak->second;
    }
    m["core.levelwise.residual_s"] = mine_s - em_s - join_s;
    m["core.prune.retained_ratio"] = Ratio(retained, generated);
    m["core.prune.frequent_ratio"] = Ratio(frequent, generated);
  }
};

// Times a bench-side level-1 build (BuildAllPatternsOfLength at the start
// length) — the one core layer the engines do not time themselves.
void TimeLevel1(const Sequence& sequence, const MinerConfig& config,
                SpanRecorder* spans, int run, LayerSample* out) {
  const GapRequirement gap =
      GapRequirement::Create(config.min_gap, config.max_gap).value();
  internal::ParallelLevelExecutor executor(config.threads);
  ScopedSpan span(spans, "core.level1", -1, run);
  Stopwatch watch;
  const internal::BuiltLevel level = internal::BuildAllPatternsOfLength(
      sequence, gap, config.start_length, nullptr, &executor,
      ResolveKernel(config.kernel_tier, gap));
  (*out)["core.level1.busy_s"] = watch.ElapsedSeconds();
}

// Runs FilterMaximalPatterns and PatternsToCsv — the op's analysis tail —
// and returns the CSV.
std::string RunAnalysis(const MiningResult& result, SpanRecorder* spans,
                        int parent, int run, LayerSample* out) {
  Stopwatch watch;
  std::size_t kept = 0;
  {
    ScopedSpan span(spans, "analysis.maximal", parent, run);
    kept = FilterMaximalPatterns(result.patterns).size();
  }
  const double maximal_s = watch.ElapsedSeconds();
  watch.Reset();
  std::string csv;
  {
    ScopedSpan span(spans, "analysis.emit", parent, run);
    csv = PatternsToCsv(result);
  }
  const double emit_s = watch.ElapsedSeconds();
  if (spans != nullptr) {
    LayerSample& m = *out;
    m["analysis.maximal_s"] = maximal_s;
    m["analysis.maximal_kept_ratio"] =
        Ratio(static_cast<double>(kept),
              static_cast<double>(result.patterns.size()));
    m["analysis.emit_s"] = emit_s;
    m["analysis.emit_bytes"] = static_cast<double>(csv.size());
  }
  return csv;
}

// Recounts kRecountSamples seeded-sampled patterns of `result` with the
// independent CountSupport DP.
void RecountSample(const Sequence& sequence, const MinerConfig& config,
                   const MiningResult& result, Rng& rng, Tally& tally,
                   const std::string& label) {
  if (result.patterns.empty()) {
    tally.Expect(false, label + ": no patterns to recount");
    return;
  }
  const GapRequirement gap =
      GapRequirement::Create(config.min_gap, config.max_gap).value();
  for (int i = 0; i < kRecountSamples; ++i) {
    const FrequentPattern& p = result.patterns[rng.UniformInt(
        result.patterns.size())];
    const StatusOr<SupportInfo> support =
        CountSupport(sequence, p.pattern, gap);
    tally.Expect(support.ok() && support->count == p.support &&
                     support->saturated == p.saturated,
                 label + ": CountSupport disagrees on " +
                     p.pattern.ToShorthand());
  }
}

std::uint64_t CsvDigest(const MiningResult& result) {
  return Fnv1a64(PatternsToCsv(result));
}

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the inputs from the seed; never timed.
  virtual Status Generate(const Options& options) = 0;
  /// The program-side set-up; timed and repeated by the caller.
  virtual Status Setup() = 0;
  /// One operation; `spans` is non-null on traced repetitions.
  virtual OpResult Run(SpanRecorder* spans, int run) = 0;
  /// Output checks on the last operation. A check that times a run the
  /// benchmark reports but does not gate puts the time in `recorded`.
  virtual void Check(Tally& tally, LayerSample* recorded) = 0;
};

MinerConfig Section6Config(std::int64_t threads) {
  MinerConfig config;
  config.min_gap = 9;
  config.max_gap = 12;
  config.min_support_ratio = 0.003 / 100.0;  // the paper's 0.003%
  config.start_length = 3;
  config.em_order = 10;
  config.threads = threads;
  return config;
}

StatusOr<Sequence> SurrogateSegment(std::size_t length, std::uint64_t seed) {
  PGM_ASSIGN_OR_RETURN(Sequence genome, MakeAx829174Surrogate());
  Rng rng(seed);
  return RandomSegment(genome, std::min(length, genome.size()), rng);
}

// The sequences mined by mpp_section6, mppm_fig6_w16 and corpus_s7, and the
// pool of serve_mixed inputs, come from these fixed generator seeds; --seed
// picks the sampled output checks and, for serve_mixed, the hot set and the
// job order. pil_peak_mb moves by up to 6% with the order in which the join
// meets its rows: even renaming the four symbols of one segment does that.
// A sequence drawn from --seed would therefore break the 1% bound on
// pil_peak_mb in any comparison across seeds.
constexpr std::uint64_t kMppSegmentSeed = 1;
constexpr std::uint64_t kMppmSegmentSeed = 2;
constexpr std::uint64_t kCorpusSeed = 3;
constexpr std::uint64_t kServePoolSeed = 4;

// mpp_section6 and mppm_fig6_w16: mine one surrogate segment, then
// FilterMaximalPatterns and PatternsToCsv.
class MineWorkload : public Workload {
 public:
  MineWorkload(std::string algorithm, std::int64_t max_gap,
               std::uint64_t segment_seed, std::int64_t threads)
      : algorithm_(std::move(algorithm)), segment_seed_(segment_seed) {
    config_ = Section6Config(threads);
    config_.max_gap = max_gap;
  }

  Status Generate(const Options& options) override {
    check_seed_ = DeriveSeed(options.seed, segment_seed_);
    PGM_ASSIGN_OR_RETURN(
        Sequence segment,
        SurrogateSegment(options.smoke ? 2'000 : 8'000, segment_seed_));
    text_ = segment.ToString();
    return Status::OK();
  }

  Status Setup() override {
    PGM_ASSIGN_OR_RETURN(sequence_,
                         Sequence::FromString(text_, Alphabet::Dna()));
    return Status::OK();
  }

  OpResult Run(SpanRecorder* spans, int run) override {
    MetricsRegistry metrics;
    MiningTrace trace;
    const MiningObserver observer{&metrics, &trace};
    MinerConfig config = config_;
    if (spans != nullptr) config.observer = &observer;

    OpResult op;
    last_ = MiningResult{};  // freed before, not inside, the timed op
    std::string csv;
    Stopwatch watch;
    int mine_span = -1;
    {
      ScopedSpan span(spans, "op", -1, run);
      StatusOr<MiningResult> mined = Status::Internal("not run");
      {
        ScopedSpan mine(spans, "core.mine", span.id(), run);
        mine_span = mine.id();
        mined = Mine(sequence_, config);
      }
      if (!mined.ok() || !mined->complete()) {
        op.failed = 1;
        op.failure = mined.ok() ? "incomplete mining run"
                                : mined.status().ToString();
        return op;
      }
      last_ = std::move(mined).value();
      csv = RunAnalysis(last_, spans, span.id(), run, &op.layers);
      op.seconds = watch.ElapsedSeconds();
    }
    op.digest = Fnv1a64(csv);
    op.pil_peak_bytes = static_cast<double>(last_.pil_memory_peak_bytes);
    op.requests_ms.push_back(op.seconds * 1000.0);
    if (spans != nullptr) {
      spans->AddProgram("core.em", mine_span, run, last_.em_seconds);
      CoreTally core;
      core.AddRun(last_);
      core.AddEvents(trace.events(), spans, mine_span, run);
      core.Fill(&op.layers);
      TimeLevel1(sequence_, config_, spans, run, &op.layers);
    }
    digests_.push_back(op.digest);
    return op;
  }

  void Check(Tally& tally, LayerSample* recorded) override {
    Rng rng(check_seed_);
    RecountSample(sequence_, config_, last_, rng, tally, algorithm_);
    for (std::uint64_t digest : digests_) {
      tally.Expect(digest == digests_.front(),
                   algorithm_ + ": output differs between repetitions");
    }
    if (algorithm_ != "mpp") return;
    // Thread-count invariance and the MPP/MPPm agreement on one input. The
    // serial run's time is the threads=1 baseline, one sample per run.
    MinerConfig serial = config_;
    serial.threads = 1;
    Stopwatch watch;
    const StatusOr<MiningResult> one = MineMpp(sequence_, serial);
    (*recorded)["wall_1t_s"] = watch.ElapsedSeconds();
    tally.Expect(one.ok() && CsvDigest(*one) == CsvDigest(last_),
                 "mpp: threads=1 output differs from threads=nproc");
    const StatusOr<MiningResult> mppm = MineMppm(sequence_, config_);
    tally.Expect(mppm.ok() && CsvDigest(*mppm) == CsvDigest(last_),
                 "mpp: MPP and MPPm pattern sets differ");
  }

 private:
  StatusOr<MiningResult> Mine(const Sequence& sequence,
                              const MinerConfig& config) const {
    return algorithm_ == "mpp" ? MineMpp(sequence, config)
                               : MineMppm(sequence, config);
  }

  std::string algorithm_;
  std::uint64_t segment_seed_;
  MinerConfig config_;
  std::uint64_t check_seed_ = 0;
  std::string text_;
  Sequence sequence_ = Sequence::FromStringLossy("", Alphabet::Dna());
  MiningResult last_;
  std::vector<std::uint64_t> digests_;
};

// corpus_s7: MineCorpus over a four-record FASTA ingested through mmap, then
// FilterMaximalPatterns and PatternsToCsv. Fragments are mined with MPP at a
// fixed n = 32 (the estimate MPPm settles on for the surrogate): MPPm's own
// estimate of n jumps past 300 on the odd fragment with a long A/T run, which
// makes that one fragment several times dearer than the rest.
class CorpusWorkload : public Workload {
 public:
  explicit CorpusWorkload(std::int64_t threads)
      : threads_(threads), config_(Section6Config(1)) {
    config_.user_n = 32;
  }

  Status Generate(const Options& options) override {
    check_seed_ = DeriveSeed(options.seed, kCorpusSeed);
    const std::size_t scale = options.smoke ? 4 : 1;
    const std::size_t record = 20'000 / scale;
    plan_options_.fragment.fragment_length = 5'000 / scale;
    std::vector<FastaRecord> records(4);
    PGM_ASSIGN_OR_RETURN(Sequence bacteria,
                         MakeBacteriaLikeGenome(record, kCorpusSeed));
    PGM_ASSIGN_OR_RETURN(Sequence eukaryote,
                         MakeEukaryoteLikeGenome(record, kCorpusSeed));
    PGM_ASSIGN_OR_RETURN(Sequence worm,
                         MakeWormLikeGenome(record, kCorpusSeed));
    PGM_ASSIGN_OR_RETURN(Sequence human,
                         SurrogateSegment(5'005 / scale, kCorpusSeed));
    const Sequence* sources[] = {&bacteria, &eukaryote, &worm, &human};
    const char* ids[] = {"bacteria", "eukaryote", "worm", "AX829174"};
    for (std::size_t i = 0; i < records.size(); ++i) {
      records[i].id = ids[i];
      records[i].residues = sources[i]->ToString();
    }
    std::error_code error;
    std::filesystem::create_directories(options.work, error);
    if (error) {
      return Status::IoError("cannot create " + options.work + ": " +
                             error.message());
    }
    path_ = options.work + (options.smoke ? "/corpus_smoke.fa" : "/corpus.fa");
    return WriteFastaFile(path_, records);
  }

  Status Setup() override {
    Stopwatch watch;
    PGM_ASSIGN_OR_RETURN(
        plan_,
        CorpusPlan::FromFastaFile(path_, Alphabet::Dna(), plan_options_));
    plan_samples_.push_back(watch.ElapsedSeconds());
    return Status::OK();
  }

  OpResult Run(SpanRecorder* spans, int run) override {
    MetricsRegistry metrics;
    MiningTrace trace;
    const MiningObserver observer{&metrics, &trace};
    CorpusOptions options;
    options.algorithm = "mpp";
    options.miner = config_;
    options.corpus_threads = threads_;
    if (spans != nullptr) options.observer = &observer;

    OpResult op;
    last_ = CorpusResult{};  // freed before, not inside, the timed op
    std::string csv;
    Stopwatch watch;
    int mine_span = -1;
    double mine_s = 0.0;
    {
      ScopedSpan span(spans, "op", -1, run);
      StatusOr<CorpusResult> mined = Status::Internal("not run");
      {
        ScopedSpan mine(spans, "corpus.mine", span.id(), run);
        mine_span = mine.id();
        mined = MineCorpus(plan_, options);
      }
      mine_s = watch.ElapsedSeconds();
      if (!mined.ok() || !mined->complete()) {
        op.failed = 1;
        op.failure = mined.ok() ? "incomplete corpus run"
                                : mined.status().ToString();
        return op;
      }
      last_ = std::move(mined).value();
      csv = RunAnalysis(last_.ToMiningResult(), spans, span.id(), run,
                        &op.layers);
      op.seconds = watch.ElapsedSeconds();
    }
    op.digest = Fnv1a64(csv);
    op.pil_peak_bytes = static_cast<double>(last_.pil_memory_peak_bytes);
    op.requests_ms.push_back(op.seconds * 1000.0);
    if (spans != nullptr) {
      CoreTally core;
      std::vector<int> fragment_spans;
      std::vector<double> fragment_s;
      for (const FragmentResult& fragment : last_.fragments) {
        core.AddRun(fragment.result);
        fragment_s.push_back(fragment.result.total_seconds);
        fragment_spans.push_back(spans->AddProgram(
            "corpus.fragment", mine_span, run, fragment.result.total_seconds));
      }
      core.AddEvents(trace.events(), spans, mine_span, run, &fragment_spans);
      core.Fill(&op.layers);
      const double sum = std::accumulate(fragment_s.begin(), fragment_s.end(),
                                         0.0);
      const double max =
          *std::max_element(fragment_s.begin(), fragment_s.end());
      const double threads = static_cast<double>(threads_);
      LayerSample& m = op.layers;
      m["corpus.plan_s"] = Summarize(plan_samples_).median;
      m["corpus.fragment_p50_s"] = Summarize(fragment_s).median;
      m["corpus.fragment_max_s"] = max;
      m["corpus.fragment_sum_s"] = sum;
      m["corpus.fanout_efficiency"] = Ratio(sum, threads * mine_s);
      m["corpus.critical_path_s"] = std::max(sum / threads, max);
      m["corpus.ledger_peak_bytes"] =
          static_cast<double>(last_.ledger_peak_bytes);
      TimeLevel1(plan_.fragments().front().sequence, options.miner, spans, run,
                 &op.layers);
    }
    digests_.push_back(op.digest);
    return op;
  }

  void Check(Tally& tally, LayerSample* /*recorded*/) override {
    const std::size_t planned = plan_.fragments().size();
    const bool complete = last_.fragments_completed == planned &&
                          last_.fragments.size() == planned;
    tally.Expect(complete, "corpus: not every fragment completed");
    if (!complete) return;
    // The re-mines run at threads=nproc against fragments the corpus mined
    // serially, so they also check thread-count invariance.
    Rng rng(check_seed_);
    MinerConfig config = config_;
    config.threads = threads_;
    for (int i = 0; i < 3; ++i) {
      const std::size_t k = rng.UniformInt(last_.fragments.size());
      const Sequence& sequence = plan_.fragments()[k].sequence;
      const StatusOr<MiningResult> alone = MineMpp(sequence, config);
      tally.Expect(alone.ok() && CsvDigest(*alone) ==
                                     CsvDigest(last_.fragments[k].result),
                   StrFormat("corpus: fragment %zu differs when mined alone",
                             k));
      RecountSample(sequence, config, last_.fragments[k].result, rng, tally,
                    StrFormat("corpus fragment %zu", k));
    }
    for (std::uint64_t digest : digests_) {
      tally.Expect(digest == digests_.front(),
                   "corpus: output differs between repetitions");
    }
  }

 private:
  std::int64_t threads_;
  MinerConfig config_;
  std::uint64_t check_seed_ = 0;
  std::string path_;
  CorpusPlanOptions plan_options_;
  CorpusPlan plan_;
  std::vector<double> plan_samples_;
  CorpusResult last_;
  std::vector<std::uint64_t> digests_;
};

// serve_mixed: one batch of light MPPm jobs through a MiningService with a
// result cache; half the jobs draw from a hot set of inputs.
class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(std::int64_t threads) : threads_(threads) {
    config_.min_gap = 0;
    config_.max_gap = 2;
    config_.min_support_ratio = 0.05;
    config_.start_length = 2;
    config_.max_length = 4;
    // At the default m = 10 the e_m DFS alone takes ~12 ms per job and the
    // batch measures e_m rather than the service.
    config_.em_order = 4;
  }

  // The batch is the same multiset of jobs for every seed: every input twice
  // and every hot input 20 more times, 4,000 jobs of which half hit the hot
  // set. Each input is therefore mined once (bar two workers missing on it
  // at the same moment) and the mining work does not depend on the seed.
  Status Generate(const Options& options) override {
    check_seed_ = DeriveSeed(options.seed, kServePoolSeed);
    const std::size_t scale = options.smoke ? 4 : 1;
    const std::size_t inputs = 1000 / scale;
    const std::size_t hot = 100 / scale;
    texts_.clear();
    for (std::size_t i = 0; i < inputs; ++i) {
      const std::uint64_t seed = kServePoolSeed + i;
      StatusOr<Sequence> sequence =
          i % 3 == 0   ? MakeBacteriaLikeGenome(1000, seed)
          : i % 3 == 1 ? MakeEukaryoteLikeGenome(1000, seed)
                       : MakeWormLikeGenome(1000, seed);
      PGM_RETURN_IF_ERROR(sequence.status());
      texts_.push_back(sequence->ToString());
    }
    Rng rng(check_seed_);
    std::vector<std::size_t> order(inputs);
    std::iota(order.begin(), order.end(), std::size_t{0});
    Shuffle(order, rng);
    jobs_.clear();
    for (std::size_t i = 0; i < inputs; ++i) {
      jobs_.insert(jobs_.end(), 2, i);
    }
    for (std::size_t i = 0; i < hot; ++i) {
      jobs_.insert(jobs_.end(), 20, order[i]);
    }
    Shuffle(jobs_, rng);
    return Status::OK();
  }

  Status Setup() override {
    std::vector<Sequence> sequences;
    sequences.reserve(texts_.size());
    for (const std::string& text : texts_) {
      PGM_ASSIGN_OR_RETURN(Sequence sequence,
                           Sequence::FromString(text, Alphabet::Dna()));
      sequences.push_back(std::move(sequence));
    }
    sequences_ = std::move(sequences);
    // Every batch runs on a fresh service (Join leaves it inert), so its
    // construction and drain are part of the set-up, not of wall_s.
    MiningService service(MakeServiceConfig(nullptr));
    return Status::OK();
  }

  OpResult Run(SpanRecorder* spans, int run) override {
    MetricsRegistry metrics;
    MiningTrace trace;
    const MiningObserver observer{&metrics, &trace};
    MiningService service(MakeServiceConfig(spans != nullptr ? &observer
                                                             : nullptr));
    OpResult op;
    std::vector<MiningJob> jobs(jobs_.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].input = std::to_string(jobs_[i]);
      jobs[i].algorithm = "mppm";
      jobs[i].config = config_;
    }
    std::vector<double> submit_us;
    submit_us.reserve(jobs.size());
    last_.clear();  // freed before, not inside, the timed op
    Stopwatch watch;
    int join_span = -1;
    {
      ScopedSpan span(spans, "op", -1, run);
      {
        ScopedSpan submit(spans, "serve.submit", span.id(), run);
        for (MiningJob& job : jobs) {
          Stopwatch one;
          const StatusOr<std::int64_t> id = service.Submit(std::move(job));
          submit_us.push_back(one.ElapsedSeconds() * 1e6);
          if (!id.ok()) op.failure = id.status().ToString();
        }
      }
      ScopedSpan join(spans, "serve.join", span.id(), run);
      join_span = join.id();
      service.Start();
      last_ = service.Join();
      op.seconds = watch.ElapsedSeconds();
    }

    op.attempted = jobs_.size();
    std::vector<double>& latency_ms = op.requests_ms;
    std::vector<double> hit_us;
    std::vector<double> miss_ms;
    CoreTally core;
    for (const JobResponse& response : last_) {
      if (!response.status.ok() || !response.result.complete()) {
        ++op.failed;
        op.failure = response.status.ok() ? "incomplete job"
                                          : response.status.ToString();
        continue;
      }
      latency_ms.push_back(response.latency_ms);
      if (spans != nullptr) {
        spans->AddProgram("serve.job", join_span, run,
                          response.latency_ms / 1000.0);
      }
      if (response.cache_hit) {
        hit_us.push_back(response.latency_ms * 1000.0);
        continue;
      }
      miss_ms.push_back(response.latency_ms);
      core.AddRun(response.result);
      op.pil_peak_bytes =
          std::max(op.pil_peak_bytes,
                   static_cast<double>(response.result.pil_memory_peak_bytes));
    }
    if (last_.size() != jobs_.size()) {
      op.failed = jobs_.size();
      op.failure = "Join() did not answer every job";
    }
    if (spans != nullptr) {
      core.AddEvents(trace.events(), nullptr, -1, run);
      core.Fill(&op.layers);
      const double hits =
          static_cast<double>(metrics.CounterValue("serve.cache.hits"));
      const double misses =
          static_cast<double>(metrics.CounterValue("serve.cache.misses"));
      const Gauge* depth = metrics.FindGauge("serve.queue.depth_peak");
      LayerSample& m = op.layers;
      m["serve.submit_us_p50"] = Summarize(submit_us).median;
      m["serve.exec_p50_ms"] = Summarize(latency_ms).median;
      m["serve.exec_p99_ms"] = Percentile(latency_ms, 0.99);
      m["serve.exec_hit_us_p50"] = Summarize(hit_us).median;
      m["serve.exec_miss_ms_p50"] = Summarize(miss_ms).median;
      m["serve.cache.hit_ratio"] = Ratio(hits, hits + misses);
      m["serve.cache.evictions"] =
          static_cast<double>(metrics.CounterValue("serve.cache.evictions"));
      m["serve.queue.depth_peak"] =
          depth == nullptr ? 0.0 : static_cast<double>(depth->value());
      m["serve.jobs.shed"] =
          static_cast<double>(metrics.CounterValue("serve.jobs.shed"));
      m["serve.jobs.failed"] =
          static_cast<double>(metrics.CounterValue("serve.jobs.failed"));
      const double exec_s =
          std::accumulate(latency_ms.begin(), latency_ms.end(), 0.0) / 1000.0;
      m["serve.mine_share"] = Ratio(core.mine_s, exec_s);
      TimeLevel1(sequences_.front(), config_, spans, run, &op.layers);
    }
    return op;
  }

  void Check(Tally& tally, LayerSample* /*recorded*/) override {
    // Every response for one input must carry the same patterns, whether it
    // was mined or served from the cache.
    std::map<std::string, std::uint64_t> by_input;
    for (const JobResponse& response : last_) {
      if (!response.status.ok()) continue;
      const std::uint64_t digest = CsvDigest(response.result);
      auto [it, inserted] = by_input.emplace(response.input, digest);
      if (!inserted) {
        tally.Expect(it->second == digest,
                     "serve: responses differ for input " + response.input);
      }
    }
    Rng rng(check_seed_ + 1);
    MinerConfig direct = config_;
    direct.threads = 1;
    for (int i = 0; i < kRecountSamples; ++i) {
      const std::size_t input = jobs_[rng.UniformInt(jobs_.size())];
      const StatusOr<MiningResult> mined = MineMppm(sequences_[input], direct);
      auto it = by_input.find(std::to_string(input));
      tally.Expect(mined.ok() && it != by_input.end() &&
                       it->second == CsvDigest(*mined),
                   StrFormat("serve: input %zu differs from a direct MineMppm",
                             input));
    }
  }

 private:
  ServiceConfig MakeServiceConfig(const MiningObserver* observer) const {
    ServiceConfig config;
    config.queue_capacity = jobs_.size();
    config.workers = static_cast<std::size_t>(threads_);
    config.cache_capacity_bytes = 64ull << 20;
    config.observer = observer;
    config.loader = [this](const std::string& input) -> StatusOr<Sequence> {
      PGM_ASSIGN_OR_RETURN(std::int64_t index, ParseInt64(input));
      if (index < 0 || static_cast<std::size_t>(index) >= sequences_.size()) {
        return Status::NotFound("no input " + input);
      }
      return sequences_[static_cast<std::size_t>(index)];
    };
    return config;
  }

  std::int64_t threads_;
  MinerConfig config_;
  std::uint64_t check_seed_ = 0;
  std::vector<std::string> texts_;
  std::vector<std::size_t> jobs_;
  std::vector<Sequence> sequences_;
  std::vector<JobResponse> last_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::int64_t threads) {
  if (name == "mpp_section6") {
    return std::make_unique<MineWorkload>("mpp", 12, kMppSegmentSeed, threads);
  }
  if (name == "mppm_fig6_w16") {
    return std::make_unique<MineWorkload>("mppm", 24, kMppmSegmentSeed,
                                          threads);
  }
  if (name == "corpus_s7") return std::make_unique<CorpusWorkload>(threads);
  if (name == "serve_mixed") return std::make_unique<ServeWorkload>(threads);
  return nullptr;
}

struct Reported {
  std::string name;
  std::string unit;
  Summary summary;
};

std::string Number(double value) {
  return StrFormat("%.17g", std::isfinite(value) ? value : 0.0);
}

// Set-up is single-threaded and short, so the host decides it: a CPU whose
// physical core the host is also running another tenant on runs it up to
// ~1.8x slower, and which CPUs those are changes from minute to minute. Set-up
// therefore runs pinned to each usable CPU in turn, at least kSetupRepeats
// times and `min_seconds` on each, and the result is the CPU with the lowest
// median.
StatusOr<Summary> TimeSetup(Workload& workload, double min_seconds) {
  cpu_set_t usable;
  CPU_ZERO(&usable);
  if (sched_getaffinity(0, sizeof(usable), &usable) != 0) {
    return Status::Internal("sched_getaffinity failed");
  }
  Status status;
  std::vector<Summary> per_cpu;
  for (int cpu = 0; cpu < CPU_SETSIZE && status.ok(); ++cpu) {
    if (!CPU_ISSET(cpu, &usable)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    std::vector<double> samples;
    for (Stopwatch total; status.ok() &&
                          (static_cast<int>(samples.size()) < kSetupRepeats ||
                           total.ElapsedSeconds() < min_seconds);) {
      Stopwatch watch;
      status = workload.Setup();
      samples.push_back(watch.ElapsedSeconds());
    }
    per_cpu.push_back(Summarize(samples));
  }
  if (sched_setaffinity(0, sizeof(usable), &usable) != 0) {
    return Status::Internal("cannot restore the CPU affinity");
  }
  PGM_RETURN_IF_ERROR(status);
  if (per_cpu.empty()) return Status::Internal("no CPU to run set-up on");
  return *std::min_element(
      per_cpu.begin(), per_cpu.end(),
      [](const Summary& a, const Summary& b) { return a.median < b.median; });
}

int Main(int argc, char** argv) {
  Options options;
  FlagSet flags(
      "pgm_bench: runs one benchmark workload (mpp_section6, mppm_fig6_w16, "
      "corpus_s7, serve_mixed) and prints its metrics; the last stdout line "
      "is a JSON object. See perfbench/README.md.");
  flags.AddString("workload", &options.workload, "workload to run");
  flags.AddInt64("seed", &options.seed, "seed the inputs are generated from");
  flags.AddDouble("seconds", &options.seconds,
                  "how long the timed repetitions run");
  flags.AddInt64("trace", &options.trace,
                 "1: report per-layer metrics from traced repetitions");
  flags.AddString("out", &options.out,
                  "directory for <workload>.json and <workload>.spans.json");
  flags.AddString("work", &options.work, "directory for generated inputs");
  flags.AddBool("smoke", &options.smoke,
                "inputs shrunk 4x, one repetition, no warm-up");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    const bool help = parsed.code() == StatusCode::kNotFound;
    std::fprintf(help ? stdout : stderr, "%s\n", parsed.message().c_str());
    return help ? 0 : 2;
  }
  if (options.trace != 0 && options.trace != 1) {
    std::fprintf(stderr, "pgm_bench: --trace must be 0 or 1\n");
    return 2;
  }
  const std::string build_type = PGM_PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr, "pgm_bench: built as '%s'; timings need Release\n",
                 build_type.c_str());
    return 2;
  }
  const std::int64_t threads = UsableCpus();
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload, threads);
  if (workload == nullptr) {
    std::fprintf(stderr, "pgm_bench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  const bool traced = options.trace == 1;
  const int min_reps = options.smoke ? 1 : kMinReps;
  const double seconds = options.smoke ? 0.0 : options.seconds;

  if (Status status = workload->Generate(options); !status.ok()) {
    std::fprintf(stderr, "pgm_bench: %s\n", status.ToString().c_str());
    return 1;
  }
  const StatusOr<Summary> setup =
      TimeSetup(*workload, options.smoke ? 0.0 : kSetupSeconds);
  if (!setup.ok()) {
    std::fprintf(stderr, "pgm_bench: set-up: %s\n",
                 setup.status().ToString().c_str());
    return 1;
  }

  Tally tally;
  auto account = [&](const OpResult& op) {
    tally.Add(op.attempted, op.failed);
    if (op.failed != 0) {
      std::fprintf(stderr, "pgm_bench: operation failed: %s\n",
                   op.failure.c_str());
    }
  };
  if (!options.smoke) account(workload->Run(nullptr, -1));  // warm-up

  SpanRecorder spans;
  std::vector<double> wall_s;
  std::vector<double> request_p99_ms;
  std::vector<double> rss_peak_mb;
  std::vector<double> traced_s;
  std::vector<double> pil_peak_mb;
  std::vector<LayerSample> layers;
  Stopwatch budget;
  for (int rep = 0; rep < min_reps || budget.ElapsedSeconds() < seconds;
       ++rep) {
    if (Status status = ResetPeakRss(); !status.ok()) {
      std::fprintf(stderr, "pgm_bench: %s\n", status.ToString().c_str());
      return 1;
    }
    const OpResult op = workload->Run(nullptr, -1);
    rss_peak_mb.push_back(PeakRssMiB());
    account(op);
    wall_s.push_back(op.seconds);
    request_p99_ms.push_back(Percentile(op.requests_ms, 0.99));
    pil_peak_mb.push_back(op.pil_peak_bytes / kMiB);
    if (traced) {
      OpResult traced_op = workload->Run(&spans, rep);
      account(traced_op);
      traced_s.push_back(traced_op.seconds);
      layers.push_back(std::move(traced_op.layers));
    }
  }
  LayerSample recorded;
  workload->Check(tally, &recorded);

  std::vector<Reported> reported;
  if (traced) {
    // Each traced op runs right after its untraced twin, so the ratio within
    // a pair is free of the host's drift from one pair to the next.
    for (std::size_t i = 0; i < layers.size(); ++i) {
      layers[i]["trace.overhead_ratio"] = Ratio(traced_s[i], wall_s[i]) - 1.0;
    }
    for (const MetricDef& def : kPerLayer) {
      std::vector<double> values;
      for (const LayerSample& sample : layers) {
        auto it = sample.find(def.name);
        values.push_back(it == sample.end() ? 0.0 : it->second);
      }
      reported.push_back({def.name, def.unit, Summarize(values)});
    }
  } else {
    const Summary values[] = {*setup, Summarize(wall_s),
                              Summarize(request_p99_ms),
                              Summarize(rss_peak_mb), Summarize(pil_peak_mb)};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      reported.push_back({kEndToEnd[i].name, kEndToEnd[i].unit, values[i]});
    }
  }

  const std::vector<std::pair<std::string, std::string>> info = {
      {"info.hardware_threads",
       std::to_string(std::thread::hardware_concurrency())},
      {"info.threads_used", std::to_string(threads)},
      {"info.avx2", Avx2Available() ? "1" : "0"},
      {"info.cpu_model", CpuModel()},
      {"info.build_type", build_type},
      {"info.reps", std::to_string(wall_s.size())},
      {"info.traced_reps", std::to_string(traced_s.size())},
      {"info.seed", std::to_string(options.seed)},
  };
  const bool correct = tally.failed() == 0;
  for (const Reported& r : reported) {
    std::printf("%s %s %s %s q1=%s q3=%s n=%zu\n", options.workload.c_str(),
                r.name.c_str(), Number(r.summary.median).c_str(),
                r.unit.c_str(), Number(r.summary.q1).c_str(),
                Number(r.summary.q3).c_str(), r.summary.n);
  }
  for (const auto& [name, value] : recorded) {
    std::printf("%s %s %s s n=1 (not gated)\n", options.workload.c_str(),
                name.c_str(), Number(value).c_str());
  }
  for (const auto& [key, value] : info) {
    std::printf("%s %s %s\n", options.workload.c_str(), key.c_str(),
                value.c_str());
  }
  std::printf("%s failed_ratio %s ratio\n", options.workload.c_str(),
              Number(Ratio(static_cast<double>(tally.failed()),
                           static_cast<double>(tally.attempted())))
                  .c_str());

  std::string metrics_json;
  std::string detail_json;
  for (const Reported& r : reported) {
    const std::string sep = metrics_json.empty() ? "" : ", ";
    metrics_json += sep + "\"" + r.name + "\": {\"value\": " +
                    Number(r.summary.median) + ", \"unit\": \"" + r.unit +
                    "\"}";
    detail_json += sep + "\"" + r.name + "\": {\"value\": " +
                   Number(r.summary.median) + ", \"unit\": \"" + r.unit +
                   "\", \"q1\": " + Number(r.summary.q1) +
                   ", \"q3\": " + Number(r.summary.q3) +
                   ", \"n\": " + std::to_string(r.summary.n) + "}";
  }
  const std::string counts = StrFormat(
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu",
      correct ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted()),
      static_cast<unsigned long long>(tally.failed()));

  if (!options.out.empty()) {
    std::string info_json;
    for (const auto& [key, value] : info) {
      info_json += (info_json.empty() ? "" : ", ") + ("\"" + key + "\": \"") +
                   value + "\"";
    }
    std::string recorded_json;
    for (const auto& [name, value] : recorded) {
      recorded_json += (recorded_json.empty() ? "" : ", ") +
                       ("\"" + name + "\": {\"value\": ") + Number(value) +
                       ", \"unit\": \"s\", \"n\": 1}";
    }
    const std::string file_json =
        "{\"workload\": \"" + options.workload +
        "\", \"trace\": " + std::to_string(options.trace) + ", " + counts +
        ", \"info\": {" + info_json + "}, \"metrics\": {" + detail_json +
        "}, \"recorded\": {" + recorded_json + "}}\n";
    const std::string stem = options.out + "/" + options.workload;
    Status written = WriteStringToFile(stem + ".json", file_json);
    if (written.ok() && traced) {
      written = WriteStringToFile(stem + ".spans.json", spans.ToJson());
    }
    if (!written.ok()) {
      std::fprintf(stderr, "pgm_bench: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  std::printf("{%s, \"metrics\": {%s}}\n", counts.c_str(),
              metrics_json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pgm::perfbench

int main(int argc, char** argv) { return pgm::perfbench::Main(argc, argv); }
