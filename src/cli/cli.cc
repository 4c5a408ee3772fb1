#include "cli/cli.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <sstream>
#include <string_view>
#include <thread>

#include "analysis/compare.h"
#include "analysis/composition.h"
#include "analysis/report.h"
#include "analysis/significance.h"
#include "analysis/oscillation.h"
#include "analysis/tandem.h"
#include "core/em.h"
#include "core/miner.h"
#include "core/miner_options.h"
#include "core/trace.h"
#include "corpus/executor.h"
#include "datagen/presets.h"
#include "seq/fasta.h"
#include "serve/service.h"
#include "util/csv_writer.h"
#include "util/flags.h"
#include "util/io.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace pgm::cli {

CancelToken& GlobalCancelToken() {
  static CancelToken token;
  return token;
}

namespace {

StatusOr<Sequence> LoadPreset(const std::string& body) {
  // body = <name>[:<length>[:<seed>]]
  std::vector<std::string> parts = Split(body, ':');
  const std::string& name = parts[0];
  std::size_t length = 100'000;
  std::uint64_t seed = 1;
  if (parts.size() >= 2) {
    PGM_ASSIGN_OR_RETURN(std::int64_t parsed, ParseInt64(parts[1]));
    if (parsed <= 0) return Status::InvalidArgument("preset length must be positive");
    length = static_cast<std::size_t>(parsed);
  }
  if (parts.size() >= 3) {
    PGM_ASSIGN_OR_RETURN(std::int64_t parsed, ParseInt64(parts[2]));
    seed = static_cast<std::uint64_t>(parsed);
  }
  if (parts.size() > 3) {
    return Status::InvalidArgument("preset spec has too many ':' fields");
  }
  if (name == "ax829174") return MakeAx829174Surrogate();
  if (name == "bacteria") return MakeBacteriaLikeGenome(length, seed);
  if (name == "eukaryote") return MakeEukaryoteLikeGenome(length, seed);
  if (name == "worm") return MakeWormLikeGenome(length, seed);
  return Status::InvalidArgument(
      "unknown preset '" + name +
      "' (expected ax829174, bacteria, eukaryote, or worm)");
}

/// An input spec's parts (see cli.h); a fasta value is the path, with any
/// `#<record-id>` split off into record_id.
struct InputSpec {
  const Alphabet* alphabet = &Alphabet::Dna();
  std::string kind;
  std::string value;
  std::string record_id;
};

StatusOr<InputSpec> ParseInputSpec(const std::string& spec) {
  InputSpec input;
  std::string_view body = spec;
  constexpr std::string_view kProtein = "@protein";
  if (body.size() > kProtein.size() && body.ends_with(kProtein)) {
    input.alphabet = &Alphabet::Protein();
    body.remove_suffix(kProtein.size());
  }
  const std::size_t colon = body.find(':');
  if (colon == std::string_view::npos) {
    return Status::InvalidArgument(
        "input spec must look like kind:value (kinds: fasta, text, raw, "
        "preset); got '" + spec + "'");
  }
  input.kind = body.substr(0, colon);
  input.value = body.substr(colon + 1);
  const std::size_t hash = input.value.find('#');
  if (input.kind == "fasta" && hash != std::string::npos) {
    input.record_id = input.value.substr(hash + 1);
    input.value.resize(hash);
  }
  if (input.value.empty()) {
    return Status::InvalidArgument("empty value in input spec '" + spec + "'");
  }
  return input;
}

/// The FASTA record named `record_id`, or the file's first record when it
/// is empty.
StatusOr<FastaRecord> ReadFastaRecord(const std::string& path,
                                      const std::string& record_id) {
  PGM_ASSIGN_OR_RETURN(std::vector<FastaRecord> records, ReadFastaFile(path));
  if (records.empty()) {
    return Status::NotFound("no records in FASTA file: " + path);
  }
  if (record_id.empty()) return std::move(records.front());
  for (FastaRecord& record : records) {
    if (record.id == record_id) return std::move(record);
  }
  return Status::NotFound("record '" + record_id + "' not in " + path);
}

/// Splits on runs of whitespace.
std::vector<std::string> Tokens(std::string_view text) {
  std::istringstream stream{std::string(text)};
  return {std::istream_iterator<std::string>(stream),
          std::istream_iterator<std::string>()};
}

}  // namespace

StatusOr<Sequence> LoadInput(const std::string& spec) {
  PGM_ASSIGN_OR_RETURN(InputSpec input, ParseInputSpec(spec));
  if (input.kind == "raw") {
    return Sequence::FromString(input.value, *input.alphabet);
  }
  if (input.kind == "text") {
    PGM_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(input.value));
    std::size_t dropped = 0;
    Sequence sequence =
        Sequence::FromStringLossy(contents, *input.alphabet, &dropped);
    if (sequence.empty()) {
      return Status::InvalidArgument("file contains no alphabet characters: " +
                                     input.value);
    }
    return sequence;
  }
  if (input.kind == "fasta") {
    PGM_ASSIGN_OR_RETURN(FastaRecord record,
                         ReadFastaRecord(input.value, input.record_id));
    return RecordToSequence(record, *input.alphabet);
  }
  if (input.kind == "preset") {
    return LoadPreset(input.value);
  }
  return Status::InvalidArgument("unknown input kind '" + input.kind + "'");
}

StatusOr<CorpusPlan> LoadCorpusInput(const std::string& spec,
                                     const CorpusPlanOptions& options) {
  PGM_ASSIGN_OR_RETURN(InputSpec input, ParseInputSpec(spec));
  if (input.kind != "fasta") {
    // raw:/text:/preset: become a single pseudo-record named by the spec,
    // so corpus reports and fragment traces stay self-describing.
    PGM_ASSIGN_OR_RETURN(Sequence sequence, LoadInput(spec));
    return CorpusPlan::FromSequence(sequence, spec, options);
  }
  if (input.record_id.empty()) {
    return CorpusPlan::FromFastaFile(input.value, *input.alphabet, options);
  }
  PGM_ASSIGN_OR_RETURN(FastaRecord record,
                       ReadFastaRecord(input.value, input.record_id));
  return CorpusPlan::FromRecords({record}, *input.alphabet, options);
}

namespace {

/// Parses a sub-command's arguments (argv after the command name).
Status ParseFlags(FlagSet& flags, std::vector<std::string> args) {
  args.insert(args.begin(), "pgm");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return flags.Parse(static_cast<int>(argv.size()), argv.data());
}

Status MissingFlag(const std::string& name, const FlagSet& flags) {
  return Status::InvalidArgument("--" + name + " is required\n" +
                                 flags.Usage());
}

/// The CLI's base config: the paper's Section-6 setting, gap [9, 12] and
/// ρs = 0.003%, over the MinerConfig defaults.
MinerConfig SectionSixConfig() {
  MinerConfig config;
  config.min_gap = 9;
  config.max_gap = 12;
  config.min_support_ratio = 0.003 / 100.0;
  return config;
}

/// --algorithm's check, made before any input is loaded.
Status CheckAlgorithmFlag(const std::string& algorithm) {
  if (CheckAlgorithm(algorithm).ok()) return Status::OK();
  return Status::InvalidArgument("unknown --algorithm '" + algorithm +
                                 "' (" + AlgorithmNames() + ")");
}

/// Registers the user-facing MinerOptions() rows as flags writing into
/// *config (only the rows named in `only`, when given). Usage() shows
/// *config's values as the defaults.
void AddMinerFlags(FlagSet& flags, MinerConfig* config,
                   std::initializer_list<std::string_view> only = {}) {
  for (const MinerOption& option : MinerOptions()) {
    if (option.name.empty() ||
        (only.size() > 0 &&
         std::find(only.begin(), only.end(), option.name) == only.end())) {
      continue;
    }
    std::string shown;
    option.render(*config, OptionText::kUser, &shown);
    flags.AddCallback(std::string(option.name), std::string(option.help),
                      shown, [&option, config](const std::string& text) {
                        return option.set(text, config);
                      });
  }
}

/// A command's --metrics-out / --trace exports and the sinks behind them.
struct Exports {
  std::string metrics_path;
  std::string trace_path;
  bool trace_timings = false;
  MetricsRegistry metrics;
  MiningTrace trace;
  MiningObserver observer;

  void AddFlags(FlagSet& flags, bool with_timings) {
    flags.AddString("metrics-out", &metrics_path,
                    "write the run's metrics as deterministic JSON here");
    flags.AddString("trace", &trace_path,
                    "write the run's structured trace as JSON here");
    if (with_timings) {
      flags.AddBool("trace-timings", &trace_timings,
                    "include wall-clock/worker fields and shard timings in "
                    "--trace output (not byte-stable across runs)");
    }
  }

  /// The observer a run records into: null when no export was requested.
  const MiningObserver* Observer() {
    if (!metrics_path.empty()) observer.metrics = &metrics;
    if (!trace_path.empty()) observer.trace = &trace;
    const bool any = observer.metrics != nullptr || observer.trace != nullptr;
    return any ? &observer : nullptr;
  }

  /// Called after the report, so a failed write (IoError, loud in *error)
  /// never swallows the result.
  Status Write(std::string* output) const {
    if (!metrics_path.empty()) {
      PGM_RETURN_IF_ERROR(
          WriteStringToFile(metrics_path, metrics.ToJson() + "\n"));
      output->append("wrote metrics JSON to " + metrics_path + "\n");
    }
    if (!trace_path.empty()) {
      TraceJsonOptions options;
      options.include_volatile = trace_timings;
      PGM_RETURN_IF_ERROR(
          WriteStringToFile(trace_path, trace.ToJson(options) + "\n"));
      output->append("wrote trace JSON to " + trace_path + "\n");
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// pgm mine
// ---------------------------------------------------------------------------

Status RunMine(const std::vector<std::string>& args, std::string* output,
               int* exit_override) {
  std::string input;
  std::string algorithm = "mppm";
  MinerConfig config = SectionSixConfig();
  std::int64_t top = 25;
  bool maximal = false;
  bool level_stats = false;
  bool lift = false;
  std::string csv_path;
  Exports exports;

  FlagSet flags("pgm mine: find frequent periodic patterns");
  flags.AddString("input", &input, "input spec (see pgm --help)");
  flags.AddString("algorithm", &algorithm, AlgorithmNames());
  AddMinerFlags(flags, &config);
  flags.AddInt64("top", &top, "patterns shown (longest / highest ratio first)");
  flags.AddBool("maximal", &maximal, "condense to maximal patterns");
  flags.AddBool("lift", &lift,
                "also rank patterns by compositional lift (observed/expected)");
  flags.AddBool("level-stats", &level_stats, "include per-level candidates");
  flags.AddString("csv", &csv_path, "also write all patterns as CSV here");
  exports.AddFlags(flags, /*with_timings=*/true);
  PGM_RETURN_IF_ERROR(ParseFlags(flags, args));
  if (input.empty()) return MissingFlag("input", flags);
  PGM_RETURN_IF_ERROR(CheckAlgorithmFlag(algorithm));

  PGM_ASSIGN_OR_RETURN(Sequence sequence, LoadInput(input));
  // SIGINT/SIGTERM latch the process-wide token (tools/pgm_main.cc); the
  // miners poll it and wind down to a partial-but-sound result.
  config.cancel = &GlobalCancelToken();
  config.observer = exports.Observer();

  PGM_ASSIGN_OR_RETURN(const MiningResult result,
                       Mine(algorithm, sequence, config));
  PGM_ASSIGN_OR_RETURN(GapRequirement gap,
                       GapRequirement::Create(config.min_gap, config.max_gap));

  output->append(StrFormat(
      "subject: L=%zu over {%s}; rho_s=%g%%; algorithm=%s\n",
      sequence.size(), sequence.alphabet().symbols().c_str(),
      config.min_support_ratio * 100.0, algorithm.c_str()));
  ReportOptions report_options;
  report_options.top = static_cast<std::size_t>(std::max<std::int64_t>(0, top));
  report_options.maximal_only = maximal;
  report_options.include_level_stats = level_stats;
  output->append(FormatMiningReport(result, gap, report_options));

  if (lift) {
    PGM_ASSIGN_OR_RETURN(std::vector<ScoredPattern> ranked,
                         RankByLift(result, sequence));
    TablePrinter lift_table(
        {"pattern", "observed ratio", "expected (composition)", "lift"});
    const std::size_t shown = std::min<std::size_t>(
        ranked.size(), static_cast<std::size_t>(std::max<std::int64_t>(0, top)));
    for (std::size_t i = 0; i < shown; ++i) {
      lift_table.Row()
          .Add(ranked[i].pattern.pattern.ToShorthand())
          .Add(ranked[i].pattern.support_ratio)
          .Add(ranked[i].expected_ratio)
          .Add(ranked[i].lift)
          .Done();
    }
    output->append("\nmost surprising patterns (by compositional lift):\n");
    output->append(lift_table.ToString());
  }

  if (!csv_path.empty()) {
    PGM_RETURN_IF_ERROR(SavePatternsCsv(result, csv_path));
    output->append("wrote " + std::to_string(result.patterns.size()) +
                   " patterns to " + csv_path + "\n");
  }
  PGM_RETURN_IF_ERROR(exports.Write(output));
  if (result.termination == TerminationReason::kCancelled &&
      GlobalCancelToken().cancelled()) {
    // Interrupted, not failed: everything reported above is genuinely
    // frequent, but patterns past guaranteed_complete_up_to may be missing.
    // The distinct exit code lets scripts keep the partial output.
    output->append(StrFormat(
        "interrupted: partial result is sound; complete up to length %lld\n",
        static_cast<long long>(result.guaranteed_complete_up_to)));
    *exit_override = kExitCancelled;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// pgm corpus
// ---------------------------------------------------------------------------

Status RunCorpus(const std::vector<std::string>& args, std::string* output,
                 int* exit_override) {
  std::string input;
  std::string algorithm = "mppm";
  MinerConfig config = SectionSixConfig();
  std::int64_t fragment_length = 100'000;
  bool keep_tail = false;
  std::int64_t max_fragments = 0;
  std::int64_t top = 25;
  std::string csv_path;
  Exports exports;

  FlagSet flags(
      "pgm corpus: mine every record of a corpus fragment-by-fragment "
      "(the paper's Section 7 methodology: support is counted within "
      "fragments, never across fragment boundaries).\n"
      "The mining flags apply per fragment, except: --threads mines that "
      "many whole fragments at a time (each one serially); --deadline-ms "
      "and --max-total-candidates budget the whole corpus; "
      "--max-level-candidates caps any single fragment's candidate total. "
      "Once a corpus budget trips, fragments not yet started are skipped "
      "and the partial result stays sound.");
  flags.AddString("input", &input,
                  "input spec; fasta:<path> mines every record");
  flags.AddString("algorithm", &algorithm, AlgorithmNames());
  AddMinerFlags(flags, &config);
  flags.AddInt64("fragment-length", &fragment_length,
                 "window length each record is cut into (Section 7 uses "
                 "100000)");
  flags.AddBool("keep-tail", &keep_tail,
                "also mine the final sub-window remainder of each record "
                "(off = drop it, the paper's convention)");
  flags.AddInt64("max-fragments", &max_fragments,
                 "cap on total fragments planned (0 = all)");
  flags.AddInt64("top", &top, "patterns shown (longest / highest ratio first)");
  flags.AddString("csv", &csv_path,
                  "also write the aggregated patterns as CSV here");
  exports.AddFlags(flags, /*with_timings=*/true);
  PGM_RETURN_IF_ERROR(ParseFlags(flags, args));
  if (input.empty()) return MissingFlag("input", flags);
  PGM_RETURN_IF_ERROR(CheckAlgorithmFlag(algorithm));
  if (fragment_length <= 0) {
    return Status::InvalidArgument("--fragment-length must be positive");
  }
  if (max_fragments < 0) {
    return Status::InvalidArgument("--max-fragments must be non-negative");
  }

  CorpusPlanOptions plan_options;
  plan_options.fragment.fragment_length =
      static_cast<std::size_t>(fragment_length);
  plan_options.fragment.keep_tail = keep_tail;
  plan_options.max_fragments = static_cast<std::size_t>(max_fragments);
  PGM_ASSIGN_OR_RETURN(CorpusPlan plan, LoadCorpusInput(input, plan_options));
  if (plan.fragments().empty()) {
    // The loud-diagnostic contract: an input that fragments to nothing is
    // a usage error (exit 2), never a silent zero-pattern success.
    return Status::InvalidArgument(plan.EmptyPlanDiagnostic(plan_options));
  }

  config.cancel = &GlobalCancelToken();
  config.observer = exports.Observer();
  // --threads fans out whole fragments; each fragment mines serially.
  const std::int64_t corpus_threads = config.threads;
  config.threads = 1;
  PGM_ASSIGN_OR_RETURN(
      CorpusResult corpus,
      MineCorpus(plan, CorpusOptionsFor(algorithm, config, corpus_threads)));

  output->append(StrFormat(
      "corpus: %s; fragment_length=%lld keep_tail=%s; rho_s=%g%%; "
      "algorithm=%s\n",
      plan.Describe().c_str(), static_cast<long long>(fragment_length),
      keep_tail ? "true" : "false", config.min_support_ratio * 100.0,
      algorithm.c_str()));
  for (const SkippedRecord& skipped : plan.skipped_records()) {
    output->append(StrFormat(
        "warning: record '%s' contributed no fragments (%zu symbol(s))\n",
        skipped.record_id.c_str(), skipped.length));
  }
  if (plan.num_dropped_residues() > 0) {
    output->append(StrFormat(
        "note: %zu non-alphabet residue(s) dropped during encoding\n",
        plan.num_dropped_residues()));
  }
  output->append(StrFormat(
      "fragments: %zu planned, %zu mined, %zu completed, %zu skipped, "
      "%zu failed\n",
      corpus.fragments_planned, corpus.fragments_mined,
      corpus.fragments_completed, corpus.fragments_skipped,
      corpus.fragments_failed));
  output->append(StrFormat(
      "termination: %s; candidates=%llu; complete up to length %lld\n",
      TerminationReasonToString(corpus.termination),
      static_cast<unsigned long long>(corpus.total_candidates),
      static_cast<long long>(corpus.guaranteed_complete_up_to)));

  // Aggregate pattern table, longest first (support ratio as tiebreak) to
  // mirror FormatMiningReport; `fragments` counts the fragments in which
  // the pattern met the threshold — the Section 7 aggregation unit.
  std::vector<std::size_t> order(corpus.patterns.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const FrequentPattern& pa = corpus.patterns[a];
    const FrequentPattern& pb = corpus.patterns[b];
    if (pa.pattern.length() != pb.pattern.length()) {
      return pa.pattern.length() > pb.pattern.length();
    }
    if (pa.support_ratio != pb.support_ratio) {
      return pa.support_ratio > pb.support_ratio;
    }
    return a < b;
  });
  output->append(StrFormat("%zu distinct frequent pattern(s) across the "
                           "corpus\n",
                           corpus.patterns.size()));
  TablePrinter table(
      {"pattern", "length", "fragments", "best support", "best ratio"});
  const std::size_t shown = std::min<std::size_t>(
      order.size(), static_cast<std::size_t>(std::max<std::int64_t>(0, top)));
  for (std::size_t i = 0; i < shown; ++i) {
    const FrequentPattern& pattern = corpus.patterns[order[i]];
    table.Row()
        .Add(pattern.pattern.ToShorthand())
        .Add(static_cast<std::uint64_t>(pattern.pattern.length()))
        .Add(corpus.pattern_fragment_counts[order[i]])
        .Add(pattern.support)
        .Add(pattern.support_ratio)
        .Done();
  }
  output->append(table.ToString());

  if (!csv_path.empty()) {
    const MiningResult flat = corpus.ToMiningResult();
    PGM_RETURN_IF_ERROR(SavePatternsCsv(flat, csv_path));
    output->append("wrote " + std::to_string(flat.patterns.size()) +
                   " patterns to " + csv_path + "\n");
  }
  PGM_RETURN_IF_ERROR(exports.Write(output));
  if (corpus.termination == TerminationReason::kCancelled &&
      GlobalCancelToken().cancelled()) {
    output->append(
        "interrupted: partial corpus result is sound; unmined fragments "
        "were skipped\n");
    *exit_override = kExitCancelled;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// pgm em
// ---------------------------------------------------------------------------

Status RunEm(const std::vector<std::string>& args, std::string* output) {
  std::string input;
  MinerConfig config = SectionSixConfig();
  FlagSet flags("pgm em: compute the e_m statistic (Theorem 2)");
  flags.AddString("input", &input, "input spec");
  AddMinerFlags(flags, &config, {"min-gap", "max-gap", "m"});
  PGM_RETURN_IF_ERROR(ParseFlags(flags, args));
  if (input.empty()) return MissingFlag("input", flags);
  PGM_ASSIGN_OR_RETURN(Sequence sequence, LoadInput(input));
  PGM_ASSIGN_OR_RETURN(GapRequirement gap,
                       GapRequirement::Create(config.min_gap, config.max_gap));
  const std::int64_t m = config.em_order;
  PGM_ASSIGN_OR_RETURN(EmResult em, ComputeEm(sequence, gap, m));
  long double wm = 1.0L;
  for (std::int64_t i = 0; i < m; ++i) {
    wm *= static_cast<long double>(gap.flexibility());
  }
  output->append(StrFormat(
      "L=%zu, gap %s, m=%lld: e_m = %llu, W^m = %.6g, W^m/e_m = %.4g\n",
      sequence.size(), gap.ToString().c_str(), static_cast<long long>(m),
      static_cast<unsigned long long>(em.em), static_cast<double>(wm),
      static_cast<double>(wm / static_cast<long double>(
                                   em.em == 0 ? 1 : em.em))));
  // Top-5 positions by K_r.
  std::vector<std::size_t> order(em.k_values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return em.k_values[a] > em.k_values[b];
  });
  output->append("highest-K_r positions:");
  for (std::size_t i = 0; i < order.size() && i < 5; ++i) {
    output->append(StrFormat(" %zu (K=%llu)", order[i],
                             static_cast<unsigned long long>(
                                 em.k_values[order[i]])));
  }
  output->append("\n");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// pgm scan (base-pair oscillation)
// ---------------------------------------------------------------------------

Status RunScan(const std::vector<std::string>& args, std::string* output) {
  std::string input;
  std::string pairs = "AA,AT,GC";
  std::int64_t max_distance = 20;
  FlagSet flags("pgm scan: base-pair oscillation correlation spectra");
  flags.AddString("input", &input, "input spec");
  flags.AddString("pairs", &pairs, "comma-separated base pairs, e.g. AA,AT");
  flags.AddInt64("max-distance", &max_distance, "largest distance p");
  PGM_RETURN_IF_ERROR(ParseFlags(flags, args));
  if (input.empty()) return MissingFlag("input", flags);
  PGM_ASSIGN_OR_RETURN(Sequence sequence, LoadInput(input));

  for (const std::string& pair : Split(pairs, ',')) {
    if (pair.size() != 2) {
      return Status::InvalidArgument("pair must be two characters: '" + pair +
                                     "'");
    }
    PGM_ASSIGN_OR_RETURN(
        CorrelationSpectrum spectrum,
        CorrelationSpectrumFor(sequence, pair[0], pair[1], max_distance));
    output->append(StrFormat("corr_%c%c(p):\n", pair[0], pair[1]));
    double max_abs = 1e-12;
    for (double v : spectrum.values) max_abs = std::max(max_abs, std::abs(v));
    for (std::size_t i = 0; i < spectrum.values.size(); ++i) {
      const double v = spectrum.values[i];
      const int bar = static_cast<int>(std::abs(v) / max_abs * 32);
      output->append(StrFormat("  p=%2zu  %+10.6f  %s\n", i + 1, v,
                               std::string(static_cast<std::size_t>(bar),
                                           v < 0 ? '-' : '#')
                                   .c_str()));
    }
    std::vector<std::int64_t> peaks = FindPeaks(spectrum, 0.0);
    output->append("  peaks:");
    for (std::int64_t p : peaks) {
      output->append(StrFormat(" %lld", static_cast<long long>(p)));
    }
    output->append("\n");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// pgm tandem
// ---------------------------------------------------------------------------

Status RunTandem(const std::vector<std::string>& args, std::string* output) {
  std::string input;
  std::int64_t max_period = 6, min_copies = 3, top = 20, min_length = 12;
  FlagSet flags("pgm tandem: classical tandem-repeat scan");
  flags.AddString("input", &input, "input spec");
  flags.AddInt64("max-period", &max_period, "largest repeat period");
  flags.AddInt64("min-copies", &min_copies, "minimum complete copies");
  flags.AddInt64("min-length", &min_length, "minimum region length shown");
  flags.AddInt64("top", &top, "repeats shown (longest first)");
  PGM_RETURN_IF_ERROR(ParseFlags(flags, args));
  if (input.empty()) return MissingFlag("input", flags);
  PGM_ASSIGN_OR_RETURN(Sequence sequence, LoadInput(input));
  PGM_ASSIGN_OR_RETURN(std::vector<TandemRepeat> repeats,
                       FindTandemRepeats(sequence, max_period, min_copies));
  std::vector<const TandemRepeat*> shown;
  for (const TandemRepeat& repeat : repeats) {
    if (repeat.length >= min_length) shown.push_back(&repeat);
  }
  std::sort(shown.begin(), shown.end(),
            [](const TandemRepeat* a, const TandemRepeat* b) {
              return a->length > b->length;
            });
  output->append(StrFormat("%zu tandem repeats (of %zu total) with length "
                           ">= %lld:\n",
                           shown.size(), repeats.size(),
                           static_cast<long long>(min_length)));
  TablePrinter table({"start", "period", "length", "copies", "unit"});
  for (std::size_t i = 0; i < shown.size() &&
                          i < static_cast<std::size_t>(std::max<std::int64_t>(0, top));
       ++i) {
    const TandemRepeat& repeat = *shown[i];
    table.Row()
        .Add(repeat.start)
        .Add(repeat.period)
        .Add(repeat.length)
        .Add(repeat.copies())
        .Add(sequence
                 .Subsequence(static_cast<std::size_t>(repeat.start),
                              static_cast<std::size_t>(repeat.period))
                 .ToString())
        .Done();
  }
  output->append(table.ToString());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// pgm compare
// ---------------------------------------------------------------------------

Status RunCompare(const std::vector<std::string>& args, std::string* output) {
  std::int64_t examples = 3;
  bool use_protein = false;
  FlagSet flags(
      "pgm compare: compare two or more patterns-CSV files (as written by "
      "pgm mine --csv)");
  flags.AddBool("protein", &use_protein, "patterns use the protein alphabet");
  flags.AddInt64("examples", &examples, "unique-pattern examples shown");
  PGM_RETURN_IF_ERROR(ParseFlags(flags, args));
  const std::vector<std::string>& paths = flags.positional_args();
  if (paths.size() < 2) {
    return Status::InvalidArgument(
        "pgm compare needs at least two patterns-CSV files\n" + flags.Usage());
  }
  const Alphabet& alphabet =
      use_protein ? Alphabet::Protein() : Alphabet::Dna();
  std::vector<NamedPatternSet> sets;
  for (const std::string& path : paths) {
    NamedPatternSet set;
    set.name = path;
    PGM_ASSIGN_OR_RETURN(set.patterns, LoadPatternsCsv(path, alphabet));
    sets.push_back(std::move(set));
  }
  PGM_ASSIGN_OR_RETURN(std::vector<SetComparison> comparisons,
                       ComparePatternSets(sets));
  TablePrinter table({"file", "patterns", "common to all", "unique",
                      "example unique"});
  for (const SetComparison& comparison : comparisons) {
    std::string example = "-";
    if (!comparison.unique.empty()) {
      example.clear();
      for (std::int64_t i = 0;
           i < examples &&
           i < static_cast<std::int64_t>(comparison.unique.size());
           ++i) {
        if (i > 0) example += " ";
        example += comparison.unique[i].ToShorthand();
      }
    }
    table.Row()
        .Add(comparison.name)
        .Add(static_cast<std::uint64_t>(comparison.total))
        .Add(static_cast<std::uint64_t>(comparison.common.size()))
        .Add(static_cast<std::uint64_t>(comparison.unique.size()))
        .Add(example)
        .Done();
  }
  output->append(table.ToString());
  if (sets.size() == 2) {
    output->append(StrFormat(
        "Jaccard similarity: %.4f\n",
        PatternSetJaccard(sets[0].patterns, sets[1].patterns)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// pgm generate
// ---------------------------------------------------------------------------

Status RunGenerate(const std::vector<std::string>& args, std::string* output) {
  std::string preset = "bacteria";
  std::int64_t length = 100'000, seed = 1;
  std::string out_path;
  FlagSet flags("pgm generate: write a synthetic genome preset as FASTA");
  flags.AddString("preset", &preset,
                  "ax829174 | bacteria | eukaryote | worm");
  flags.AddInt64("length", &length, "genome length (ignored for ax829174)");
  flags.AddInt64("seed", &seed, "generation seed");
  flags.AddString("output", &out_path, "output FASTA path (required)");
  PGM_RETURN_IF_ERROR(ParseFlags(flags, args));
  if (out_path.empty()) return MissingFlag("output", flags);
  PGM_ASSIGN_OR_RETURN(
      Sequence sequence,
      LoadInput(StrFormat("preset:%s:%lld:%lld", preset.c_str(),
                          static_cast<long long>(length),
                          static_cast<long long>(seed))));
  FastaRecord record;
  record.id = preset;
  record.description = StrFormat("synthetic %s genome, L=%zu, seed=%lld",
                                 preset.c_str(), sequence.size(),
                                 static_cast<long long>(seed));
  record.residues = sequence.ToString();
  PGM_RETURN_IF_ERROR(WriteFastaFile(out_path, {record}));
  output->append(StrFormat("wrote %zu bp to %s\n", sequence.size(),
                           out_path.c_str()));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// pgm serve
// ---------------------------------------------------------------------------

/// The keys a job line takes, sorted: the job-only ones and the `pgm mine`
/// names of the MinerOptions() rows.
std::string JobKeys() {
  std::vector<std::string> keys = {"algorithm", "corpus", "corpus-keep-tail"};
  for (const MinerOption& option : MinerOptions()) {
    if (!option.name.empty()) keys.emplace_back(option.name);
  }
  std::sort(keys.begin(), keys.end());
  return Join(keys, ", ");
}

/// Applies one `key=value` job token; NotFound for an unknown key.
/// `corpus=<len>` switches the job to corpus mode: the input is expanded
/// into fragments of that length and mined by the corpus executor;
/// `corpus-keep-tail=1` also mines each record's sub-window remainder.
Status SetJobKey(const std::string& key, const std::string& value,
                 MiningJob* job) {
  if (key == "algorithm") {
    job->algorithm = value;
    return Status::OK();
  }
  if (const MinerOption* option = FindMinerOption(key)) {
    return option->set(value, &job->config);
  }
  if (key != "corpus" && key != "corpus-keep-tail") {
    return Status::NotFound("unknown key");
  }
  PGM_ASSIGN_OR_RETURN(std::int64_t parsed, ParseInt64(value));
  if (key == "corpus-keep-tail") {
    job->corpus_keep_tail = parsed != 0;
  } else if (parsed <= 0) {
    return Status::InvalidArgument("fragment length must be positive");
  } else {
    job->corpus_fragment_length = static_cast<std::size_t>(parsed);
  }
  return Status::OK();
}

/// Parses one job-file line: `<input-spec> [key=value ...]`, tokens split
/// on any whitespace. Errors name the line.
Status ParseJobLine(std::string_view line, std::size_t line_number,
                    MiningJob* job) {
  const std::vector<std::string> tokens = Tokens(line);
  job->input = tokens.front();
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::size_t eq = tokens[i].find('=');
    const std::string key = tokens[i].substr(0, eq);
    std::string error;
    if (eq == std::string::npos) {
      error = "expected key=value, got '" + tokens[i] + "'";
    } else if (Status status = SetJobKey(key, tokens[i].substr(eq + 1), job);
               status.code() == StatusCode::kNotFound) {
      error = "unknown key '" + key + "' (valid keys: " + JobKeys() + ")";
    } else if (!status.ok()) {
      error = "bad value for " + key + ": " + status.message();
    }
    if (!error.empty()) {
      return Status::InvalidArgument(
          StrFormat("jobs line %zu: %s", line_number, error.c_str()));
    }
  }
  return Status::OK();
}

/// One line per job response: machine-greppable outcome columns, then for
/// a failed job the first line of its status message.
void AppendResponseLine(const JobResponse& response, std::string* output) {
  output->append(StrFormat("job %lld %s %s: ",
                           static_cast<long long>(response.id),
                           response.input.c_str(),
                           response.algorithm.c_str()));
  if (!response.status.ok()) {
    output->append(StatusCodeToString(response.status.code()));
    if (response.status.code() == StatusCode::kUnavailable) {
      output->append(StrFormat(" retry_after_ms=%lld",
                               static_cast<long long>(response.retry_after_ms)));
    }
  } else {
    output->append(StrFormat(
        "%s patterns=%zu cache_hit=%d",
        TerminationReasonToString(response.result.termination),
        response.result.patterns.size(), response.cache_hit ? 1 : 0));
    if (response.corpus_fragments > 0) {
      output->append(
          StrFormat(" fragments=%zu", response.corpus_fragments));
    }
  }
  if (response.load_attempts > 1) {
    output->append(StrFormat(" load_attempts=%d", response.load_attempts));
  }
  const std::string& message = response.status.message();
  if (!response.status.ok() && !message.empty()) {
    output->append(": " + message.substr(0, message.find('\n')));
  }
  output->append("\n");
}

Status RunServe(const std::vector<std::string>& args, std::string* output,
                int* exit_override) {
  std::string jobs_path;
  std::int64_t queue_capacity = 64;
  std::int64_t workers = 1;
  std::int64_t max_deadline_ms = -1;
  std::int64_t cache_bytes = 0;
  std::int64_t retry_attempts = 2;
  std::int64_t retry_base_ms = 1;
  std::int64_t retry_after_ms = 50;
  Exports exports;

  FlagSet flags(
      "pgm serve: run a batch of mining jobs as a bounded service\n"
      "Job keys: " + JobKeys() + ". The mining keys take pgm mine's flag "
      "values; unset ones keep the library defaults (min-gap 0, max-gap 0, "
      "rho-percent 0), not pgm mine's.");
  flags.AddString("jobs", &jobs_path,
                  "job file: one '<input-spec> key=value ...' per line "
                  "('#' starts a comment)");
  flags.AddInt64("queue-capacity", &queue_capacity,
                 "admission queue bound; jobs past it are shed (exit-visible "
                 "as Unavailable responses)");
  flags.AddInt64("workers", &workers,
                 "service worker threads (0 = one per hardware thread)");
  flags.AddInt64("max-deadline-ms", &max_deadline_ms,
                 "server ceiling on any job's deadline (-1 = none)");
  flags.AddInt64("cache-bytes", &cache_bytes,
                 "result-cache budget in bytes (0 = cache off)");
  flags.AddInt64("retry-attempts", &retry_attempts,
                 "input-load attempts per job (transient I/O faults only)");
  flags.AddInt64("retry-base-ms", &retry_base_ms,
                 "first retry backoff; doubles per attempt");
  flags.AddInt64("retry-after-ms", &retry_after_ms,
                 "backoff hint attached to shed responses");
  exports.AddFlags(flags, /*with_timings=*/false);
  PGM_RETURN_IF_ERROR(ParseFlags(flags, args));
  if (jobs_path.empty()) return MissingFlag("jobs", flags);
  if (queue_capacity <= 0 || workers < 0 || cache_bytes < 0 ||
      retry_attempts < 1 || retry_base_ms < 0 || retry_after_ms < 0) {
    return Status::InvalidArgument(
        "serve knobs must be positive (queue-capacity, retry-attempts) or "
        "non-negative (workers, cache-bytes, retry-base-ms, retry-after-ms)");
  }

  PGM_ASSIGN_OR_RETURN(std::string jobs_text, ReadFileToString(jobs_path));
  std::vector<MiningJob> jobs;
  std::size_t line_number = 0;
  for (const std::string& raw_line : Split(jobs_text, '\n')) {
    ++line_number;
    std::string_view line = Trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    MiningJob job;
    PGM_RETURN_IF_ERROR(ParseJobLine(line, line_number, &job));
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) {
    return Status::InvalidArgument("no jobs in " + jobs_path);
  }

  ServiceConfig service_config;
  service_config.queue_capacity = static_cast<std::size_t>(queue_capacity);
  service_config.workers = static_cast<std::size_t>(workers);
  service_config.max_deadline_ms = max_deadline_ms;
  service_config.cache_capacity_bytes = static_cast<std::uint64_t>(cache_bytes);
  service_config.io_retry.max_attempts = static_cast<int>(retry_attempts);
  service_config.io_retry.base_delay_ms = retry_base_ms;
  service_config.retry_after_ms = retry_after_ms;
  // The service always records its serve.* metrics; exporting is optional.
  exports.observer.metrics = &exports.metrics;
  service_config.observer = exports.Observer();
  service_config.loader = [](const std::string& spec) {
    return LoadInput(spec);
  };
  service_config.corpus_loader = [](const std::string& spec,
                                    const CorpusPlanOptions& options) {
    return LoadCorpusInput(spec, options);
  };
  MiningService service(std::move(service_config));

  // Submit everything before starting the drain: shedding then depends only
  // on queue capacity and submission order, so batch runs are reproducible.
  for (MiningJob& job : jobs) {
    (void)service.Submit(std::move(job));  // shed jobs recorded as responses
  }
  service.Start();

  // Signal watcher: SIGINT/SIGTERM latch the global token; the watcher
  // turns that into a graceful drain (stop admitting, cancel in-flight,
  // flush partials).
  std::atomic<bool> watcher_stop{false};
  std::thread watcher([&service, &watcher_stop] {
    while (!watcher_stop.load(std::memory_order_acquire)) {
      if (GlobalCancelToken().cancelled()) {
        service.BeginShutdown();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  std::vector<JobResponse> responses = service.Join();
  watcher_stop.store(true, std::memory_order_release);
  watcher.join();

  std::size_t completed = 0, partial = 0, shed = 0, failed = 0, hits = 0;
  for (const JobResponse& response : responses) {
    AppendResponseLine(response, output);
    if (response.status.ok()) {
      if (response.result.complete()) {
        ++completed;
      } else {
        ++partial;
      }
      if (response.cache_hit) ++hits;
    } else if (response.status.code() == StatusCode::kUnavailable) {
      ++shed;
    } else {
      ++failed;
    }
  }
  output->append(StrFormat(
      "served %zu jobs: %zu completed, %zu partial, %zu shed, %zu failed, "
      "%zu cache hits\n",
      responses.size(), completed, partial, shed, failed, hits));

  PGM_RETURN_IF_ERROR(exports.Write(output));
  if (GlobalCancelToken().cancelled()) {
    output->append("interrupted: drained gracefully; partial results above "
                   "are sound\n");
    *exit_override = kExitCancelled;
  }
  return Status::OK();
}

}  // namespace

std::string RootUsage() {
  return
      "pgm — periodic pattern mining with gap requirements (SIGMOD 2005)\n"
      "\n"
      "Usage: pgm <command> [flags]   (pgm <command> --help for details)\n"
      "\n"
      "Commands:\n"
      "  mine      find frequent periodic patterns (MPP/MPPm/enum/adaptive)\n"
      "  corpus    mine a multi-record corpus fragment-by-fragment (paper "
      "Section 7)\n"
      "  em        compute the e_m pruning statistic\n"
      "  scan      base-pair oscillation correlation spectra\n"
      "  tandem    classical tandem-repeat scan\n"
      "  compare   compare two or more patterns-CSV files\n"
      "  generate  write a synthetic genome preset as FASTA\n"
      "  serve     run a job batch as a bounded, fault-tolerant service\n"
      "\n"
      "Input specs (--input):\n"
      "  fasta:<path>[#<record-id>]     FASTA file\n"
      "  text:<path>                    raw characters from a file\n"
      "  raw:<characters>               characters inline\n"
      "  preset:<name>[:<len>[:<seed>]] synthetic genome (ax829174,\n"
      "                                 bacteria, eukaryote, worm)\n"
      "  append @protein for the amino-acid alphabet\n";
}

int ExitCodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 2;
    case StatusCode::kIoError:
      return 3;
    case StatusCode::kCorruption:
      return 4;
    case StatusCode::kResourceExhausted:
      return 5;
    case StatusCode::kNotFound:
      return 6;
    case StatusCode::kUnavailable:
      return 7;
    default:
      return 1;
  }
}

int Run(int argc, char** argv, std::string* output, std::string* error) {
  if (argc < 2) {
    error->append(RootUsage());
    return 2;
  }
  const std::string command = argv[1];
  std::vector<std::string> rest(argv + 2, argv + argc);
  if (command == "--help" || command == "-h" || command == "help") {
    output->append(RootUsage());
    return 0;
  }
  Status status = Status::OK();
  // -1 = no override; RunMine/RunServe set kExitCancelled after a graceful
  // signal-driven wind-down (the Status stays OK — the partial result is
  // sound and already rendered).
  int exit_override = -1;
  if (command == "mine") {
    status = RunMine(rest, output, &exit_override);
  } else if (command == "corpus") {
    status = RunCorpus(rest, output, &exit_override);
  } else if (command == "serve") {
    status = RunServe(rest, output, &exit_override);
  } else if (command == "em") {
    status = RunEm(rest, output);
  } else if (command == "scan") {
    status = RunScan(rest, output);
  } else if (command == "tandem") {
    status = RunTandem(rest, output);
  } else if (command == "compare") {
    status = RunCompare(rest, output);
  } else if (command == "generate") {
    status = RunGenerate(rest, output);
  } else {
    error->append("unknown command '" + command + "'\n\n" + RootUsage());
    return 2;
  }
  if (!status.ok()) {
    if (status.code() == StatusCode::kNotFound &&
        status.message().rfind("pgm ", 0) == 0) {
      // --help inside a sub-command: message is the usage text.
      output->append(status.message());
      return 0;
    }
    error->append(status.ToString());
    error->append("\n");
    return ExitCodeForStatus(status);
  }
  return exit_override >= 0 ? exit_override : 0;
}

int Run(int argc, char** argv, std::string* output) {
  return Run(argc, argv, output, output);
}

int RunFromString(const std::string& command_line, std::string* output,
                  std::string* error) {
  std::vector<std::string> tokens = Tokens(command_line);
  std::vector<char*> argv;
  for (std::string& token : tokens) argv.push_back(token.data());
  return Run(static_cast<int>(argv.size()), argv.data(), output,
             error == nullptr ? output : error);
}

}  // namespace pgm::cli
