#include "bench/common.h"

#include <cstdio>
#include <cstdlib>

#include "datagen/presets.h"
#include "seq/fragmenter.h"
#include "util/random.h"

namespace pgm::bench {

void RegisterHarnessFlags(FlagSet& flags, HarnessOptions& options) {
  flags.AddString("csv", &options.csv_path,
                  "also write the table as CSV to this path");
  flags.AddString("metrics-json", &options.metrics_json_path,
                  "append one JSON line of metrics+trace per mining run to "
                  "this path");
  flags.AddInt64("seed", &options.seed, "seed for synthetic data generation");
  flags.AddInt64("threads", &options.threads,
                 "worker threads for level evaluation (1 = serial, 0 = one "
                 "per hardware thread)");
}

int HandleParseResult(const Status& status) {
  if (status.ok()) return -1;
  if (status.code() == StatusCode::kNotFound) {
    // --help: the message is the usage text.
    std::printf("%s\n", status.message().c_str());
    return 0;
  }
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 2;
}

StatusOr<Sequence> SurrogateSegment(std::size_t length, std::uint64_t seed) {
  PGM_ASSIGN_OR_RETURN(Sequence genome, MakeAx829174Surrogate());
  Rng rng(seed);
  return RandomSegment(genome, length, rng);
}

MinerConfig Section6Defaults() {
  MinerConfig config;
  config.min_gap = 9;
  config.max_gap = 12;
  config.min_support_ratio = 0.003 / 100.0;  // the paper's 0.003%
  config.start_length = 3;
  config.em_order = 10;
  return config;
}

void MaybeWriteCsv(const HarnessOptions& options, const CsvWriter& csv) {
  if (options.csv_path.empty()) return;
  Status status = csv.WriteToFile(options.csv_path);
  if (status.ok()) {
    std::fprintf(stderr, "wrote CSV to %s\n", options.csv_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write CSV: %s\n",
                 status.ToString().c_str());
  }
}

void MaybeAppendRunJson(const HarnessOptions& options, const std::string& label,
                        const RunObservation& run) {
  if (options.metrics_json_path.empty()) return;
  TraceJsonOptions trace_options;
  trace_options.include_volatile = true;
  std::string line = "{\"run\": \"" + label + "\", \"metrics\": " +
                     run.metrics.ToJson() +
                     ", \"trace\": " + run.trace.ToJson(trace_options) + "}";
  // The exports are pretty-printed; strip the newlines (no string value can
  // contain one — the escaper encodes control characters) so each appended
  // record is one JSON line.
  std::string::size_type pos = 0;
  while ((pos = line.find('\n', pos)) != std::string::npos) {
    line.erase(pos, 1);
  }
  line += "\n";
  std::FILE* f = std::fopen(options.metrics_json_path.c_str(), "ab");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n",
                 options.metrics_json_path.c_str());
    return;
  }
  const std::size_t written = std::fwrite(line.data(), 1, line.size(), f);
  if (std::fclose(f) != 0 || written != line.size()) {
    std::fprintf(stderr, "failed to append run JSON to %s\n",
                 options.metrics_json_path.c_str());
    return;
  }
  std::fprintf(stderr, "appended run '%s' to %s\n", label.c_str(),
               options.metrics_json_path.c_str());
}

void CheckOk(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "fatal: %s\n", status.ToString().c_str());
    std::abort();
  }
}

}  // namespace pgm::bench
