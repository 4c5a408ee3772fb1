#include "cli/cli.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/kernel.h"
#include "core/miner_options.h"
#include "seq/fasta.h"

namespace pgm::cli {
namespace {

TEST(CliInputTest, RawDna) {
  StatusOr<Sequence> s = LoadInput("raw:ACGT");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->ToString(), "ACGT");
  EXPECT_EQ(s->alphabet().size(), 4u);
}

TEST(CliInputTest, RawProteinSuffix) {
  StatusOr<Sequence> s = LoadInput("raw:LWLW@protein");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->alphabet().size(), 20u);
  EXPECT_EQ(s->ToString(), "LWLW");
}

TEST(CliInputTest, RawRejectsBadCharacters) {
  EXPECT_FALSE(LoadInput("raw:ACGTN").ok());
}

TEST(CliInputTest, MissingKindIsError) {
  EXPECT_FALSE(LoadInput("ACGT").ok());
  EXPECT_FALSE(LoadInput("raw:").ok());
  EXPECT_FALSE(LoadInput("bogus:x").ok());
}

TEST(CliInputTest, Presets) {
  StatusOr<Sequence> surrogate = LoadInput("preset:ax829174");
  ASSERT_TRUE(surrogate.ok());
  EXPECT_EQ(surrogate->size(), 10'011u);

  StatusOr<Sequence> bacteria = LoadInput("preset:bacteria:5000:3");
  ASSERT_TRUE(bacteria.ok());
  EXPECT_EQ(bacteria->size(), 5000u);

  EXPECT_FALSE(LoadInput("preset:unknown").ok());
  EXPECT_FALSE(LoadInput("preset:bacteria:-5").ok());
  EXPECT_FALSE(LoadInput("preset:bacteria:10:2:9").ok());
}

TEST(CliInputTest, PresetDeterministicPerSpec) {
  Sequence a = *LoadInput("preset:worm:4000:9");
  Sequence b = *LoadInput("preset:worm:4000:9");
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST(CliInputTest, FastaFileWithRecordSelection) {
  const std::string path = testing::TempDir() + "/cli_test.fa";
  ASSERT_TRUE(WriteFastaFile(path, {{"one", "", "ACGT"},
                                    {"two", "", "TTTT"}})
                  .ok());
  StatusOr<Sequence> first = LoadInput("fasta:" + path);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->ToString(), "ACGT");
  StatusOr<Sequence> second = LoadInput("fasta:" + path + "#two");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->ToString(), "TTTT");
  EXPECT_FALSE(LoadInput("fasta:" + path + "#three").ok());
  std::remove(path.c_str());
}

TEST(CliInputTest, CorpusInputExpandsEveryRecordOrTheNamedOne) {
  const std::string path = testing::TempDir() + "/cli_corpus.fa";
  ASSERT_TRUE(WriteFastaFile(path, {{"one", "", "ACGTACGT"},
                                    {"two", "", "TTTTGGGGCCCC"}})
                  .ok());
  CorpusPlanOptions options;
  options.fragment.fragment_length = 4;
  StatusOr<CorpusPlan> all = LoadCorpusInput("fasta:" + path, options);
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all->num_records(), 2u);
  EXPECT_EQ(all->fragments().size(), 5u);
  StatusOr<CorpusPlan> two = LoadCorpusInput("fasta:" + path + "#two",
                                             options);
  ASSERT_TRUE(two.ok()) << two.status();
  ASSERT_EQ(two->fragments().size(), 3u);
  EXPECT_EQ(two->fragments().front().record_id, "two");
  EXPECT_EQ(LoadCorpusInput("fasta:" + path + "#three", options)
                .status()
                .code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());

  // Other kinds become one pseudo-record named by the spec.
  StatusOr<CorpusPlan> raw = LoadCorpusInput("raw:LWLWLWLW@protein", options);
  ASSERT_TRUE(raw.ok()) << raw.status();
  EXPECT_EQ(raw->fragments().front().record_id, "raw:LWLWLWLW@protein");
  EXPECT_EQ(raw->fragments().front().sequence.alphabet().size(), 20u);
  EXPECT_EQ(LoadCorpusInput("fasta:", options).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadCorpusInput("ACGT", options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CliInputTest, TextFileDropsNonAlphabet) {
  const std::string path = testing::TempDir() + "/cli_test.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("AC GT\nNN-acgt\n", f);
  std::fclose(f);
  StatusOr<Sequence> s = LoadInput("text:" + path);
  std::remove(path.c_str());
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->ToString(), "ACGTACGT");
}

TEST(CliRunTest, HelpReturnsZeroWithUsage) {
  std::string output;
  EXPECT_EQ(RunFromString("pgm help", &output), 0);
  EXPECT_NE(output.find("mine"), std::string::npos);
  EXPECT_NE(output.find("tandem"), std::string::npos);
}

TEST(CliRunTest, NoArgsShowsUsageWithError) {
  std::string output;
  EXPECT_EQ(RunFromString("pgm", &output), 2);
  EXPECT_NE(output.find("Usage"), std::string::npos);
}

TEST(CliRunTest, UnknownCommand) {
  std::string output;
  EXPECT_EQ(RunFromString("pgm frobnicate", &output), 2);
  EXPECT_NE(output.find("unknown command"), std::string::npos);
}

TEST(CliRunTest, MineOnRawSequence) {
  std::string output;
  const int code = RunFromString(
      "pgm mine --input raw:ACGTACGTACGTACGTACGTACGTACGTACGT "
      "--min-gap 1 --max-gap 3 --rho-percent 1 --start-length 2 --top 5",
      &output);
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("frequent patterns"), std::string::npos);
  EXPECT_NE(output.find("pattern"), std::string::npos);
}

TEST(CliRunTest, MineRequiresInput) {
  std::string output;
  EXPECT_EQ(RunFromString("pgm mine --min-gap 1 --max-gap 2", &output), 2);
  EXPECT_NE(output.find("--input is required"), std::string::npos);
}

TEST(CliRunTest, MineRejectsUnknownAlgorithm) {
  std::string output;
  EXPECT_EQ(RunFromString(
                "pgm mine --input raw:ACGT --algorithm quantum --min-gap 0 "
                "--max-gap 1 --rho-percent 1",
                &output),
            2);
  EXPECT_NE(output.find("unknown --algorithm"), std::string::npos);
}

TEST(CliRunTest, MineWritesCsv) {
  const std::string path = testing::TempDir() + "/cli_mine.csv";
  std::string output;
  const int code = RunFromString(
      "pgm mine --input raw:ACGTACGTACGTACGTACGTACGT --min-gap 1 --max-gap 2 "
      "--rho-percent 1 --start-length 1 --csv " + path,
      &output);
  EXPECT_EQ(code, 0) << output;
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char header[64] = {};
  ASSERT_NE(std::fgets(header, sizeof(header), f), nullptr);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(header), "pattern,length,support,ratio,saturated\n");
}

TEST(CliRunTest, AllAlgorithmsAgreeOnPatternCount) {
  auto count_patterns = [](const std::string& algorithm) {
    std::string output;
    const int code = RunFromString(
        "pgm mine --input raw:AACCGGTTAACCGGTTAACCGGTTAACCGGTT --min-gap 0 "
        "--max-gap 2 --rho-percent 2 --start-length 1 --algorithm " +
            algorithm,
        &output);
    EXPECT_EQ(code, 0) << output;
    const std::size_t pos = output.find(" frequent patterns");
    EXPECT_NE(pos, std::string::npos);
    std::size_t start = output.rfind('\n', pos);
    start = (start == std::string::npos) ? 0 : start + 1;
    return output.substr(start, pos - start);
  };
  const std::string mppm = count_patterns("mppm");
  EXPECT_EQ(count_patterns("mpp"), mppm);
  EXPECT_EQ(count_patterns("adaptive"), mppm);
}

TEST(CliRunTest, MineWithLiftRanking) {
  std::string output;
  const int code = RunFromString(
      "pgm mine --input preset:bacteria:4000:2 --min-gap 1 --max-gap 3 "
      "--rho-percent 0.5 --start-length 2 --top 5 --lift",
      &output);
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("compositional lift"), std::string::npos);
  EXPECT_NE(output.find("expected (composition)"), std::string::npos);
}

TEST(CliRunTest, EmCommand) {
  std::string output;
  const int code = RunFromString(
      "pgm em --input raw:ACGTCCGT --min-gap 1 --max-gap 2 --m 2", &output);
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("e_m = 2"), std::string::npos);  // the paper's value
}

TEST(CliRunTest, ScanCommand) {
  std::string output;
  const int code = RunFromString(
      "pgm scan --input preset:bacteria:4000:5 --pairs AA,AT "
      "--max-distance 12",
      &output);
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("corr_AA(p)"), std::string::npos);
  EXPECT_NE(output.find("corr_AT(p)"), std::string::npos);
  EXPECT_NE(output.find("peaks:"), std::string::npos);
}

TEST(CliRunTest, ScanRejectsBadPair) {
  std::string output;
  EXPECT_EQ(RunFromString(
                "pgm scan --input raw:ACGTACGT --pairs AAT --max-distance 3",
                &output),
            2);
}

TEST(CliRunTest, TandemCommand) {
  std::string output;
  const int code = RunFromString(
      "pgm tandem --input raw:GGATATATATATCC --max-period 3 --min-copies 3 "
      "--min-length 6",
      &output);
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("AT"), std::string::npos);
}

TEST(CliRunTest, GenerateRoundTripsThroughFastaInput) {
  const std::string path = testing::TempDir() + "/cli_gen.fa";
  std::string output;
  const int code = RunFromString(
      "pgm generate --preset bacteria --length 3000 --seed 11 --output " +
          path,
      &output);
  EXPECT_EQ(code, 0) << output;
  StatusOr<Sequence> loaded = LoadInput("fasta:" + path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 3000u);
  // Must equal the preset generated directly.
  Sequence direct = *LoadInput("preset:bacteria:3000:11");
  EXPECT_EQ(loaded->ToString(), direct.ToString());
}

TEST(CliRunTest, GenerateRequiresOutput) {
  std::string output;
  EXPECT_EQ(RunFromString("pgm generate --preset bacteria", &output), 2);
}

TEST(CliRunTest, CompareCommand) {
  // Mine two inputs to CSV, then compare them.
  const std::string path_a = testing::TempDir() + "/cmp_a.csv";
  const std::string path_b = testing::TempDir() + "/cmp_b.csv";
  std::string output;
  ASSERT_EQ(RunFromString("pgm mine --input preset:bacteria:3000:1 --min-gap 1 "
                          "--max-gap 3 --rho-percent 1 --start-length 2 "
                          "--top 1 --csv " + path_a,
                          &output),
            0)
      << output;
  output.clear();
  ASSERT_EQ(RunFromString("pgm mine --input preset:eukaryote:3000:1 --min-gap 1 "
                          "--max-gap 3 --rho-percent 1 --start-length 2 "
                          "--top 1 --csv " + path_b,
                          &output),
            0)
      << output;
  output.clear();
  const int code =
      RunFromString("pgm compare " + path_a + " " + path_b, &output);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("common to all"), std::string::npos);
  EXPECT_NE(output.find("Jaccard similarity"), std::string::npos);
}

TEST(CliRunTest, CompareRequiresTwoFiles) {
  std::string output;
  EXPECT_EQ(RunFromString("pgm compare /tmp/only_one.csv", &output), 2);
  EXPECT_NE(output.find("at least two"), std::string::npos);
}

TEST(CliRunTest, SubcommandHelpReturnsZero) {
  std::string output;
  EXPECT_EQ(RunFromString("pgm mine --help", &output), 0);
  EXPECT_NE(output.find("rho-percent"), std::string::npos);
}

TEST(CliExitCodeTest, StatusCodeMapping) {
  EXPECT_EQ(ExitCodeForStatus(Status::OK()), 0);
  EXPECT_EQ(ExitCodeForStatus(Status::InvalidArgument("x")), 2);
  EXPECT_EQ(ExitCodeForStatus(Status::IoError("x")), 3);
  EXPECT_EQ(ExitCodeForStatus(Status::Corruption("x")), 4);
  EXPECT_EQ(ExitCodeForStatus(Status::ResourceExhausted("x")), 5);
  EXPECT_EQ(ExitCodeForStatus(Status::NotFound("x")), 6);
  EXPECT_EQ(ExitCodeForStatus(Status::Internal("x")), 1);
}

TEST(CliExitCodeTest, MissingFastaFileExitsThree) {
  std::string output, error;
  const int code = RunFromString(
      "pgm mine --input fasta:/nonexistent-dir-xyz/missing.fa --min-gap 0 "
      "--max-gap 1 --rho-percent 1",
      &output, &error);
  EXPECT_EQ(code, 3) << error;
  EXPECT_TRUE(output.empty());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(CliExitCodeTest, CorruptCsvExitsFour) {
  const std::string path = testing::TempDir() + "/cli_corrupt.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("not,a,patterns,header\n", f);
  std::fclose(f);
  std::string output, error;
  const int code =
      RunFromString("pgm compare " + path + " " + path, &output, &error);
  std::remove(path.c_str());
  EXPECT_EQ(code, 4) << error;
  EXPECT_NE(error.find("header"), std::string::npos);
}

TEST(CliExitCodeTest, DiagnosticsGoToErrorStreamNotOutput) {
  std::string output, error;
  EXPECT_EQ(RunFromString("pgm mine --min-gap 1 --max-gap 2", &output, &error),
            2);
  EXPECT_TRUE(output.empty()) << output;
  EXPECT_NE(error.find("--input is required"), std::string::npos);
}

TEST(CliObservabilityTest, MetricsAndTraceFilesAreWritten) {
  const std::string metrics_path = testing::TempDir() + "/cli_metrics.json";
  const std::string trace_path = testing::TempDir() + "/cli_trace.json";
  std::string output;
  const int code = RunFromString(
      "pgm mine --input raw:ACGTACGTACGTACGTACGTACGT --min-gap 0 --max-gap 2 "
      "--rho-percent 1 --start-length 1 --metrics-out " + metrics_path +
          " --trace " + trace_path,
      &output);
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("wrote metrics JSON to"), std::string::npos);
  EXPECT_NE(output.find("wrote trace JSON to"), std::string::npos);

  auto read_file = [](const std::string& path) {
    std::string contents;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr) return contents;
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      contents.append(buffer, n);
    }
    std::fclose(f);
    return contents;
  };
  const std::string metrics = read_file(metrics_path);
  const std::string trace = read_file(trace_path);
  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
  EXPECT_NE(metrics.find("\"counters\""), std::string::npos);
  EXPECT_NE(metrics.find("\"mine.candidates.generated\""), std::string::npos);
  EXPECT_NE(metrics.find("\"mine.runs\": 1"), std::string::npos);
  EXPECT_NE(trace.find("\"events\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\": \"run_start\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\": \"run_end\""), std::string::npos);
  // Byte-stable export: no volatile fields without --trace-timings.
  EXPECT_EQ(trace.find("shard_timing"), std::string::npos);
  EXPECT_EQ(trace.find("memory_peak_bytes"), std::string::npos);
}

TEST(CliObservabilityTest, ExportsAreByteIdenticalAcrossThreadCounts) {
  auto run = [](int threads, const std::string& suffix) {
    const std::string metrics_path =
        testing::TempDir() + "/cli_m_" + suffix + ".json";
    const std::string trace_path =
        testing::TempDir() + "/cli_t_" + suffix + ".json";
    std::string output;
    EXPECT_EQ(RunFromString(
                  "pgm mine --input preset:bacteria:2000:7 --min-gap 1 "
                  "--max-gap 3 --rho-percent 1 --start-length 1 --threads " +
                      std::to_string(threads) + " --metrics-out " +
                      metrics_path + " --trace " + trace_path,
                  &output),
              0)
        << output;
    std::string contents;
    for (const std::string& path : {metrics_path, trace_path}) {
      std::FILE* f = std::fopen(path.c_str(), "rb");
      EXPECT_NE(f, nullptr) << path;
      if (f != nullptr) {
        char buffer[4096];
        std::size_t n = 0;
        while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
          contents.append(buffer, n);
        }
        std::fclose(f);
      }
      std::remove(path.c_str());
    }
    return contents;
  };
  const std::string serial = run(1, "1");
  EXPECT_EQ(run(2, "2"), serial);
  EXPECT_EQ(run(8, "8"), serial);
}

TEST(CliObservabilityTest, UnwritableMetricsPathExitsThreeWithReport) {
  std::string output, error;
  const int code = RunFromString(
      "pgm mine --input raw:ACGTACGTACGTACGTACGTACGT --min-gap 0 --max-gap 2 "
      "--rho-percent 1 --start-length 1 "
      "--metrics-out /nonexistent-dir-xyz/metrics.json",
      &output, &error);
  EXPECT_EQ(code, 3) << error;
  // The mining report was already produced before the write failed — the
  // failure is loud but does not eat the result.
  EXPECT_NE(output.find("frequent patterns"), std::string::npos);
  EXPECT_NE(error.find("cannot open for writing"), std::string::npos);
}

TEST(CliObservabilityTest, TraceTimingsFlagIncludesVolatileFields) {
  const std::string trace_path = testing::TempDir() + "/cli_trace_vol.json";
  std::string output;
  const int code = RunFromString(
      "pgm mine --input raw:ACGTACGTACGTACGTACGTACGT --min-gap 0 --max-gap 2 "
      "--rho-percent 1 --start-length 1 --trace " + trace_path +
          " --trace-timings",
      &output);
  EXPECT_EQ(code, 0) << output;
  std::string contents;
  std::FILE* f = std::fopen(trace_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(f);
  std::remove(trace_path.c_str());
  EXPECT_NE(contents.find("\"memory_peak_bytes\""), std::string::npos);
}

TEST(CliGovernanceTest, NegativeBudgetRejected) {
  std::string output, error;
  EXPECT_EQ(RunFromString(
                "pgm mine --input raw:ACGTACGT --min-gap 0 --max-gap 1 "
                "--rho-percent 1 --pil-budget-bytes -5",
                &output, &error),
            2);
  EXPECT_NE(error.find("must be non-negative"), std::string::npos);
}

TEST(CliGovernanceTest, ZeroDeadlineExitsZeroWithPartialBanner) {
  std::string output;
  const int code = RunFromString(
      "pgm mine --input raw:ACGTACGTACGTACGTACGTACGT --min-gap 0 --max-gap 2 "
      "--rho-percent 1 --start-length 1 --deadline-ms 0",
      &output);
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("partial result"), std::string::npos);
  EXPECT_NE(output.find("deadline"), std::string::npos);
}

TEST(CliGovernanceTest, OneBytePilBudgetExitsZeroWithPartialBanner) {
  std::string output;
  const int code = RunFromString(
      "pgm mine --input raw:ACGTACGTACGTACGTACGTACGT --min-gap 0 --max-gap 2 "
      "--rho-percent 1 --start-length 1 --pil-budget-bytes 1",
      &output);
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("partial result"), std::string::npos);
  EXPECT_NE(output.find("memory-budget"), std::string::npos);
}

TEST(CliGovernanceTest, GenerousLimitsMatchUnlimitedOutput) {
  const std::string base =
      "pgm mine --input preset:bacteria:3000:1 --min-gap 1 --max-gap 3 "
      "--rho-percent 0.5 --start-length 2 --top 5";
  std::string unlimited, governed;
  ASSERT_EQ(RunFromString(base, &unlimited), 0);
  ASSERT_EQ(RunFromString(base +
                              " --deadline-ms 600000 --pil-budget-bytes "
                              "4294967296 --max-level-candidates 1000000000 "
                              "--max-total-candidates 1000000000",
                          &governed),
            0);
  // The report includes timings, so compare everything except the summary
  // line's trailing seconds figure.
  const std::size_t cut_a = unlimited.find(" s\n");
  const std::size_t cut_b = governed.find(" s\n");
  ASSERT_NE(cut_a, std::string::npos);
  ASSERT_NE(cut_b, std::string::npos);
  const std::size_t start_a = unlimited.rfind(';', cut_a);
  const std::size_t start_b = governed.rfind(';', cut_b);
  EXPECT_EQ(unlimited.substr(0, start_a), governed.substr(0, start_b));
  EXPECT_EQ(unlimited.substr(cut_a), governed.substr(cut_b));
}

// ---------------------------------------------------------------------------
// pgm serve
// ---------------------------------------------------------------------------

std::string WriteJobsFile(const std::string& name,
                          const std::string& contents) {
  const std::string path = testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fputs(contents.c_str(), f);
  std::fclose(f);
  return path;
}

// The signal handlers latch the process-wide token; tests that poke it must
// restore it no matter how they exit, or every later test inherits the
// cancellation.
struct ScopedGlobalCancelReset {
  ~ScopedGlobalCancelReset() { GlobalCancelToken().Reset(); }
};

TEST(CliServeTest, BatchRunsAndReportsPerJobOutcomes) {
  const std::string jobs = WriteJobsFile(
      "serve_batch.jobs",
      "# duplicate inputs share one cache entry\n"
      "raw:ACGTACGTACGGTTACACGTACGT rho-percent=50 max-gap=1\n"
      "raw:ACGTACGTACGGTTACACGTACGT rho-percent=50 max-gap=1\n"
      "raw:TTTTGGGGTTTTGGGG rho-percent=50 max-gap=1\n");
  std::string output;
  const int code = RunFromString(
      "pgm serve --jobs " + jobs + " --cache-bytes 1048576", &output);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("served 3 jobs: 3 completed, 0 partial, 0 shed, "
                        "0 failed, 1 cache hits"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("job 1 "), std::string::npos);
  EXPECT_NE(output.find("cache_hit=1"), std::string::npos);
}

TEST(CliServeTest, OversubmissionShedsWithRetryHint) {
  const std::string jobs = WriteJobsFile(
      "serve_shed.jobs",
      "raw:ACGTACGTACGTACGT rho-percent=50\n"
      "raw:ACGTACGTACGTACGT rho-percent=50\n"
      "raw:ACGTACGTACGTACGT rho-percent=50\n");
  std::string output;
  const int code = RunFromString("pgm serve --jobs " + jobs +
                                     " --queue-capacity 1 --retry-after-ms 99",
                                 &output);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 0) << output;  // shedding is service behavior, not failure
  EXPECT_NE(output.find("Unavailable retry_after_ms=99"), std::string::npos)
      << output;
  EXPECT_NE(output.find("2 shed"), std::string::npos);
}

TEST(CliServeTest, DeadlineCeilingYieldsPartialResponses) {
  const std::string jobs = WriteJobsFile(
      "serve_deadline.jobs", "raw:ACGTACGTACGGTTACACGTACGT rho-percent=50\n");
  std::string output;
  const int code = RunFromString(
      "pgm serve --jobs " + jobs + " --max-deadline-ms 0", &output);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("deadline patterns=0"), std::string::npos) << output;
  EXPECT_NE(output.find("1 partial"), std::string::npos);
}

TEST(CliServeTest, RequiresJobsFlag) {
  std::string output, error;
  EXPECT_EQ(RunFromString("pgm serve", &output, &error), 2);
  EXPECT_NE(error.find("--jobs is required"), std::string::npos);
}

TEST(CliServeTest, MalformedJobLineIsRejectedWithLineNumber) {
  const std::string jobs =
      WriteJobsFile("serve_bad.jobs", "raw:ACGT rho-percent=50\nraw:ACGT oops\n");
  std::string output, error;
  const int code = RunFromString("pgm serve --jobs " + jobs, &output, &error);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 2) << error;
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_NE(error.find("expected key=value"), std::string::npos);
}

TEST(CliServeTest, UnknownJobKeyIsRejected) {
  const std::string jobs =
      WriteJobsFile("serve_badkey.jobs", "raw:ACGT frobnicate=1\n");
  std::string output, error;
  const int code = RunFromString("pgm serve --jobs " + jobs, &output, &error);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 2) << error;
  EXPECT_NE(error.find("unknown key 'frobnicate'"), std::string::npos);
}

TEST(CliServeTest, BadJobValueNamesTheLineAndKey) {
  const std::string jobs = WriteJobsFile(
      "serve_badvalue.jobs",
      "raw:ACGT rho-percent=50\nraw:ACGT rho-percent=50 min-gap=x\n");
  std::string output, error;
  const int code = RunFromString("pgm serve --jobs " + jobs, &output, &error);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 2) << error;
  EXPECT_NE(error.find("jobs line 2: bad value for min-gap: trailing garbage "
                       "in integer: 'x'"),
            std::string::npos)
      << error;
}

TEST(CliServeTest, TabsSeparateJobTokens) {
  const std::string jobs = WriteJobsFile(
      "serve_tabs.jobs",
      "raw:ACGTACGTACGGTTACACGTACGT\trho-percent=50 \t max-gap=1\n");
  std::string output;
  const int code = RunFromString("pgm serve --jobs " + jobs, &output);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("job 1 raw:ACGTACGTACGGTTACACGTACGT mpp: completed"),
            std::string::npos)
      << output;
}

TEST(CliServeTest, UnknownJobKeyListsTheValidKeys) {
  const std::string jobs =
      WriteJobsFile("serve_listkeys.jobs", "raw:ACGT frobnicate=1\n");
  std::string output, error;
  const int code = RunFromString("pgm serve --jobs " + jobs, &output, &error);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 2) << error;
  EXPECT_NE(error.find("jobs line 1: unknown key 'frobnicate' (valid keys: "
                       "algorithm, corpus, corpus-keep-tail,"),
            std::string::npos)
      << error;
  for (const MinerOption& option : MinerOptions()) {
    if (option.name.empty()) continue;
    EXPECT_NE(error.find(std::string(option.name)), std::string::npos)
        << option.name;
  }
}

TEST(CliServeTest, FailedJobResponseSaysWhy) {
  const std::string jobs = WriteJobsFile(
      "serve_why.jobs",
      "raw:ACGTACGTACGT max-gap=1\n"
      "fasta:/nonexistent-dir-xyz/missing.fa rho-percent=50\n");
  std::string output;
  const int code = RunFromString("pgm serve --jobs " + jobs, &output);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 0) << output;
  // No rho-percent: the library default ratio 0 is rejected by the miner.
  EXPECT_NE(output.find("job 1 raw:ACGTACGTACGT mpp: InvalidArgument: "
                        "min_support_ratio must lie in (0, 1]"),
            std::string::npos)
      << output;
  // The leading columns stay greppable; the reason comes last.
  EXPECT_NE(output.find("IoError load_attempts=2: cannot open"),
            std::string::npos)
      << output;
}

TEST(CliServeTest, HelpListsTheJobKeys) {
  std::string output;
  EXPECT_EQ(RunFromString("pgm serve --help", &output), 0);
  const std::size_t keys = output.find("Job keys: ");
  ASSERT_NE(keys, std::string::npos) << output;
  for (const MinerOption& option : MinerOptions()) {
    if (option.name.empty()) continue;
    EXPECT_NE(output.find(std::string(option.name), keys), std::string::npos)
        << option.name;
  }
}

TEST(CliServeTest, EmptyJobsFileIsError) {
  const std::string jobs = WriteJobsFile("serve_empty.jobs", "# nothing\n\n");
  std::string output, error;
  const int code = RunFromString("pgm serve --jobs " + jobs, &output, &error);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 2) << error;
  EXPECT_NE(error.find("no jobs in"), std::string::npos);
}

TEST(CliServeTest, FailedJobIsLoudButDoesNotSinkTheBatch) {
  const std::string jobs = WriteJobsFile(
      "serve_mixed.jobs",
      "raw:ACGTACGTACGTACGT rho-percent=50\n"
      "fasta:/nonexistent-dir-xyz/missing.fa rho-percent=50\n");
  std::string output;
  const int code = RunFromString(
      "pgm serve --jobs " + jobs + " --retry-attempts 1", &output);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 0) << output;
  EXPECT_NE(output.find("IoError"), std::string::npos) << output;
  EXPECT_NE(output.find("1 completed"), std::string::npos);
  EXPECT_NE(output.find("1 failed"), std::string::npos);
}

TEST(CliServeTest, MetricsAndTraceExportsCoverTheJobLifecycle) {
  const std::string jobs = WriteJobsFile(
      "serve_obs.jobs", "raw:ACGTACGTACGGTTACACGTACGT rho-percent=50\n");
  const std::string metrics_path = testing::TempDir() + "/serve_metrics.json";
  const std::string trace_path = testing::TempDir() + "/serve_trace.json";
  std::string output;
  const int code = RunFromString("pgm serve --jobs " + jobs +
                                     " --metrics-out " + metrics_path +
                                     " --trace " + trace_path,
                                 &output);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, 0) << output;
  auto read_file = [](const std::string& path) {
    std::string contents;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr) return contents;
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      contents.append(buffer, n);
    }
    std::fclose(f);
    return contents;
  };
  const std::string metrics = read_file(metrics_path);
  const std::string trace = read_file(trace_path);
  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
  EXPECT_NE(metrics.find("\"serve.jobs.admitted\": 1"), std::string::npos);
  EXPECT_NE(metrics.find("\"serve.jobs.completed\": 1"), std::string::npos);
  EXPECT_NE(metrics.find("\"serve.latency_us\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\": \"job_admitted\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\": \"job_start\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\": \"job_end\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// pgm corpus
// ---------------------------------------------------------------------------

// A finished pgm run, kept with its command line so a failed expectation
// can say what ran.
struct CliRun {
  std::string command;
  int exit_code = 0;
  std::string out;
  std::string err;
};

CliRun RunCli(const std::string& command) {
  CliRun run;
  run.command = command;
  run.exit_code = RunFromString(command, &run.out, &run.err);
  return run;
}

#define EXPECT_SUCCESS(run)                                               \
  EXPECT_EQ((run).exit_code, 0) << "Command: " << (run).command << "\n" \
                                << (run).err
#define EXPECT_USAGE_ERROR(run)                                           \
  EXPECT_EQ((run).exit_code, 2) << "Command: " << (run).command << "\n" \
                                << (run).out

TEST(CliCorpusTest, MinesAPresetFragmentByFragment) {
  const CliRun run = RunCli(
      "pgm corpus --input preset:bacteria:6000:1 --fragment-length 2000 "
      "--min-gap 1 --max-gap 3 --rho-percent 0.5 --start-length 2 --top 3");
  EXPECT_SUCCESS(run);
  EXPECT_NE(run.out.find("corpus: 1 record(s), 3 fragment(s), 6000 "
                         "symbol(s); fragment_length=2000 keep_tail=false; "
                         "rho_s=0.5%; algorithm=mppm"),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("fragments: 3 planned, 3 mined, 3 completed, 0 "
                         "skipped, 0 failed"),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("termination: completed"), std::string::npos);
  EXPECT_NE(run.out.find("distinct frequent pattern(s) across the corpus"),
            std::string::npos);
}

TEST(CliCorpusTest, BudgetsSplitBetweenCorpusAndFragments) {
  const std::string base =
      "pgm corpus --input preset:bacteria:6000:1 --fragment-length 2000 "
      "--min-gap 1 --max-gap 3 --rho-percent 0.5 --start-length 2 --top 3 ";
  // The PIL budget applies to each fragment: every fragment still runs.
  const CliRun pil = RunCli(base + "--pil-budget-bytes 1");
  EXPECT_SUCCESS(pil);
  EXPECT_NE(pil.out.find("3 planned, 3 mined, 0 completed, 0 skipped"),
            std::string::npos)
      << pil.out;
  // A fragment over the candidate cap stops the fragments not yet started.
  const CliRun capped = RunCli(base + "--max-level-candidates 5");
  EXPECT_SUCCESS(capped);
  EXPECT_NE(capped.out.find("3 planned, 1 mined, 1 completed, 2 skipped"),
            std::string::npos)
      << capped.out;
  EXPECT_NE(capped.out.find("termination: candidate-cap"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The option table on every surface
// ---------------------------------------------------------------------------

// Valid for every option on the small inputs below.
MinerConfig ValidTableConfig() {
  MinerConfig config;
  config.min_gap = 1;
  config.max_gap = 2;
  config.min_support_ratio = 0.5;
  config.start_length = 1;
  config.max_length = 4;
  config.user_n = 3;
  config.em_order = 2;
  config.threads = 2;
  config.kernel_tier = KernelTier::kScalar;
  config.limits.deadline_ms = 600'000;
  config.limits.pil_memory_budget_bytes = 1 << 30;
  config.limits.max_level_candidates = 1'000'000;
  config.limits.max_total_candidates = 1'000'000;
  return config;
}

TEST(CliOptionTableTest, EveryOptionIsAMineAndCorpusFlagAndAJobKey) {
  const std::string input = "raw:ACGTACGTACGGTTACACGTACGT";
  const std::string flags =
      " --min-gap 1 --max-gap 2 --rho-percent 50 --start-length 1 --";
  const std::string keys =
      " min-gap=1 max-gap=2 rho-percent=50 start-length=1 ";
  for (const MinerOption& option : MinerOptions()) {
    if (option.name.empty()) continue;
    const std::string name(option.name);
    std::string valid;
    option.render(ValidTableConfig(), OptionText::kUser, &valid);
    for (const std::string& value : {valid, std::string("x")}) {
      const CliRun mine =
          RunCli("pgm mine --input " + input + flags + name + " " + value);
      const CliRun corpus = RunCli("pgm corpus --input " + input +
                                   " --fragment-length 12" + flags + name +
                                   " " + value);
      const std::string jobs = WriteJobsFile(
          "option_table.jobs", input + keys + name + "=" + value + "\n");
      const CliRun serve = RunCli("pgm serve --jobs " + jobs);
      std::remove(jobs.c_str());
      if (value == valid) {
        EXPECT_SUCCESS(mine);
        EXPECT_SUCCESS(corpus);
        EXPECT_SUCCESS(serve);
        EXPECT_NE(serve.out.find("1 completed"), std::string::npos)
            << "Jobs line: " << input + keys + name + "=" + value << "\n"
            << serve.out;
      } else {
        EXPECT_USAGE_ERROR(mine);
        EXPECT_USAGE_ERROR(corpus);
        EXPECT_USAGE_ERROR(serve);
        EXPECT_NE(mine.err.find("bad value for --" + name), std::string::npos)
            << mine.err;
        EXPECT_NE(corpus.err.find("bad value for --" + name),
                  std::string::npos)
            << corpus.err;
        EXPECT_NE(serve.err.find("jobs line 1: bad value for " + name),
                  std::string::npos)
            << serve.err;
      }
    }
  }
}

// The code picks the join kernel and the FASTA ingestion route, so neither
// is a user option: --kernel, --no-mmap and the kernel= job key are unknown.
TEST(CliOptionTableTest, KernelIsNotAMineFlag) {
  const CliRun mine = RunCli(
      "pgm mine --input raw:ACGTACGTACGGTTACACGTACGT --min-gap 1 --max-gap 2 "
      "--rho-percent 50 --start-length 1 --kernel scalar");
  EXPECT_USAGE_ERROR(mine);
  EXPECT_NE(mine.err.find("unknown flag --kernel"), std::string::npos)
      << mine.err;
}

TEST(CliOptionTableTest, NoMmapIsNotACorpusFlag) {
  const std::string path = testing::TempDir() + "/cli_no_mmap.fa";
  ASSERT_TRUE(WriteFastaFile(path, {{"one", "", "ACGTACGTACGGTTACACGTACGT"}})
                  .ok());
  const CliRun corpus = RunCli(
      "pgm corpus --input fasta:" + path + " --fragment-length 12 "
      "--min-gap 1 --max-gap 2 --rho-percent 50 --start-length 1 --no-mmap");
  std::remove(path.c_str());
  EXPECT_USAGE_ERROR(corpus);
  EXPECT_NE(corpus.err.find("unknown flag --no-mmap"), std::string::npos)
      << corpus.err;
}

TEST(CliOptionTableTest, KernelIsNotAJobKey) {
  const std::string jobs = WriteJobsFile(
      "kernel_key.jobs",
      "raw:ACGTACGTACGGTTACACGTACGT rho-percent=50 kernel=scalar\n");
  const CliRun serve = RunCli("pgm serve --jobs " + jobs);
  std::remove(jobs.c_str());
  EXPECT_USAGE_ERROR(serve);
  EXPECT_NE(serve.err.find("jobs line 1: unknown key 'kernel'"),
            std::string::npos)
      << serve.err;
}

TEST(CliCorpusTest, RejectsUnknownAlgorithmBeforeLoading) {
  const CliRun corpus = RunCli(
      "pgm corpus --input fasta:/nonexistent-dir-xyz/missing.fa "
      "--fragment-length 12 --algorithm quantum");
  EXPECT_USAGE_ERROR(corpus);
  EXPECT_NE(corpus.err.find("unknown --algorithm 'quantum' (mpp | mppm | "
                            "enum | adaptive)"),
            std::string::npos)
      << corpus.err;
}

TEST(CliOptionTableTest, EmTakesTheGapAndOrderOptions) {
  EXPECT_SUCCESS(RunCli("pgm em --input raw:ACGTCCGT --min-gap 1 --max-gap 2 "
                        "--m 2"));
  for (const char* flag : {"min-gap", "max-gap", "m"}) {
    const CliRun bad =
        RunCli(std::string("pgm em --input raw:ACGTCCGT --") + flag + " x");
    EXPECT_USAGE_ERROR(bad);
    EXPECT_NE(bad.err.find(std::string("bad value for --") + flag),
              std::string::npos)
        << bad.err;
  }
  // The other mining options are not em flags.
  EXPECT_USAGE_ERROR(RunCli("pgm em --input raw:ACGTCCGT --threads 2"));
}

// ---------------------------------------------------------------------------
// Graceful interrupt (the CLI half of the SIGINT/SIGTERM story — the
// signal handler itself only latches GlobalCancelToken, which is what
// these tests do directly)
// ---------------------------------------------------------------------------

TEST(CliInterruptTest, MineDrainsToPartialResultAndExits130) {
  ScopedGlobalCancelReset reset;
  GlobalCancelToken().RequestCancel();  // as if SIGINT arrived mid-run
  std::string output;
  const int code = RunFromString(
      "pgm mine --input raw:ACGTACGTACGTACGTACGTACGT --min-gap 0 --max-gap 2 "
      "--rho-percent 1 --start-length 1",
      &output);
  EXPECT_EQ(code, kExitCancelled) << output;
  EXPECT_NE(output.find("interrupted: partial result is sound"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("cancelled"), std::string::npos);
}

TEST(CliInterruptTest, ServeDrainsGracefullyAndExits130) {
  ScopedGlobalCancelReset reset;
  const std::string jobs = WriteJobsFile(
      "serve_interrupt.jobs",
      "raw:ACGTACGTACGGTTACACGTACGT rho-percent=50\n"
      "raw:TTTTGGGGTTTTGGGG rho-percent=50\n");
  GlobalCancelToken().RequestCancel();
  std::string output;
  const int code = RunFromString("pgm serve --jobs " + jobs, &output);
  std::remove(jobs.c_str());
  EXPECT_EQ(code, kExitCancelled) << output;
  EXPECT_NE(output.find("interrupted: drained gracefully"), std::string::npos)
      << output;
  // Every admitted job still gets a response line — the drain never loses
  // one. Whether each shows "cancelled" or "completed" depends on how far
  // the worker got before the watcher latched the drain; both are sound, so
  // the deterministic service_test covers the cancelled path instead.
  EXPECT_NE(output.find("served 2 jobs"), std::string::npos);
  EXPECT_NE(output.find("0 shed, 0 failed"), std::string::npos) << output;
}

TEST(CliInterruptTest, TokenResetRestoresNormalRuns) {
  {
    ScopedGlobalCancelReset reset;
    GlobalCancelToken().RequestCancel();
  }
  std::string output;
  EXPECT_EQ(RunFromString(
                "pgm mine --input raw:ACGTACGTACGTACGTACGTACGT --min-gap 0 "
                "--max-gap 2 --rho-percent 1 --start-length 1",
                &output),
            0)
      << output;
  EXPECT_EQ(output.find("interrupted"), std::string::npos);
}

TEST(CliExitCodeTest, UnavailableMapsToSeven) {
  EXPECT_EQ(ExitCodeForStatus(Status::Unavailable("x")), 7);
}

}  // namespace
}  // namespace pgm::cli
