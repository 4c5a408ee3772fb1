#include "analysis/report.h"

#include <algorithm>

#include "analysis/maximal.h"
#include "util/csv_reader.h"
#include "util/csv_writer.h"
#include "util/io.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace pgm {

std::string FormatMiningReport(const MiningResult& result,
                               const GapRequirement& gap,
                               const ReportOptions& options) {
  std::string out;
  out += StrFormat(
      "gap %s; %zu frequent patterns; longest %lld; complete up to %lld; "
      "%.4g s\n",
      gap.ToString().c_str(), result.patterns.size(),
      static_cast<long long>(result.longest_frequent_length),
      static_cast<long long>(result.guaranteed_complete_up_to),
      result.total_seconds);
  if (!result.complete()) {
    out += StrFormat(
        "partial result: stopped early (%s); patterns longer than %lld may "
        "be missing\n",
        TerminationReasonToString(result.termination),
        static_cast<long long>(result.guaranteed_complete_up_to));
  }
  if (result.estimated_n >= 0) {
    out += StrFormat("MPPm: e_m = %llu, estimated n = %lld\n",
                     static_cast<unsigned long long>(result.em),
                     static_cast<long long>(result.estimated_n));
  }
  if (result.adaptive_iterations > 0) {
    out += StrFormat("adaptive iterations: %lld\n",
                     static_cast<long long>(result.adaptive_iterations));
  }

  std::vector<FrequentPattern> maximal;
  if (options.maximal_only) {
    maximal = FilterMaximalPatterns(result.patterns);
    out += StrFormat("condensed to %zu maximal patterns\n", maximal.size());
  }
  const std::vector<FrequentPattern>& source =
      options.maximal_only ? maximal : result.patterns;
  // Rank pointers; the patterns themselves are not copied.
  std::vector<const FrequentPattern*> patterns;
  patterns.reserve(source.size());
  for (const FrequentPattern& fp : source) patterns.push_back(&fp);
  std::sort(patterns.begin(), patterns.end(),
            [](const FrequentPattern* a, const FrequentPattern* b) {
              if (a->pattern.length() != b->pattern.length()) {
                return a->pattern.length() > b->pattern.length();
              }
              return a->support_ratio > b->support_ratio;
            });
  const std::size_t shown = options.top == 0
                                ? patterns.size()
                                : std::min(options.top, patterns.size());
  TablePrinter table({"pattern", "explicit form", "support", "ratio (%)"});
  for (std::size_t i = 0; i < shown; ++i) {
    const FrequentPattern& fp = *patterns[i];
    table.Row()
        .Add(fp.pattern.ToShorthand())
        .Add(fp.pattern.ToString(gap))
        .Add(FormatCount(fp.support) + (fp.saturated ? " (sat)" : ""))
        .Add(fp.support_ratio * 100.0)
        .Done();
  }
  out += table.ToString();
  if (shown < patterns.size()) {
    out += StrFormat("... and %zu more\n", patterns.size() - shown);
  }

  if (options.include_level_stats && !result.level_stats.empty()) {
    TablePrinter levels({"length", "candidates", "frequent", "retained"});
    for (const LevelStats& stats : result.level_stats) {
      levels.Row()
          .Add(stats.length)
          .Add(stats.num_candidates)
          .Add(stats.num_frequent)
          .Add(stats.num_retained)
          .Done();
    }
    out += "\nper-level candidates:\n";
    out += levels.ToString();
  }
  return out;
}

namespace {
const std::vector<std::string>& PatternsCsvHeader() {
  static const std::vector<std::string>& header = *new std::vector<std::string>{
      "pattern", "length", "support", "ratio", "saturated"};
  return header;
}
}  // namespace

std::string PatternsToCsv(const MiningResult& result) {
  CsvWriter csv(PatternsCsvHeader());
  for (const FrequentPattern& fp : result.patterns) {
    // Writer arity matches the header by construction; ignore the status.
    (void)csv.Row()
        .Add(fp.pattern.ToShorthand())
        .Add(static_cast<std::uint64_t>(fp.pattern.length()))
        .Add(fp.support)
        .Add(fp.support_ratio)
        .Add(fp.saturated ? "1" : "0")
        .Done();
  }
  return csv.ToString();
}

Status SavePatternsCsv(const MiningResult& result, const std::string& path) {
  return WriteStringToFile(path, PatternsToCsv(result));
}

StatusOr<std::vector<FrequentPattern>> ParsePatternsCsv(
    const std::string& text, const Alphabet& alphabet) {
  PGM_ASSIGN_OR_RETURN(auto rows, ParseCsv(text));
  if (rows.empty()) {
    return Status::Corruption("patterns CSV is empty");
  }
  if (rows.front() != PatternsCsvHeader()) {
    return Status::Corruption("unexpected patterns CSV header: " +
                              Join(rows.front(), ","));
  }
  std::vector<FrequentPattern> patterns;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() != PatternsCsvHeader().size()) {
      return Status::Corruption(
          StrFormat("row %zu has %zu fields, expected %zu", r, row.size(),
                    PatternsCsvHeader().size()));
    }
    FrequentPattern fp;
    PGM_ASSIGN_OR_RETURN(fp.pattern, Pattern::Parse(row[0], alphabet));
    PGM_ASSIGN_OR_RETURN(std::int64_t length, ParseInt64(row[1]));
    if (static_cast<std::size_t>(length) != fp.pattern.length()) {
      return Status::Corruption(
          StrFormat("row %zu: length field %lld does not match pattern '%s'",
                    r, static_cast<long long>(length), row[0].c_str()));
    }
    PGM_ASSIGN_OR_RETURN(std::int64_t support, ParseInt64(row[2]));
    if (support < 0) {
      return Status::Corruption(StrFormat("row %zu: negative support", r));
    }
    fp.support = static_cast<std::uint64_t>(support);
    PGM_ASSIGN_OR_RETURN(fp.support_ratio, ParseDouble(row[3]));
    if (row[4] == "1") {
      fp.saturated = true;
    } else if (row[4] == "0") {
      fp.saturated = false;
    } else {
      return Status::Corruption(
          StrFormat("row %zu: saturated flag must be 0 or 1", r));
    }
    patterns.push_back(std::move(fp));
  }
  return patterns;
}

StatusOr<std::vector<FrequentPattern>> LoadPatternsCsv(
    const std::string& path, const Alphabet& alphabet) {
  PGM_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  return ParsePatternsCsv(contents, alphabet);
}

}  // namespace pgm
