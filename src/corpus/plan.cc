#include "corpus/plan.h"

#include <utility>

#include "util/backoff.h"
#include "util/io.h"
#include "util/string_util.h"

namespace pgm {

namespace {

bool CapReached(const CorpusPlan& plan, const CorpusPlanOptions& options) {
  return options.max_fragments > 0 &&
         plan.fragments().size() >= options.max_fragments;
}

}  // namespace

Status CorpusPlan::AddRecord(const std::string& record_id,
                             const Sequence& sequence,
                             const CorpusPlanOptions& options) {
  const std::size_t record_index = num_records_++;
  PGM_ASSIGN_OR_RETURN(std::vector<Sequence> windows,
                       Fragment(sequence, options.fragment));
  if (windows.empty()) {
    skipped_records_.push_back(
        SkippedRecord{record_index, record_id, sequence.size()});
    return Status::OK();
  }
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (options.max_fragments > 0 &&
        fragments_.size() >= options.max_fragments) {
      break;
    }
    total_symbols_ += windows[i].size();
    // Fragment() cuts consecutive windows from offset 0, so window i always
    // starts at i * fragment_length (the tail included).
    fragments_.push_back(CorpusFragment{
        /*ordinal=*/fragments_.size(), record_index, record_id,
        /*fragment_index=*/i, /*start=*/i * options.fragment.fragment_length,
        std::move(windows[i])});
  }
  return Status::OK();
}

StatusOr<CorpusPlan> CorpusPlan::FromSequence(const Sequence& sequence,
                                              const std::string& name,
                                              const CorpusPlanOptions& options) {
  CorpusPlan plan;
  PGM_RETURN_IF_ERROR(plan.AddRecord(name, sequence, options));
  return plan;
}

StatusOr<CorpusPlan> CorpusPlan::FromRecords(
    const std::vector<FastaRecord>& records, const Alphabet& alphabet,
    const CorpusPlanOptions& options) {
  CorpusPlan plan;
  for (const FastaRecord& record : records) {
    if (CapReached(plan, options)) break;
    std::size_t dropped = 0;
    const Sequence sequence = RecordToSequence(record, alphabet, &dropped);
    plan.num_dropped_residues_ += dropped;
    PGM_RETURN_IF_ERROR(plan.AddRecord(record.id, sequence, options));
  }
  return plan;
}

StatusOr<CorpusPlan> CorpusPlan::FromFastaFile(const std::string& path,
                                               const Alphabet& alphabet,
                                               const CorpusPlanOptions& options) {
  // Transient open/read faults retry with the same policy as the string
  // readers (DefaultReadRetryPolicy), so every ingestion path recovers
  // identically; truncated content still parses to loud Corruption below.
  StatusOr<MmapFile> file = RetryTransient(
      DefaultReadRetryPolicy(), [&] { return MmapFile::Open(path); });
  if (!file.ok()) return file.status();

  CorpusPlan plan;
  FastaScanner scanner(file->view());
  FastaRecord record;
  while (!CapReached(plan, options)) {
    PGM_ASSIGN_OR_RETURN(bool more, scanner.Next(&record));
    if (!more) break;
    std::size_t dropped = 0;
    const Sequence sequence = RecordToSequence(record, alphabet, &dropped);
    plan.num_dropped_residues_ += dropped;
    PGM_RETURN_IF_ERROR(plan.AddRecord(record.id, sequence, options));
  }
  return plan;
}

std::string CorpusPlan::Describe() const {
  std::string out = StrFormat("%zu record(s), %zu fragment(s), %zu symbol(s)",
                              num_records_, fragments_.size(), total_symbols_);
  if (!skipped_records_.empty()) {
    out += StrFormat(", %zu record(s) skipped", skipped_records_.size());
  }
  return out;
}

std::string CorpusPlan::EmptyPlanDiagnostic(
    const CorpusPlanOptions& options) const {
  std::string out = StrFormat(
      "corpus plan is empty: none of the %zu record(s) produced a fragment\n"
      "  fragment_length=%zu keep_tail=%s\n",
      num_records_, options.fragment.fragment_length,
      options.fragment.keep_tail ? "true" : "false");
  constexpr std::size_t kMaxListed = 8;
  for (std::size_t i = 0; i < skipped_records_.size() && i < kMaxListed; ++i) {
    const SkippedRecord& skipped = skipped_records_[i];
    out += StrFormat("  record '%s' has %zu symbol(s)%s\n",
                     skipped.record_id.c_str(), skipped.length,
                     skipped.length < options.fragment.fragment_length &&
                             !options.fragment.keep_tail
                         ? " (< fragment_length; tail dropped)"
                         : "");
  }
  if (skipped_records_.size() > kMaxListed) {
    out += StrFormat("  ... and %zu more record(s)\n",
                     skipped_records_.size() - kMaxListed);
  }
  out +=
      "hint: lower the fragment length or enable keep_tail to mine "
      "sub-window records";
  return out;
}

}  // namespace pgm
