#ifndef PGM_CORPUS_PLAN_H_
#define PGM_CORPUS_PLAN_H_

#include <cstddef>
#include <string>
#include <vector>

#include "seq/alphabet.h"
#include "seq/fasta.h"
#include "seq/fragmenter.h"
#include "seq/sequence.h"
#include "util/status.h"

namespace pgm {

/// How a CorpusPlan expands records into fragments.
struct CorpusPlanOptions {
  /// Window cut applied to every record (seq/fragmenter.h). The paper's §7
  /// methodology is the default: 100 kb windows, tail dropped.
  FragmenterOptions fragment;
  /// Cap on the total number of fragments across all records (0 = all).
  /// Applied in plan order, so the cap is deterministic.
  std::size_t max_fragments = 0;
};

/// One unit of corpus work: a fixed window of one record, ready to mine.
struct CorpusFragment {
  /// Position in the plan's stable merge order — the aggregator folds
  /// per-fragment results in increasing ordinal regardless of which worker
  /// finishes first.
  std::size_t ordinal = 0;
  /// Index of the source record within the corpus input.
  std::size_t record_index = 0;
  /// FASTA record id (or a synthesized name for non-FASTA inputs).
  std::string record_id;
  /// Index of this window within its record.
  std::size_t fragment_index = 0;
  /// Window start offset within the *encoded* record sequence.
  std::size_t start = 0;
  /// The window itself. Self-contained (Sequence owns its symbols), so the
  /// plan never aliases the input file or a whole-record buffer.
  Sequence sequence;
};

/// A record that contributed zero fragments — shorter than fragment_length
/// with keep_tail=false, or empty after encoding. Kept so corpus callers
/// can diagnose loudly instead of silently mining nothing (see
/// FragmenterOptions::keep_tail).
struct SkippedRecord {
  std::size_t record_index = 0;
  std::string record_id;
  /// Encoded length of the record (symbols, after dropping non-alphabet
  /// characters).
  std::size_t length = 0;
};

/// The expanded work list of a corpus run: every fragment of every record,
/// in (record, window) order. Immutable once built; the executor reads it
/// from many threads.
class CorpusPlan {
 public:
  /// Plans a single already-encoded sequence under `name`.
  static StatusOr<CorpusPlan> FromSequence(const Sequence& sequence,
                                           const std::string& name,
                                           const CorpusPlanOptions& options);

  /// Plans every record, encoding residues over `alphabet` (characters
  /// outside the alphabet are dropped, FASTA ambiguity-code style; the
  /// total is reported by num_dropped_residues()).
  static StatusOr<CorpusPlan> FromRecords(const std::vector<FastaRecord>& records,
                                          const Alphabet& alphabet,
                                          const CorpusPlanOptions& options);

  /// Plans a multi-record FASTA file, scanned through MmapFile +
  /// FastaScanner one record at a time, so a genome-scale corpus never
  /// materializes as one string.
  static StatusOr<CorpusPlan> FromFastaFile(const std::string& path,
                                            const Alphabet& alphabet,
                                            const CorpusPlanOptions& options);

  /// Fragments in merge order (ordinal == index).
  const std::vector<CorpusFragment>& fragments() const { return fragments_; }
  /// Records that produced zero fragments.
  const std::vector<SkippedRecord>& skipped_records() const {
    return skipped_records_;
  }
  /// Total records planned (contributing + skipped).
  std::size_t num_records() const { return num_records_; }
  /// Residue characters dropped during encoding (non-alphabet codes).
  std::size_t num_dropped_residues() const { return num_dropped_residues_; }
  /// Sum of fragment lengths (symbols actually scheduled for mining).
  std::size_t total_symbols() const { return total_symbols_; }

  /// One-line shape summary for reports ("3 records, 12 fragments of
  /// 100000, 1 record skipped").
  std::string Describe() const;

  /// The loud-diagnostic contract for an empty plan: a multi-line
  /// explanation of why zero fragments were planned (per-record lengths vs
  /// fragment_length, keep_tail state) and what to change. `pgm corpus`
  /// prints this and refuses to run rather than report zero patterns.
  std::string EmptyPlanDiagnostic(const CorpusPlanOptions& options) const;

 private:
  Status AddRecord(const std::string& record_id, const Sequence& sequence,
                   const CorpusPlanOptions& options);

  std::vector<CorpusFragment> fragments_;
  std::vector<SkippedRecord> skipped_records_;
  std::size_t num_records_ = 0;
  std::size_t num_dropped_residues_ = 0;
  std::size_t total_symbols_ = 0;
};

}  // namespace pgm

#endif  // PGM_CORPUS_PLAN_H_
