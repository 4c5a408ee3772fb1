#ifndef PGM_SERVE_JOB_H_
#define PGM_SERVE_JOB_H_

#include <cstdint>
#include <string>

#include "core/miner.h"
#include "util/status.h"

namespace pgm {

/// One mining request submitted to the service. The service treats the
/// `input` string as opaque and hands it to the ServiceConfig loader, so
/// jobs can name files, CLI input specs, or anything else the host wires up.
struct MiningJob {
  /// Assigned by MiningService::Submit; 0 until then.
  std::int64_t id = 0;
  /// Input spec resolved by the service's loader (e.g. "fasta:genome.fa").
  std::string input;
  /// Mining algorithm: a name Mine accepts (core/miner.h).
  std::string algorithm = "mpp";
  /// The client's mining configuration. The service overrides the volatile
  /// plumbing fields: `cancel` is replaced by the service-wide drain token,
  /// `observer` by the service observer, and `limits` is clamped against the
  /// server ceilings (never raised above what the client asked for).
  MinerConfig config;

  /// Corpus-mode switch: when > 0 the input is expanded into fragments of
  /// this length by the ServiceConfig corpus_loader and mined by the corpus
  /// executor — every record, per-fragment support aggregation (the paper's
  /// Section 7 methodology). 0 = ordinary single-sequence job.
  std::size_t corpus_fragment_length = 0;
  /// Corpus jobs only: also mine each record's final sub-window remainder
  /// (FragmenterOptions::keep_tail).
  bool corpus_keep_tail = false;
};

/// The service's answer for one submitted job. Every job — executed, shed,
/// or failed — produces exactly one response, so callers can account for all
/// submissions after Join().
struct JobResponse {
  std::int64_t id = 0;
  std::string input;
  std::string algorithm;

  /// OK when mining ran (possibly partial — check result.termination);
  /// kUnavailable when admission control shed the job; the loader's or
  /// validator's error otherwise.
  Status status;
  /// Valid only when status.ok(). Partial results keep their termination
  /// reason intact (partial-but-sound contract).
  MiningResult result;

  /// True when the result came from the ResultCache.
  bool cache_hit = false;
  /// Corpus jobs only: fragments the plan scheduled (0 for ordinary jobs).
  std::size_t corpus_fragments = 0;
  /// Input-load attempts consumed (> 1 means transient faults were retried).
  int load_attempts = 0;
  /// For shed jobs: the server's suggested client backoff.
  std::int64_t retry_after_ms = 0;
  /// Wall-clock execution time (0 for shed jobs). Volatile — excluded from
  /// deterministic comparisons.
  double latency_ms = 0.0;
};

}  // namespace pgm

#endif  // PGM_SERVE_JOB_H_
