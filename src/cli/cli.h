#ifndef PGM_CLI_CLI_H_
#define PGM_CLI_CLI_H_

#include <string>
#include <vector>

#include "core/guard.h"
#include "corpus/plan.h"
#include "seq/sequence.h"
#include "util/status.h"

namespace pgm::cli {

/// The `pgm` command-line tool, structured as a testable library: every
/// sub-command renders its report into a string, and the thin `tools/`
/// binary prints it. Sub-commands:
///
///   pgm mine     --input <spec> --min-gap N --max-gap M --rho-percent R ...
///   pgm corpus   --input <spec> --fragment-length L --threads T ...
///   pgm em       --input <spec> --min-gap N --max-gap M --m K
///   pgm scan     --input <spec> --pairs AA,AT --max-distance P
///   pgm tandem   --input <spec> --max-period P [--min-copies C]
///   pgm compare  <patterns.csv> <patterns.csv> [...]
///   pgm generate --preset <name> --length L --seed S --output file.fa
///   pgm serve    --jobs <file> --queue-capacity Q --workers W ...
///
/// Input specs (the --input flag):
///   fasta:<path>[#<record-id>]   a FASTA file (first record by default)
///   text:<path>                  raw characters from a file
///   raw:<characters>             characters given inline
///   preset:<name>[:<len>[:<seed>]]  a synthetic genome; names: ax829174,
///                                bacteria, eukaryote, worm
/// An optional `@protein` suffix switches the alphabet from DNA to the 20
/// amino acids (e.g. "raw:LWLWLW@protein").

/// Parses an input spec and loads the sequence.
StatusOr<Sequence> LoadInput(const std::string& spec);

/// Parses an input spec into a corpus plan (every record, fragmented).
/// `fasta:<path>` expands every record of the file through the streaming
/// MmapFile + FastaScanner path, so a genome-scale corpus never
/// materializes as one string; a `#<record-id>` suffix restricts the
/// corpus to that record. Non-FASTA specs (raw:, text:, preset:) become a
/// single pseudo-record named by the spec itself.
StatusOr<CorpusPlan> LoadCorpusInput(const std::string& spec,
                                     const CorpusPlanOptions& options);

/// Maps a failure Status to the tool's process exit code, so scripts can
/// branch on the failure class: InvalidArgument/usage errors=2, IoError=3,
/// Corruption=4, ResourceExhausted=5, NotFound=6, Unavailable (serve
/// admission shed)=7, any other failure=1, OK=0. Note budget exhaustion
/// during mining does NOT produce a failure — the run exits 0 with a
/// partial result (see MiningResult::termination).
int ExitCodeForStatus(const Status& status);

/// Exit code when a run was interrupted by SIGINT/SIGTERM and returned a
/// partial-but-sound result: the conventional 128 + SIGINT. Distinct from
/// every ExitCodeForStatus value so scripts can tell "interrupted, partial
/// output is trustworthy" from "failed".
inline constexpr int kExitCancelled = 130;

/// The process-wide cancellation token `pgm mine` and `pgm serve` run
/// under. Signal handlers (tools/pgm_main.cc) latch it with RequestCancel —
/// an atomic store, so it is async-signal-safe — and the running command
/// winds down to a partial result and exits kExitCancelled. Tests that
/// latch it must Reset() it afterwards; the token is process-global.
CancelToken& GlobalCancelToken();

/// Executes a full command line (argv[0] is the program name). The
/// rendered report is appended to *output; failure diagnostics are
/// appended to *error (the binary routes them to stderr). Returns the
/// process exit code (see ExitCodeForStatus).
int Run(int argc, char** argv, std::string* output, std::string* error);

/// Backwards-compatible overload: diagnostics are appended to *output.
int Run(int argc, char** argv, std::string* output);

/// Convenience for tests: tokenizes `command_line` on whitespace (no
/// quoting) and calls Run.
int RunFromString(const std::string& command_line, std::string* output,
                  std::string* error = nullptr);

/// Top-level usage text.
std::string RootUsage();

}  // namespace pgm::cli

#endif  // PGM_CLI_CLI_H_
