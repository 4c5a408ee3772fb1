// Seeded fuzz corpus for the file-format readers (FASTA, CSV): 1000
// deterministically generated malformed documents — random structural
// mutations, byte corruption, and truncations of valid files — plus a disk
// sweep through the fault-injection hook. The contract under test is the
// loud-failure guarantee: a reader handed garbage either parses it (and the
// parsed value is safely consumable) or returns Corruption/IoError; it
// never crashes, hangs, or reads out of bounds. The suite carries the
// "robustness" label so it runs under ASan in the sanitizer tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "corpus/plan.h"
#include "seq/fasta.h"
#include "seq/sequence.h"
#include "util/csv_reader.h"
#include "util/fault_injection.h"
#include "util/io.h"
#include "util/random.h"
#include "util/status.h"

namespace pgm {
namespace {

constexpr int kCorpusSize = 1000;
constexpr std::uint64_t kCorpusSeed = 0xf022a6e5b176c3d9ull;

// A loud failure: the only acceptable error codes for malformed input.
bool IsLoudReaderError(const Status& status) {
  return status.code() == StatusCode::kCorruption ||
         status.code() == StatusCode::kIoError;
}

std::string RandomValidFasta(Rng& rng) {
  const char* residues = "ACGTNacgtn";
  std::string doc;
  const int records = 1 + static_cast<int>(rng.UniformInt(4));
  for (int r = 0; r < records; ++r) {
    doc += '>';
    doc += "rec";
    doc += static_cast<char>('a' + r);
    if (rng.Bernoulli(0.5)) doc += " some description";
    doc += '\n';
    const int lines = 1 + static_cast<int>(rng.UniformInt(3));
    for (int l = 0; l < lines; ++l) {
      const int len = 1 + static_cast<int>(rng.UniformInt(40));
      for (int i = 0; i < len; ++i) doc += residues[rng.UniformInt(10)];
      doc += '\n';
    }
  }
  return doc;
}

// A multi-record FASTA corpus with the hazards corpus ingestion must
// survive: ragged record lengths (including records shorter than any
// fragment window), duplicate ids, records with zero residue lines (which
// must parse to loud Corruption, never an empty Sequence), blank lines, and
// Windows line endings.
std::string RandomCorpusFasta(Rng& rng) {
  const char* residues = "ACGTNacgtn";
  std::string doc;
  const int records = 1 + static_cast<int>(rng.UniformInt(6));
  for (int r = 0; r < records; ++r) {
    doc += '>';
    if (rng.Bernoulli(0.3)) {
      doc += "dup";  // duplicate ids across records
    } else {
      doc += "rec";
      doc += static_cast<char>('a' + r);
    }
    if (rng.Bernoulli(0.4)) doc += " ragged corpus record";
    doc += rng.Bernoulli(0.2) ? "\r\n" : "\n";
    const int lines = static_cast<int>(rng.UniformInt(4));  // 0 = empty record
    for (int l = 0; l < lines; ++l) {
      const int len = static_cast<int>(rng.UniformInt(81));  // ragged, may be 0
      for (int i = 0; i < len; ++i) doc += residues[rng.UniformInt(10)];
      doc += rng.Bernoulli(0.2) ? "\r\n" : "\n";
      if (rng.Bernoulli(0.15)) doc += '\n';  // stray blank line
    }
  }
  return doc;
}

std::string RandomValidCsv(Rng& rng) {
  std::string doc = "pattern,support,ratio\n";
  const int rows = 1 + static_cast<int>(rng.UniformInt(6));
  for (int r = 0; r < rows; ++r) {
    if (rng.Bernoulli(0.4)) {
      doc += "\"a,\"\"b\"\"\"";  // quoted field with escapes
    } else {
      doc += "abc";
    }
    doc += ",";
    doc += static_cast<char>('0' + rng.UniformInt(10));
    doc += ",0.5\n";
  }
  return doc;
}

// Characters with structural meaning to one parser or the other, plus a few
// bytes that tend to expose unguarded arithmetic (NUL, DEL, high bit set).
constexpr char kHostileBytes[] = {'>',  '"', ',', '\n', '\r', ';',
                                  '\0', '\x7f', '\xff', '\xc3', ' ', '='};

std::string Mutate(Rng& rng, std::string doc) {
  const int mutations = 1 + static_cast<int>(rng.UniformInt(8));
  for (int m = 0; m < mutations; ++m) {
    if (doc.empty()) break;
    switch (rng.UniformInt(5)) {
      case 0: {  // overwrite a byte with a hostile one
        doc[rng.UniformInt(doc.size())] =
            kHostileBytes[rng.UniformInt(sizeof(kHostileBytes))];
        break;
      }
      case 1: {  // insert a hostile byte
        doc.insert(doc.begin() + static_cast<std::ptrdiff_t>(
                                     rng.UniformInt(doc.size() + 1)),
                   kHostileBytes[rng.UniformInt(sizeof(kHostileBytes))]);
        break;
      }
      case 2: {  // truncate (mid-record, mid-quote, mid-line — anywhere)
        doc.resize(rng.UniformInt(doc.size() + 1));
        break;
      }
      case 3: {  // delete a slice
        const std::size_t begin = rng.UniformInt(doc.size());
        const std::size_t len = 1 + rng.UniformInt(doc.size() - begin);
        doc.erase(begin, len);
        break;
      }
      default: {  // duplicate a slice somewhere else
        const std::size_t begin = rng.UniformInt(doc.size());
        const std::size_t len =
            1 + rng.UniformInt(std::min<std::size_t>(doc.size() - begin, 16));
        const std::string slice = doc.substr(begin, len);
        doc.insert(rng.UniformInt(doc.size() + 1), slice);
        break;
      }
    }
  }
  return doc;
}

// Consumes a successful parse so ASan sees every byte the reader handed
// back (a parser that returns OK with a dangling or overlong view fails
// here, not in the caller).
void ConsumeFasta(const std::vector<FastaRecord>& records) {
  const Alphabet dna = Alphabet::Dna();
  std::size_t total = 0;
  for (const FastaRecord& record : records) {
    EXPECT_FALSE(record.id.empty() && record.residues.empty());
    std::size_t dropped = 0;
    const Sequence sequence = RecordToSequence(record, dna, &dropped);
    total += sequence.size() + dropped + record.description.size();
  }
  EXPECT_GE(total, 0u);
}

void ConsumeCsv(const std::vector<std::vector<std::string>>& rows) {
  std::size_t total = 0;
  for (const auto& row : rows) {
    EXPECT_FALSE(row.empty());
    for (const std::string& field : row) total += field.size();
  }
  EXPECT_GE(total, 0u);
}

TEST(ReaderFuzzTest, MalformedFastaNeverCrashesAndFailsLoudly) {
  for (int i = 0; i < kCorpusSize / 2; ++i) {
    Rng rng(kCorpusSeed + static_cast<std::uint64_t>(i));
    const std::string doc = Mutate(rng, RandomValidFasta(rng));
    StatusOr<std::vector<FastaRecord>> records = ParseFasta(doc);
    if (records.ok()) {
      ConsumeFasta(*records);
    } else {
      EXPECT_TRUE(IsLoudReaderError(records.status()))
          << "case " << i << ": " << records.status().ToString();
    }
  }
}

TEST(ReaderFuzzTest, MalformedCsvNeverCrashesAndFailsLoudly) {
  for (int i = 0; i < kCorpusSize / 2; ++i) {
    Rng rng(kCorpusSeed ^ (0x1000000 + static_cast<std::uint64_t>(i)));
    const std::string doc = Mutate(rng, RandomValidCsv(rng));
    StatusOr<std::vector<std::vector<std::string>>> rows = ParseCsv(doc);
    if (rows.ok()) {
      ConsumeCsv(*rows);
    } else {
      EXPECT_TRUE(IsLoudReaderError(rows.status()))
          << "case " << i << ": " << rows.status().ToString();
    }
  }
}

// The same contract through the disk path: injected open errors, mid-stream
// read errors, and silent short reads at every interesting byte offset must
// surface as IoError/Corruption (or a successful parse of the surviving
// prefix), never as a crash.
TEST(ReaderFuzzTest, FaultedFileReadsFailLoudly) {
  const std::string fasta_path = testing::TempDir() + "/reader_fuzz.fa";
  const std::string csv_path = testing::TempDir() + "/reader_fuzz.csv";
  Rng rng(kCorpusSeed ^ 0xd15cull);
  const std::string fasta_doc = RandomValidFasta(rng);
  const std::string csv_doc = RandomValidCsv(rng);
  ASSERT_TRUE(WriteStringToFile(fasta_path, fasta_doc).ok());
  ASSERT_TRUE(WriteStringToFile(csv_path, csv_doc).ok());

  for (int i = 0; i < 60; ++i) {
    FileFault fault;
    switch (i % 3) {
      case 0:
        fault.kind = FileFault::Kind::kOpenError;
        break;
      case 1:
        fault.kind = FileFault::Kind::kReadError;
        fault.byte_limit = rng.UniformInt(fasta_doc.size() + 1);
        break;
      default:
        fault.kind = FileFault::Kind::kTruncate;
        fault.byte_limit = rng.UniformInt(fasta_doc.size() + 1);
        break;
    }
    ScopedFileFault scope(fault);
    StatusOr<std::vector<FastaRecord>> records = ReadFastaFile(fasta_path);
    if (records.ok()) {
      ConsumeFasta(*records);
    } else {
      EXPECT_TRUE(IsLoudReaderError(records.status()))
          << "case " << i << ": " << records.status().ToString();
    }
    StatusOr<std::vector<std::vector<std::string>>> rows =
        ReadCsvFile(csv_path);
    if (rows.ok()) {
      ConsumeCsv(*rows);
    } else {
      EXPECT_TRUE(IsLoudReaderError(rows.status()))
          << "case " << i << ": " << rows.status().ToString();
    }
    EXPECT_GE(scope.hits(), 2) << "fault never fired in case " << i;
  }
  std::remove(fasta_path.c_str());
  std::remove(csv_path.c_str());
}

// --- Corpus-scale multi-record FASTA ingestion -------------------------

// The streaming scanner (the corpus executor's mmap ingestion path) must
// agree with ParseFasta on every document, malformed or not: same
// ok-or-loud outcome, and identical records on success. A divergence here
// would mean `pgm corpus` (mmap) and `pgm mine --input fasta:` (buffered
// reader) mine different data from the same file.
TEST(ReaderFuzzTest, MutatedCorpusFastaScannerAgreesWithParseFasta) {
  for (int i = 0; i < kCorpusSize / 2; ++i) {
    Rng rng(kCorpusSeed ^ (0x2000000 + static_cast<std::uint64_t>(i)));
    std::string doc = RandomCorpusFasta(rng);
    if (i % 2 == 1) doc = Mutate(rng, doc);  // valid-ish half, hostile half

    StatusOr<std::vector<FastaRecord>> parsed = ParseFasta(doc);

    std::vector<FastaRecord> scanned;
    FastaScanner scanner(doc);
    FastaRecord record;
    Status scan_status = Status::OK();
    while (true) {
      StatusOr<bool> more = scanner.Next(&record);
      if (!more.ok()) {
        scan_status = more.status();
        break;
      }
      if (!*more) break;
      scanned.push_back(record);
    }

    ASSERT_EQ(parsed.ok(), scan_status.ok())
        << "case " << i << ": ParseFasta "
        << (parsed.ok() ? "OK" : parsed.status().ToString())
        << " vs FastaScanner " << scan_status.ToString();
    if (parsed.ok()) {
      ConsumeFasta(scanned);
      ASSERT_EQ(scanned.size(), parsed->size()) << "case " << i;
      for (std::size_t r = 0; r < scanned.size(); ++r) {
        EXPECT_EQ(scanned[r].id, (*parsed)[r].id) << "case " << i;
        EXPECT_EQ(scanned[r].description, (*parsed)[r].description)
            << "case " << i;
        EXPECT_EQ(scanned[r].residues, (*parsed)[r].residues) << "case " << i;
      }
    } else {
      EXPECT_TRUE(IsLoudReaderError(parsed.status()))
          << "case " << i << ": " << parsed.status().ToString();
      EXPECT_TRUE(IsLoudReaderError(scan_status))
          << "case " << i << ": " << scan_status.ToString();
    }
  }
}

void ExpectPlansEqual(const CorpusPlan& a, const CorpusPlan& b,
                      int fuzz_case) {
  ASSERT_EQ(a.fragments().size(), b.fragments().size()) << "case " << fuzz_case;
  EXPECT_EQ(a.num_records(), b.num_records()) << "case " << fuzz_case;
  EXPECT_EQ(a.num_dropped_residues(), b.num_dropped_residues())
      << "case " << fuzz_case;
  EXPECT_EQ(a.total_symbols(), b.total_symbols()) << "case " << fuzz_case;
  EXPECT_EQ(a.skipped_records().size(), b.skipped_records().size())
      << "case " << fuzz_case;
  for (std::size_t i = 0; i < a.fragments().size(); ++i) {
    const CorpusFragment& fa = a.fragments()[i];
    const CorpusFragment& fb = b.fragments()[i];
    EXPECT_EQ(fa.record_id, fb.record_id) << "case " << fuzz_case;
    EXPECT_EQ(fa.record_index, fb.record_index) << "case " << fuzz_case;
    EXPECT_EQ(fa.start, fb.start) << "case " << fuzz_case;
    EXPECT_EQ(fa.sequence.ToString(), fb.sequence.ToString())
        << "case " << fuzz_case;
  }
}

// The string ingestion route: the whole file read into memory, parsed,
// then planned record by record.
StatusOr<CorpusPlan> PlanFromString(const std::string& path,
                                    const CorpusPlanOptions& options) {
  PGM_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  PGM_ASSIGN_OR_RETURN(std::vector<FastaRecord> records,
                       ParseFasta(contents));
  return CorpusPlan::FromRecords(records, Alphabet::Dna(), options);
}

// The two corpus ingestion routes — MmapFile + FastaScanner vs
// ReadFileToString + ParseFasta — must plan identical fragment lists from
// the same file, or fail identically loudly.
TEST(ReaderFuzzTest, CorpusPlanMmapAndStringIngestionAgree) {
  const std::string path = testing::TempDir() + "/reader_fuzz_corpus.fa";
  for (int i = 0; i < 60; ++i) {
    Rng rng(kCorpusSeed ^ (0x3000000 + static_cast<std::uint64_t>(i)));
    std::string doc = RandomCorpusFasta(rng);
    if (i % 2 == 1) doc = Mutate(rng, doc);
    ASSERT_TRUE(WriteStringToFile(path, doc).ok());

    CorpusPlanOptions options;
    options.fragment.fragment_length = 32;
    options.fragment.keep_tail = (i % 4) < 2;
    StatusOr<CorpusPlan> mmap_plan =
        CorpusPlan::FromFastaFile(path, Alphabet::Dna(), options);
    StatusOr<CorpusPlan> string_plan = PlanFromString(path, options);
    ASSERT_EQ(mmap_plan.ok(), string_plan.ok())
        << "case " << i << ": mmap "
        << (mmap_plan.ok() ? "OK" : mmap_plan.status().ToString())
        << " vs string "
        << (string_plan.ok() ? "OK" : string_plan.status().ToString());
    if (mmap_plan.ok()) {
      ExpectPlansEqual(*mmap_plan, *string_plan, i);
    } else {
      EXPECT_TRUE(IsLoudReaderError(mmap_plan.status()))
          << "case " << i << ": " << mmap_plan.status().ToString();
      EXPECT_TRUE(IsLoudReaderError(string_plan.status()))
          << "case " << i << ": " << string_plan.status().ToString();
    }
  }
  std::remove(path.c_str());
}

// The fault campaign against the memory-mapped corpus path: a transient
// open fault must be absorbed by the retry policy (the plan comes out
// identical to an unfaulted run), permanent open/read faults must surface
// as IoError, and silent truncation as a loud parse error or a clean parse
// of the surviving prefix — never a crash or a silently smaller corpus
// that parsed from a torn view.
TEST(ReaderFuzzTest, FaultedMmapCorpusPlanRecoversOrFailsLoudly) {
  const std::string path = testing::TempDir() + "/reader_fuzz_mmap_corpus.fa";
  Rng rng(kCorpusSeed ^ 0xc0a7u);
  const std::string doc = RandomCorpusFasta(rng);
  ASSERT_TRUE(WriteStringToFile(path, doc).ok());
  CorpusPlanOptions options;
  options.fragment.fragment_length = 24;
  options.fragment.keep_tail = true;

  // The document itself may be an invalid corpus (empty records are legal
  // output of the generator); anchor on the unfaulted outcome.
  const StatusOr<CorpusPlan> unfaulted =
      CorpusPlan::FromFastaFile(path, Alphabet::Dna(), options);

  {
    // Transient open fault: one failed attempt, then the retry succeeds and
    // the plan is byte-identical to the unfaulted run.
    FileFault fault;
    fault.kind = FileFault::Kind::kOpenError;
    fault.max_hits = 1;
    ScopedFileFault scope(fault);
    StatusOr<CorpusPlan> plan =
        CorpusPlan::FromFastaFile(path, Alphabet::Dna(), options);
    EXPECT_EQ(scope.hits(), 1);
    ASSERT_EQ(plan.ok(), unfaulted.ok());
    if (plan.ok()) ExpectPlansEqual(*plan, *unfaulted, -1);
  }
  {
    // Permanent open fault: retries exhaust, IoError surfaces.
    FileFault fault;
    fault.kind = FileFault::Kind::kOpenError;
    ScopedFileFault scope(fault);
    StatusOr<CorpusPlan> plan =
        CorpusPlan::FromFastaFile(path, Alphabet::Dna(), options);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::kIoError);
    EXPECT_GE(scope.hits(), 2) << "retry never re-attempted the open";
  }
  for (int i = 0; i < 40; ++i) {
    FileFault fault;
    fault.kind = (i % 2 == 0) ? FileFault::Kind::kReadError
                              : FileFault::Kind::kTruncate;
    fault.byte_limit = rng.UniformInt(doc.size() + 1);
    ScopedFileFault scope(fault);
    StatusOr<CorpusPlan> plan =
        CorpusPlan::FromFastaFile(path, Alphabet::Dna(), options);
    if (fault.kind == FileFault::Kind::kReadError) {
      ASSERT_FALSE(plan.ok()) << "case " << i;
      EXPECT_EQ(plan.status().code(), StatusCode::kIoError) << "case " << i;
    } else if (!plan.ok()) {
      EXPECT_TRUE(IsLoudReaderError(plan.status()))
          << "case " << i << ": " << plan.status().ToString();
    }
    EXPECT_GE(scope.hits(), 1) << "fault never fired in case " << i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pgm
