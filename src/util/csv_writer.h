#ifndef PGM_UTIL_CSV_WRITER_H_
#define PGM_UTIL_CSV_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace pgm {

/// Accumulates rows and serializes them as RFC-4180-style CSV. Used by the
/// benchmark harness to emit machine-readable copies of every paper table.
class CsvWriter {
 public:
  /// `columns` is the header row.
  explicit CsvWriter(std::vector<std::string> columns);

  std::size_t num_columns() const { return columns_.size(); }
  std::size_t num_rows() const { return rows_.size(); }

  /// Appends a row; returns InvalidArgument when the cell count mismatches
  /// the header.
  Status AddRow(std::vector<std::string> cells);

  /// Convenience: begin a row builder.
  class RowBuilder {
   public:
    explicit RowBuilder(CsvWriter* writer) : writer_(writer) {}
    RowBuilder& Add(std::string_view value);
    RowBuilder& Add(double value);
    RowBuilder& Add(std::int64_t value);
    RowBuilder& Add(std::uint64_t value);
    /// Commits the row to the writer.
    Status Done();

   private:
    CsvWriter* writer_;
    std::vector<std::string> cells_;
  };
  RowBuilder Row() { return RowBuilder(this); }

  /// Full document including the header line, with proper quoting.
  std::string ToString() const;

  /// Writes ToString() to `path` (WriteStringToFile, util/io.h).
  Status WriteToFile(const std::string& path) const;

 private:
  static std::string EscapeCell(const std::string& cell);

  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pgm

#endif  // PGM_UTIL_CSV_WRITER_H_
