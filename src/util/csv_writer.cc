#include "util/csv_writer.h"

#include "util/io.h"
#include "util/string_util.h"

namespace pgm {

CsvWriter::CsvWriter(std::vector<std::string> columns)
    : columns_(std::move(columns)) {}

Status CsvWriter::AddRow(std::vector<std::string> cells) {
  if (cells.size() != columns_.size()) {
    return Status::InvalidArgument(
        StrFormat("row has %zu cells, header has %zu", cells.size(),
                  columns_.size()));
  }
  rows_.push_back(std::move(cells));
  return Status::OK();
}

CsvWriter::RowBuilder& CsvWriter::RowBuilder::Add(std::string_view value) {
  cells_.emplace_back(value);
  return *this;
}

CsvWriter::RowBuilder& CsvWriter::RowBuilder::Add(double value) {
  cells_.push_back(StrFormat("%.17g", value));
  return *this;
}

CsvWriter::RowBuilder& CsvWriter::RowBuilder::Add(std::int64_t value) {
  cells_.push_back(std::to_string(value));
  return *this;
}

CsvWriter::RowBuilder& CsvWriter::RowBuilder::Add(std::uint64_t value) {
  cells_.push_back(std::to_string(value));
  return *this;
}

Status CsvWriter::RowBuilder::Done() {
  return writer_->AddRow(std::move(cells_));
}

std::string CsvWriter::EscapeCell(const std::string& cell) {
  bool needs_quotes = cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string escaped = "\"";
  for (char c : cell) {
    if (c == '"') escaped += "\"\"";
    else escaped += c;
  }
  escaped += '"';
  return escaped;
}

std::string CsvWriter::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ',';
    out += EscapeCell(columns_[i]);
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      out += EscapeCell(row[i]);
    }
    out += '\n';
  }
  return out;
}

Status CsvWriter::WriteToFile(const std::string& path) const {
  return WriteStringToFile(path, ToString());
}

}  // namespace pgm
