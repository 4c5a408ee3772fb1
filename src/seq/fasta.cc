#include "seq/fasta.h"

#include <algorithm>
#include <cctype>

#include "util/io.h"
#include "util/string_util.h"

namespace pgm {

namespace {

// Parses a trimmed header line (starting with '>') into id/description.
// Corruption when the id is empty.
Status ParseHeaderLine(std::string_view line, std::size_t line_number,
                       FastaRecord* record) {
  std::string_view header = line.substr(1);
  std::size_t space = header.find_first_of(" \t");
  if (space == std::string_view::npos) {
    record->id = std::string(header);
  } else {
    record->id = std::string(header.substr(0, space));
    record->description = std::string(Trim(header.substr(space + 1)));
  }
  if (record->id.empty()) {
    return Status::Corruption(
        StrFormat("empty FASTA record id at line %zu", line_number));
  }
  return Status::OK();
}

}  // namespace

bool FastaScanner::NextLine(std::string_view* line) {
  if (pos_ >= text_.size()) return false;
  const std::size_t newline = text_.find('\n', pos_);
  if (newline == std::string_view::npos) {
    *line = text_.substr(pos_);
    pos_ = text_.size();
  } else {
    *line = text_.substr(pos_, newline - pos_);
    pos_ = newline + 1;
  }
  ++line_number_;
  return true;
}

StatusOr<bool> FastaScanner::Next(FastaRecord* record) {
  record->id.clear();
  record->description.clear();
  record->residues.clear();
  std::string_view header;
  std::size_t header_line = 0;
  if (have_pending_header_) {
    header = pending_header_;
    header_line = pending_header_line_;
    have_pending_header_ = false;
  } else {
    // Scan forward to this record's header.
    std::string_view raw;
    bool found = false;
    while (NextLine(&raw)) {
      std::string_view line = Trim(raw);
      if (line.empty() || line[0] == ';') continue;  // blank or comment
      if (line[0] != '>') {
        return Status::Corruption(
            StrFormat("residue data before the first '>' header at line %zu",
                      line_number_));
      }
      header = line;
      header_line = line_number_;
      found = true;
      break;
    }
    if (!found) return false;  // clean end of input
  }
  PGM_RETURN_IF_ERROR(ParseHeaderLine(header, header_line, record));
  // Accumulate residue lines until the next header (stashed as lookahead)
  // or end of input.
  std::string_view raw;
  while (NextLine(&raw)) {
    std::string_view line = Trim(raw);
    if (line.empty() || line[0] == ';') continue;
    if (line[0] == '>') {
      have_pending_header_ = true;
      pending_header_ = line;
      pending_header_line_ = line_number_;
      break;
    }
    for (char c : line) {
      if (std::isspace(static_cast<unsigned char>(c))) continue;
      record->residues.push_back(c);
    }
  }
  if (record->residues.empty()) {
    return Status::Corruption("FASTA record '" + record->id +
                              "' has no residues");
  }
  return true;
}

StatusOr<std::vector<FastaRecord>> ParseFasta(std::string_view text) {
  std::vector<FastaRecord> records;
  FastaScanner scanner(text);
  while (true) {
    FastaRecord record;
    PGM_ASSIGN_OR_RETURN(bool more, scanner.Next(&record));
    if (!more) break;
    records.push_back(std::move(record));
  }
  return records;
}

StatusOr<std::vector<FastaRecord>> ReadFastaFile(const std::string& path) {
  // Transient read faults retry once (DefaultReadRetryPolicy); permanent
  // faults surface IoError, and truncated content still parses to loud
  // Corruption below.
  PGM_ASSIGN_OR_RETURN(
      std::string contents,
      ReadFileToStringWithRetry(path, DefaultReadRetryPolicy()));
  return ParseFasta(contents);
}

Sequence RecordToSequence(const FastaRecord& record, const Alphabet& alphabet,
                          std::size_t* num_dropped) {
  return Sequence::FromStringLossy(record.residues, alphabet, num_dropped);
}

std::string WriteFasta(const std::vector<FastaRecord>& records,
                       std::size_t line_width) {
  if (line_width == 0) line_width = 70;
  std::string out;
  for (const FastaRecord& record : records) {
    out += '>';
    out += record.id;
    if (!record.description.empty()) {
      out += ' ';
      out += record.description;
    }
    out += '\n';
    for (std::size_t i = 0; i < record.residues.size(); i += line_width) {
      out.append(record.residues, i,
                 std::min(line_width, record.residues.size() - i));
      out += '\n';
    }
  }
  return out;
}

Status WriteFastaFile(const std::string& path,
                      const std::vector<FastaRecord>& records,
                      std::size_t line_width) {
  return WriteStringToFile(path, WriteFasta(records, line_width));
}

}  // namespace pgm
