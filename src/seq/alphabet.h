#ifndef PGM_SEQ_ALPHABET_H_
#define PGM_SEQ_ALPHABET_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace pgm {

/// Symbol index inside an Alphabet. Sequences and patterns are stored encoded
/// as Symbol values; miners never touch raw characters in their inner loops.
using Symbol = std::uint8_t;

/// Sentinel returned by Alphabet::Encode for characters outside the alphabet.
inline constexpr Symbol kInvalidSymbol = 0xFF;

/// A finite character alphabet with O(1) char <-> symbol-index mapping.
///
/// The mining model (Section 3 of the paper) is alphabet-generic; the two
/// bioinformatics instances the paper uses are provided as factories:
/// `Alphabet::Dna()` = {A, C, G, T} and `Alphabet::Protein()` = the 20
/// standard amino acids.
class Alphabet {
 public:
  /// Builds an alphabet from the distinct characters of `symbols`.
  /// Fails on empty input, duplicate characters, more than 128 characters,
  /// non-printable characters, or use of '.' (reserved for the wildcard).
  static StatusOr<Alphabet> Create(std::string_view symbols,
                                   bool case_insensitive = true);

  /// {A, C, G, T}, case-insensitive.
  static const Alphabet& Dna();

  /// The 20 standard amino acids "ACDEFGHIKLMNPQRSTVWY", case-insensitive.
  static const Alphabet& Protein();

  /// Number of symbols.
  std::size_t size() const { return symbols_.size(); }

  /// Canonical character of symbol `s` (s must be < size()).
  char CharAt(Symbol s) const { return symbols_[s]; }

  /// Symbol index of `c`, or kInvalidSymbol when `c` is not in the alphabet.
  Symbol Encode(char c) const {
    return encode_[static_cast<unsigned char>(c)];
  }

  /// True iff `c` belongs to the alphabet.
  bool Contains(char c) const { return Encode(c) != kInvalidSymbol; }

  /// The canonical symbol characters, in index order.
  const std::string& symbols() const { return symbols_; }

  bool case_insensitive() const { return case_insensitive_; }

  bool operator==(const Alphabet& other) const {
    return symbols_ == other.symbols_ &&
           case_insensitive_ == other.case_insensitive_;
  }

 private:
  Alphabet() { encode_.fill(kInvalidSymbol); }

  std::string symbols_;
  bool case_insensitive_ = true;
  std::array<Symbol, 256> encode_;
};

}  // namespace pgm

#endif  // PGM_SEQ_ALPHABET_H_
