#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "util/saturating.h"

namespace pgm {

std::vector<std::string> Split(std::string_view input, char delimiter) {
  std::vector<std::string> result;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      result.emplace_back(input.substr(start));
      break;
    }
    result.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return result;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string result;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result.append(separator);
    result.append(parts[i]);
  }
  return result;
}

std::string_view Trim(std::string_view input) {
  std::size_t begin = 0;
  while (begin < input.size() &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  std::size_t end = input.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string ToUpper(std::string_view input) {
  std::string result(input);
  for (char& c : result) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return result;
}

std::string ToLower(std::string_view input) {
  std::string result(input);
  for (char& c : result) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return result;
}

std::string EscapeJson(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  for (char c : input) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return std::string();
  }
  std::string result(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(result.data(), result.size() + 1, format, args_copy);
  va_end(args_copy);
  return result;
}

StatusOr<std::int64_t> ParseInt64(std::string_view input) {
  std::string trimmed(Trim(input));
  if (trimmed.empty()) {
    return Status::InvalidArgument("cannot parse empty string as integer");
  }
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(trimmed.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: '" + trimmed + "'");
  }
  if (end != trimmed.c_str() + trimmed.size()) {
    return Status::InvalidArgument("trailing garbage in integer: '" + trimmed +
                                   "'");
  }
  return static_cast<std::int64_t>(value);
}

StatusOr<double> ParseDouble(std::string_view input) {
  std::string trimmed(Trim(input));
  if (trimmed.empty()) {
    return Status::InvalidArgument("cannot parse empty string as double");
  }
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(trimmed.c_str(), &end);
  if (errno == ERANGE) {
    return Status::OutOfRange("double out of range: '" + trimmed + "'");
  }
  if (end != trimmed.c_str() + trimmed.size()) {
    return Status::InvalidArgument("trailing garbage in double: '" + trimmed +
                                   "'");
  }
  return value;
}

std::string WithThousandsSeparators(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string result;
  result.reserve(digits.size() + digits.size() / 3);
  std::size_t leading = digits.size() % 3;
  if (leading == 0) leading = 3;
  result.append(digits, 0, leading);
  for (std::size_t i = leading; i < digits.size(); i += 3) {
    result.push_back(',');
    result.append(digits, i, 3);
  }
  return result;
}

std::string FormatCount(std::uint64_t value) {
  if (IsSaturated(value)) return "2^64-sat";
  if (value < 10'000'000'000ULL) return WithThousandsSeparators(value);
  return StrFormat("%.3e", static_cast<double>(value));
}

}  // namespace pgm
