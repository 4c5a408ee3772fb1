#ifndef PGM_UTIL_FLAGS_H_
#define PGM_UTIL_FLAGS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace pgm {

/// Minimal command-line flag parser for the example and benchmark binaries.
/// Supports `--name=value`, `--name value`, and bare `--bool_flag`.
/// Unknown flags are an error; positional arguments are collected.
class FlagSet {
 public:
  explicit FlagSet(std::string program_description);

  /// Registration. The pointed-to variables hold the defaults and receive
  /// the parsed values. Pointers must outlive Parse().
  void AddInt64(const std::string& name, std::int64_t* value,
                const std::string& help);
  void AddDouble(const std::string& name, double* value,
                 const std::string& help);
  void AddString(const std::string& name, std::string* value,
                 const std::string& help);
  void AddBool(const std::string& name, bool* value, const std::string& help);
  /// Registers a flag whose value `set` parses, validates and stores itself
  /// (for options declared as data elsewhere, such as the MinerConfig
  /// option table). `default_repr` is the default Usage() shows.
  void AddCallback(const std::string& name, const std::string& help,
                   const std::string& default_repr,
                   std::function<Status(const std::string&)> set);

  /// Parses argv. On `--help` returns a NotFound status whose message is the
  /// usage text (callers print it and exit 0).
  Status Parse(int argc, char** argv);

  const std::vector<std::string>& positional_args() const {
    return positional_args_;
  }

  /// Usage text listing all registered flags with defaults.
  std::string Usage() const;

 private:
  struct Flag {
    std::function<Status(const std::string&)> set;
    std::string help;
    std::string default_repr;
    /// A bare `--name` (no value) means true.
    bool is_bool = false;
  };

  Status SetFlag(const std::string& name, const std::string& value);

  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_args_;
};

}  // namespace pgm

#endif  // PGM_UTIL_FLAGS_H_
