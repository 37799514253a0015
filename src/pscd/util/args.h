// Minimal command-line parser for the tools and examples: long options
// only ("--name value" / "--name=value"), boolean flags, typed getters
// with defaults, and generated --help text.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pscd {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Declares a boolean flag ("--verbose").
  void addFlag(std::string name, std::string description);

  /// Declares a value option with a default shown in --help.
  void addOption(std::string name, std::string description,
                 std::string defaultValue);

  /// Parses argv. Returns false when parsing fails or --help was given;
  /// error() distinguishes the two (empty for --help).
  bool parse(int argc, const char* const* argv);

  bool flag(std::string_view name) const;
  const std::string& option(std::string_view name) const;
  double optionDouble(std::string_view name) const;
  std::int64_t optionInt(std::string_view name) const;
  /// optionInt limited to [min, max]: a value outside the range throws
  /// std::invalid_argument just as a malformed one does, so a port or a
  /// count never wraps on its way into a narrower or unsigned field.
  std::int64_t optionInt(std::string_view name, std::int64_t min,
                         std::int64_t max) const;

  /// The same range-checked read for a number that is not an option of
  /// its own (the PORT inside --connect HOST:PORT); `what` names it in
  /// the error.
  static std::int64_t parseInt(std::string_view what, std::string_view raw,
                               std::int64_t min, std::int64_t max);

  const std::string& error() const { return error_; }
  std::string help() const;

 private:
  struct Spec {
    std::string description;
    bool isFlag = false;
    std::string defaultValue;
  };
  const Spec& specFor(std::string_view name) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Spec, std::less<>> specs_;
  std::map<std::string, std::string, std::less<>> values_;
  std::map<std::string, bool, std::less<>> flags_;
  std::string error_;
};

}  // namespace pscd
