#ifndef UFIM_COMMON_CLI_ARGS_H_
#define UFIM_COMMON_CLI_ARGS_H_

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ufim::cli {

/// The flags one subcommand accepts: `value_flags` consume the token
/// after them (`--threads 8`), `switches` stand alone (`--closed`).
struct FlagSpec {
  std::vector<std::string_view> value_flags;
  std::vector<std::string_view> switches;
};

/// Minimal long-flag command-line parser shared by the tools, split out
/// of ufim_cli so its validation is unit-testable.
///
/// Parsing is strict where it used to be permissive, closing two classes
/// of silent misconfiguration:
///   * numeric accessors validate the *full* token — `--threads abc`
///     and `--batch -1` are errors, not 0 and ~1.8e19 (the old
///     atoll/atof behaviour);
///   * `Validate` rejects flags a subcommand does not know, so a typo
///     like `--thread 4` fails loudly instead of silently dropping both
///     the flag and its value.
/// Accessor failures report through `*error` (never exit()), so the
/// tools decide how to die and tests can assert on messages.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  /// Tokenizes argv into positionals and `--key [value]` pairs.
  /// `switches` lists the flags that never consume a value (the union
  /// across subcommands — per-subcommand membership is `Validate`'s
  /// job, once the subcommand is known). Returns nullopt and sets
  /// `*error` when a value flag ends the argument list without a value.
  static std::optional<Args> Parse(int argc, const char* const* argv,
                                   const std::vector<std::string_view>& switches,
                                   std::string* error);

  /// Checks every parsed flag against `spec`; false + `*error` naming
  /// the first unknown flag otherwise. Call after subcommand dispatch.
  bool Validate(const FlagSpec& spec, std::string* error) const;

  /// Raw flag value; nullptr when absent.
  const char* Get(const std::string& key) const;

  /// Full-token non-negative integer: `*out` gets the parsed value, or
  /// `fallback` when the flag is absent. False + `*error` on a token
  /// that is not entirely decimal digits (so signs, garbage, and empty
  /// strings are all rejected) or does not fit std::size_t.
  bool GetSize(const std::string& key, std::size_t fallback, std::size_t* out,
               std::string* error) const;

  /// Full-token finite double via strtod: `*out` gets the parsed value,
  /// or `fallback` when the flag is absent. False + `*error` on empty or
  /// partially-consumed tokens (`0.5x`), overflow, or non-finite values.
  bool GetDouble(const std::string& key, double fallback, double* out,
                 std::string* error) const;
};

}  // namespace ufim::cli

#endif  // UFIM_COMMON_CLI_ARGS_H_
