#ifndef ESR_TOOLS_CLI_H_
#define ESR_TOOLS_CLI_H_

// The `esr` tool's shared command line: one usage text, one typed flag
// parser, and the five subcommands it dispatches to.

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

namespace esr::cli {

/// Prints the one `esr` usage text to stderr and returns exit code 1.
int Usage();

/// Where a flag's value goes: a bool flag takes no value; a string list
/// collects every occurrence; a uint64_t takes an unsigned decimal; a
/// double takes a finite, non-negative number.
using FlagTarget = std::variant<bool*, std::string*, std::vector<std::string>*,
                                uint64_t*, double*>;

/// Parses `args` against `flags`; arguments that are not flags land in
/// `positional`. Fails on an unknown flag, a missing value, or a number
/// that does not consume its whole argument or does not fit its type.
bool ParseFlags(const std::vector<std::string>& args,
                const std::map<std::string, FlagTarget>& flags,
                std::vector<std::string>* positional);

/// The subcommands; `args` excludes the program and subcommand names.
int Audit(const std::vector<std::string>& args);
int Series(const std::vector<std::string>& args);
int Profile(const std::vector<std::string>& args);
int Health(const std::vector<std::string>& args);
int Bench(const std::vector<std::string>& args);

}  // namespace esr::cli

#endif  // ESR_TOOLS_CLI_H_
