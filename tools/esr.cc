// esr: the repository's one command-line tool. It reads what the figure
// binaries, examples and bench harness write, and exits 0/2/1 by what it
// finds:
//
//   esr audit    recertify a Chrome trace's hierarchical bounds (audit.cc)
//   esr series   digest a --series telemetry CSV (series.cc)
//   esr profile  render a threaded_server wall-clock profile (profile.cc)
//   esr health   replay a series or journal through the health detectors
//                (health.cc)
//   esr bench    the fig07/fig11 regression gate over baseline:current
//                report pairs (bench.cc)
//
// Run `esr` with no arguments for the flags of each.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "cli.h"

namespace esr::cli {

int Usage() {
  std::fprintf(
      stderr,
      "usage: esr audit <trace.json> [--json report.json] [--top N]\n"
      "                 [--perturb N] [--seed S]\n"
      "       esr audit --demo-violation [--json report.json] [--perturb N]\n"
      "       esr series <series.csv> | --demo | --demo-negative [--json]\n"
      "       esr profile <profile.json> [--trace trace.json]\n"
      "                   [--lanes lanes.json] [--folded out.folded]\n"
      "                   [--check-coverage PCT]\n"
      "       esr profile --demo\n"
      "       esr health <series.csv> | --journal <health.json> | --demo"
      " [--json]\n"
      "       esr bench --check BASELINE:CURRENT [--check ...]\n"
      "exit status: 0 clean; 2 on a bound violation, negative headroom,\n"
      "health alert or throughput regression; 1 on usage or I/O errors\n");
  return 1;
}

namespace {

bool SetFlag(const FlagTarget& target, const std::string& value) {
  if (std::string* const* s = std::get_if<std::string*>(&target)) {
    **s = value;
    return true;
  }
  if (auto* list = std::get_if<std::vector<std::string>*>(&target)) {
    (*list)->push_back(value);
    return true;
  }
  errno = 0;
  char* end = nullptr;
  if (uint64_t* const* n = std::get_if<uint64_t*>(&target)) {
    // strtoull would accept a sign and wrap "-1" around.
    if (value.empty() || value[0] < '0' || value[0] > '9') return false;
    const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE) return false;
    **n = parsed;
    return true;
  }
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(parsed) || parsed < 0.0) {
    return false;
  }
  *std::get<double*>(target) = parsed;
  return true;
}

}  // namespace

bool ParseFlags(const std::vector<std::string>& args,
                const std::map<std::string, FlagTarget>& flags,
                std::vector<std::string>* positional) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.empty() || arg[0] != '-') {
      positional->push_back(arg);
      continue;
    }
    const auto it = flags.find(arg);
    if (it == flags.end()) {
      std::fprintf(stderr, "esr: unknown flag %s\n", arg.c_str());
      return false;
    }
    if (bool* const* on = std::get_if<bool*>(&it->second)) {
      **on = true;
    } else if (i + 1 == args.size()) {
      std::fprintf(stderr, "esr: %s needs a value\n", arg.c_str());
      return false;
    } else if (!SetFlag(it->second, args[++i])) {
      std::fprintf(stderr, "esr: bad value '%s' for %s\n", args[i].c_str(),
                   arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace esr::cli

int main(int argc, char** argv) {
  using Command = int (*)(const std::vector<std::string>&);
  static const std::map<std::string, Command> kCommands = {
      {"audit", esr::cli::Audit},     {"series", esr::cli::Series},
      {"profile", esr::cli::Profile}, {"health", esr::cli::Health},
      {"bench", esr::cli::Bench}};
  const auto it = argc >= 2 ? kCommands.find(argv[1]) : kCommands.end();
  if (it == kCommands.end()) return esr::cli::Usage();
  return it->second(std::vector<std::string>(argv + 2, argv + argc));
}
