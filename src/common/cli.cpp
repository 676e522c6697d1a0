#include "common/cli.h"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace mcdc {

namespace {

// Throws std::invalid_argument naming the flag and the value unless
// strtol/strtod parsed all of `text` (ending at `end`) in range.
void check_whole_number(const std::string& key, const std::string& text,
                        const char* end) {
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("--" + key + ": expected a number, got '" +
                                text + "'");
  }
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--key value" when the next token is not itself a flag; bare "--flag"
    // otherwise.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";
    }
  }
}

bool Cli::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Cli::get(const std::string& key,
                     const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long Cli::get_int(const std::string& key, long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(it->second.c_str(), &end, 10);
  check_whole_number(key, it->second, end);
  return value;
}

int Cli::get_count(const std::string& key, int fallback) const {
  const long value = get_int(key, fallback);
  if (value < 1) {
    throw std::invalid_argument("--" + key + " must be at least 1");
  }
  if (value > std::numeric_limits<int>::max()) {
    throw std::invalid_argument(
        "--" + key + " must be at most " +
        std::to_string(std::numeric_limits<int>::max()));
  }
  return static_cast<int>(value);
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(it->second.c_str(), &end);
  check_whole_number(key, it->second, end);
  return value;
}

}  // namespace mcdc
