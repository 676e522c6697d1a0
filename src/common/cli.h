// Tiny flag parser shared by the bench binaries and examples.
//
// Supports "--flag", "--key value" and "--key=value" forms; anything else is
// kept as a positional argument.
#pragma once

#include <limits>
#include <map>
#include <string>
#include <vector>

namespace mcdc {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  // The flag's value as a number; `fallback` when the flag is absent or
  // bare. Throws std::invalid_argument naming the flag and the value when
  // the value is not wholly a number in range ("2x", "two", "1e999"), and
  // naming the flag and `min` when an integer value is below `min`.
  long get_int(const std::string& key, long fallback,
               long min = std::numeric_limits<long>::min()) const;
  double get_double(const std::string& key, double fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace mcdc
