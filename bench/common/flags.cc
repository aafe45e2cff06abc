#include "common/flags.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace turboflux {
namespace bench {

Flags::Flags(int argc, char** argv, const std::vector<std::string>& known) {
  std::vector<std::string> all_known = known;
  all_known.push_back("stats_json");
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      std::exit(2);
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    std::string key = eq == std::string::npos ? body : body.substr(0, eq);
    std::string value = eq == std::string::npos ? "1" : body.substr(eq + 1);
    if (std::find(all_known.begin(), all_known.end(), key) ==
        all_known.end()) {
      std::fprintf(stderr, "unknown flag --%s; known flags:", key.c_str());
      for (const std::string& k : all_known)
        std::fprintf(stderr, " --%s", k.c_str());
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    values_.emplace_back(key, value);
  }
}

int64_t Flags::GetInt(const std::string& key, int64_t default_value) const {
  for (const auto& [k, v] : values_) {
    if (k == key) return std::strtoll(v.c_str(), nullptr, 10);
  }
  return default_value;
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  for (const auto& [k, v] : values_) {
    if (k == key) return std::strtod(v.c_str(), nullptr);
  }
  return default_value;
}

bool Flags::GetBool(const std::string& key, bool default_value) const {
  for (const auto& [k, v] : values_) {
    if (k == key) return v != "0" && v != "false";
  }
  return default_value;
}

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  for (const auto& [k, v] : values_) {
    if (k == key) return v;
  }
  return default_value;
}

std::vector<int64_t> Flags::GetIntList(
    const std::string& key, std::vector<int64_t> default_value) const {
  for (const auto& [k, v] : values_) {
    if (k != key) continue;
    std::vector<int64_t> out;
    size_t pos = 0;
    while (pos < v.size()) {
      size_t comma = v.find(',', pos);
      if (comma == std::string::npos) comma = v.size();
      out.push_back(std::strtoll(v.substr(pos, comma - pos).c_str(),
                                 nullptr, 10));
      pos = comma + 1;
    }
    return out;
  }
  return default_value;
}

}  // namespace bench
}  // namespace turboflux
