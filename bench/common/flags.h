#ifndef TURBOFLUX_BENCH_COMMON_FLAGS_H_
#define TURBOFLUX_BENCH_COMMON_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace turboflux {
namespace bench {

/// Minimal `--key=value` command-line parser shared by the figure
/// binaries. Unknown flags abort with a usage message so typos do not
/// silently run the default experiment.
///
/// One fleet-wide flag is implicitly known by every binary, so
/// scripts/reproduce_all.sh can pass it uniformly:
///   --stats_json=F  accumulate per-engine observability snapshots
///                   (DESIGN.md §3.8) into the JSON artifact F.
/// Binaries that predate it simply ignore it.
class Flags {
 public:
  Flags(int argc, char** argv, const std::vector<std::string>& known);

  /// The implicit `--stats_json` artifact path ("" = no stats).
  std::string StatsJson() const { return GetString("stats_json", ""); }

  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  /// Comma-separated integer list, e.g. `--sizes=3,6,9,12`.
  std::vector<int64_t> GetIntList(const std::string& key,
                                  std::vector<int64_t> default_value) const;

 private:
  std::vector<std::pair<std::string, std::string>> values_;
};

}  // namespace bench
}  // namespace turboflux

#endif  // TURBOFLUX_BENCH_COMMON_FLAGS_H_
