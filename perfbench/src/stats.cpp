#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

bool percentile_reportable(std::size_t n, double q) {
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n >= rank + 10;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  // Separate consecutive responses so "ab"+"c" differs from "a"+"bc".
  h ^= 0xff;
  h *= 0x100000001b3ull;
  return h;
}

std::string normalise(const std::string& response) {
  static const std::string kKey = "\"cache\":\"";
  const std::size_t at = response.find(kKey);
  if (at == std::string::npos) return response;
  const std::size_t from = at + kKey.size();
  const std::size_t to = response.find('"', from);
  if (to == std::string::npos) return response;
  std::string out = response;
  out.replace(from, to - from, "*");
  return out;
}

CpuTicks cpu_ticks() {
  // First line: cpu user nice system idle iowait irq softirq steal ...
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line)) return {};
  std::istringstream fields(line.substr(line.find(' ') + 1));
  CpuTicks t;
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && fields >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

void pin_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "api.decode_us",
      "at.parse_us",
      "service.canon_hash_us",
      "service.cache_lookup_us",
      "engine.solve_us",
      "service.cache_insert_us",
      "service.session_open_us",
      "service.session_edit_us",
      "service.session_resolve_us",
      "analysis.sweep_us",
      "at.render_us",
      "api.encode_us",
  };
  return kNames[layer];
}

}  // namespace perfbench
