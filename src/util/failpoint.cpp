#include "src/util/failpoint.h"

#include <cstdlib>
#include <mutex>
#include <unordered_map>

#include "src/util/string_utils.h"

namespace t2m::failpoint {

namespace detail {
std::atomic<int> g_armed_count{0};
}  // namespace detail

namespace {

struct SiteState {
  FailSpec spec;
  std::uint64_t evaluations = 0;
  std::uint64_t fires = 0;
  std::uint64_t rng = 0;  // splitmix64 state for permille mode
  bool armed = false;
};

struct Registry {
  std::mutex mu;  ///< guards sites
  std::unordered_map<std::string, SiteState> sites;
};

// Leaked singleton: failpoints are evaluated from thread_local destructors
// and other late shutdown paths, so the registry must outlive static
// destruction order.
Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t parse_u64_term(const std::string& term, const std::string& value) {
  std::int64_t out = 0;
  if (!parse_int64(value, out) || out < 0) {
    throw_status(ErrorCode::parse_error,
                 "failpoint spec: bad value for '" + term + "': " + value);
  }
  return static_cast<std::uint64_t>(out);
}

// Arms one "name=spec" item; called with the registry lock NOT held.
void arm_item(const std::string& item) {
  auto eq = item.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw_status(ErrorCode::parse_error,
                 "failpoint spec: expected name=spec, got: " + item);
  }
  arm(item.substr(0, eq), item.substr(eq + 1));
}

struct EnvLoader {
  EnvLoader() {
    if (const char* env = std::getenv("T2M_FAILPOINTS")) {
      if (*env != '\0') arm_list(env);
    }
  }
};
// Static initializer: arms T2M_FAILPOINTS before main() runs, so child
// processes spawned by tests inherit faults without code changes.
const EnvLoader g_env_loader;

}  // namespace

FailSpec parse_spec(const std::string& spec) {
  FailSpec out;
  for (const std::string& raw : split(spec, ',')) {
    std::string term(trim(raw));
    if (term.empty()) continue;
    auto eq = term.find('=');
    std::string key = term.substr(0, eq);
    std::string value = eq == std::string::npos ? "" : term.substr(eq + 1);
    if (key == "always") {
      out.always = true;
    } else if (key == "once") {
      out.count = 1;
    } else if (key == "off") {
      out.always = false;
      out.count = 0;
      out.permille = 0;
    } else if (key == "skip") {
      out.skip = parse_u64_term(key, value);
    } else if (key == "count") {
      out.count = parse_u64_term(key, value);
    } else if (key == "permille") {
      std::uint64_t p = parse_u64_term(key, value);
      if (p > 1000) {
        throw_status(ErrorCode::parse_error,
                     "failpoint spec: permille out of range: " + value);
      }
      out.permille = static_cast<std::uint32_t>(p);
    } else if (key == "seed") {
      out.seed = parse_u64_term(key, value);
    } else {
      throw_status(ErrorCode::parse_error,
                   "failpoint spec: unknown term: " + term);
    }
  }
  return out;
}

void arm(const std::string& name, const FailSpec& spec) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  SiteState& s = r.sites[name];
  // order: relaxed — the count is only the any_armed() fast gate; the spec
  // is published by the registry mutex both sides hold.
  if (!s.armed) detail::g_armed_count.fetch_add(1, std::memory_order_relaxed);
  s.armed = true;
  s.spec = spec;
  s.evaluations = 0;
  s.fires = 0;
  s.rng = spec.seed;
}

void arm(const std::string& name, const std::string& spec) {
  arm(name, parse_spec(spec));
}

void arm_list(const std::string& list) {
  for (const std::string& raw : split(list, ';')) {
    std::string item(trim(raw));
    if (!item.empty()) arm_item(item);
  }
}

void disarm(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.sites.find(name);
  if (it != r.sites.end() && it->second.armed) {
    it->second.armed = false;
    // order: relaxed — see arm(): the mutex carries the real publication.
    detail::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
}

void disarm_all() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, s] : r.sites) {
    if (s.armed) {
      s.armed = false;
      // order: relaxed — see arm(): the mutex carries the real publication.
      detail::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

std::uint64_t evaluations(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.sites.find(name);
  return it == r.sites.end() ? 0 : it->second.evaluations;
}

std::uint64_t fires(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.sites.find(name);
  return it == r.sites.end() ? 0 : it->second.fires;
}

namespace detail {

bool should_fail_slow(const char* name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.sites.find(name);
  if (it == r.sites.end() || !it->second.armed) return false;
  SiteState& s = it->second;
  std::uint64_t n = s.evaluations++;
  if (n < s.spec.skip) return false;
  bool fire = false;
  if (s.spec.always) {
    fire = true;
  } else if (s.spec.permille > 0) {
    fire = splitmix64(s.rng) % 1000 < s.spec.permille;
  } else {
    fire = s.fires < s.spec.count;
  }
  if (fire) ++s.fires;
  return fire;
}

}  // namespace detail

}  // namespace t2m::failpoint
