#include "obs/trace_import.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/stringf.hpp"
#include "kernels/kernels.hpp"

namespace tiledqr::obs {

namespace {

constexpr const char* kContext = "trace import";

std::uint8_t kind_from_name(const std::string& name) {
  for (int k = 0; k < kernels::kNumKernelKinds; ++k) {
    if (name == kernels::kernel_name(static_cast<kernels::KernelKind>(k))) {
      return std::uint8_t(k);
    }
  }
  return TraceEvent::kNonKernel;
}

/// Integer field `name` of `obj`: a number must be an integer that fits
/// `Int`; a missing field or a non-number keeps `fallback`, so foreign traces
/// import.
template <class Int>
Int integer_or(const json::Value& obj, const char* name, Int fallback) {
  const json::Value* v = obj.find(name);
  if (v == nullptr || v->type != json::Value::Type::Number) return fallback;
  return json::integer<Int>(*v, kContext, name);
}

/// Microsecond field `name` of `obj` in nanoseconds (0 when missing or not a
/// number). The magnitude stays below 2^62 ns, so start + duration cannot
/// overflow.
std::int64_t ns_or_zero(const json::Value& obj, const char* name) {
  const json::Value* v = obj.find(name);
  if (v == nullptr || v->type != json::Value::Type::Number) return 0;
  TILEDQR_CHECK(std::abs(v->number) < 4e15,
                stringf("%s: field \"%s\" is out of range", kContext, name));
  return std::llround(v->number * 1000.0);
}

}  // namespace

std::vector<TrackSnapshot> import_chrome_json(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  const json::Value doc = json::parse(text.str(), kContext);
  const json::Value* events = doc.find("traceEvents");
  TILEDQR_CHECK(events != nullptr && events->type == json::Value::Type::Array,
                "trace import: no traceEvents array in document");

  std::map<int, TrackSnapshot> tracks;
  auto track = [&](int tid) -> TrackSnapshot& {
    auto it = tracks.find(tid);
    if (it == tracks.end()) {
      it = tracks.emplace(tid, TrackSnapshot{}).first;
      it->second.tid = tid;
      it->second.name = "thread" + std::to_string(tid);
    }
    return it->second;
  };

  for (const json::Value& ev : events->array) {
    const json::Value* ph = ev.find("ph");
    const json::Value* name = ev.find("name");
    if (ph == nullptr || ph->type != json::Value::Type::String || ev.find("tid") == nullptr)
      continue;
    const int t = integer_or(ev, "tid", 0);
    const json::Value* args = ev.find("args");

    if (ph->string == "M") {
      if (name != nullptr && name->string == "thread_name" && args != nullptr) {
        if (const json::Value* n = args->find("name"); n != nullptr && !n->string.empty()) {
          track(t).name = n->string;
        }
      }
      continue;
    }
    if (ph->string != "X") continue;

    TraceEvent e;
    e.start_ns = ns_or_zero(ev, "ts");
    e.end_ns = e.start_ns + ns_or_zero(ev, "dur");
    e.kind = name != nullptr ? kind_from_name(name->string) : TraceEvent::kNonKernel;
    if (args != nullptr) {
      e.i = integer_or(*args, "i", std::int32_t{-1});
      e.piv = integer_or(*args, "piv", std::int32_t{-1});
      e.k = integer_or(*args, "k", std::int32_t{-1});
      e.j = integer_or(*args, "j", std::int32_t{-1});
      e.task = integer_or(*args, "task", std::int32_t{-1});
      e.submission = integer_or(*args, "sub", std::uint32_t{0});
      if (const json::Value* s = args->find("stolen");
          s != nullptr && s->type == json::Value::Type::Number && s->number != 0)
        e.flags |= TraceEvent::kFlagStolen;
    }
    track(t).events.push_back(e);
  }

  std::vector<TrackSnapshot> out;
  out.reserve(tracks.size());
  for (auto& [t, snap] : tracks) out.push_back(std::move(snap));
  return out;
}

std::vector<TrackSnapshot> import_chrome_json(const std::string& path) {
  std::ifstream f(path);
  TILEDQR_CHECK(f.good(), "cannot open trace file: " + path);
  return import_chrome_json(static_cast<std::istream&>(f));
}

}  // namespace tiledqr::obs
