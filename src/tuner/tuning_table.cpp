#include "tuner/tuning_table.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/stringf.hpp"

namespace tiledqr::tuner {

const char* tree_kind_name(trees::TreeKind kind) noexcept {
  switch (kind) {
    case trees::TreeKind::FlatTree: return "FlatTree";
    case trees::TreeKind::BinaryTree: return "BinaryTree";
    case trees::TreeKind::Fibonacci: return "Fibonacci";
    case trees::TreeKind::Greedy: return "Greedy";
    case trees::TreeKind::PlasmaTree: return "PlasmaTree";
    case trees::TreeKind::HadriTree: return "HadriTree";
    case trees::TreeKind::Asap: return "Asap";
    case trees::TreeKind::Grasap: return "Grasap";
  }
  return "?";
}

std::optional<trees::TreeKind> parse_tree_kind(std::string_view name) noexcept {
  using trees::TreeKind;
  for (TreeKind k : {TreeKind::FlatTree, TreeKind::BinaryTree, TreeKind::Fibonacci,
                     TreeKind::Greedy, TreeKind::PlasmaTree, TreeKind::HadriTree, TreeKind::Asap,
                     TreeKind::Grasap})
    if (name == tree_kind_name(k)) return k;
  return std::nullopt;
}

namespace {

constexpr const char* kJson = "tuning table JSON";

/// Member `name` of `obj`, which must exist and have type `type`.
const json::Value& member(const json::Value& obj, const char* name, json::Value::Type type) {
  const json::Value* v = obj.find(name);
  TILEDQR_CHECK(v != nullptr && v->type == type,
                stringf("%s: field \"%s\" is missing or has the wrong type", kJson, name));
  return *v;
}

template <class Int>
Int integer_member(const json::Value& obj, const char* name) {
  return json::integer<Int>(member(obj, name, json::Value::Type::Number), kJson, name);
}

}  // namespace

// ----------------------------------------------------------- TuningTable --

size_t TuningTable::KeyHash::operator()(const Key& k) const noexcept {
  size_t h = std::hash<std::string>()(k.profile);
  auto mix = [&h](size_t v) { h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2); };
  mix(size_t(k.p));
  mix(size_t(k.q));
  mix(size_t(k.workers));
  mix(size_t(k.factor));
  return h;
}

TuningTable::TuningTable(TuningTable&& other) noexcept {
  std::lock_guard lock(other.mu_);
  map_ = std::move(other.map_);
  hits_ = other.hits_;
  misses_ = other.misses_;
  refinements_ = other.refinements_;
}

TuningTable& TuningTable::operator=(TuningTable&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(mu_, other.mu_);
  map_ = std::move(other.map_);
  hits_ = other.hits_;
  misses_ = other.misses_;
  refinements_ = other.refinements_;
  return *this;
}

std::optional<TunedDecision> TuningTable::lookup(int p, int q, int workers,
                                                 const std::string& profile,
                                                 kernels::FactorKind factor) {
  std::lock_guard lock(mu_);
  auto it = map_.find(Key{p, q, workers, profile, factor});
  if (it == map_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

TunedDecision TuningTable::record(int p, int q, int workers, const std::string& profile,
                                  const TunedDecision& decision,
                                  kernels::FactorKind factor) {
  std::lock_guard lock(mu_);
  // Insert-if-absent: concurrent tuners racing on the same key converge on
  // the first recorded decision (stage-2 timing noise could otherwise make
  // them disagree), and the refinement counter matches live entries.
  auto [it, inserted] = map_.try_emplace(Key{p, q, workers, profile, factor}, decision);
  if (inserted && decision.refined) ++refinements_;
  return it->second;
}

TuningTable::Stats TuningTable::stats() const {
  std::lock_guard lock(mu_);
  return Stats{hits_, misses_, refinements_, map_.size()};
}

void TuningTable::clear() {
  std::lock_guard lock(mu_);
  map_.clear();
  hits_ = misses_ = refinements_ = 0;
}

std::string TuningTable::to_json() const {
  std::lock_guard lock(mu_);
  // Deterministic output: sort entries by key so the file diffs cleanly.
  std::vector<std::pair<const Key*, const TunedDecision*>> sorted;
  sorted.reserve(map_.size());
  for (const auto& [key, decision] : map_) sorted.emplace_back(&key, &decision);
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first->p, a.first->q, a.first->workers, a.first->profile,
                    a.first->factor) < std::tie(b.first->p, b.first->q, b.first->workers,
                                                b.first->profile, b.first->factor);
  });

  std::ostringstream out;
  out << "{\n  \"version\": 1,\n";
  out << stringf("  \"stats\": {\"hits\": %ld, \"misses\": %ld, \"refinements\": %ld},\n", hits_,
                 misses_, refinements_);
  out << "  \"entries\": [";
  bool first = true;
  for (const auto& [key, d] : sorted) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << stringf(
        "    {\"p\": %d, \"q\": %d, \"workers\": %d, \"profile\": %s, "
        "\"factor\": \"%s\", "
        "\"kind\": \"%s\", \"family\": \"%s\", \"bs\": %d, \"grasap_k\": %d, "
        "\"model_makespan\": %.17g, \"measured_seconds\": %.17g, \"refined\": %s}",
        key->p, key->q, key->workers, json::quote(key->profile).c_str(),
        kernels::factor_kind_name(key->factor),
        tree_kind_name(d->config.kind),
        d->config.family == trees::KernelFamily::TS ? "TS" : "TT", d->config.bs,
        d->config.grasap_k, d->model_makespan, d->measured_seconds,
        d->refined ? "true" : "false");
  }
  out << (first ? "]\n}\n" : "\n  ]\n}\n");
  return out.str();
}

TuningTable TuningTable::from_json(std::string_view text) {
  using Type = json::Value::Type;
  const json::Value root = json::parse(text, kJson);
  TILEDQR_CHECK(root.type == Type::Object, "tuning table JSON: document must be an object");
  TILEDQR_CHECK(integer_member<long>(root, "version") == 1,
                "tuning table JSON: unsupported version");

  TuningTable table;
  const json::Value& stats = member(root, "stats", Type::Object);
  table.hits_ = integer_member<long>(stats, "hits");
  table.misses_ = integer_member<long>(stats, "misses");
  table.refinements_ = integer_member<long>(stats, "refinements");

  for (const json::Value& e : member(root, "entries", Type::Array).array) {
    TILEDQR_CHECK(e.type == Type::Object, "tuning table JSON: entry must be an object");
    Key key;
    key.p = integer_member<int>(e, "p");
    key.q = integer_member<int>(e, "q");
    key.workers = integer_member<int>(e, "workers");
    key.profile = member(e, "profile", Type::String).string;
    // "factor" was added with the LQ workload; tables written before then
    // have no such field and are all-QR.
    if (e.find("factor") != nullptr) {
      const std::string& f = member(e, "factor", Type::String).string;
      TILEDQR_CHECK(f == "QR" || f == "LQ",
                    stringf("tuning table JSON: unknown factor kind \"%s\"", f.c_str()));
      key.factor = f == "LQ" ? kernels::FactorKind::LQ : kernels::FactorKind::QR;
    }
    // Range sanity at load time: a corrupt entry must fail here, not later
    // inside tree generation when the first matching request arrives.
    TILEDQR_CHECK(key.p >= 1 && key.q >= 1 && key.workers >= 1,
                  "tuning table JSON: p, q, workers must be >= 1");

    TunedDecision d;
    const std::string& kind = member(e, "kind", Type::String).string;
    auto parsed = parse_tree_kind(kind);
    TILEDQR_CHECK(parsed.has_value(),
                  stringf("tuning table JSON: unknown tree kind \"%s\"", kind.c_str()));
    d.config.kind = *parsed;
    const std::string& family = member(e, "family", Type::String).string;
    TILEDQR_CHECK(family == "TS" || family == "TT",
                  stringf("tuning table JSON: unknown kernel family \"%s\"", family.c_str()));
    d.config.family = family == "TS" ? trees::KernelFamily::TS : trees::KernelFamily::TT;
    d.config.bs = integer_member<int>(e, "bs");
    d.config.grasap_k = integer_member<int>(e, "grasap_k");
    TILEDQR_CHECK(d.config.bs >= 1 && d.config.grasap_k >= 0,
                  "tuning table JSON: bs must be >= 1 and grasap_k >= 0");
    d.model_makespan = member(e, "model_makespan", Type::Number).number;
    d.measured_seconds = member(e, "measured_seconds", Type::Number).number;
    d.refined = member(e, "refined", Type::Bool).boolean;
    table.map_[key] = d;
  }
  return table;
}

void TuningTable::save(const std::string& path) const {
  // Write-then-rename so a crash mid-save can never leave a truncated table
  // behind — load_or_empty throws on a file that exists but fails to parse,
  // so an in-place write interrupted at the wrong moment would wedge every
  // later startup until an operator deletes the file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    TILEDQR_CHECK(out.good(), stringf("tuning table: cannot open %s for writing", tmp.c_str()));
    out << to_json();
    out.flush();
    TILEDQR_CHECK(out.good(), stringf("tuning table: write to %s failed", tmp.c_str()));
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  TILEDQR_CHECK(!ec, stringf("tuning table: rename %s -> %s failed: %s", tmp.c_str(),
                             path.c_str(), ec.message().c_str()));
}

TuningTable TuningTable::load(const std::string& path) {
  std::ifstream in(path);
  TILEDQR_CHECK(in.good(), stringf("tuning table: cannot open %s", path.c_str()));
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_json(buf.str());
}

TuningTable TuningTable::load_or_empty(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return TuningTable{};
  return load(path);
}

}  // namespace tiledqr::tuner
