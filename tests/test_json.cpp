// Tests for common/json, the library's one JSON reader and string escaper,
// and for the formats built on it: the tuning table, the Chrome-trace
// export/import pair and the metrics dump.
//
// - The reader's strictness, case by case: the JSON grammar, the nesting
//   limit, \u decoding, duplicate keys, and errors that name their context
//   and byte offset.
// - The checked integer accessor, and the trace importer's integer fields
//   that use it.
// - An escape -> parse round trip over random byte strings.
// - A seeded mutation test: byte flips, truncations, deletions and inserted
//   '['/'{' runs applied to a tuning table, a trace export and a metrics
//   dump. Every mutant goes through the reader, TuningTable::from_json and
//   import_chrome_json, which must return or throw tiledqr::Error. Any
//   other exception, and any crash, reports the seed and mutant index that
//   replay it.
//
// TILEDQR_STRESS=1 (the ctest `stress` label) widens the random rounds.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <exception>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/qr_session.hpp"
#include "matrix/generate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_import.hpp"
#include "tuner/tuning_table.hpp"

namespace tiledqr {
namespace {

using namespace std::string_literals;
using json::Value;

int stress_factor() { return env_flag("TILEDQR_STRESS") ? 10 : 1; }

std::vector<obs::TrackSnapshot> import(const std::string& text) {
  std::istringstream in(text);
  return obs::import_chrome_json(in);
}

/// A trace holding one complete event whose field `field` (a top-level key
/// such as "tid", or an args key such as "i") reads `value`.
std::string one_event_trace(const std::string& field, const std::string& value) {
  auto put = [&](const char* key, const char* fallback) {
    return "\"" + std::string(key) + "\":" + (field == key ? value : std::string(fallback));
  };
  return "{\"traceEvents\":[{\"name\":\"GEQRT\",\"ph\":\"X\"," + put("tid", "1") + "," +
         put("ts", "1.5") + "," + put("dur", "2") + ",\"args\":{" + put("i", "0") + "," +
         put("piv", "-1") + "," + put("k", "0") + "," + put("j", "-1") + "," +
         put("task", "0") + "," + put("sub", "7") + "," + put("component", "1") +
         ",\"stolen\":0}}]}";
}

// ------------------------------------------------------------------ reader

TEST(JsonReader, ParsesEveryValueKind) {
  const Value v = json::parse(
      " {\"a\": [1, -0, 2.5e3, 1E-2, 0.125], \"b\": {\"t\": true, \"f\": false, \"n\": null},"
      "\r\n\t\"s\": \"x\\\"\\\\\\/\\b\\f\\n\\r\\t\\u0041\"} ",
      "test");
  ASSERT_EQ(v.type, Value::Type::Object);
  const Value& a = *v.find("a");
  ASSERT_EQ(a.array.size(), 5u);
  EXPECT_EQ(a.array[0].number, 1.0);
  EXPECT_TRUE(std::signbit(a.array[1].number));
  EXPECT_EQ(a.array[2].number, 2500.0);
  EXPECT_EQ(a.array[3].number, 0.01);
  EXPECT_EQ(a.array[4].number, 0.125);
  const Value& b = *v.find("b");
  EXPECT_TRUE(b.find("t")->boolean);
  EXPECT_EQ(b.find("f")->type, Value::Type::Bool);
  EXPECT_FALSE(b.find("f")->boolean);
  EXPECT_EQ(b.find("n")->type, Value::Type::Null);
  EXPECT_EQ(v.find("s")->string, "x\"\\/\b\f\n\r\tA");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(a.find("a"), nullptr);  // not an object
  EXPECT_EQ(json::parse("7", "test").number, 7.0);  // any value is a document
}

TEST(JsonReader, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(json::parse("\"\\u00e9\"", "test").string, "\xc3\xa9");
  EXPECT_EQ(json::parse("\"\\u20AC\"", "test").string, "\xe2\x82\xac");
  EXPECT_EQ(json::parse("\"\\ud83d\\ude00\"", "test").string, "\xf0\x9f\x98\x80");
  EXPECT_EQ(json::parse("\"\\u0000\"", "test").string, "\0"s);
  // Raw bytes >= 0x80 pass through as they are.
  EXPECT_EQ(json::parse("\"\xff\xc3\xa9\"", "test").string, "\xff\xc3\xa9");
}

TEST(JsonReader, DuplicateKeysLastOneWins) {
  const Value v = json::parse("{\"k\": 1, \"k\": {\"x\": 2}, \"j\": 3}", "test");
  ASSERT_EQ(v.object.size(), 2u);
  EXPECT_EQ(v.find("k")->find("x")->number, 2.0);
}

TEST(JsonReader, NestingLimitIsExact) {
  auto nested = [](int depth) {
    return std::string(std::size_t(depth), '[') + std::string(std::size_t(depth), ']');
  };
  EXPECT_NO_THROW((void)json::parse(nested(json::kMaxDepth), "test"));
  EXPECT_THROW((void)json::parse(nested(json::kMaxDepth + 1), "test"), Error);
}

TEST(JsonReader, RejectsMalformedAndOutOfRangeInput) {
  const std::vector<std::string> bad = {
      // Deep nesting, bare signs, overflow, stray dots, raw control bytes and
      // bad \u escapes.
      std::string(200000, '['), "-", "1e999", "-1e999", "1.2.3", "+1", "\"a\x01z\"",
      "\"\\u12\"", "\"\\ud800\"",
      // Numbers off the grammar or out of a double's range.
      "01", "1.", ".5", "1e", "1e+", "-a", "0x10", "1e-400", "NaN", "Infinity",
      // Surrogates, escapes and strings.
      "\"\\udc00\"", "\"\\ud800\\u0041\"", "\"\\ud800x\"", "\"\\uZZZZ\"", "\"\\x\"", "\"abc",
      "\"tab\there\"", "'single'",
      // Structure and literals.
      "", " ", "[1,]", "[,1]", "{\"a\" 1}", "{\"a\":1,}", "{1:2}", "[1 2]", "tru", "nul",
      "True", "[1]]", "{} {}", "\xef\xbb\xbf{}",
      // Whitespace beyond JSON's four characters.
      "\f[]", "[\v]", "[]\x0b", "[\xc2\xa0]",
  };
  for (const std::string& text : bad) {
    EXPECT_THROW((void)json::parse(text, "test"), Error) << "accepted: " << text.substr(0, 40);
  }
}

TEST(JsonReader, ErrorsNameContextAndOffset) {
  try {
    (void)json::parse("[1, 2,]", "tuning table JSON");
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tuning table JSON: "), std::string::npos) << what;
    EXPECT_NE(what.find("at offset 6"), std::string::npos) << what;
  }
}

TEST(JsonReader, IntegerAccessorChecksFractionAndRange) {
  auto num = [](double d) {
    Value v;
    v.type = Value::Type::Number;
    v.number = d;
    return v;
  };
  EXPECT_EQ(json::integer<int>(num(-2147483648.0), "test", "f"), -2147483647 - 1);
  EXPECT_EQ(json::integer<int>(num(2147483647.0), "test", "f"), 2147483647);
  EXPECT_EQ(json::integer<std::uint32_t>(num(4294967295.0), "test", "f"), 4294967295u);
  EXPECT_EQ(json::integer<long>(num(-9.2e18), "test", "f"), -9200000000000000000L);
  EXPECT_THROW((void)json::integer<int>(num(2147483648.0), "test", "f"), Error);
  EXPECT_THROW((void)json::integer<int>(num(-2147483649.0), "test", "f"), Error);
  EXPECT_THROW((void)json::integer<std::uint32_t>(num(-1.0), "test", "f"), Error);
  EXPECT_THROW((void)json::integer<std::uint32_t>(num(4294967296.0), "test", "f"), Error);
  EXPECT_THROW((void)json::integer<long>(num(9223372036854775808.0), "test", "f"), Error);
  EXPECT_THROW((void)json::integer<int>(num(1e300), "test", "f"), Error);
  EXPECT_THROW((void)json::integer<int>(num(1.5), "test", "f"), Error);
  EXPECT_THROW((void)json::integer<int>(json::parse("\"1\"", "test"), "test", "f"), Error);
  try {
    (void)json::integer<std::int32_t>(num(1e300), "trace import", "tid");
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("trace import: field \"tid\""), std::string::npos)
        << e.what();
  }
}

// --------------------------------------------------------------- escaper

TEST(JsonQuote, EscapesQuoteBackslashAndControlBytes) {
  EXPECT_EQ(json::quote("plain/text é"), "\"plain/text é\"");
  EXPECT_EQ(json::quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json::quote("\n\t\r\x01\x1f\0"s), "\"\\n\\t\\r\\u0001\\u001f\\u0000\"");
}

TEST(JsonQuote, RoundTripsRandomByteStrings) {
  std::mt19937_64 rng(0x15011);
  const int rounds = 2000 * stress_factor();
  for (int r = 0; r < rounds; ++r) {
    std::string s(rng() % 64, '\0');
    for (char& c : s) c = char(rng() & 0xFF);
    const std::string quoted = json::quote(s);
    for (std::size_t i = 0; i < quoted.size(); ++i)
      ASSERT_GE(static_cast<unsigned char>(quoted[i]), 0x20u) << "round " << r;
    ASSERT_EQ(json::parse(quoted, "round trip").string, s) << "round " << r;
  }
}

// ------------------------------------------------------ users of the module

TEST(JsonUsers, HostileInputsThrowErrorFromEveryEntryPoint) {
  // Each verified hostile value, bare and as the "tid" or "ts" of an event.
  std::vector<std::string> docs = {std::string(200000, '[')};
  for (const char* value : {"-", "1e999", "1.2.3", "+1", "\"\x01\"", "\"\\u12\"", "\"\\ud800\""}) {
    docs.push_back(value);
    docs.push_back(one_event_trace("tid", value));
    docs.push_back(one_event_trace("ts", value));
  }
  for (const std::string& doc : docs) {
    EXPECT_THROW((void)json::parse(doc, "test"), Error) << doc.substr(0, 60);
    EXPECT_THROW((void)tuner::TuningTable::from_json(doc), Error) << doc.substr(0, 60);
    EXPECT_THROW((void)import(doc), Error) << doc.substr(0, 60);
  }
}

TEST(JsonUsers, TraceImportChecksIntegerFields) {
  const auto base = import(one_event_trace("", ""));
  ASSERT_EQ(base.size(), 1u);
  ASSERT_EQ(base[0].events.size(), 1u);
  EXPECT_EQ(base[0].tid, 1);
  EXPECT_EQ(base[0].events[0].submission, 7u);
  EXPECT_EQ(base[0].events[0].start_ns, 1500);
  EXPECT_EQ(base[0].events[0].end_ns, 3500);

  for (const char* field : {"tid", "i", "piv", "k", "j", "task", "sub"}) {
    // Out of range of the TraceEvent member: an Error, never an undefined cast.
    EXPECT_THROW((void)import(one_event_trace(field, "1e300")), Error) << field;
    EXPECT_THROW((void)import(one_event_trace(field, "4294967296")), Error) << field;
    EXPECT_THROW((void)import(one_event_trace(field, "0.5")), Error) << field;
    // Not a number: today's default, so foreign traces still import.
    const auto foreign = import(one_event_trace(field, "\"main\""));
    ASSERT_EQ(foreign.size(), 1u) << field;
    EXPECT_EQ(foreign[0].events.size(), 1u) << field;
  }
  EXPECT_THROW((void)import(one_event_trace("sub", "-1")), Error);
  EXPECT_EQ(import(one_event_trace("i", "2147483647"))[0].events[0].i, 2147483647);
  EXPECT_EQ(import(one_event_trace("tid", "\"main\""))[0].tid, 0);
  EXPECT_EQ(import(one_event_trace("task", "null"))[0].events[0].task, -1);
  // Timestamps whose nanoseconds would overflow start + duration.
  EXPECT_THROW((void)import(one_event_trace("ts", "1e300")), Error);
  EXPECT_THROW((void)import(one_event_trace("dur", "-1e17")), Error);
}

TEST(JsonUsers, MetricsDumpEscapesStreamLabels) {
  const std::string label = "a\nb\"c\x01";
  core::QrSession session(core::QrSession::Config{.threads = 1});
  core::QrSession::StreamOptions sopt;
  sopt.nb = 16;
  sopt.ib = 8;
  sopt.label = label;
  auto stream = session.stream<double>(sopt);
  auto a = random_matrix<double>(32, 16, 0x16);
  (void)stream.push(ConstMatrixView<double>(a.view())).get();
  stream.drain();

  const std::string dump = obs::MetricsRegistry::global().snapshot().to_json();
  const Value doc = json::parse(dump, "metrics dump");
  const Value* pushed = doc.find("stream." + label + ".pushed");
  ASSERT_NE(pushed, nullptr) << dump;
  EXPECT_EQ(pushed->number, 1.0);
}

// ------------------------------------------------------- mutation testing

/// One JSON document of each format the library writes: a tuning table, a
/// trace export and a metrics dump, each carrying a hostile name.
std::vector<std::string> make_corpus() {
  const std::string hostile = "quote\" slash\\ nl\n tab\t ctrl\x01 nul\0 high\xff\xc3\xa9 done"s;

  tuner::TuningTable table;
  tuner::TunedDecision d;
  d.config = trees::TreeConfig{trees::TreeKind::PlasmaTree, trees::KernelFamily::TS, 3, 1};
  d.model_makespan = 41.25;
  d.measured_seconds = 0.0125;
  d.refined = true;
  table.record(20, 5, 8, hostile, d);
  table.record(8, 4, 2, "sc11", tuner::TunedDecision{}, kernels::FactorKind::LQ);

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.disable();
  tracer.clear();
  tracer.enable();
  tracer.set_thread_track_name(hostile);
  for (int e = 0; e < 6; ++e)
    tracer.record(1000 * e, 1000 * e + 750, std::uint8_t(e % 6), e, e - 1, e % 3, e - 2, e, 9,
                  e % 2 == 1);
  std::ostringstream trace;
  tracer.export_chrome_json(trace);
  tracer.disable();
  tracer.clear();

  obs::MetricsRegistry reg;
  reg.counter("requests." + hostile).add(12);
  reg.gauge("depth").set(-3);
  reg.histogram("latency").record_ns(123456);

  const std::vector<std::string> corpus = {table.to_json(), trace.str(),
                                           reg.snapshot().to_json()};
  // The unmutated documents are valid and load.
  EXPECT_EQ(tuner::TuningTable::from_json(corpus[0]).lookup(20, 5, 8, hostile), d);
  bool named = false;
  for (const auto& t : import(corpus[1])) named = named || t.name == hostile;
  EXPECT_TRUE(named);
  EXPECT_EQ(json::parse(corpus[2], "metrics dump").find("requests." + hostile)->number, 12.0);
  return corpus;
}

std::string mutate(const std::string& base, std::mt19937_64& rng) {
  std::string m = base;
  auto upto = [&rng](std::size_t n) { return std::size_t(rng() % (n + 1)); };
  switch (rng() % 4) {
    case 0:  // flip one to four bits
      for (int f = 1 + int(rng() % 4); f > 0 && !m.empty(); --f)
        m[upto(m.size() - 1)] ^= char(1u << (rng() % 8));
      break;
    case 1:  // truncate
      m.resize(upto(m.size()));
      break;
    case 2:  // delete a span
      m.erase(upto(m.size()), 1 + upto(15));
      break;
    default: {  // insert a '[' or '{' run, now and then far past the nesting limit
      const std::size_t run = rng() % 16 == 0 ? 200000 : 1 + upto(99);
      m.insert(upto(m.size()), run, rng() % 2 == 0 ? '[' : '{');
    }
  }
  return m;
}

/// Runs one entry point on a mutant: returning or throwing tiledqr::Error
/// passes; any other exception fails the test, naming seed and mutant.
template <class Call>
void expect_returns_or_error(const char* entry, std::uint64_t seed, int index, Call call) {
  try {
    call();
  } catch (const Error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << entry << " threw " << typeid(e).name() << " (" << e.what()
                  << ") on seed " << seed << ", mutant " << index;
  } catch (...) {
    ADD_FAILURE() << entry << " threw a non-std exception on seed " << seed << ", mutant "
                  << index;
  }
}

// A crash is no assertion, so while mutants run, a handler for the fatal
// signals names the mutant under test, then reinstalls the previous handler
// (the default, or a sanitizer's) and returns: the faulting instruction runs
// again and that handler takes it.
constexpr int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGFPE};
struct sigaction g_previous[std::size(kFatalSignals)];
volatile std::sig_atomic_t g_seed = 0;
volatile std::sig_atomic_t g_mutant = 0;

void write_stderr(const char* text, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(STDERR_FILENO, text, size);
    if (n <= 0) return;
    text += n;
    size -= std::size_t(n);
  }
}

void write_decimal(long v) {  // v >= 0
  char buf[24];
  char* p = buf + sizeof buf;
  do {
    *--p = char('0' + v % 10);
    v /= 10;
  } while (v != 0);
  write_stderr(p, std::size_t(buf + sizeof buf - p));
}

extern "C" void name_crashing_mutant(int sig) {
  static constexpr char kSeed[] = "\nJsonMutation: crashed on seed ";
  static constexpr char kMutant[] = ", mutant ";
  write_stderr(kSeed, sizeof kSeed - 1);
  write_decimal(g_seed);
  write_stderr(kMutant, sizeof kMutant - 1);
  write_decimal(g_mutant);
  write_stderr("\n", 1);
  for (std::size_t i = 0; i < std::size(kFatalSignals); ++i)
    if (kFatalSignals[i] == sig) ::sigaction(sig, &g_previous[i], nullptr);
}

/// Installs name_crashing_mutant for its lifetime. A stack overflow leaves
/// no stack to run a handler on, so it gets an alternate one unless a
/// sanitizer already set one up.
class CrashReporter {
 public:
  CrashReporter() {
    stack_t current{};
    ::sigaltstack(nullptr, &current);
    if ((current.ss_flags & SS_DISABLE) != 0) {
      stack_t alt{};
      alt.ss_sp = alt_stack_.data();
      alt.ss_size = alt_stack_.size();
      ::sigaltstack(&alt, nullptr);
    }
    struct sigaction action {};
    action.sa_handler = name_crashing_mutant;
    action.sa_flags = SA_ONSTACK;
    sigemptyset(&action.sa_mask);
    for (std::size_t i = 0; i < std::size(kFatalSignals); ++i)
      ::sigaction(kFatalSignals[i], &action, &g_previous[i]);
  }
  ~CrashReporter() {
    for (std::size_t i = 0; i < std::size(kFatalSignals); ++i)
      ::sigaction(kFatalSignals[i], &g_previous[i], nullptr);
  }
  CrashReporter(const CrashReporter&) = delete;
  CrashReporter& operator=(const CrashReporter&) = delete;

 private:
  static inline std::array<char, 1 << 16> alt_stack_{};
};

TEST(JsonMutation, EveryEntryPointReturnsOrThrowsError) {
  const std::vector<std::string> corpus = make_corpus();
  const int mutants = 300 * stress_factor();
  const CrashReporter reporter;
  // Three seeds per document, each seed used once, so (seed, mutant) names
  // one input.
  for (std::uint64_t seed = 1; seed <= 3 * corpus.size(); ++seed) {
    const std::string& base = corpus[(seed - 1) / 3];
    g_seed = std::sig_atomic_t(seed);
    std::mt19937_64 rng(seed);
    for (int index = 0; index < mutants; ++index) {
      g_mutant = index;
      const std::string m = mutate(base, rng);
      expect_returns_or_error("json::parse", seed, index,
                              [&] { (void)json::parse(m, "mutant"); });
      expect_returns_or_error("TuningTable::from_json", seed, index,
                              [&] { (void)tuner::TuningTable::from_json(m); });
      expect_returns_or_error("import_chrome_json", seed, index, [&] { (void)import(m); });
    }
  }
}

}  // namespace
}  // namespace tiledqr
